package orch

import (
	"fmt"
	"sync"
	"testing"

	"github.com/alvc/alvc/internal/chain"
)

// TestConcurrentProvisionDelete hammers the orchestrator from multiple
// goroutines. Some provisions legitimately fail when the OPS pool runs
// dry; the invariants are no panics, no double allocation, and a clean
// final state. Run with -race.
func TestConcurrentProvisionDelete(t *testing.T) {
	_, o := newOrch(t)
	services := []string{"web", "mapreduce", "sns"}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				spec, err := chain.Linear(
					fmt.Sprintf("c-%d-%d", g, i),
					fmt.Sprintf("tenant-%d", g),
					services[g%len(services)],
					1, 1<<20, "firewall")
				if err != nil {
					t.Errorf("Linear: %v", err)
					return
				}
				dep, err := o.Provision(bg, spec)
				if err != nil {
					continue // pool exhaustion under contention is fine
				}
				if err := o.Upgrade(dep.ID); err != nil {
					t.Errorf("Upgrade: %v", err)
				}
				if _, err := o.Delete(bg, dep.ID); err != nil {
					t.Errorf("Delete: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if o.ActiveCount() != 0 {
		t.Fatalf("active deployments leaked: %d", o.ActiveCount())
	}
	if !o.Allocator().Disjoint() || !o.Slices().Disjoint() {
		t.Fatal("disjointness violated under concurrency")
	}
	if len(o.Slices().Slices()) != 0 {
		t.Fatal("slices leaked")
	}
}

// TestConcurrentReads exercises the snapshot paths while mutators run.
func TestConcurrentReads(t *testing.T) {
	_, o := newOrch(t)
	dep, err := o.Provision(bg, webSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = o.Deployment(dep.ID)
				_ = o.Deployments()
				_ = o.ActiveCount()
				_ = o.Controller().RuleCount()
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if err := o.Modify(dep.ID, float64(i+1)); err != nil {
			t.Fatalf("Modify: %v", err)
		}
		if err := o.Upgrade(dep.ID); err != nil {
			t.Fatalf("Upgrade: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}
