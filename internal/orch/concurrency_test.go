package orch

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/cluster"
)

// TestConcurrentProvisionDelete hammers the orchestrator from multiple
// goroutines. Some provisions legitimately fail when the OPS pool runs
// dry; the invariants are no panics, no double allocation, and a clean
// final state. Run with -race.
func TestConcurrentProvisionDelete(t *testing.T) {
	s, o := newOrch(t)
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
				dep, err := s.Provision(bg, spec)
				if err != nil {
					continue // pool exhaustion under contention is fine
				}
				if _, err := s.Apply(dep.ID, ChangeVersion()); err != nil {
					t.Errorf("Upgrade: %v", err)
				}
				if _, err := s.Delete(bg, dep.ID); err != nil {
					t.Errorf("Delete: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if activeCount(s) != 0 {
		t.Fatalf("active deployments leaked: %d", activeCount(s))
	}
	if !cluster.Disjoint(o.alloc.VCs()) || !o.slices.Disjoint() {
		t.Fatal("disjointness violated under concurrency")
	}
	if len(o.slices.Slices()) != 0 {
		t.Fatal("slices leaked")
	}
}

// TestConcurrentReads exercises the snapshot paths while mutators run:
// readers keep snapshots and read their bandwidth, in the spec and in
// the shared slice record, while the loop modifies and upgrades the
// chain and a goroutine repairs it. An edit that meets the repair's
// claim is refused with ErrBusy. Run with -race: an edit that wrote the
// live record outside the claim, or the slice a snapshot shares, races.
func TestConcurrentReads(t *testing.T) {
	s, o := newOrch(t)
	dep, err := s.Provision(bg, webSpec(t, "chain-1"))
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
				if d := s.Deployment(dep.ID); d == nil || d.Slice.BandwidthGbps <= 0 || d.Spec.BandwidthGbps <= 0 {
					t.Errorf("snapshot without a bandwidth: %+v", d)
					return
				}
				for _, d := range s.Deployments() {
					if d.Slice.BandwidthGbps <= 0 {
						t.Errorf("listed snapshot's slice has bandwidth %v", d.Slice.BandwidthGbps)
						return
					}
				}
				_ = activeCount(s)
				_ = o.ctrl.RuleCount()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Apply(dep.ID, ChangeRebuild()); err != nil && !errors.Is(err, ErrBusy) {
				t.Errorf("Repair: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := s.Apply(dep.ID, ChangeBandwidth(float64(i+1))); err != nil && !errors.Is(err, ErrBusy) {
			t.Fatalf("modify: %v", err)
		}
		if _, err := s.Apply(dep.ID, ChangeVersion()); err != nil && !errors.Is(err, ErrBusy) {
			t.Fatalf("upgrade: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}
