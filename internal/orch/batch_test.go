package orch

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/cluster"
	"github.com/alvc/alvc/internal/topology"
)

// wideTopology generates a data center able to host many concurrent
// chains: every ToR sees every OPS so each AL collapses to one OPS
// (the pool then supports up to opsCount disjoint chains), and PM
// capacity is raised so VNF hosting never bottlenecks.
func wideTopology(t testing.TB, opsCount int) *topology.Topology {
	t.Helper()
	cfg := topology.DefaultGenConfig()
	cfg.Racks = 4
	cfg.PMsPerRack = 2
	cfg.VMsPerPM = 2
	cfg.OPSCount = opsCount
	cfg.ToRUplinks = opsCount
	cfg.OPSChords = 0
	cfg.Services = []string{"web"}
	cfg.PMCapacity = topology.Resources{CPUCores: 1 << 20, MemoryGB: 1 << 20, StorageGB: 1 << 20}
	topo, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return topo
}

func batchSpecs(t testing.TB, n int) []chain.Spec {
	t.Helper()
	specs := make([]chain.Spec, n)
	for i := range specs {
		spec, err := chain.Linear(fmt.Sprintf("chain-%d", i), fmt.Sprintf("tenant-%d", i%10),
			"web", 1.0, 1<<20, "firewall", "nat")
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		specs[i] = spec
	}
	return specs
}

func newWideOrch(t testing.TB, opsCount int) (*Sharded, *shard) {
	t.Helper()
	return newTestOrch(t, Config{Topo: wideTopology(t, opsCount)})
}

// TestProvisionBatch100 is the acceptance scenario: 100 independent
// specs in one batch, all provisioned, invariants intact.
func TestProvisionBatch100(t *testing.T) {
	s, o := newWideOrch(t, 128)
	specs := batchSpecs(t, 100)
	results := s.ProvisionBatch(specs)
	if len(results) != 100 {
		t.Fatalf("got %d results, want 100", len(results))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("spec %d failed: %v", i, res.Err)
		}
		if res.Index != i || res.Deployment == nil {
			t.Fatalf("result %d malformed: %+v", i, res)
		}
		if res.Deployment.Spec.Name != specs[i].Name {
			t.Fatalf("result %d is deployment %q, want %q", i, res.Deployment.Spec.Name, specs[i].Name)
		}
	}
	if n := activeCount(s); n != 100 {
		t.Fatalf("active count %d, want 100", n)
	}
	if !cluster.Disjoint(o.alloc.VCs()) {
		t.Fatal("ALs not disjoint after batch")
	}
	// Every deployment got its own flow rules.
	for _, res := range results {
		if len(o.ctrl.RulesForFlow(res.Deployment.FlowKey())) == 0 {
			t.Fatalf("no flow rules for %s", res.Deployment.FlowKey())
		}
	}
}

func TestProvisionBatchPartialFailure(t *testing.T) {
	// Pool of 8 OPSs: some of 20 specs must fail with capacity errors,
	// and the failures must not corrupt the successes.
	s, o := newWideOrch(t, 8)
	results := s.ProvisionBatch(batchSpecs(t, 20))
	ok, failed := 0, 0
	for _, res := range results {
		if res.Err != nil {
			failed++
		} else {
			ok++
		}
	}
	if ok == 0 || failed == 0 {
		t.Fatalf("expected a mix of outcomes over a tight pool, got %d ok / %d failed", ok, failed)
	}
	if got := activeCount(s); got != ok {
		t.Fatalf("active count %d != successful results %d", got, ok)
	}
	if !cluster.Disjoint(o.alloc.VCs()) {
		t.Fatal("ALs not disjoint after partial failure")
	}
}

func TestProvisionBatchDuplicateFlowKeys(t *testing.T) {
	s, _ := newWideOrch(t, 16)
	specs := batchSpecs(t, 3)
	specs[2].Name = specs[0].Name
	specs[2].Tenant = specs[0].Tenant
	results := s.ProvisionBatch(specs)
	if results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("unique specs failed: %v / %v", results[0].Err, results[1].Err)
	}
	if results[2].Err == nil {
		t.Fatal("duplicate flow key accepted")
	}
	if activeCount(s) != 2 {
		t.Fatalf("active count %d, want 2", activeCount(s))
	}
}

// TestConcurrentDeleteVsRepairExclusive drives Delete and Repair at
// the same deployment from many goroutines: the exclusive-operation
// guard must prevent double teardown, and the terminal state must be
// exactly one of deleted (with resources released) or active.
func TestConcurrentDeleteVsRepairExclusive(t *testing.T) {
	for round := 0; round < 5; round++ {
		s, o := newWideOrch(t, 16)
		dep, err := s.Provision(bg, batchSpecs(t, 1)[0])
		if err != nil {
			t.Fatalf("provision: %v", err)
		}
		done := make(chan error, 2)
		go func() { _, err := s.Delete(bg, dep.ID); done <- err }()
		go func() { _, err := s.Apply(dep.ID, ChangeRebuild()); done <- err }()
		<-done
		<-done
		switch got := s.Deployment(dep.ID); {
		case got == nil:
			// Delete won: the record is gone, a tombstone answers for it.
			if _, ok := s.Tombstone(dep.ID); !ok {
				t.Fatal("deleted deployment left no tombstone")
			}
			for _, vc := range o.alloc.VCs() {
				if vc.ID == dep.VC.ID {
					t.Fatalf("deleted deployment still owns VC %d", dep.VC.ID)
				}
			}
		case got.State == StateActive:
			// Repair won and Delete was rejected as busy — fine.
		default:
			t.Fatalf("unexpected terminal state %s", got.State)
		}
		if !cluster.Disjoint(o.alloc.VCs()) {
			t.Fatal("ALs not disjoint after delete/repair race")
		}
	}
}

// TestDuplicateFlowKeyAcrossCalls ensures the flow-key reservation
// spans separate Provision calls, not just one batch.
func TestDuplicateFlowKeyAcrossCalls(t *testing.T) {
	s, _ := newWideOrch(t, 16)
	spec := batchSpecs(t, 1)[0]
	first, err := s.Provision(bg, spec)
	if err != nil {
		t.Fatalf("first provision: %v", err)
	}
	if _, err := s.Provision(bg, spec); !errors.Is(err, ErrDuplicateChain) {
		t.Fatalf("second provision: got %v, want ErrDuplicateChain", err)
	}
	if _, err := s.Delete(bg, first.ID); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := s.Provision(bg, spec); err != nil {
		t.Fatalf("re-provision after delete: %v", err)
	}
}

func TestProvisionBatchEmpty(t *testing.T) {
	s, _ := newWideOrch(t, 4)
	if got := s.ProvisionBatch(nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

// TestProvisionBatchRunsInInputOrder: a batch provisions its specs one
// after another on the caller's goroutine, in input order. A stage
// observer sees each provision's first stage only after the previous
// provision's last, and a one-shard set issues the IDs in spec order,
// over two batches.
func TestProvisionBatchRunsInInputOrder(t *testing.T) {
	specs := batchSpecs(t, 48)
	s, _ := newWideOrch(t, 128)
	running, peak, started := 0, 0, 0
	s.UpdateHooks(func(h *Hooks) {
		h.Stage = func(stage string, _ time.Duration) {
			switch stage {
			case "cluster":
				running++
				started++
				peak = max(peak, running)
			case "rules":
				running--
			}
		}
	})
	next := DeploymentID(1)
	for round, batch := range [][]chain.Spec{specs[:24], specs[24:]} {
		for i, res := range s.ProvisionBatch(batch) {
			if res.Err != nil {
				t.Fatalf("batch %d: provision: %v", round, res.Err)
			}
			if res.Deployment.ID != next || res.Deployment.Spec.Name != batch[i].Name {
				t.Fatalf("batch %d spec %d: chain %d %q, want chain %d %q", round, i,
					res.Deployment.ID, res.Deployment.Spec.Name, next, batch[i].Name)
			}
			next++
		}
	}
	if peak != 1 || started != len(specs) {
		t.Fatalf("%d provisions observed, %d at once at peak; want %d, one at a time", started, peak, len(specs))
	}
}

func BenchmarkProvisionSequential100(b *testing.B) {
	specs := batchSpecs(b, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, _ := newWideOrch(b, 128)
		b.StartTimer()
		for _, spec := range specs {
			if _, err := s.Provision(bg, spec); err != nil {
				b.Fatalf("provision: %v", err)
			}
		}
	}
}

func BenchmarkProvisionBatch100(b *testing.B) {
	specs := batchSpecs(b, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, _ := newWideOrch(b, 128)
		b.StartTimer()
		for _, res := range s.ProvisionBatch(specs) {
			if res.Err != nil {
				b.Fatalf("batch: %v", res.Err)
			}
		}
	}
}
