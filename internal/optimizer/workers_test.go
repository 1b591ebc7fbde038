package optimizer

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/topology"
)

// goroutineSampler records, from inside every re-protect task, how many
// goroutines exist while the task runs.
type goroutineSampler struct {
	*orch.Sharded
	max, calls atomic.Int64
}

func (g *goroutineSampler) ReProtectGroup(buf []orch.GroupOutcome, domain orch.FailureDomain, ids []orch.DeploymentID) []orch.GroupOutcome {
	g.calls.Add(1)
	for n := int64(runtime.NumGoroutine()); ; {
		if m := g.max.Load(); n <= m || g.max.CompareAndSwap(m, n) {
			break
		}
	}
	return g.Sharded.ReProtectGroup(buf, domain, ids)
}

// stormRound queues one storm round: a repair event per chain, spread
// over three failure domains, with the threshold low enough that all
// but the first coalesce into the domains' group tasks.
func stormRound(eng *Engine, deps []*orch.Deployment) {
	for i, dep := range deps {
		eng.OrchEvent(orch.Event{Kind: orch.EventRepairCompleted, Deployment: dep.ID,
			Action: orch.ActionSwapped, Domain: orch.FailureDomain{SRLGs: []int{i % 3}}})
	}
}

// settle lets goroutines that have finished their work exit, by count:
// it yields until NumGoroutine is at most want, at most 100 000 times.
func settle(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100000 && n > want; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// TestWarmWorkersStartNoGoroutines: the engine's task pool starts its
// workers with the first drain that has work for them and keeps them —
// 100 further storm-group drains run with no goroutine more than the
// pool had, sampled from inside every group task — and Stop ends them:
// the goroutine count returns to what it was before the engine existed.
func TestWarmWorkersStartNoGoroutines(t *testing.T) {
	s, _, deps := healthyFleet(t, 2, 12, 3)
	before := runtime.NumGoroutine()
	target := &goroutineSampler{Sharded: s}
	eng, err := New(target, Options{Workers: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	stormRound(eng, deps)
	eng.Drain()
	warm := settle(before + 3)
	if warm != before+3 {
		t.Fatalf("%d goroutines after the first drain, want %d: the pool's 3 workers on top of %d", warm, before+3, before)
	}
	target.max.Store(0)
	calls := target.calls.Load()
	for round := 0; round < 100; round++ {
		stormRound(eng, deps)
		if res := eng.Drain(); len(res) < 2 {
			t.Fatalf("round %d drained %d tasks, want a batch the pool can share", round, len(res))
		}
	}
	if got := target.calls.Load() - calls; got < 300 {
		t.Fatalf("%d group tasks ran in 100 rounds, want 3 a round", got)
	}
	if m := target.max.Load(); m > int64(warm) {
		t.Fatalf("a group task ran beside %d goroutines, the warm pool has %d: drains started goroutines", m, warm)
	}
	if n := settle(warm); n != warm {
		t.Fatalf("%d goroutines after 100 drains, %d before them", n, warm)
	}
	eng.Stop()
	if n := settle(before); n != before {
		t.Fatalf("%d goroutines after Stop, %d before the engine", n, before)
	}
	// A drain after Stop restarts the pool; Stop ends it again.
	stormRound(eng, deps)
	eng.Drain()
	eng.Stop()
	if n := settle(before); n != before {
		t.Fatalf("%d goroutines after the second Stop, %d before the engine", n, before)
	}
}

// nestingTarget drains the engine from inside every other re-protect
// task — a drain nested in a pool worker's task.
type nestingTarget struct {
	*orch.Sharded
	eng   *Engine
	calls atomic.Int64
}

func (n *nestingTarget) ReProtectGroup(buf []orch.GroupOutcome, domain orch.FailureDomain, ids []orch.DeploymentID) []orch.GroupOutcome {
	if n.calls.Add(1)%2 == 0 {
		n.eng.Drain()
	}
	return n.Sharded.ReProtectGroup(buf, domain, ids)
}

// TestConcurrentDrainsProtectEveryChain: link cuts and recoveries,
// drains from two goroutines, drains nested inside group tasks and
// direct ReProtectGroup calls over the whole fleet all run at once; none
// of them deadlocks on the pool, and once the cuts stop and a last drain
// runs, every chain is protected. Run under -race.
func TestConcurrentDrainsProtectEveryChain(t *testing.T) {
	s, topo, deps := healthyFleet(t, 2, 12, 4)
	target := &nestingTarget{Sharded: s}
	eng, err := New(target, Options{Workers: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer eng.Stop()
	target.eng = eng
	s.UpdateHooks(func(h *orch.Hooks) { h.Events = []orch.EventSink{eng} })
	ids := make([]orch.DeploymentID, len(deps))
	for i, dep := range deps {
		ids[i] = dep.ID
	}
	stop := make(chan struct{})
	var cutters, others sync.WaitGroup
	for w := 0; w < 2; w++ {
		cutters.Add(1)
		go func(w int) {
			defer cutters.Done()
			for round := 0; round < 20; round++ {
				dep := deps[(w+2*round)%len(deps)]
				l, ok := primaryTransit(topo, s.Deployment(dep.ID))
				if !ok {
					continue
				}
				_, _ = s.HandleFailures(bg, topology.NewFailures(nil, []topology.LinkID{l}))
				if err := s.Recover(topology.NewFailures(nil, []topology.LinkID{l})); err != nil {
					t.Errorf("Recover: %v", err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		others.Add(1)
		go func() {
			defer others.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				eng.Drain()
			}
		}()
	}
	others.Add(1)
	go func() {
		defer others.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.ReProtectGroup(nil, orch.FailureDomain{SRLGs: []int{9}}, ids)
		}
	}()
	cutters.Wait()
	close(stop)
	others.Wait()
	eng.Drain()
	for _, id := range ids {
		if dep := s.Deployment(id); dep.Standby == nil {
			t.Errorf("chain %d ends unprotected", id)
		}
	}
}
