package optimizer

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/topology"
)

// mixedFleet provisions n chains over the benchmark's fabric shape
// (every machine dual-homed, every ToR wired to every OPS) with λ0 taken
// on every other boundary link, then cuts a primary link of a seeded
// third of them with deferred re-protection on; half of those are
// re-protected while the link is still down. The fleet ends up with
// disjoint, degraded and missing standbys, repaired and unrepaired
// chains, and wavelengths 0 and 1.
func mixedFleet(t *testing.T, shards, n int, seed int64) *orch.Sharded {
	t.Helper()
	cfg := topology.DefaultGenConfig()
	cfg.Seed = seed
	cfg.Racks, cfg.PMsPerRack, cfg.VMsPerPM = 4, 2, 2
	cfg.OPSCount, cfg.ToRUplinks, cfg.OPSChords = 2*n, 2*n, 0
	cfg.DualHomeFrac = 1.0
	cfg.Services = []string{"web"}
	cfg.PMCapacity = topology.Resources{CPUCores: 1 << 20, MemoryGB: 1 << 20, StorageGB: 1 << 20}
	topo, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	s, err := orch.NewSharded(orch.Config{Topo: topo, Wavelengths: 8}, shards, orch.ShardByTenant)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	s.SetDeferReprotect(true)
	var blocked []topology.LinkID
	for _, l := range topo.Links() {
		if l.Kind == topology.LinkBoundary && l.ID%2 == 0 {
			blocked = append(blocked, l.ID)
		}
	}
	if _, err := s.Shard(0).WDM().AssignPath("blocker", blocked); err != nil {
		t.Fatalf("AssignPath blocker: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		spec, err := chain.Linear(fmt.Sprintf("c%d", i), fmt.Sprintf("t%d", i%7), "web", 1, 1<<20, "firewall", "nat")
		if err != nil {
			t.Fatalf("Linear: %v", err)
		}
		dep, err := s.Provision(spec)
		if err != nil {
			t.Fatalf("Provision %d: %v", i, err)
		}
		if rng.Intn(3) != 0 {
			continue
		}
		hop := 1 + rng.Intn(len(dep.Path)-3)
		l := topo.LinkBetween(dep.Path[hop], dep.Path[hop+1])
		_, _ = s.HandleLinkFailure(l.ID)
		if rng.Intn(2) == 0 {
			_, _, _ = s.ReProtect(dep.ID)
		}
		if err := s.RecoverLink(l.ID); err != nil {
			t.Fatalf("RecoverLink: %v", err)
		}
	}
	return s
}

// queuedKeys drains the engine's queues without running anything and
// returns the task keys in dispatch order (kind, shard, FIFO).
func queuedKeys(e *Engine) []taskKey {
	var out []taskKey
	for _, t := range e.popBatch() {
		out = append(out, t.key)
	}
	return out
}

// TestIntakeEqualsDeploymentsRule: the tasks a recovery event and an
// idle tick queue from the by-value sweep are the ones the rule they
// replaced — a filter over the Deployments() deep copy, kept here as the
// oracle — queues, in the same order, on one shard and on four.
func TestIntakeEqualsDeploymentsRule(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			s := mixedFleet(t, shards, 40, seed)
			newEngine := func() *Engine {
				e, err := New(s, Options{})
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				return e
			}
			var refresh, rehome, defrag int
			for _, recovery := range []bool{true, false} {
				got, want := newEngine(), newEngine()
				if recovery {
					got.OrchEvent(orch.Event{Kind: orch.EventLinkRecovered})
				} else {
					got.Tick()
				}
				for _, dep := range s.Deployments() {
					if dep.State != orch.StateActive {
						continue
					}
					if dep.Standby == nil || !dep.Standby.Disjoint {
						want.Enqueue(dep.ID, KindRefresh)
						refresh++
					}
					switch {
					case recovery && dep.Repairs > 0:
						want.Enqueue(dep.ID, KindRehome)
						rehome++
					case !recovery:
						want.Enqueue(dep.ID, KindRehome)
						if dep.Lambda > 0 {
							want.Enqueue(dep.ID, KindDefrag)
							defrag++
						}
					}
				}
				if g, w := queuedKeys(got), queuedKeys(want); !slices.Equal(g, w) {
					t.Fatalf("shards=%d seed=%d recovery=%v: queued\n %v\nwant\n %v", shards, seed, recovery, g, w)
				}
			}
			if refresh == 0 || rehome == 0 || defrag == 0 || refresh == 80 || defrag == 40 {
				t.Fatalf("shards=%d seed=%d: fleet not mixed (refresh %d, re-home %d, defrag %d)",
					shards, seed, refresh, rehome, defrag)
			}
		}
	}
}

// TestRecoveryIntakeAllocsDoNotGrowWithFleet: a recovery event reads
// the fleet through one reused summary buffer, so once that buffer has
// its size the event allocates the same small constant at 40 and at 160
// chains. Every chain here owes a refresh (no disjoint route exists), so
// each event walks the whole fleet into the queue's dedup.
func TestRecoveryIntakeAllocsDoNotGrowWithFleet(t *testing.T) {
	allocs := func(chains int) float64 {
		o, eng := engineOver(t, wideTopo(t, chains), Options{})
		for i := 0; i < chains; i++ {
			provision(t, o, fmt.Sprintf("chain-%d", i))
		}
		ev := orch.Event{Kind: orch.EventLinkRecovered}
		eng.OrchEvent(ev)
		if depth := eng.QueueDepth(); depth != chains {
			t.Fatalf("%d chains: recovery queued %d refreshes", chains, depth)
		}
		return testing.AllocsPerRun(20, func() { eng.OrchEvent(ev) })
	}
	small, large := allocs(40), allocs(160)
	if small != large || large > 2 {
		t.Fatalf("recovery event allocates %.0f at 40 chains and %.0f at 160, want equal and at most 2", small, large)
	}
}

// TestResultLogKeepsNewestOldestFirst: the result ring overwrites in
// place, and Status still lists the last ResultLog outcomes oldest
// first.
func TestResultLogKeepsNewestOldestFirst(t *testing.T) {
	o, eng := engineOver(t, wideTopo(t, 12), Options{Workers: 1, ResultLog: 4})
	var ids []orch.DeploymentID
	for i := 0; i < 10; i++ {
		ids = append(ids, provision(t, o, fmt.Sprintf("chain-%d", i)).ID)
	}
	for n, id := range ids {
		eng.Enqueue(id, KindRehome)
		eng.Drain()
		last := eng.Status().LastResults
		want := ids[max(0, n-3) : n+1]
		if len(last) != len(want) {
			t.Fatalf("after %d tasks the log holds %d results, want %d", n+1, len(last), len(want))
		}
		for i, res := range last {
			if res.Deployment != want[i] {
				t.Fatalf("after %d tasks result %d is of chain %d, want %d (%+v)", n+1, i, res.Deployment, want[i], last)
			}
		}
	}
}

// TestRecoveryStormVsDrainAndDeletes runs recovery events, idle ticks,
// drains and deletes against one sharded fleet at once: the sweep buffer,
// the queues and the shrinking deployment maps must stay race-free, and
// no task may fail for a reason other than its chain having gone.
func TestRecoveryStormVsDrainAndDeletes(t *testing.T) {
	s := mixedFleet(t, 4, 40, 5)
	eng, err := New(s, Options{Workers: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.SetEventSink(eng)
	deps := s.Deployments()
	active := s.ActiveCount()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%4 == 0 {
				eng.Tick()
			} else {
				eng.OrchEvent(orch.Event{Kind: orch.EventNodeRecovered})
			}
		}
	}()
	var failed []TaskResult
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, res := range eng.Drain() {
				if res.Outcome == "failed" {
					failed = append(failed, res)
				}
			}
		}
	}()
	deleted := 0
	go func() {
		defer wg.Done()
		defer close(stop)
		for i, dep := range deps {
			if i%2 == 0 || dep.State != orch.StateActive {
				continue
			}
			// ErrBusy: an optimizer task holds the chain; try again.
			for err := s.Delete(dep.ID); err != nil; err = s.Delete(dep.ID) {
				if !errors.Is(err, orch.ErrBusy) {
					t.Errorf("delete %d: %v", dep.ID, err)
					return
				}
			}
			deleted++
		}
	}()
	wg.Wait()
	eng.Drain()
	for _, res := range failed {
		t.Errorf("task failed during the storm: %+v", res)
	}
	if got := s.ActiveCount(); deleted == 0 || got != active-deleted {
		t.Fatalf("%d chains active after %d deletes of %d", got, deleted, active)
	}
	if got := len(s.AppendChainHealth(nil)); got != s.ActiveCount() {
		t.Fatalf("sweep sees %d chains, %d active", got, s.ActiveCount())
	}
}
