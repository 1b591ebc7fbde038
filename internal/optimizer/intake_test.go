package optimizer

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/nfv"
	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/topology"
)

// healthyFleet provisions n chains over the benchmark's fabric shape
// (every machine dual-homed, every ToR wired to every OPS) with λ0 taken
// on every other boundary link, so chains hold wavelengths 0 and 1. Every
// chain is born with a standby, disjoint where the fabric allows (three
// chains' fabric allows none on seeds 9, 12, 13 and 19); re-protection is
// deferred.
func healthyFleet(t testing.TB, shards, n int, seed int64) (*orch.Sharded, *topology.Topology, []*orch.Deployment) {
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
	s, err := orch.New(orch.Config{Topo: topo, Wavelengths: 8, DeferReprotect: true}, shards, orch.ShardByTenant)
	if err != nil {
		t.Fatalf("orch.New: %v", err)
	}
	var blocked []topology.LinkID
	for _, l := range topo.Links() {
		if l.Kind == topology.LinkBoundary && l.ID%2 == 0 {
			blocked = append(blocked, l.ID)
		}
	}
	if _, err := s.WDM().AssignPath("blocker", blocked); err != nil {
		t.Fatalf("AssignPath blocker: %v", err)
	}
	deps := make([]*orch.Deployment, n)
	for i := range deps {
		spec, err := chain.Linear(fmt.Sprintf("c%d", i), fmt.Sprintf("t%d", i%7), "web", 1, 1<<20, "firewall", "nat")
		if err != nil {
			t.Fatalf("Linear: %v", err)
		}
		if deps[i], err = s.Provision(bg, spec); err != nil {
			t.Fatalf("Provision %d: %v", i, err)
		}
	}
	return s, topo, deps
}

// primaryTransit returns the link on which the chain's primary path
// enters its first OPS: a link of the chain's own slice, so cutting it
// repairs this chain and at most the standbys of a few others. A path
// that stays under one ToR has none. The link may already be down — a
// concurrent cut took it after the deployment was read — because its
// liveness is the orchestrator's to read, under its topology lock.
func primaryTransit(topo *topology.Topology, dep *orch.Deployment) (topology.LinkID, bool) {
	i := slices.IndexFunc(dep.Path, func(n topology.NodeID) bool { return topo.Node(n).Kind == topology.KindOPS })
	if i < 1 {
		return 0, false
	}
	return topo.HopLink(dep.Path[i-1], dep.Path[i])
}

// cutPrimary cuts the chain's primaryTransit link and recovers it: with a
// standby the chain is swapped, without one repathed; either way it ends
// up unprotected unless whileDown re-protects it.
func cutPrimary(t testing.TB, s *orch.Sharded, topo *topology.Topology, id orch.DeploymentID, whileDown func()) {
	t.Helper()
	l, ok := primaryTransit(topo, s.Deployment(id))
	if !ok {
		return
	}
	_, _ = s.HandleFailures(bg, topology.NewFailures(nil, []topology.LinkID{l}))
	if whileDown != nil {
		whileDown()
	}
	if err := s.Recover(topology.NewFailures(nil, []topology.LinkID{l})); err != nil {
		t.Fatalf("Recover: %v", err)
	}
}

// mixedFleet damages half of a healthy fleet, one seeded outage per
// victim, with deferred re-protection on: a cut primary link (swapped),
// a dead slice OPS (patched) or a dead server an NF was moved onto
// (replaced). Half of the victims are re-protected, the link victims
// while their link is still down. The fleet ends up with disjoint,
// degraded and missing standbys, drifted and undrifted chains in every
// combination, and wavelengths 0 and 1.
func mixedFleet(t *testing.T, shards, n int, seed int64) *orch.Sharded {
	t.Helper()
	s, topo, deps := healthyFleet(t, shards, n, seed)
	rng := rand.New(rand.NewSource(seed))
	// A server that hosts neither endpoint VM: its death replaces the NFs
	// on it and rebuilds nobody.
	pms := topo.NodeIDs(topology.KindPhysicalMachine)
	spare := pms[len(pms)/2]
	for _, dep := range deps {
		reprotect := func() {}
		if rng.Intn(2) == 0 {
			reprotect = func() { s.ReProtectGroup(nil, orch.FailureDomain{}, []orch.DeploymentID{dep.ID}) }
		}
		switch rng.Intn(6) {
		case 0:
			cutPrimary(t, s, topo, dep.ID, reprotect)
			continue
		case 1:
			victim := dep.Slice.OPSs[rng.Intn(len(dep.Slice.OPSs))]
			_, _ = s.HandleFailures(bg, topology.NewFailures([]topology.NodeID{victim}, nil))
			if err := s.Recover(topology.NewFailures([]topology.NodeID{victim}, nil)); err != nil {
				t.Fatalf("Recover: %v", err)
			}
		case 2:
			if _, err := s.Apply(dep.ID, orch.ChangeHost(rng.Intn(2), spare)); err != nil {
				t.Fatalf("move: %v", err)
			}
			_, _ = s.HandleFailures(bg, topology.NewFailures([]topology.NodeID{spare}, nil))
			if err := s.Recover(topology.NewFailures([]topology.NodeID{spare}, nil)); err != nil {
				t.Fatalf("Recover: %v", err)
			}
		default:
			continue
		}
		reprotect()
	}
	return s
}

// queuedKeys drains the engine's queue without running anything and
// returns the task keys in dispatch order (round by round, each in kind
// then FIFO order); the claimed groups are dropped.
func queuedKeys(e *Engine) []taskKey {
	var keys []taskKey
	for batch := e.popBatch(nil); len(batch) > 0; batch = e.popBatch(nil) {
		for _, g := range batch {
			keys = append(keys, g.key)
			g.free()
		}
	}
	return keys
}

// TestIntakeEqualsDeploymentsRule: the tasks a recovery event queues from
// the owed index, and an idle tick from the fleet sweep, are the ones the
// rule — restated here over the Deployments() deep copy as the oracle —
// queues, in the same order, on one shard and on four: a recovery owes a
// refresh to every chain without a disjoint standby and a re-home to
// every drifted one; a tick owes the refresh, a re-home to everyone and a
// defrag to every chain above wavelength 0.
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
			var refresh, rehome, both, defrag int
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
					owesRefresh := dep.Standby == nil || !dep.Standby.Disjoint
					if owesRefresh {
						want.Enqueue(dep.ID, KindRefresh)
					}
					switch {
					case recovery && dep.Drifted:
						want.Enqueue(dep.ID, KindRehome)
						rehome++
						if owesRefresh {
							both++
						}
					case recovery && owesRefresh:
						refresh++
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
			// Chains owed only a refresh, only a re-home, both, and nothing.
			if refresh == 0 || rehome == both || both == 0 || refresh+rehome >= 40 || defrag == 0 || defrag == 40 {
				t.Fatalf("shards=%d seed=%d: fleet not mixed (refresh only %d, re-home %d, of them both %d, defrag %d)",
					shards, seed, refresh, rehome, both, defrag)
			}
		}
	}
}

// TestDriftLifecycle follows the Drifted flag through one chain's life:
// a swap and a re-path leave it clear (no instance moved), a server
// failure that replaces an NF sets it, the next recovery queues exactly
// one re-home for the chain, the re-home that brings the NF back to its
// optical host clears it, and the recovery after that queues nothing.
func TestDriftLifecycle(t *testing.T) {
	s, topo, deps := healthyFleet(t, 1, 3, 1)
	eng, err := New(s, Options{})
	if err != nil {
		t.Fatalf("optimizer.New: %v", err)
	}
	s.UpdateHooks(func(h *orch.Hooks) { h.Events = []orch.EventSink{eng} })
	i := slices.IndexFunc(deps, func(d *orch.Deployment) bool { return d.Placement.Conversions == 0 })
	if i < 0 {
		t.Fatal("no chain of the fleet was born all-optical")
	}
	id, home := deps[i].ID, deps[i].Placement.Hosts[0]
	get := func() *orch.Deployment { return s.Deployment(id) }
	// cut fails the link the primary enters its OPS on and wants the
	// chain repaired by the given action, not drifted by it.
	cut := func(want orch.RepairAction) topology.LinkID {
		t.Helper()
		l, ok := primaryTransit(topo, get())
		reports, err := s.HandleFailures(bg, topology.NewFailures(nil, []topology.LinkID{l}))
		if !ok || err != nil {
			t.Fatalf("HandleFailures: %v", err)
		}
		for _, rep := range reports {
			if rep.ID == id && rep.Action == want && !get().Drifted {
				return l
			}
		}
		t.Fatalf("cut of link %d: reports %+v, drifted %v; want chain %d %s and not drifted", l, reports, get().Drifted, id, want)
		return 0
	}
	// queued empties the queue and returns this chain's tasks.
	queued := func() []taskKey {
		return slices.DeleteFunc(queuedKeys(eng), func(k taskKey) bool { return k.dep != id })
	}
	heal := func(l topology.LinkID) {
		t.Helper()
		if err := s.Recover(topology.NewFailures(nil, []topology.LinkID{l})); err != nil {
			t.Fatalf("Recover: %v", err)
		}
	}

	// Swapped, then — the standby consumed and not replanned — repathed:
	// paths change, instances stay. Each recovery owes the unprotected
	// chain a refresh and no re-home.
	l := cut(orch.ActionSwapped)
	queued()
	heal(l)
	if got := queued(); !slices.Equal(got, []taskKey{{dep: id, kind: KindRefresh}}) {
		t.Fatalf("recovery over a swapped chain queued %v, want its refresh", got)
	}
	l = cut(orch.ActionRepathed)
	queued()
	heal(l)
	if got := queued(); !slices.Equal(got, []taskKey{{dep: id, kind: KindRefresh}}) {
		t.Fatalf("recovery over a repathed chain queued %v, want its refresh", got)
	}

	// An operator move is not drift; the server's death under the NF is.
	// The optical host is full at that moment, so the NF lands on another
	// server, one conversion from home.
	pms := topo.NodeIDs(topology.KindPhysicalMachine)
	spare := pms[len(pms)/2] // hosts neither endpoint VM
	if _, err := s.Apply(id, orch.ChangeHost(0, spare)); err != nil {
		t.Fatalf("move: %v", err)
	}
	if get().Drifted {
		t.Fatal("an operator move set the drifted flag")
	}
	mgr := s.Manager()
	var fillers []nfv.InstanceID
	for inst, err := mgr.Create(nfv.Firewall, home); err == nil; inst, err = mgr.Create(nfv.Firewall, home) {
		fillers = append(fillers, inst.ID)
	}
	if reports, err := s.HandleFailures(bg, topology.NewFailures([]topology.NodeID{spare}, nil)); err != nil || len(reports) != 1 || reports[0].Action != orch.ActionReplaced {
		t.Fatalf("server failure: reports %+v, %v; want the chain replaced", reports, err)
	}
	if dep := get(); !dep.Drifted || dep.Placement.Conversions != 1 {
		t.Fatalf("replaced chain: drifted %v, conversions %d; want drifted on a server", dep.Drifted, dep.Placement.Conversions)
	}
	// While the optical host is full the repair's own re-home finds
	// nothing better, and above score 0 the flag stays.
	for _, res := range eng.Drain() {
		if res.Kind == KindRehome.String() && res.Outcome != "no-improvement" {
			t.Fatalf("re-home against a full optical host: %+v", res)
		}
	}
	if dep := get(); !dep.Drifted || !dep.Standby.Disjoint {
		t.Fatalf("after the drain: drifted %v, standby %+v; want drifted and protected", dep.Drifted, dep.Standby)
	}
	for _, f := range fillers {
		if err := mgr.Terminate(f); err != nil {
			t.Fatalf("Terminate filler: %v", err)
		}
	}
	if err := s.Recover(topology.NewFailures([]topology.NodeID{spare}, nil)); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := queued(); !slices.Equal(got, []taskKey{{dep: id, kind: KindRehome}}) {
		t.Fatalf("recovery over a protected, drifted chain queued %v, want exactly its re-home", got)
	}
	eng.Enqueue(id, KindRehome)
	rehomed := false
	for _, res := range eng.Drain() {
		rehomed = rehomed || (res.Deployment == id && res.Outcome == "rehomed")
	}
	if dep := get(); !rehomed || dep.Drifted || dep.Placement.Hosts[0] != home || dep.Placement.Conversions != 0 {
		t.Fatalf("after the re-home: rehomed %v, drifted %v, host %d (home %d), conversions %d",
			rehomed, dep.Drifted, dep.Placement.Hosts[0], home, dep.Placement.Conversions)
	}
	eng.OrchEvent(orch.Event{Kind: orch.EventNodeRecovered})
	if got := queued(); len(got) != 0 {
		t.Fatalf("recovery over a chain that is home and protected queued %v", got)
	}
}

// TestRecoveryIntakeAllocsDoNotGrowWithFleet: a recovery event over a healthy
// fleet queues nothing and allocates nothing, at 40 chains and at 160;
// with k chains owed among 160 the intake reads exactly those k.
func TestRecoveryIntakeAllocsDoNotGrowWithFleet(t *testing.T) {
	ev := orch.Event{Kind: orch.EventLinkRecovered}
	for _, chains := range []int{40, 160} {
		s, topo, deps := healthyFleet(t, 4, chains, 1)
		eng, err := New(s, Options{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if allocs := testing.AllocsPerRun(20, func() { eng.OrchEvent(ev) }); allocs != 0 || eng.Status().QueueDepth != 0 {
			t.Fatalf("%d healthy chains: a recovery event allocates %.0f and queues %d tasks, want 0 and 0",
				chains, allocs, eng.Status().QueueDepth)
		}
		if chains != 160 {
			continue
		}
		for v := 1; v <= 8; v++ {
			cutPrimary(t, s, topo, deps[17*v].ID, nil)
			k := 0
			for _, dep := range s.Deployments() {
				if dep.Standby == nil || !dep.Standby.Disjoint || dep.Drifted {
					k++
				}
			}
			eng.OrchEvent(ev)
			if k < v || k > 3*v || len(eng.sweepBuf) != k || eng.Status().QueueDepth != k {
				t.Fatalf("%d cuts, %d chains owed among %d: the intake read %d and %d are queued",
					v, k, chains, len(eng.sweepBuf), eng.Status().QueueDepth)
			}
		}
		if allocs := testing.AllocsPerRun(20, func() { eng.OrchEvent(ev) }); allocs != 0 {
			t.Fatalf("a repeated recovery event over 8 owed chains allocates %.0f, want 0", allocs)
		}
	}
}

// BenchmarkRecoveryIntake times one recovery event after 8 cuts (one
// storm round's victims, each owed a refresh) in fleets of 160 and 1600:
// the event costs the victims, whatever the fleet.
func BenchmarkRecoveryIntake(b *testing.B) {
	for _, chains := range []int{160, 1600} {
		b.Run(fmt.Sprintf("fleet=%d", chains), func(b *testing.B) {
			s, topo, deps := healthyFleet(b, 4, chains, 1)
			eng, err := New(s, Options{})
			if err != nil {
				b.Fatalf("New: %v", err)
			}
			for v := 1; v <= 8; v++ {
				cutPrimary(b, s, topo, deps[17*v].ID, nil)
			}
			ev := orch.Event{Kind: orch.EventLinkRecovered}
			eng.OrchEvent(ev) // the first one fills the queue; the rest meet its dedup
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.OrchEvent(ev)
			}
			if depth := eng.Status().QueueDepth; depth < 8 || depth > 24 {
				b.Fatalf("%d tasks queued, want the victims' refreshes", depth)
			}
		})
	}
}

// TestResultLogKeepsNewestOldestFirst: the result ring overwrites in
// place, and Status still lists the last ResultLog outcomes oldest
// first.
func TestResultLogKeepsNewestOldestFirst(t *testing.T) {
	o, eng := engineOver(t, wideTopo(t, 12), Options{ResultLog: 4})
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
	eng, err := New(s, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.UpdateHooks(func(h *orch.Hooks) { h.Events = []orch.EventSink{eng} })
	deps := s.Deployments()
	active := activeCount(s)
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
			for _, err := s.Delete(bg, dep.ID); err != nil; _, err = s.Delete(bg, dep.ID) {
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
	if got := activeCount(s); deleted == 0 || got != active-deleted {
		t.Fatalf("%d chains active after %d deletes of %d", got, deleted, active)
	}
	if got := len(s.AppendChainHealth(nil, false)); got != activeCount(s) {
		t.Fatalf("sweep sees %d chains, %d active", got, activeCount(s))
	}
}
