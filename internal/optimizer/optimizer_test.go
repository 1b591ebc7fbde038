package optimizer

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/placement"
	"github.com/alvc/alvc/internal/topology"
)

// bg is what the package's tests pass where a request context goes.
var bg = context.Background()

// routeTopo builds a dual-rack topology with `routes` fully disjoint
// ToR/OPS routes between two PMs (latency 1+route, so route 0 is the
// primary and route 1 the standby), one web VM per PM — the same shape
// the orch package's triTopo uses, parameterized.
func routeTopo(t *testing.T, routes int) (*topology.Topology, []topology.NodeID, [][2]topology.NodeID) {
	t.Helper()
	topo := topology.New()
	big := topology.Resources{CPUCores: 64, MemoryGB: 256, StorageGB: 1024}
	pm1 := topo.AddPM(0, big)
	pm2 := topo.AddPM(1, big)
	if _, err := topo.AddVM(pm1, "web"); err != nil {
		t.Fatalf("AddVM: %v", err)
	}
	if _, err := topo.AddVM(pm2, "web"); err != nil {
		t.Fatalf("AddVM: %v", err)
	}
	opss := make([]topology.NodeID, routes)
	tors := make([][2]topology.NodeID, routes)
	for r := 0; r < routes; r++ {
		tors[r][0] = topo.AddToR(0)
		tors[r][1] = topo.AddToR(1)
		opss[r] = topo.AddOPS(true, topology.Resources{CPUCores: 4, MemoryGB: 8, StorageGB: 16})
		lat := float64(1 + r)
		link := func(a, b topology.NodeID, kind topology.LinkKind) {
			if _, err := topo.AddLink(a, b, kind, 10, lat); err != nil {
				t.Fatalf("AddLink: %v", err)
			}
		}
		link(pm1, tors[r][0], topology.LinkElectronic)
		link(pm2, tors[r][1], topology.LinkElectronic)
		link(tors[r][0], opss[r], topology.LinkBoundary)
		link(tors[r][1], opss[r], topology.LinkBoundary)
	}
	return topo, opss, tors
}

// wideTopo builds a topology where every ToR sees every OPS, so each
// chain's AL collapses to a single OPS and the pool supports opsCount
// concurrent chains (the multi-chain tests need disjoint ALs).
func wideTopo(t *testing.T, opsCount int) *topology.Topology {
	t.Helper()
	topo := topology.New()
	big := topology.Resources{CPUCores: 1 << 16, MemoryGB: 1 << 16, StorageGB: 1 << 16}
	pm1 := topo.AddPM(0, big)
	pm2 := topo.AddPM(1, big)
	if _, err := topo.AddVM(pm1, "web"); err != nil {
		t.Fatalf("AddVM: %v", err)
	}
	if _, err := topo.AddVM(pm2, "web"); err != nil {
		t.Fatalf("AddVM: %v", err)
	}
	t0 := topo.AddToR(0)
	t1 := topo.AddToR(1)
	if _, err := topo.AddLink(pm1, t0, topology.LinkElectronic, 10, 1); err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	if _, err := topo.AddLink(pm2, t1, topology.LinkElectronic, 10, 1); err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	for i := 0; i < opsCount; i++ {
		ops := topo.AddOPS(true, topology.Resources{CPUCores: 4, MemoryGB: 8, StorageGB: 16})
		if _, err := topo.AddLink(t0, ops, topology.LinkBoundary, 10, 1); err != nil {
			t.Fatalf("AddLink: %v", err)
		}
		if _, err := topo.AddLink(t1, ops, topology.LinkBoundary, 10, 1); err != nil {
			t.Fatalf("AddLink: %v", err)
		}
	}
	return topo
}

func engineOver(t *testing.T, topo *topology.Topology, opts Options) (*orch.Sharded, *Engine) {
	t.Helper()
	o, err := orch.New(orch.Config{Topo: topo, Policy: placement.AllElectronic{}, DeferReprotect: true}, 1, orch.ShardByTenant)
	if err != nil {
		t.Fatalf("orch.New: %v", err)
	}
	eng, err := New(o, opts)
	if err != nil {
		t.Fatalf("optimizer.New: %v", err)
	}
	o.UpdateHooks(func(h *orch.Hooks) { h.Events = []orch.EventSink{eng} })
	return o, eng
}

// newRig wires an orchestrator and an attached engine over a
// routes-wide topology.
func newRig(t *testing.T, routes int, opts Options) (*orch.Sharded, *Engine, []topology.NodeID, [][2]topology.NodeID) {
	t.Helper()
	topo, opss, tors := routeTopo(t, routes)
	o, eng := engineOver(t, topo, opts)
	return o, eng, opss, tors
}

func provision(t *testing.T, o *orch.Sharded, name string) *orch.Deployment {
	t.Helper()
	spec, err := chain.Linear(name, "tenant-a", "web", 1, 1<<20, "firewall")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	dep, err := o.Provision(bg, spec)
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	return dep
}

// activeCount sums the shards' active chains.
func activeCount(o *orch.Sharded) (n int) {
	for _, st := range o.ShardStats() {
		n += st.Active
	}
	return n
}

// standbyFallbacks sums the shards' whole-fabric standby fallbacks.
func standbyFallbacks(o *orch.Sharded) (n int64) {
	for _, st := range o.ShardStats() {
		n += st.StandbyFallbacks
	}
	return n
}

func pathHas(path []topology.NodeID, n topology.NodeID) bool {
	for _, p := range path {
		if p == n {
			return true
		}
	}
	return false
}

// TestRefreshEndToEnd is the ISSUE's recover-time refresh scenario:
// fail → swap (no standby search inline, standby consumed) → drain re-protects
// with the best the degraded topology allows (non-disjoint) → recover
// → the recovery event queues a refresh → drain → disjoint again.
func TestRefreshEndToEnd(t *testing.T) {
	o, eng, opss, tors := newRig(t, 2, Options{})
	dep := provision(t, o, "chain-1")
	if dep.Standby == nil || !dep.Standby.Disjoint {
		t.Fatalf("standby at provision = %+v, want disjoint", dep.Standby)
	}

	// Primary transit ToR dies (the OPSs are AL members and would
	// classify as a slice patch): swap, no standby search inline.
	victim := tors[0][0]
	hits, misses := o.ControllerOf(dep.ID).AlternativesCacheStats()
	reports, err := o.HandleFailures(bg, topology.NewFailures([]topology.NodeID{victim}, nil))
	if err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	if len(reports) != 1 || reports[0].Action != orch.ActionSwapped {
		t.Fatalf("reports = %+v, want swapped", reports)
	}
	if h, m := o.ControllerOf(dep.ID).AlternativesCacheStats(); h+m != hits+misses {
		t.Fatalf("swap asked %d standby searches", h+m-hits-misses)
	}
	if cur := o.Deployment(dep.ID); cur.Standby != nil {
		t.Fatalf("consumed standby still present: %+v", cur.Standby)
	}

	// Background drain: with route 0 still down, the only replan target
	// overlaps the (swapped) primary — protected but not disjoint.
	results := eng.Drain()
	if len(results) == 0 {
		t.Fatal("drain ran no tasks (repair event not enqueued?)")
	}
	afterDrain := o.Deployment(dep.ID)
	if afterDrain.Standby == nil {
		t.Fatal("drain did not re-protect the chain")
	}
	if afterDrain.Standby.Disjoint {
		t.Fatalf("standby disjoint with route 0 down: %+v", afterDrain.Standby)
	}

	// Recovery: the node-recovered event queues a refresh; the drained
	// refresh replans over the healed topology.
	if err := o.Recover(topology.NewFailures([]topology.NodeID{victim}, nil)); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if eng.Status().QueueDepth == 0 {
		t.Fatal("recovery event queued no refresh")
	}
	eng.Drain()
	final := o.Deployment(dep.ID)
	if final.Standby == nil || !final.Standby.Disjoint {
		t.Fatalf("standby after recovery drain = %+v, want disjoint", final.Standby)
	}
	if !pathHas(final.Standby.Path, opss[0]) {
		t.Fatalf("refreshed standby %v does not use the recovered route", final.Standby.Path)
	}
	st := eng.Status()
	if st.Kinds[KindRefresh.String()].Completed == 0 {
		t.Fatalf("no refresh task completed: %+v", st.Kinds)
	}
}

// TestDedupUnderBurst: a deployment hit by a burst of identical events
// is queued once per kind; the duplicates are counted, not executed.
func TestDedupUnderBurst(t *testing.T) {
	o, eng := engineOver(t, wideTopo(t, 6), Options{})
	dep := provision(t, o, "chain-1")
	for i := 0; i < 5; i++ {
		eng.OrchEvent(orch.Event{
			Kind:       orch.EventRepairCompleted,
			Deployment: dep.ID,
			Action:     orch.ActionSwapped,
		})
	}
	if depth := eng.Status().QueueDepth; depth != 1 {
		t.Fatalf("queue depth = %d, want 1 (deduplicated)", depth)
	}
	st := eng.Status()
	if st.Kinds[KindReProtect.String()].Deduped != 4 {
		t.Fatalf("deduped = %d, want 4", st.Kinds[KindReProtect.String()].Deduped)
	}
	results := eng.Drain()
	if len(results) != 1 {
		t.Fatalf("drain ran %d tasks, want 1", len(results))
	}
	// Rebuild-class repairs additionally queue a re-home.
	eng.OrchEvent(orch.Event{Kind: orch.EventRepairCompleted, Deployment: dep.ID, Action: orch.ActionRebuilt})
	eng.OrchEvent(orch.Event{Kind: orch.EventRepairCompleted, Deployment: dep.ID, Action: orch.ActionRebuilt})
	if depth := eng.Status().QueueDepth; depth != 2 {
		t.Fatalf("queue depth = %d, want 2 (re-protect + re-home)", depth)
	}
	eng.Drain()
}

// TestDeleteCancelsQueuedWork: deleting a deployment purges its queued
// tasks via the deployment-deleted event, and a task enqueued after
// the delete reports cancelled instead of failing.
func TestDeleteCancelsQueuedWork(t *testing.T) {
	o, eng := engineOver(t, wideTopo(t, 6), Options{})
	dep := provision(t, o, "chain-1")
	eng.Enqueue(dep.ID, KindReProtect)
	eng.Enqueue(dep.ID, KindRehome)
	if depth := eng.Status().QueueDepth; depth != 2 {
		t.Fatalf("queue depth = %d, want 2", depth)
	}
	if _, err := o.Delete(bg, dep.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if depth := eng.Status().QueueDepth; depth != 0 {
		t.Fatalf("queue depth after delete = %d, want 0 (purged)", depth)
	}
	st := eng.Status()
	if st.Kinds[KindReProtect.String()].Cancelled != 1 || st.Kinds[KindRehome.String()].Cancelled != 1 {
		t.Fatalf("cancelled counters = %+v", st.Kinds)
	}

	// Work enqueued after the fact observes the deletion at run time.
	eng.Enqueue(dep.ID, KindReProtect)
	results := eng.Drain()
	if len(results) != 1 || results[0].Outcome != "cancelled" {
		t.Fatalf("results = %+v, want one cancelled", results)
	}
}

// TestDrainVsDeleteRace: deployments deleted while a drain executes
// must surface as busy-requeues or cancellations, never panics or
// failures. Run with -race.
func TestDrainVsDeleteRace(t *testing.T) {
	o, eng := engineOver(t, wideTopo(t, 8), Options{})
	var deps []*orch.Deployment
	for i := 0; i < 4; i++ {
		deps = append(deps, provision(t, o, fmt.Sprintf("chain-%d", i)))
	}
	for _, dep := range deps {
		eng.Enqueue(dep.ID, KindReProtect)
		eng.Enqueue(dep.ID, KindRehome)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, dep := range deps {
			_, _ = o.Delete(bg, dep.ID)
		}
	}()
	results := eng.Drain()
	wg.Wait()
	for _, res := range results {
		switch res.Outcome {
		case "failed":
			t.Fatalf("task failed during delete race: %+v", res)
		}
	}
}

// TestTickIsStableOnHealthyFleet: idle ticks over a well-placed,
// protected fleet queue work that all resolves to no-ops — the
// hysteresis and already-protected guards prevent churn.
func TestTickIsStableOnHealthyFleet(t *testing.T) {
	o, eng, _, _ := newRig(t, 4, Options{})
	dep := provision(t, o, "chain-1")
	before := o.Deployment(dep.ID)
	for round := 0; round < 2; round++ {
		eng.Tick()
		for _, res := range eng.Drain() {
			switch res.Outcome {
			case "already-protected", "no-improvement", "no-op":
			default:
				t.Fatalf("tick round %d produced %+v on a healthy fleet", round, res)
			}
		}
	}
	after := o.Deployment(dep.ID)
	if fmt.Sprint(before.Placement.Hosts) != fmt.Sprint(after.Placement.Hosts) {
		t.Fatalf("hosts drifted under idle ticks: %v -> %v", before.Placement.Hosts, after.Placement.Hosts)
	}
	if fmt.Sprint(before.Path) != fmt.Sprint(after.Path) {
		t.Fatalf("path drifted under idle ticks: %v -> %v", before.Path, after.Path)
	}
}

// TestPauseResume: pause keeps the background loop from dispatching
// but never blocks an explicit drain.
func TestPauseResume(t *testing.T) {
	o, eng := engineOver(t, wideTopo(t, 6), Options{})
	dep := provision(t, o, "chain-1")
	eng.Pause()
	if !eng.Status().Paused {
		t.Fatal("not paused")
	}
	eng.Enqueue(dep.ID, KindReProtect)
	if results := eng.Drain(); len(results) != 1 {
		t.Fatalf("paused drain ran %d tasks, want 1 (drain ignores pause)", len(results))
	}
	eng.Resume()
	if eng.Status().Paused {
		t.Fatal("still paused after resume")
	}
}
