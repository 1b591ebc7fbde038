package optimizer

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/resilience"
	"github.com/alvc/alvc/internal/topology"
)

// laneSize reads the membership tables: the queued groups and the
// queued members.
func laneSize(e *Engine) (groups, members int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.groups), len(e.member)
}

// TestLaneStateIsBounded: the membership tables hold one group per
// queued task and one entry per queued (chain, kind), however many
// events name the chain; a drain, a Cancel of every member and a shed
// group each empty them, and a shed member comes back through Tick as a
// refresh.
func TestLaneStateIsBounded(t *testing.T) {
	s, topo, deps := healthyFleet(t, 1, 8, 1)
	eng, err := New(s, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	burst := func() {
		for round := 0; round < 3; round++ {
			for i, dep := range deps {
				ev := orch.Event{Kind: orch.EventRepairCompleted, Deployment: dep.ID, Action: orch.ActionSwapped,
					Domain: orch.FailureDomain{SRLGs: []int{i % 3}}}
				if i%4 == 3 {
					ev = orch.Event{Kind: orch.EventPlacementChanged, Deployment: dep.ID}
				}
				eng.OrchEvent(ev)
				eng.Enqueue(dep.ID, KindRefresh)
			}
		}
	}
	check := func(what string, wantGroups, wantMembers int) {
		t.Helper()
		groups, members := laneSize(eng)
		if depth := eng.Status().QueueDepth; groups != wantGroups || members != wantMembers || depth != wantGroups {
			t.Fatalf("%s: %d groups, %d members, %d queued; want %d, %d, %d", what, groups, members, depth, wantGroups, wantMembers, wantGroups)
		}
	}

	// Three rounds of events over 8 chains: re-protect groups for the
	// domains srlg:0..2 and the two domainless chains, and a refresh
	// group of one per chain.
	burst()
	check("after the burst", 3+2+8, 2*8)
	eng.Drain()
	check("after the drain", 0, 0)
	burst()
	for _, dep := range deps {
		eng.Cancel(dep.ID)
	}
	check("after cancelling every member", 0, 0)

	// A chain owed a refresh: its standby was consumed by a swap.
	cutPrimary(t, s, topo, deps[0].ID, nil)
	shed, err := New(s, Options{MaxQueueDepth: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eng = shed
	eng.Enqueue(deps[0].ID, KindRefresh)
	// A re-protect group outranks the queued refresh: the refresh group is
	// shed and releases its member.
	for _, dep := range deps[1:3] {
		eng.OrchEvent(orch.Event{Kind: orch.EventRepairCompleted, Deployment: dep.ID, Action: orch.ActionSwapped,
			Domain: orch.FailureDomain{SRLGs: []int{9}}})
	}
	check("after the shed", 1, 2)
	if st := eng.Status(); st.Shed != 1 {
		t.Fatalf("Shed = %d, want the refresh group", st.Shed)
	}
	eng.Drain()
	check("after the drain", 0, 0)
	eng.Tick()
	eng.mu.Lock()
	m, ok := eng.member[memberKey{dep: deps[0].ID, kind: KindRefresh}]
	eng.mu.Unlock()
	if !ok || m.key != (taskKey{dep: deps[0].ID, kind: KindRefresh}) {
		t.Fatalf("the shed member is not back as a refresh after Tick (%+v, %v)", m, ok)
	}
}

// TestChainRunsInOneTaskARound: a chain queued for a re-protect, a
// refresh and a re-home runs in one of them per drain round, the rest
// keeping their turn, and a task that shares no chain with the round's
// earlier ones runs in it whatever its kind.
func TestChainRunsInOneTaskARound(t *testing.T) {
	s, _, deps := healthyFleet(t, 1, 3, 1)
	eng, err := New(s, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a, b, c := deps[0].ID, deps[1].ID, deps[2].ID
	domain := orch.FailureDomain{SRLGs: []int{7}}
	for _, id := range []orch.DeploymentID{a, b} {
		eng.OrchEvent(orch.Event{Kind: orch.EventRepairCompleted, Deployment: id, Action: orch.ActionSwapped, Domain: domain})
	}
	eng.Enqueue(a, KindRefresh)
	eng.Enqueue(a, KindRehome)
	eng.Enqueue(b, KindDefrag)
	eng.Enqueue(c, KindRehome)
	reProtect := taskKey{kind: KindReProtect, domain: domain.String()}
	for i, want := range [][]taskKey{
		{reProtect, {dep: c, kind: KindRehome}},
		{{dep: a, kind: KindRefresh}, {dep: b, kind: KindDefrag}},
		{{dep: a, kind: KindRehome}},
		nil,
	} {
		var got []taskKey
		runs := map[orch.DeploymentID]int{}
		for _, g := range eng.popBatch(nil) {
			got = append(got, g.key)
			for _, id := range g.members {
				runs[id]++
			}
			g.free()
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d claimed %v, want %v", i, got, want)
		}
		for id, n := range runs {
			if n != 1 {
				t.Fatalf("round %d runs chain %d in %d tasks", i, id, n)
			}
		}
	}
}

// TestSliceFailureAndRecoveryDrainWithoutBusy: a slice OPS dies under a
// chain (patched, so it owes a re-protect in the failure's group and a
// re-home), comes back (the chain, still unprotected, owes a refresh), and
// a drain runs it all: the chain's tasks take a round each,
// none finds it busy, and the re-protect's and the refreshes' are the only
// groups opened — two, when the victim is the only chain owed a refresh.
// The victim's re-protect runs after the recovery and plans a disjoint
// standby, so its refresh never runs to answer already-protected: it is
// dropped as a dedup, its group opened and never run. Twenty seeded
// fleets.
func TestSliceFailureAndRecoveryDrainWithoutBusy(t *testing.T) {
	alone := 0 // fleets where the victim's are the only two groups
	for seed := int64(1); seed <= 20; seed++ {
		s, _, deps := healthyFleet(t, 1, 3, seed)
		eng, err := New(s, Options{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		s.UpdateHooks(func(h *orch.Hooks) { h.Events = []orch.EventSink{eng} })
		dep := deps[seed%3]
		victim := topology.NewFailures([]topology.NodeID{dep.Slice.OPSs[0]}, nil)
		reports, err := s.HandleFailures(bg, victim)
		patched := slices.ContainsFunc(reports, func(r orch.RepairReport) bool { return r.ID == dep.ID && r.Action == orch.ActionPatched })
		if err != nil || !patched {
			t.Fatalf("seed %d: failure of a slice OPS: reports %+v, %v; want the chain patched", seed, reports, err)
		}
		if err := s.Recover(victim); err != nil {
			t.Fatalf("seed %d: Recover: %v", seed, err)
		}
		results := eng.Drain()
		eng.Stop()
		st, requeued, refreshes := eng.Status(), 0, 0
		for _, ks := range st.Kinds {
			requeued += ks.Requeued
		}
		for _, res := range results {
			if res.Kind != KindRefresh.String() {
				continue
			}
			refreshes++
			if res.Deployment == dep.ID && res.Outcome == "already-protected" {
				t.Fatalf("seed %d: the victim's refresh ran after its re-protect protected it: %+v", seed, results)
			}
		}
		// Every refresh is a group of one: the victim's, dropped, and one
		// per other chain the recovery found owed, run.
		dropped := st.Kinds[KindRefresh.String()].Deduped
		if requeued != 0 || dropped != 1 || st.GroupPlans.Groups != 1+dropped+refreshes {
			t.Fatalf("seed %d: the drain requeued %d, dropped %d refreshes and opened %d groups, want 0, 1 and %d: %+v",
				seed, requeued, dropped, st.GroupPlans.Groups, 2+refreshes, results)
		}
		if refreshes == 0 {
			alone++
		}
	}
	if alone < 10 {
		t.Fatalf("the victim was the only chain owed a refresh on %d of 20 fleets, want >= 10", alone)
	}
}

// heldTarget counts the members it forwards to the orchestrator — the
// exactly-once witness — and answers ErrBusy for the held chain, without
// forwarding it, while holds last.
type heldTarget struct {
	*orch.Sharded
	mu    sync.Mutex
	calls map[orch.DeploymentID]int
	held  orch.DeploymentID
	holds int
}

func (h *heldTarget) ReProtectGroup(buf []orch.GroupOutcome, domain orch.FailureDomain, ids []orch.DeploymentID) []orch.GroupOutcome {
	h.mu.Lock()
	busy := h.holds > 0 && slices.Contains(ids, h.held)
	if busy {
		h.holds--
		ids = slices.DeleteFunc(slices.Clone(ids), func(id orch.DeploymentID) bool { return id == h.held })
	}
	for _, id := range ids {
		h.calls[id]++
	}
	h.mu.Unlock()
	first := len(buf)
	buf = h.Sharded.ReProtectGroup(buf, domain, ids)
	if busy {
		buf = append(buf, orch.GroupOutcome{ID: h.held, Err: fmt.Errorf("held: %w", orch.ErrBusy)})
		slices.SortFunc(buf[first:], func(a, b orch.GroupOutcome) int { return int(a.ID - b.ID) })
	}
	return buf
}

// domainRecorder sits in front of the engine and records, per chain, the
// failure domain of the first re-protect event since the last drain —
// the group the chain joins; later events for a queued chain are deduped.
type domainRecorder struct {
	eng    *Engine
	mu     sync.Mutex
	joined map[orch.DeploymentID]orch.FailureDomain
}

func (r *domainRecorder) OrchEvent(ev orch.Event) {
	r.mu.Lock()
	switch ev.Kind {
	case orch.EventRepairCompleted, orch.EventPlacementChanged:
		if _, ok := r.joined[ev.Deployment]; !ok {
			r.joined[ev.Deployment] = ev.Domain
		}
	case orch.EventDeploymentDeleted:
		delete(r.joined, ev.Deployment)
	}
	r.mu.Unlock()
	r.eng.OrchEvent(ev)
}

// shardPool is the OPS partition of the shard owning id, as orch.New
// deals it: the ID-sorted OPSs round-robin over the shards, the zero
// Pool (the fabric) when one shard owns them all.
func shardPool(s *orch.Sharded, topo *topology.Topology, id orch.DeploymentID) topology.Pool {
	if len(s.ShardStats()) == 1 {
		return topology.Pool{}
	}
	opss, set := topo.NodeIDs(topology.KindOPS), topology.NodeSet{}
	for i := s.ShardOf(id); i < len(opss); i += len(s.ShardStats()) {
		set = append(set, opss[i])
	}
	return topology.NewPool(set)
}

// planAlone is what resilience.PlanStandbyAvoiding gives the chain alone
// on the current state, avoiding srlgs, under the pool-then-fabric rule.
func planAlone(s *orch.Sharded, topo *topology.Topology, dep *orch.Deployment, srlgs []int) (*resilience.Standby, error) {
	stops := []topology.NodeID{dep.Path[0]}
	if n := topo.Node(dep.Path[0]); n.Kind == topology.KindVM {
		stops = append(stops, n.Host)
	}
	stops = append(stops, dep.Placement.Hosts...)
	dst := dep.Path[len(dep.Path)-1]
	if n := topo.Node(dst); n.Kind == topology.KindVM {
		stops = append(stops, n.Host)
	}
	primary := resilience.Primary{Path: dep.Path, Stops: append(stops, dst), Slice: dep.Slice.OPSs}
	ctrl, pool := s.ControllerOf(dep.ID), shardPool(s, topo, dep.ID)
	want, err := resilience.PlanStandbyAvoiding(ctrl, topo, primary, pool, srlgs)
	if pool.OPS != nil && (err != nil || !want.Disjoint) {
		wide, wideErr := resilience.PlanStandbyAvoiding(ctrl, topo, primary, topology.Pool{}, srlgs)
		if err != nil || (wideErr == nil && wide.Disjoint) {
			want, err = wide, wideErr
		}
	}
	return want, err
}

// TestLaneReplansEqualPlanningAlone replays seeded repair-event bursts
// through the engine on fleets of 1 and 4 shards. A burst mixes tray cuts
// (srlg domains), plain cuts (batch domains) and domainless placement
// changes, holds one queued chain busy for two attempts and deletes
// another while it is queued; some bursts queue fewer than 64 tasks and
// some more. After each drain every queued chain was re-protected exactly
// once, and every re-planned standby is the one its chain plans alone,
// avoiding its group's risk groups; after the recovery the refreshes
// hold to the same rule with no domain.
func TestLaneReplansEqualPlanningAlone(t *testing.T) {
	const chains, trays = 72, 4
	var below, above, trayed, batched, plans, differ int
	for _, shards := range []int{1, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			s, topo, deps := healthyFleet(t, shards, chains, seed)
			rng := rand.New(rand.NewSource(seed))
			// Every other ToR-OPS link runs in one of four trays; the rest
			// in none.
			for _, l := range topo.Links() {
				if l.Kind == topology.LinkBoundary && l.ID%2 == 1 {
					if err := topo.SetLinkSRLG(l.ID, 1000+int(l.ID/2)%trays); err != nil {
						t.Fatalf("SetLinkSRLG: %v", err)
					}
				}
			}
			target := &heldTarget{Sharded: s, calls: make(map[orch.DeploymentID]int)}
			eng, err := New(target, Options{})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			eng.clock = &manualClock{}
			rec := &domainRecorder{eng: eng, joined: make(map[orch.DeploymentID]orch.FailureDomain)}
			s.UpdateHooks(func(h *orch.Hooks) { h.Events = []orch.EventSink{rec} })
			live := slices.Clone(deps)

			// drain runs the queue and holds its re-protects or refreshes to
			// the witness and the oracle.
			drain := func(what string, kind TaskKind) {
				t.Helper()
				clear(target.calls)
				results := eng.Drain()
				for id, n := range target.calls {
					if _, queued := rec.joined[id]; !queued || n != 1 {
						t.Fatalf("%s: chain %d re-protected %d times (queued %v), want once per queued chain", what, id, n, queued)
					}
				}
				for id := range rec.joined {
					if target.calls[id] != 1 {
						t.Fatalf("%s: queued chain %d re-protected %d times, want once", what, id, target.calls[id])
					}
				}
				for _, res := range results {
					if res.Kind != kind.String() {
						continue
					}
					var srlgs []int
					if kind == KindReProtect {
						d := rec.joined[res.Deployment]
						srlgs = d.SRLGs
						switch {
						case len(srlgs) > 0:
							trayed++
						case d.Batch > 0:
							batched++
						}
					}
					dep := s.Deployment(res.Deployment)
					want, err := planAlone(s, topo, dep, srlgs)
					switch res.Outcome {
					case "protected":
						got := dep.Standby
						if err != nil || !slices.Equal(got.Path, want.Path) || !slices.Equal(got.Links, want.Links) ||
							got.Disjoint != want.Disjoint || got.Confined != want.Confined || !slices.Equal(got.SRLGs, want.SRLGs) {
							t.Fatalf("%s: chain %d planned %+v, alone avoiding %v %+v (%v)", what, res.Deployment, got, srlgs, want, err)
						}
						plans++
						if plain, _ := planAlone(s, topo, dep, nil); plain == nil || !slices.Equal(plain.Path, want.Path) {
							differ++
						}
					case "unprotected", "failed":
						if err == nil {
							t.Fatalf("%s: chain %d %s, alone it plans %+v", what, res.Deployment, res.Outcome, want)
						}
					case "rehomed", "skipped", "cancelled":
						t.Fatalf("%s: unexpected result %+v", what, res)
					}
				}
				clear(rec.joined)
			}

			for burst := 0; burst < 6; burst++ {
				what := fmt.Sprintf("shards %d seed %d burst %d", shards, seed, burst)
				// One tray cut and one plain cut, each one HandleFailures
				// batch: two domains.
				var cut []topology.LinkID
				for _, trayed := range []bool{true, false} {
					var links []topology.LinkID
					tray := 1000 + rng.Intn(trays)
					for _, i := range rng.Perm(len(live))[:6] {
						l, ok := primaryTransit(topo, s.Deployment(live[i].ID))
						if !ok || slices.Contains(cut, l) || slices.Contains(links, l) {
							continue
						}
						srlgs := topo.Link(l).SRLG
						if trayed && slices.Equal(srlgs, []int{tray}) || !trayed && len(srlgs) == 0 {
							links = append(links, l)
						}
					}
					if _, err := s.HandleFailures(bg, topology.NewFailures(nil, links)); err != nil {
						t.Fatalf("%s: HandleFailures: %v", what, err)
					}
					cut = append(cut, links...)
				}
				// Domainless placement changes: a few chains, or every chain
				// on odd bursts, which queues more than 64 groups of one.
				n := 5
				if burst%2 == 1 {
					n = len(live)
				}
				for _, i := range rng.Perm(len(live))[:n] {
					rec.OrchEvent(orch.Event{Kind: orch.EventPlacementChanged, Deployment: live[i].ID})
				}
				var queued []orch.DeploymentID
				for id := range rec.joined {
					queued = append(queued, id)
				}
				slices.Sort(queued)
				if len(queued) < 2 {
					t.Fatalf("%s: only %d chains queued", what, len(queued))
				}
				// Hold one queued chain busy for two attempts; delete another.
				target.held, target.holds = queued[rng.Intn(len(queued))], 2
				gone := queued[rng.Intn(len(queued))]
				for gone == target.held {
					gone = queued[rng.Intn(len(queued))]
				}
				if _, err := s.Delete(bg, gone); err != nil {
					t.Fatalf("%s: Delete: %v", what, err)
				}
				live = slices.DeleteFunc(live, func(dep *orch.Deployment) bool { return dep.ID == gone })
				if depth := eng.Status().QueueDepth; depth < 64 {
					below++
				} else {
					above++
				}
				drain(what, KindReProtect)
				if target.holds != 0 {
					t.Fatalf("%s: the held chain was never retried", what)
				}
				if err := s.Recover(topology.NewFailures(nil, cut)); err != nil {
					t.Fatalf("%s: Recover: %v", what, err)
				}
				// The recovery queues refreshes for the owed chains only:
				// the witness is held to what the recovery queued.
				owed := make(map[orch.DeploymentID]orch.FailureDomain)
				for _, h := range s.AppendChainHealth(nil, true) {
					if !h.Disjoint {
						owed[h.ID] = orch.FailureDomain{}
					}
				}
				rec.joined = owed
				drain(what+" refresh", KindRefresh)
			}
		}
	}
	t.Logf("queue depth below 64 in %d bursts, at or above in %d; %d srlg and %d batch members; %d plans, %d differ from the chain's domainless plan",
		below, above, trayed, batched, plans, differ)
	if below == 0 || above == 0 || trayed == 0 || batched == 0 || differ == 0 {
		t.Fatalf("want bursts on both sides of 64, srlg and batch members, and plans the domain steered")
	}
}
