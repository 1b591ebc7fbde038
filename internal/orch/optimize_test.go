package orch

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/alvc/alvc/internal/placement"
	"github.com/alvc/alvc/internal/topology"
)

// recordingSink captures emitted events for assertions.
type recordingSink struct {
	mu     sync.Mutex
	events []Event
}

func (s *recordingSink) OrchEvent(ev Event) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

func (s *recordingSink) kinds() []EventKind {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]EventKind, len(s.events))
	for i, ev := range s.events {
		out[i] = ev.Kind
	}
	return out
}

func (s *recordingSink) count(kind EventKind) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, ev := range s.events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// standbySearches counts the standby segment searches asked of the
// orchestrator's controller so far, answered from its memo or not.
func standbySearches(o *shard) int64 {
	hits, misses := o.ctrl.AlternativesCacheStats()
	return hits + misses
}

// TestReProtectAlreadyProtectedIsNoOp: a chain whose standby is alive
// and disjoint must not be replanned.
func TestReProtectAlreadyProtectedIsNoOp(t *testing.T) {
	s, o, _ := triOrch(t, Config{})
	dep, err := s.Provision(bg, triSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	before := standbySearches(o)
	out := reProtect(s, dep.ID)
	if out.Err != nil {
		t.Fatalf("re-protect: %v", out.Err)
	}
	if out.Replanned || out.Fallback {
		t.Fatalf("protected chain was replanned: %+v", out)
	}
	if out.Standby == nil || !out.Standby.Disjoint {
		t.Fatalf("standby snapshot = %+v, want disjoint", out.Standby)
	}
	if got := standbySearches(o); got != before {
		t.Fatalf("no-op re-protect asked %d standby searches", got-before)
	}
}

// TestAsyncRestandbyDropsAndReProtectReplans: with a sink attached, a
// standby-only failure drops the standby with no standby search and emits
// repair-completed; the background re-protect then replans it over the
// surviving spare route.
func TestAsyncRestandbyDropsAndReProtectReplans(t *testing.T) {
	s, o, ids := triOrch(t, Config{DeferReprotect: true})
	sink := &recordingSink{}
	s.UpdateHooks(func(h *Hooks) { h.Events = []EventSink{sink} })
	dep, err := s.Provision(bg, triSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if dep.Standby == nil || !pathContains(dep.Standby.Path, ids.opss[1]) {
		t.Fatalf("standby %+v, want route 1", dep.Standby)
	}

	searchesBefore := standbySearches(o)
	reports, err := failNode(s, ids.opss[1]) // standby transit only
	if err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	if len(reports) != 1 || reports[0].Action != ActionRestandby || reports[0].Err != nil {
		t.Fatalf("reports = %+v, want one clean restandby", reports)
	}
	if got := standbySearches(o); got != searchesBefore {
		t.Fatalf("async restandby asked %d standby searches inline", got-searchesBefore)
	}
	if cur := s.Deployment(dep.ID); cur.Standby != nil {
		t.Fatalf("standby not dropped: %+v", cur.Standby)
	}
	if bad := auditIndexes(o); len(bad) > 0 {
		t.Fatalf("%d index differences, first: %s", len(bad), bad[0])
	}
	if sink.count(EventRepairCompleted) != 1 {
		t.Fatalf("events = %v, want one repair-completed", sink.kinds())
	}

	out := reProtect(s, dep.ID)
	if out.Err != nil {
		t.Fatalf("re-protect: %v", out.Err)
	}
	sb := out.Standby
	if !out.Replanned || sb == nil {
		t.Fatalf("re-protect = %+v, want replanned standby", out)
	}
	if !pathContains(sb.Path, ids.opss[2]) || !sb.Disjoint {
		t.Fatalf("replanned standby %+v, want disjoint via route 2", sb)
	}
}

// TestAsyncRepathDefersStandby: with a sink attached a cold re-path
// must not replan the standby inline (no standby search); the chain is
// repaired but unprotected until a re-protect runs.
func TestAsyncRepathDefersStandby(t *testing.T) {
	s, o, ids := triOrch(t, Config{DeferReprotect: true})
	s.UpdateHooks(func(h *Hooks) { h.Events = []EventSink{&recordingSink{}} })
	dep, err := s.Provision(bg, triSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	// Kill primary AND standby transit ToRs in one batch (the OPSs are
	// AL members and would classify as a slice patch): no swap
	// possible, the repair must be a cold re-path via the spare route.
	searchesBefore := standbySearches(o)
	reports, err := s.HandleFailures(bg, topology.NewFailures([]topology.NodeID{ids.tors[0][0], ids.tors[0][1]}, nil))
	if err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	if len(reports) != 1 || reports[0].Action != ActionRepathed {
		t.Fatalf("reports = %+v, want one repathed", reports)
	}
	if got := standbySearches(o); got != searchesBefore {
		t.Fatalf("async repath asked %d standby searches inline", got-searchesBefore)
	}
	cur := s.Deployment(dep.ID)
	if cur.Standby != nil {
		t.Fatalf("deferred standby still planned: %+v", cur.Standby)
	}
	if !pathContains(cur.Path, ids.opss[2]) {
		t.Fatalf("repaired path %v does not use the spare route", cur.Path)
	}
}

// TestRehomeMovesBackAndHysteresis: placement drift (an NF forced
// off its optical host) is undone by a re-home when the conversion win
// meets the margin, and left alone (no oscillation) when within it.
func TestRehomeMovesBackAndHysteresis(t *testing.T) {
	s, _, ids := triOrch(t, Config{Policy: placement.OpticalFirst{}})
	dep, err := s.Provision(bg, triSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if dep.Placement.Domains[0] != topology.DomainOptical {
		t.Fatalf("NF not optical at provision time: %+v", dep.Placement)
	}
	opticalHost := dep.Placement.Hosts[0]

	// Drift: the operator (or a past repair) moved the NF onto a server.
	if _, err := s.Apply(dep.ID, ChangeHost(0, ids.pm1)); err != nil {
		t.Fatalf("move: %v", err)
	}
	drifted := s.Deployment(dep.ID)
	if drifted.Placement.Domains[0] != topology.DomainElectronic || drifted.Placement.Conversions != 1 {
		t.Fatalf("drifted placement = %+v", drifted.Placement)
	}

	// Within the margin: a 1-conversion win < margin 2 must not move.
	a, err := s.Apply(dep.ID, ChangeRehome(2))
	if err != nil {
		t.Fatalf("re-home (margin 2): %v", err)
	}
	if a.Moved {
		t.Fatal("re-home moved within the hysteresis margin")
	}

	// Meeting the margin: the NF returns to the optical domain.
	a, err = s.Apply(dep.ID, ChangeRehome(1))
	if err != nil {
		t.Fatalf("re-home (margin 1): %v", err)
	}
	if !a.Moved {
		t.Fatal("re-home did not undo the drift")
	}
	homed := s.Deployment(dep.ID)
	if homed.Placement.Hosts[0] != opticalHost || homed.Placement.Conversions != 0 {
		t.Fatalf("re-homed placement = %+v, want host %d / 0 conversions", homed.Placement, opticalHost)
	}

	// Stability: an immediate second pass finds nothing to improve.
	a, err = s.Apply(dep.ID, ChangeRehome(1))
	if err != nil {
		t.Fatalf("re-home (second): %v", err)
	}
	if a.Moved {
		t.Fatal("re-home oscillated on an already-optimal placement")
	}
}

// TestRehomeRestoresStateOnRepathFailure is the re-home's twin of
// TestMoveNFRestoresStateOnRepathFailure: the fresh placement wins, the
// NF migrates, and the connectivity re-run fails — the one wavelength of
// the route home is held by another flow. The relocation moves the
// instance back, re-reserves the chain's wavelength on its current path
// and leaves the record and the rules as they were, and the churn
// observer, which counts committed migrations, stays silent.
func TestRehomeRestoresStateOnRepathFailure(t *testing.T) {
	s, o, ids := triOrch(t, Config{Policy: placement.OpticalFirst{}, Wavelengths: 1})
	var churn int
	s.UpdateHooks(func(h *Hooks) { h.Rehome = func(int, int) { churn++ } })
	dep, err := s.Provision(bg, triSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if dep.Placement.Hosts[0] != ids.opss[0] || !pathContains(dep.Path, ids.opss[0]) {
		t.Fatalf("provisioned %+v on %v, want the NF on route 0's OPS", dep.Placement, dep.Path)
	}
	// Drift the NF onto a server while route 0 is cut, so the drifted path
	// takes route 1; then heal route 0 and hold its one wavelength on the
	// OPS's far link, so only the route home lacks a channel.
	cut := topology.NewFailures(nil, []topology.LinkID{ids.torOpsLinks[0][0]})
	if err := o.topo.SetDown(cut, true); err != nil {
		t.Fatalf("SetDown: %v", err)
	}
	if _, err := s.Apply(dep.ID, ChangeHost(0, ids.pm1)); err != nil {
		t.Fatalf("move: %v", err)
	}
	if err := o.topo.SetDown(cut, false); err != nil {
		t.Fatalf("SetDown: %v", err)
	}
	if _, err := o.wdm.AssignPath("blocker", []topology.LinkID{ids.torOpsLinks[1][0]}); err != nil {
		t.Fatalf("AssignPath blocker: %v", err)
	}
	before := s.Deployment(dep.ID)
	if !pathContains(before.Path, ids.opss[1]) || before.Lambda != 0 {
		t.Fatalf("drifted path %v on lambda %d, want route 1 on lambda 0", before.Path, before.Lambda)
	}
	lambdaBefore, _ := o.wdm.AssignmentOf(before.FlowKey())
	rulesBefore := o.ctrl.RulesForFlow(before.FlowKey())

	a, err := s.Apply(dep.ID, ChangeRehome(1))
	if err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("orch: rehome %d: ", dep.ID)) {
		t.Fatalf("re-home over a route without a wavelength = %+v, %v, want its re-path error", a, err)
	}
	if a.Moved || a.Rebuilt {
		t.Fatalf("failed re-home reported %+v", a)
	}
	after := s.Deployment(dep.ID)
	if inst := o.mgr.Instance(after.Instances[0]); inst.Host != ids.pm1 || inst.Domain != topology.DomainElectronic {
		t.Fatalf("instance not moved back: %+v", inst)
	}
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("record changed:\n%+v\nwant\n%+v", after, before)
	}
	if got, ok := o.wdm.AssignmentOf(after.FlowKey()); !ok || !reflect.DeepEqual(got, lambdaBefore) {
		t.Fatalf("wavelength not re-reserved: %+v, %v, want %+v", got, ok, lambdaBefore)
	}
	if got := o.ctrl.RulesForFlow(after.FlowKey()); !reflect.DeepEqual(got, rulesBefore) {
		t.Fatalf("rules changed:\n%+v\nwant\n%+v", got, rulesBefore)
	}
	if churn != 0 {
		t.Fatalf("the churn observer counted %d migrations of a re-home that did not commit", churn)
	}

	// With the wavelength free the same re-home commits.
	if err := o.wdm.Release("blocker"); err != nil {
		t.Fatalf("Release blocker: %v", err)
	}
	if a, err := s.Apply(dep.ID, ChangeRehome(1)); err != nil || !a.Moved {
		t.Fatalf("re-home after the release = %+v, %v, want moved", a, err)
	}
	if homed := s.Deployment(dep.ID); homed.Placement.Hosts[0] != ids.opss[0] || churn != 1 {
		t.Fatalf("re-homed to %v with %d migrations observed, want %d and 1", homed.Placement.Hosts, churn, ids.opss[0])
	}
}

// TestDefragLambdaRetunesDown: a flow stranded on a high wavelength
// moves to the lowest free channel make-before-break; a flow already
// on the lowest is a no-op.
func TestDefragLambdaRetunesDown(t *testing.T) {
	s, o, ids := triOrch(t, Config{Wavelengths: 4})
	// Occupy λ0 on the primary route's optical links so the chain is
	// born on λ1, then free it — classic fragmentation.
	blockers := []topology.LinkID{ids.torOpsLinks[0][0], ids.torOpsLinks[1][0]}
	if _, err := o.wdm.AssignPath("blocker", blockers); err != nil {
		t.Fatalf("AssignPath blocker: %v", err)
	}
	dep, err := s.Provision(bg, triSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if dep.Lambda != 1 {
		t.Fatalf("lambda = %d, want 1 (λ0 occupied)", dep.Lambda)
	}
	if err := o.wdm.Release("blocker"); err != nil {
		t.Fatalf("Release blocker: %v", err)
	}

	a, err := s.Apply(dep.ID, ChangeDefrag())
	if err != nil {
		t.Fatalf("defrag: %v", err)
	}
	if a.LambdaFrom != 1 || a.LambdaTo != 0 {
		t.Fatalf("defrag = %+v, want retune 1 -> 0", a)
	}
	if cur := s.Deployment(dep.ID); cur.Lambda != 0 {
		t.Fatalf("deployment lambda = %d, want 0", cur.Lambda)
	}
	if o.wdm.InGrace(dep.FlowKey()) {
		t.Fatal("grace window left open after defrag commit")
	}

	// Already on the floor: nothing to do.
	a, err = s.Apply(dep.ID, ChangeDefrag())
	if err != nil || a.LambdaFrom != 0 || a.LambdaTo != 0 {
		t.Fatalf("second defrag = %+v, %v, want no-op", a, err)
	}
}

// TestSRLGClassification: a failure of a link that merely shares a
// risk group with the standby must reach the chain (reverse-index SRLG
// expansion) and classify as restandby; and a primary failure must NOT
// swap onto a standby whose links share a group with the dead set.
func TestSRLGClassification(t *testing.T) {
	t.Run("restandby on shared-risk neighbor", func(t *testing.T) {
		topo, ids := triTopo(t)
		// Standby's src-side boundary link shares tray 5 with the spare
		// route's src-side boundary link.
		if err := topo.SetLinkSRLG(ids.torOpsLinks[0][1], 5); err != nil {
			t.Fatalf("SetLinkSRLG: %v", err)
		}
		if err := topo.SetLinkSRLG(ids.torOpsLinks[0][2], 5); err != nil {
			t.Fatalf("SetLinkSRLG: %v", err)
		}
		s, _ := newTestOrch(t, Config{Topo: topo, Policy: placement.AllElectronic{}})
		dep, err := s.Provision(bg, triSpec(t, "chain-1"))
		if err != nil {
			t.Fatalf("Provision: %v", err)
		}
		if dep.Standby == nil || !pathContains(dep.Standby.Path, ids.opss[1]) {
			t.Fatalf("standby %+v, want route 1", dep.Standby)
		}
		// The spare link is NOT in the chain's footprint; only the SRLG
		// expansion can route this failure to the chain.
		reports, err := failLink(s, ids.torOpsLinks[0][2])
		if err != nil {
			t.Fatalf("HandleFailures: %v", err)
		}
		if len(reports) != 1 || reports[0].ID != dep.ID || reports[0].Action != ActionRestandby {
			t.Fatalf("reports = %+v, want restandby for chain %d", reports, dep.ID)
		}
	})

	t.Run("no swap onto shared-risk standby", func(t *testing.T) {
		topo, ids := triTopo(t)
		// The standby route's dst-side boundary link shares tray 6 with
		// the spare route's dst-side boundary link.
		if err := topo.SetLinkSRLG(ids.torOpsLinks[1][1], 6); err != nil {
			t.Fatalf("SetLinkSRLG: %v", err)
		}
		if err := topo.SetLinkSRLG(ids.torOpsLinks[1][2], 6); err != nil {
			t.Fatalf("SetLinkSRLG: %v", err)
		}
		s, _ := newTestOrch(t, Config{Topo: topo, Policy: placement.AllElectronic{}})
		dep, err := s.Provision(bg, triSpec(t, "chain-1"))
		if err != nil {
			t.Fatalf("Provision: %v", err)
		}
		if dep.Standby == nil {
			t.Fatal("no standby planned")
		}
		// Primary transit dies together with the standby's tray-mate:
		// the standby is alive but not survivable — must re-path, not
		// swap.
		reports, err := s.HandleFailures(bg, topology.NewFailures([]topology.NodeID{ids.tors[0][0]}, []topology.LinkID{ids.torOpsLinks[1][2]}))
		if err != nil {
			t.Fatalf("HandleFailures: %v", err)
		}
		var action RepairAction
		for _, rep := range reports {
			if rep.ID == dep.ID {
				action = rep.Action
			}
		}
		if action != ActionRepathed {
			t.Fatalf("action = %q, want repathed (no swap onto shared-risk standby)", action)
		}
	})
}

// TestEventEmission: each lifecycle verb emits its event with no
// orchestrator locks held.
func TestEventEmission(t *testing.T) {
	s, _, ids := triOrch(t, Config{})
	sink := &recordingSink{}
	s.UpdateHooks(func(h *Hooks) { h.Events = []EventSink{sink} })
	dep, err := s.Provision(bg, triSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if _, err := failNode(s, ids.opss[0]); err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	if sink.count(EventRepairCompleted) != 1 {
		t.Fatalf("events after failure: %v", sink.kinds())
	}
	if err := s.Recover(topology.NewFailures([]topology.NodeID{ids.opss[0]}, nil)); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if sink.count(EventNodeRecovered) != 1 {
		t.Fatalf("events after recovery: %v", sink.kinds())
	}
	if _, err := s.Apply(dep.ID, ChangeHost(0, ids.pm2)); err != nil {
		t.Fatalf("move: %v", err)
	}
	if sink.count(EventPlacementChanged) != 1 {
		t.Fatalf("events after move: %v", sink.kinds())
	}
	if _, err := s.Delete(bg, dep.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if sink.count(EventDeploymentDeleted) != 1 {
		t.Fatalf("events after delete: %v", sink.kinds())
	}
}

// TestDefragNoSpareChannelIsQuietNoOp: with every other wavelength
// occupied on the flow's links, defrag cannot make-before-break and
// must leave the assignment untouched.
func TestDefragNoSpareChannelIsQuietNoOp(t *testing.T) {
	s, o, ids := triOrch(t, Config{Wavelengths: 2})
	blockers := []topology.LinkID{ids.torOpsLinks[0][0], ids.torOpsLinks[1][0]}
	if _, err := o.wdm.AssignPath("blocker", blockers); err != nil {
		t.Fatalf("AssignPath blocker: %v", err)
	}
	dep, err := s.Provision(bg, triSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if dep.Lambda != 1 {
		t.Fatalf("lambda = %d, want 1", dep.Lambda)
	}
	// λ0 stays occupied: RetuneBegin has no second channel.
	a, err := s.Apply(dep.ID, ChangeDefrag())
	if err != nil || a.LambdaFrom != a.LambdaTo {
		t.Fatalf("defrag = %+v, %v, want quiet no-op", a, err)
	}
	if cur := s.Deployment(dep.ID); cur.Lambda != 1 {
		t.Fatalf("lambda changed to %d on a failed defrag", cur.Lambda)
	}
}
