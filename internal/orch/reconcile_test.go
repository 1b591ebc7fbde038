package orch

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/placement"
	"github.com/alvc/alvc/internal/resilience"
	"github.com/alvc/alvc/internal/topology"
)

// sliceOPSNotHosting returns an OPS of the deployment's slice that
// hosts no VNF of the chain, or 0.
func sliceOPSNotHosting(dep *Deployment) topology.NodeID {
	hosts := make(map[topology.NodeID]bool)
	for _, h := range dep.Placement.Hosts {
		hosts[h] = true
	}
	for _, ops := range dep.Slice.OPSs {
		if !hosts[ops] {
			return ops
		}
	}
	return 0
}

// TestSliceOPSFailurePatchesWithoutTouchingVNFs is the acceptance
// scenario for the reconciliation engine: an OPS failure inside the AL
// must patch the slice membership in place — same VC ID, same slice
// ID, same bandwidth, same VNF instances on the same hosts — instead
// of tearing the chain down. The all-electronic policy guarantees the
// failed OPS hosts no VNF, so the patch must not touch any instance.
func TestSliceOPSFailurePatchesWithoutTouchingVNFs(t *testing.T) {
	s, o := newTestOrch(t, Config{Topo: orchTopo(t), Policy: placement.AllElectronic{}})
	dep, err := o.Provision(bg, webSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	victim := sliceOPSNotHosting(dep)
	if victim == 0 {
		t.Fatal("all-electronic placement put a VNF on an OPS")
	}
	vcID, sliceID := dep.VC.ID, dep.Slice.ID
	bandwidth := dep.Slice.BandwidthGbps
	hostsBefore := append([]topology.NodeID(nil), dep.Placement.Hosts...)

	reports, err := failNode(s, victim)
	if err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	if len(reports) != 1 || reports[0].ID != dep.ID {
		t.Fatalf("reports = %+v, want one for %d", reports, dep.ID)
	}
	if reports[0].Action != ActionPatched {
		t.Fatalf("action = %s, want patched", reports[0].Action)
	}

	after := o.Deployment(dep.ID)
	if after.State != StateActive || after.Repairs != 1 {
		t.Fatalf("after patch: state=%s repairs=%d", after.State, after.Repairs)
	}
	// Identity survives: the deployment kept its VC, slice and
	// bandwidth reservation.
	if after.VC.ID != vcID {
		t.Fatalf("VC ID changed: %d -> %d", vcID, after.VC.ID)
	}
	if after.Slice.ID != sliceID {
		t.Fatalf("slice ID changed: %d -> %d", sliceID, after.Slice.ID)
	}
	if after.Slice.BandwidthGbps != bandwidth {
		t.Fatalf("bandwidth changed: %f -> %f", bandwidth, after.Slice.BandwidthGbps)
	}
	// The failed OPS is out of the membership; survivors were reused.
	if after.Slice.Contains(victim) {
		t.Fatalf("failed OPS %d still in slice %v", victim, after.Slice.OPSs)
	}
	// VNFs untouched: same instance IDs on the same hosts, no new
	// instances created.
	for i, id := range after.Instances {
		if id != dep.Instances[i] {
			t.Fatalf("instance %d replaced: %d -> %d", i, dep.Instances[i], id)
		}
		inst := o.Manager().Instance(id)
		if inst.Host != hostsBefore[i] {
			t.Fatalf("instance %d moved: %d -> %d", i, hostsBefore[i], inst.Host)
		}
	}
	// Rules follow the (possibly new) path; invariants hold.
	if got := len(o.Controller().RulesForFlow(after.FlowKey())); got != len(after.Path) {
		t.Fatalf("rules = %d, want %d", got, len(after.Path))
	}
	if !o.Allocator().Disjoint() || !o.Slices().Disjoint() {
		t.Fatal("disjointness violated after patch")
	}
}

// TestPMFailureReplacesOnlyAffectedVNF: a PM hosting one electronic
// VNF fails; only that instance migrates, the VC and slice stay put.
// The VNF is first staged (MoveNF) onto a PM hosting no web VM, so the
// failure cannot also kill an endpoint and force a rebuild.
func TestPMFailureReplacesOnlyAffectedVNF(t *testing.T) {
	s, o := newOrch(t)
	dep, err := o.Provision(bg, webSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	pmIdx := -1
	for i, d := range dep.Placement.Domains {
		if d == topology.DomainElectronic {
			pmIdx = i
			break
		}
	}
	if pmIdx < 0 {
		t.Skip("no electronic VNF in this placement")
	}
	// Stage the VNF onto a PM that hosts neither endpoint VM, so its
	// failure cannot invalidate the chain's src/dst.
	src := o.topo.Node(dep.Path[0])
	dst := o.topo.Node(dep.Path[len(dep.Path)-1])
	var pmHost topology.NodeID
	for _, pm := range o.topo.NodeIDs(topology.KindPhysicalMachine) {
		if pm == src.Host || pm == dst.Host || pm == dep.Placement.Hosts[pmIdx] {
			continue
		}
		pmHost = pm
		break
	}
	if pmHost == 0 {
		t.Skip("no PM free of endpoint VMs on this seed")
	}
	if err := o.MoveNF(dep.ID, pmIdx, pmHost); err != nil {
		t.Fatalf("MoveNF staging: %v", err)
	}
	dep = o.Deployment(dep.ID)

	vcID, sliceID := dep.VC.ID, dep.Slice.ID
	reports, err := failNode(s, pmHost)
	if err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	var rep *RepairReport
	for i := range reports {
		if reports[i].ID == dep.ID {
			rep = &reports[i]
		}
	}
	if rep == nil || rep.Action != ActionReplaced {
		t.Fatalf("reports = %+v, want replaced for %d", reports, dep.ID)
	}
	after := o.Deployment(dep.ID)
	if after.VC.ID != vcID || after.Slice.ID != sliceID {
		t.Fatalf("cluster/slice identity changed: VC %d->%d slice %d->%d",
			vcID, after.VC.ID, sliceID, after.Slice.ID)
	}
	// Same instance IDs throughout — migration, not re-instantiation.
	for i, id := range after.Instances {
		if id != dep.Instances[i] {
			t.Fatalf("instance %d replaced: %d -> %d", i, dep.Instances[i], id)
		}
	}
	// Only the affected position moved.
	for i, h := range after.Placement.Hosts {
		if i == pmIdx {
			if h == pmHost {
				t.Fatalf("VNF %d still on failed PM %d", i, pmHost)
			}
			continue
		}
		if h != dep.Placement.Hosts[i] {
			t.Fatalf("untouched VNF %d moved: %d -> %d", i, dep.Placement.Hosts[i], h)
		}
	}
	if got := len(o.Controller().RulesForFlow(after.FlowKey())); got != len(after.Path) {
		t.Fatalf("rules = %d, want %d", got, len(after.Path))
	}
}

// TestTransitNodeFailureRepathsOnly: failing a node that is only a
// transit hop (not in the slice, hosting nothing) must re-path without
// touching cluster, slice or instances. Candidate transit hops are
// probed in path order; the first one whose surroundings leave an
// alternative route must yield a pure re-path.
func TestTransitNodeFailureRepathsOnly(t *testing.T) {
	s, o := newOrch(t)
	first, err := o.Provision(bg, webSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	sawRepath := false
	for attempt := 0; attempt < 8 && !sawRepath; attempt++ {
		dep := o.Deployment(first.ID)
		hosts := make(map[topology.NodeID]bool)
		for _, h := range dep.Placement.Hosts {
			hosts[h] = true
		}
		// strands reports whether failing the candidate would leave a
		// PM on the path without any live ToR (no route can avoid it).
		strands := func(cand topology.NodeID) bool {
			for _, n := range dep.Path {
				node := o.topo.Node(n)
				if node.Kind != topology.KindPhysicalMachine {
					continue
				}
				alive := 0
				for _, tor := range o.topo.ToRsOfPM(n) {
					if tor != cand {
						alive++
					}
				}
				if alive == 0 {
					return true
				}
			}
			return false
		}
		var victim topology.NodeID
		for _, n := range dep.Path[1 : len(dep.Path)-1] {
			node := o.topo.Node(n)
			if node.Down || hosts[n] || dep.Slice.Contains(n) {
				continue
			}
			// ToRs and foreign OPSs are pure transit; PMs host the
			// endpoint VMs and VM nodes are the endpoints themselves.
			if (node.Kind == topology.KindToR || node.Kind == topology.KindOPS) && !strands(n) {
				victim = n
				break
			}
		}
		if victim == 0 {
			break
		}
		reports, err := failNode(s, victim)
		if err != nil {
			t.Fatalf("HandleFailures(%d): %v", victim, err)
		}
		var rep *RepairReport
		for i := range reports {
			if reports[i].ID == dep.ID {
				rep = &reports[i]
			}
		}
		if rep == nil {
			t.Fatalf("no report for deployment %d: %+v", dep.ID, reports)
		}
		after := o.Deployment(dep.ID)
		if after.State != StateActive {
			t.Fatalf("deployment not active after transit failure: %s", after.State)
		}
		for _, n := range after.Path {
			if n == victim {
				t.Fatalf("failed node %d still on path %v", victim, after.Path)
			}
		}
		if rep.Action == ActionRepathed || rep.Action == ActionSwapped {
			sawRepath = true
			// The pure re-path (cold or standby swap) must keep
			// cluster, slice and instances.
			if after.VC.ID != dep.VC.ID || after.Slice.ID != dep.Slice.ID {
				t.Fatal("re-path touched cluster or slice identity")
			}
			for i, id := range after.Instances {
				if id != dep.Instances[i] {
					t.Fatalf("re-path replaced instance %d: %d -> %d", i, dep.Instances[i], id)
				}
			}
		}
		if err := s.RecoverNode(victim); err != nil {
			t.Fatalf("RecoverNode: %v", err)
		}
	}
	if !sawRepath {
		t.Skip("no transit hop with an alternative route on this seed")
	}
}

// TestSequentialOPSFailuresKeepPatching: after one patch leaves a
// down-but-unowned OPS in the allocator pool, a second chain's patch
// must not pick the dead switch (the bipartite projection filters
// down nodes), so both chains end patched, not rebuilt or failed.
func TestSequentialOPSFailuresKeepPatching(t *testing.T) {
	s, o := newTestOrch(t, Config{Topo: orchTopo(t), Policy: placement.AllElectronic{}})
	d1, err := o.Provision(bg, webSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision 1: %v", err)
	}
	spec2, err := chain.Linear("chain-2", "tenant-b", "mapreduce", 1, 1<<20, "firewall", "wanopt")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	d2, err := o.Provision(bg, spec2)
	if err != nil {
		t.Fatalf("Provision 2: %v", err)
	}
	assertPatched := func(dep *Deployment, victim topology.NodeID) {
		t.Helper()
		reports, err := failNode(s, victim)
		if err != nil {
			t.Fatalf("HandleFailures(%d): %v", victim, err)
		}
		for _, rep := range reports {
			if rep.ID == dep.ID && rep.Action != ActionPatched {
				t.Fatalf("deployment %d action = %s, want patched (reports %+v)", dep.ID, rep.Action, reports)
			}
		}
		after := o.Deployment(dep.ID)
		if after.State != StateActive || after.Slice.Contains(victim) {
			t.Fatalf("deployment %d after failure of %d: state=%s slice=%v",
				dep.ID, victim, after.State, after.Slice.OPSs)
		}
	}
	// First failure patches chain 1 and leaves the victim down AND
	// unowned in the pool; the second patch must route around it.
	assertPatched(d1, d1.Slice.OPSs[0])
	assertPatched(d2, d2.Slice.OPSs[0])
	if !o.Allocator().Disjoint() || !o.Slices().Disjoint() {
		t.Fatal("disjointness violated after sequential patches")
	}
}

// TestReverseIndexMaintained: the node → deployments index must track
// provision, repair and delete, keeping affectedBy an exact lookup.
func TestReverseIndexMaintained(t *testing.T) {
	_, o := newOrch(t)
	dep, err := o.Provision(bg, webSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	for _, n := range o.Deployment(dep.ID).Path {
		ids := o.affectedBy(resilience.NewFailureSet([]topology.NodeID{n}, nil))
		if len(ids) != 1 || ids[0] != dep.ID {
			t.Fatalf("affectedBy(%d) = %v, want [%d]", n, ids, dep.ID)
		}
	}
	if _, err := o.Delete(bg, dep.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	o.mu.Lock()
	leftoverNodes, leftoverLinks := o.indexSizes()
	o.mu.Unlock()
	if leftoverNodes != 0 {
		t.Fatalf("node index leaked %d entries after delete", leftoverNodes)
	}
	if leftoverLinks != 0 {
		t.Fatalf("link index leaked %d entries after delete", leftoverLinks)
	}
}

// TestUpgradeScaleRespectBusyGuard: the exclusive-operation guard must
// cover Upgrade and ScaleNF so a concurrent Delete cannot terminate
// instances mid-operation; callers see ErrBusy (HTTP 409).
func TestUpgradeScaleRespectBusyGuard(t *testing.T) {
	_, o := newOrch(t)
	dep, err := o.Provision(bg, webSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	o.mu.Lock()
	o.busy[dep.ID] = true
	o.mu.Unlock()
	if err := o.Upgrade(dep.ID); !errors.Is(err, ErrBusy) {
		t.Fatalf("Upgrade under busy = %v, want ErrBusy", err)
	}
	if err := o.ScaleNF(dep.ID, 0, 2); !errors.Is(err, ErrBusy) {
		t.Fatalf("ScaleNF under busy = %v, want ErrBusy", err)
	}
	if _, err := o.Delete(bg, dep.ID); !errors.Is(err, ErrBusy) {
		t.Fatalf("Delete under busy = %v, want ErrBusy", err)
	}
	o.mu.Lock()
	delete(o.busy, dep.ID)
	o.mu.Unlock()
	if err := o.Upgrade(dep.ID); err != nil {
		t.Fatalf("Upgrade after release: %v", err)
	}
	if err := o.ScaleNF(dep.ID, 2, 2); err != nil {
		t.Fatalf("ScaleNF after release: %v", err)
	}
}

// TestConcurrentFailureAndProvision races HandleFailures/RecoverNode
// against a stream of provisions and deletes. Run with -race. The
// invariants: no panics, disjoint ALs and slices, consistent final
// state.
func TestConcurrentFailureAndProvision(t *testing.T) {
	s, o := newOrch(t)
	seedDep, err := o.Provision(bg, webSpec(t, "seed"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	victims := append([]topology.NodeID(nil), seedDep.Slice.OPSs...)
	victims = append(victims, seedDep.Path...)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		services := []string{"web", "mapreduce", "sns"}
		for i := 0; i < 12; i++ {
			spec, err := chain.Linear(fmt.Sprintf("c-%d", i), fmt.Sprintf("t-%d", i),
				services[i%len(services)], 1, 1<<20, "firewall")
			if err != nil {
				t.Errorf("Linear: %v", err)
				return
			}
			dep, err := o.Provision(bg, spec)
			if err != nil {
				continue // exhaustion or mid-failure churn is fine
			}
			if i%2 == 0 {
				_, _ = o.Delete(bg, dep.ID)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			victim := victims[i%len(victims)]
			_, _ = failNode(s, victim)
			_ = s.RecoverNode(victim)
		}
	}()
	wg.Wait()

	if !o.Allocator().Disjoint() || !o.Slices().Disjoint() {
		t.Fatal("disjointness violated under concurrent failure/provision")
	}
	for _, dep := range s.Deployments() {
		if dep.State != StateActive {
			continue
		}
		if got := len(o.Controller().RulesForFlow(dep.FlowKey())); got != len(dep.Path) {
			t.Fatalf("deployment %d: rules %d != path %d", dep.ID, got, len(dep.Path))
		}
	}
}

// TestMoveNFRestoresStateOnRepathFailure: when the re-path after a
// migration fails, the instance must move back and the deployment
// record (placement, path, rules, λ) must be exactly as before.
func TestMoveNFRestoresStateOnRepathFailure(t *testing.T) {
	_, o := newOrch(t)
	dep, err := o.Provision(bg, webSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	pathSet := make(map[topology.NodeID]bool)
	for _, n := range dep.Path {
		pathSet[n] = true
	}
	// Find a PM that is reachable only through ToRs that are not on the
	// deployment's path, so downing them strands the PM without
	// invalidating the existing route.
	var target topology.NodeID
	var tors []topology.NodeID
	for _, pm := range o.topo.NodeIDs(topology.KindPhysicalMachine) {
		if pathSet[pm] {
			continue
		}
		candTors := o.topo.ToRsOfPM(pm)
		onPath := false
		for _, tor := range candTors {
			if pathSet[tor] {
				onPath = true
				break
			}
		}
		if !onPath && len(candTors) > 0 {
			target, tors = pm, candTors
			break
		}
	}
	if target == 0 {
		t.Skip("no strandable PM off the path on this seed")
	}
	for _, tor := range tors {
		if err := o.topo.SetNodeDown(tor, true); err != nil {
			t.Fatalf("SetNodeDown: %v", err)
		}
	}
	o.InvalidateVMCache()

	before := o.Deployment(dep.ID)
	instBefore := o.Manager().Instance(before.Instances[0])
	rulesBefore := len(o.Controller().RulesForFlow(before.FlowKey()))

	if err := o.MoveNF(dep.ID, 0, target); err == nil {
		t.Fatal("MoveNF to a stranded PM succeeded, want re-path failure")
	}

	after := o.Deployment(dep.ID)
	instAfter := o.Manager().Instance(after.Instances[0])
	if instAfter.Host != instBefore.Host {
		t.Fatalf("instance not restored: host %d -> %d", instBefore.Host, instAfter.Host)
	}
	if after.Placement.Hosts[0] != before.Placement.Hosts[0] {
		t.Fatalf("placement mutated: %d -> %d", before.Placement.Hosts[0], after.Placement.Hosts[0])
	}
	if len(after.Path) != len(before.Path) {
		t.Fatalf("path mutated: %v -> %v", before.Path, after.Path)
	}
	if got := len(o.Controller().RulesForFlow(after.FlowKey())); got != rulesBefore {
		t.Fatalf("rules changed: %d -> %d", rulesBefore, got)
	}
	if after.Conversions != before.Conversions {
		t.Fatalf("conversions mutated: %d -> %d", before.Conversions, after.Conversions)
	}
	// The deployment still works: a valid move elsewhere succeeds.
	for _, tor := range tors {
		if err := o.topo.SetNodeDown(tor, false); err != nil {
			t.Fatalf("SetNodeDown: %v", err)
		}
	}
	o.InvalidateVMCache()
	if err := o.MoveNF(dep.ID, 0, target); err != nil {
		t.Fatalf("MoveNF after recovery: %v", err)
	}
}

// TestVMCacheInvalidation: the service → live-VM cache must drop VMs
// whose host fails and restore them on recovery.
func TestVMCacheInvalidation(t *testing.T) {
	s, o := newOrch(t)
	o.topoMu.RLock()
	webBefore := len(o.liveVMs("web"))
	o.topoMu.RUnlock()
	if webBefore == 0 {
		t.Fatal("no web VMs on seed topology")
	}
	// Fail a PM hosting a web VM.
	var pm topology.NodeID
	for _, n := range o.topo.Nodes(topology.KindVM) {
		if n.Service == "web" {
			pm = n.Host
			break
		}
	}
	if _, err := failNode(s, pm); err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	o.topoMu.RLock()
	webDuring := len(o.liveVMs("web"))
	o.topoMu.RUnlock()
	if webDuring >= webBefore {
		t.Fatalf("cache not invalidated: %d live web VMs, want < %d", webDuring, webBefore)
	}
	if err := s.RecoverNode(pm); err != nil {
		t.Fatalf("RecoverNode: %v", err)
	}
	o.topoMu.RLock()
	webAfter := len(o.liveVMs("web"))
	o.topoMu.RUnlock()
	if webAfter != webBefore {
		t.Fatalf("cache not refreshed on recovery: %d, want %d", webAfter, webBefore)
	}
}

// TestRepairReportHelpers covers the report classification helpers.
func TestRepairReportHelpers(t *testing.T) {
	reports := []RepairReport{
		{ID: 1, Action: ActionRepathed},
		{ID: 2, Action: ActionFailed, Err: errors.New("x")},
		{ID: 3, Action: ActionPatched},
		{ID: 4, Action: ActionSkipped},
		{ID: 5, Action: ActionRebuilt},
		{ID: 6, Action: ActionReplaced},
	}
	got := RepairedIDs(reports)
	want := []DeploymentID{1, 3, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("RepairedIDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RepairedIDs = %v, want %v", got, want)
		}
	}
}
