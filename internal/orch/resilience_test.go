package orch

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/placement"
	"github.com/alvc/alvc/internal/topology"
)

// triTopo builds a deterministic dual-rack topology with three fully
// disjoint ToR/OPS routes between the racks:
//
//	PM1 —[A0]— O0 —[B0]— PM2     (latency 1 per link: the primary)
//	PM1 —[A1]— O1 —[B1]— PM2     (latency 2: the standby)
//	PM1 —[A2]— O2 —[B2]— PM2     (latency 3: the spare)
//
// with one web VM on each PM. Routes share only the PMs/VMs, so a
// transit failure on one route must always leave a live standby.
type triIDs struct {
	pm1, pm2, vm1, vm2 topology.NodeID
	tors               [2][3]topology.NodeID // [side][route]
	opss               [3]topology.NodeID
	pmTorLinks         [2][3]topology.LinkID // PM→ToR link per side/route
	torOpsLinks        [2][3]topology.LinkID // ToR→OPS link per side/route
}

func triTopo(t *testing.T) (*topology.Topology, *triIDs) {
	t.Helper()
	topo := topology.New()
	ids := &triIDs{}
	big := topology.Resources{CPUCores: 64, MemoryGB: 256, StorageGB: 1024}
	ids.pm1 = topo.AddPM(0, big)
	ids.pm2 = topo.AddPM(1, big)
	var err error
	if ids.vm1, err = topo.AddVM(ids.pm1, "web"); err != nil {
		t.Fatalf("AddVM: %v", err)
	}
	if ids.vm2, err = topo.AddVM(ids.pm2, "web"); err != nil {
		t.Fatalf("AddVM: %v", err)
	}
	for route := 0; route < 3; route++ {
		ids.tors[0][route] = topo.AddToR(0)
		ids.tors[1][route] = topo.AddToR(1)
		ids.opss[route] = topo.AddOPS(true, topology.Resources{CPUCores: 4, MemoryGB: 8, StorageGB: 16})
		lat := float64(1 + route)
		link := func(a, b topology.NodeID, kind topology.LinkKind) topology.LinkID {
			id, err := topo.AddLink(a, b, kind, 10, lat)
			if err != nil {
				t.Fatalf("AddLink: %v", err)
			}
			return id
		}
		ids.pmTorLinks[0][route] = link(ids.pm1, ids.tors[0][route], topology.LinkElectronic)
		ids.pmTorLinks[1][route] = link(ids.pm2, ids.tors[1][route], topology.LinkElectronic)
		ids.torOpsLinks[0][route] = link(ids.tors[0][route], ids.opss[route], topology.LinkBoundary)
		ids.torOpsLinks[1][route] = link(ids.tors[1][route], ids.opss[route], topology.LinkBoundary)
	}
	return topo, ids
}

func triOrch(t *testing.T, cfg Config) (*Sharded, *Orchestrator, *triIDs) {
	t.Helper()
	topo, ids := triTopo(t)
	cfg.Topo = topo
	if cfg.Policy == nil {
		// Keep VNFs on PMs so OPS/ToR transit failures never classify as
		// host failures.
		cfg.Policy = placement.AllElectronic{}
	}
	s, o := newTestOrch(t, cfg)
	return s, o, ids
}

func triSpec(t *testing.T, name string) chain.Spec {
	t.Helper()
	s, err := chain.Linear(name, "tenant-a", "web", 1, 1<<20, "firewall")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	return s
}

func pathContains(path []topology.NodeID, n topology.NodeID) bool {
	for _, p := range path {
		if p == n {
			return true
		}
	}
	return false
}

// TestProvisionPlansDisjointStandby: the standby stage must produce a
// fully transit-disjoint alternate (the second route) at provision
// time, and both primary and standby must be registered in the reverse
// indexes.
func TestProvisionPlansDisjointStandby(t *testing.T) {
	_, o, ids := triOrch(t, Config{})
	dep, err := o.Provision(bg, triSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if dep.Standby == nil {
		t.Fatal("no standby planned")
	}
	if !dep.Standby.Disjoint {
		t.Fatalf("standby not disjoint: primary %v standby %v", dep.Path, dep.Standby.Path)
	}
	// Primary takes route 0 (cheapest), standby route 1 (next).
	if !pathContains(dep.Path, ids.opss[0]) {
		t.Fatalf("primary %v does not use route 0", dep.Path)
	}
	if !pathContains(dep.Standby.Path, ids.opss[1]) {
		t.Fatalf("standby %v does not use route 1", dep.Standby.Path)
	}
	// Transit disjointness: no shared ToR/OPS.
	primary := make(map[topology.NodeID]bool)
	for _, n := range dep.Path {
		primary[n] = true
	}
	for _, n := range dep.Standby.Path {
		kind := o.topo.Node(n).Kind
		if (kind == topology.KindToR || kind == topology.KindOPS) && primary[n] {
			t.Fatalf("standby shares transit node %d with primary", n)
		}
	}
	// Reverse indexes cover the standby too: a failure that consumes
	// only the standby must still find the deployment.
	for _, n := range []topology.NodeID{ids.tors[0][1], ids.opss[1]} {
		o.mu.Lock()
		hit := slices.Contains(o.indexed(n), dep.ID)
		o.mu.Unlock()
		if !hit {
			t.Fatalf("standby node %d missing from reverse index", n)
		}
	}
	o.mu.Lock()
	linkHit := slices.Contains(o.indexed(ids.torOpsLinks[0][1]), dep.ID)
	o.mu.Unlock()
	if !linkHit {
		t.Fatal("standby link missing from reverse link index")
	}
}

// TestStandbySwapZeroPathComputations is the tentpole acceptance test:
// a transit failure on the primary path, with a live standby, must
// repair by promoting the standby — performing zero shortest-path
// computations and zero standby searches (asserted via the controller's
// counting hooks), keeping VC/slice/instances untouched, and consuming
// the standby.
func TestStandbySwapZeroPathComputations(t *testing.T) {
	s, o, ids := triOrch(t, Config{Wavelengths: 2})
	dep, err := o.Provision(bg, triSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if dep.Standby == nil {
		t.Fatal("no standby planned")
	}
	wantPath := append([]topology.NodeID(nil), dep.Standby.Path...)
	victim := ids.tors[0][0] // primary-route ToR: pure transit
	if !pathContains(dep.Path, victim) {
		t.Fatalf("test setup: victim %d not on primary %v", victim, dep.Path)
	}

	before := o.Controller().PathComputations()
	hits, misses := o.Controller().AlternativesCacheStats()
	reports, err := failNode(s, victim)
	if err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	after := o.Controller().PathComputations()
	if after != before {
		t.Fatalf("standby swap ran %d shortest-path computations, want 0", after-before)
	}
	if h, m := o.Controller().AlternativesCacheStats(); h+m != hits+misses {
		t.Fatalf("standby swap asked %d standby searches, want 0", h+m-hits-misses)
	}
	if len(reports) != 1 || reports[0].ID != dep.ID || reports[0].Action != ActionSwapped {
		t.Fatalf("reports = %+v, want one swapped for %d", reports, dep.ID)
	}

	got := o.Deployment(dep.ID)
	if got.State != StateActive || got.Repairs != 1 {
		t.Fatalf("after swap: state=%s repairs=%d", got.State, got.Repairs)
	}
	if len(got.Path) != len(wantPath) {
		t.Fatalf("path = %v, want promoted standby %v", got.Path, wantPath)
	}
	for i := range wantPath {
		if got.Path[i] != wantPath[i] {
			t.Fatalf("path = %v, want promoted standby %v", got.Path, wantPath)
		}
	}
	if got.Standby != nil {
		t.Fatalf("standby not consumed by swap: %+v", got.Standby)
	}
	// Identity untouched: same VC, slice, instances.
	if got.VC.ID != dep.VC.ID || got.Slice.ID != dep.Slice.ID {
		t.Fatal("swap touched cluster or slice identity")
	}
	for i, id := range got.Instances {
		if id != dep.Instances[i] {
			t.Fatalf("swap replaced instance %d: %d -> %d", i, dep.Instances[i], id)
		}
	}
	// Rules follow the standby; wavelength retuned onto its links with
	// the grace window closed.
	if n := len(o.Controller().RulesForFlow(got.FlowKey())); n != len(got.Path) {
		t.Fatalf("rules = %d, want %d", n, len(got.Path))
	}
	if o.WDM().InGrace(got.FlowKey()) {
		t.Fatal("two-λ grace window left open after swap")
	}
	if a, ok := o.WDM().AssignmentOf(got.FlowKey()); !ok || len(a.Links) == 0 {
		t.Fatalf("no wavelength on promoted path: %+v ok=%v", a, ok)
	}
}

// TestColdRepathWhenStandbyDisabled: with planning disabled
// (NoStandby) the same transit failure must fall back to the cold
// re-path — shortest-path computations happen at recovery time.
func TestColdRepathWhenStandbyDisabled(t *testing.T) {
	s, o, ids := triOrch(t, Config{NoStandby: true})
	dep, err := o.Provision(bg, triSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if dep.Standby != nil {
		t.Fatalf("standby planned despite NoStandby: %+v", dep.Standby)
	}
	before := o.Controller().PathComputations()
	reports, err := failNode(s, ids.tors[0][0])
	if err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	if len(reports) != 1 || reports[0].Action != ActionRepathed {
		t.Fatalf("reports = %+v, want repathed", reports)
	}
	if o.Controller().PathComputations() == before {
		t.Fatal("cold repath ran no shortest-path computation — counting hook broken?")
	}
	got := o.Deployment(dep.ID)
	if pathContains(got.Path, ids.tors[0][0]) {
		t.Fatalf("failed ToR still on path %v", got.Path)
	}
}

// TestLinkFailureSwapsToStandby: a dead link on the primary data path
// must produce a per-chain report exactly like a node failure, and with
// a live standby the repair is a swap with zero shortest-path runs.
func TestLinkFailureSwapsToStandby(t *testing.T) {
	s, o, ids := triOrch(t, Config{})
	dep, err := o.Provision(bg, triSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	victim := ids.torOpsLinks[0][0] // primary boundary link
	before := o.Controller().PathComputations()
	reports, err := failLink(s, victim)
	if err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	if o.Controller().PathComputations() != before {
		t.Fatal("link-failure standby swap ran shortest-path computations")
	}
	if len(reports) != 1 || reports[0].ID != dep.ID || reports[0].Action != ActionSwapped {
		t.Fatalf("reports = %+v, want one swapped for %d", reports, dep.ID)
	}
	got := o.Deployment(dep.ID)
	if got.State != StateActive || got.Repairs != 1 {
		t.Fatalf("after link swap: state=%s repairs=%d", got.State, got.Repairs)
	}
	if pathContains(got.Path, ids.opss[0]) {
		t.Fatalf("path %v still crosses the dead link's route", got.Path)
	}
	// Recovery of the link is accepted and idempotent for deployments.
	if err := s.RecoverLink(victim); err != nil {
		t.Fatalf("RecoverLink: %v", err)
	}
}

// TestStandbyOnlyFailureReplansStandby: a failure that consumes only
// the standby (primary untouched) must replan the anticipation without
// counting as a repair, and the new standby must avoid the dead node.
func TestStandbyOnlyFailureReplansStandby(t *testing.T) {
	s, o, ids := triOrch(t, Config{})
	dep, err := o.Provision(bg, triSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	victim := ids.tors[0][1] // standby-route ToR; not on primary, not in slice...
	if pathContains(dep.Path, victim) {
		t.Fatalf("test setup: victim %d on primary %v", victim, dep.Path)
	}
	if !pathContains(dep.Standby.Path, victim) {
		t.Fatalf("test setup: victim %d not on standby %v", victim, dep.Standby.Path)
	}
	if dep.Slice.Contains(victim) {
		t.Fatalf("test setup: victim %d in slice", victim)
	}
	pathBefore := append([]topology.NodeID(nil), dep.Path...)

	reports, err := failNode(s, victim)
	if err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	if len(reports) != 1 || reports[0].ID != dep.ID || reports[0].Action != ActionRestandby {
		t.Fatalf("reports = %+v, want one restandby for %d", reports, dep.ID)
	}
	got := o.Deployment(dep.ID)
	if got.Repairs != 0 {
		t.Fatalf("restandby counted as a repair: %d", got.Repairs)
	}
	for i := range pathBefore {
		if got.Path[i] != pathBefore[i] {
			t.Fatalf("primary path changed: %v -> %v", pathBefore, got.Path)
		}
	}
	if got.Standby == nil {
		t.Fatal("standby not replanned")
	}
	if pathContains(got.Standby.Path, victim) {
		t.Fatalf("replanned standby %v still uses dead node %d", got.Standby.Path, victim)
	}
	// The third route is fully disjoint, so the replan should find it.
	if !pathContains(got.Standby.Path, ids.opss[2]) {
		t.Fatalf("replanned standby %v does not use the spare route", got.Standby.Path)
	}
}

// TestRackEventSingleBatchReconciliation: a simulated rack event (a ToR
// plus its PMs) must run as one batch reconciliation — each affected
// chain visited at most once, classified against the union of dead
// resources.
func TestRackEventSingleBatchReconciliation(t *testing.T) {
	s, o := newOrch(t)
	var deps []*Deployment
	for _, svc := range []string{"web", "mapreduce", "sns"} {
		spec, err := chain.Linear("chain-"+svc, "t-"+svc, svc, 1, 1<<20, "firewall", "nat")
		if err != nil {
			t.Fatalf("Linear: %v", err)
		}
		dep, err := o.Provision(bg, spec)
		if err != nil {
			t.Fatalf("Provision %s: %v", svc, err)
		}
		deps = append(deps, dep)
	}
	repairsBefore := make(map[DeploymentID]int)
	for _, dep := range s.Deployments() {
		repairsBefore[dep.ID] = dep.Repairs
	}

	// The rack: one ToR and every PM wired to it.
	var tor topology.NodeID
	for _, id := range o.topo.NodeIDs(topology.KindToR) {
		tor = id
		break
	}
	rack := []topology.NodeID{tor}
	for _, pm := range o.topo.NodeIDs(topology.KindPhysicalMachine) {
		for _, pt := range o.topo.ToRsOfPM(pm) {
			if pt == tor {
				rack = append(rack, pm)
				break
			}
		}
	}
	if len(rack) < 2 {
		t.Fatalf("test setup: rack has no PMs under ToR %d", tor)
	}

	reports, err := s.HandleFailures(bg, rack, nil)
	if err != nil &&
		!strings.Contains(err.Error(), "no live VMs") && !errors.Is(err, ErrBusy) {
		// A rack event may legitimately kill a service's only VMs; any
		// other failure is a bug.
		t.Fatalf("HandleFailures: %v", err)
	}
	// Each chain visited at most once: no duplicate IDs in the reports.
	seen := make(map[DeploymentID]bool)
	for _, rep := range reports {
		if seen[rep.ID] {
			t.Fatalf("deployment %d visited twice in one batch: %+v", rep.ID, reports)
		}
		seen[rep.ID] = true
	}
	// And at most one reconciliation landed per chain.
	for _, dep := range s.Deployments() {
		if delta := dep.Repairs - repairsBefore[dep.ID]; delta > 1 {
			t.Fatalf("deployment %d repaired %d times in one batch event", dep.ID, delta)
		}
	}
	// Chains the event did not touch must not be reported.
	for _, dep := range deps {
		if seen[dep.ID] {
			continue
		}
		got := o.Deployment(dep.ID)
		if got.Repairs != repairsBefore[dep.ID] {
			t.Fatalf("unreported deployment %d gained repairs", dep.ID)
		}
	}
}

// TestRackEventStrandedVMsExcludedFromRebuild: a rack event that kills
// an endpoint's host forces a rebuild; VMs stranded by the same event
// (host up, but its only ToR dead) must be excluded from the rebuild's
// clustering input instead of failing the vertex-cover projection.
func TestRackEventStrandedVMsExcludedFromRebuild(t *testing.T) {
	topo, ids := triTopo(t)
	// A third web VM on a PM single-homed to the primary route's ToR:
	// killing that ToR strands it without downing its host.
	pm3 := topo.AddPM(0, topology.Resources{CPUCores: 64, MemoryGB: 256, StorageGB: 1024})
	vm3, err := topo.AddVM(pm3, "web")
	if err != nil {
		t.Fatalf("AddVM: %v", err)
	}
	if _, err := topo.AddLink(pm3, ids.tors[0][0], topology.LinkElectronic, 10, 1); err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	s, o := newTestOrch(t, Config{Topo: topo, Policy: placement.AllElectronic{}})
	dep, err := o.Provision(bg, triSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	// The rack event: the shared ToR plus the src endpoint's host.
	srcHost := o.topo.Node(dep.Path[0]).Host
	reports, err := s.HandleFailures(bg, []topology.NodeID{ids.tors[0][0], srcHost}, nil)
	if err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	var rep *RepairReport
	for i := range reports {
		if reports[i].ID == dep.ID {
			rep = &reports[i]
		}
	}
	if rep == nil || !rep.Succeeded() {
		t.Fatalf("reports = %+v, want a successful repair for %d", reports, dep.ID)
	}
	got := o.Deployment(dep.ID)
	if got.State != StateActive {
		t.Fatalf("state = %s, want active", got.State)
	}
	for _, n := range got.Path {
		if n == vm3 || n == srcHost || n == ids.tors[0][0] {
			t.Fatalf("rebuilt path %v uses a dead or stranded node %d", got.Path, n)
		}
	}
}

// TestHandleFailuresUnknownResourceRejectedAtomically: an unknown node
// or link anywhere in the batch must reject the whole event before any
// resource is marked down.
func TestHandleFailuresUnknownResourceRejectedAtomically(t *testing.T) {
	s, o, ids := triOrch(t, Config{})
	if _, err := o.Provision(bg, triSpec(t, "chain-1")); err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if _, err := s.HandleFailures(bg, []topology.NodeID{ids.tors[0][0], 99999}, nil); err == nil {
		t.Fatal("unknown node accepted")
	}
	if _, err := s.HandleFailures(bg, nil, []topology.LinkID{99999}); err == nil {
		t.Fatal("unknown link accepted")
	}
	if n := o.topo.Node(ids.tors[0][0]); n.Down {
		t.Fatal("batch with unknown member still marked nodes down")
	}
	reports, err := s.HandleFailures(bg, nil, nil)
	if err != nil || len(reports) != 0 {
		t.Fatalf("empty failure set: reports=%v err=%v", reports, err)
	}
}

// TestSwapThenColdRepathAfterStandbyConsumed: once a swap consumed the
// standby, a second primary failure must fall back to the cold re-path
// (which replans a fresh standby as part of its pipeline suffix).
func TestSwapThenColdRepathAfterStandbyConsumed(t *testing.T) {
	s, o, ids := triOrch(t, Config{})
	dep, err := o.Provision(bg, triSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if reports, err := failNode(s, ids.tors[0][0]); err != nil || reports[0].Action != ActionSwapped {
		t.Fatalf("first failure: reports=%+v err=%v", reports, err)
	}
	// Now on route 1 with no standby. Fail its ToR: cold repath to
	// route 2, and the suffix replans a standby (none remains — routes
	// 0 and 1 are dead — so it stays nil, best-effort).
	reports, err := failNode(s, ids.tors[0][1])
	if err != nil {
		t.Fatalf("second failure: %v", err)
	}
	if len(reports) != 1 || reports[0].Action != ActionRepathed {
		t.Fatalf("second failure reports = %+v, want repathed", reports)
	}
	got := o.Deployment(dep.ID)
	if got.State != StateActive || got.Repairs != 2 {
		t.Fatalf("after two failures: state=%s repairs=%d", got.State, got.Repairs)
	}
	if !pathContains(got.Path, ids.opss[2]) {
		t.Fatalf("path %v not on the spare route", got.Path)
	}
}

// TestNodeAndLinkImpact: the blast-radius queries must report each
// chain with the exact roles a resource plays, and nothing for
// untouched resources.
func TestNodeAndLinkImpact(t *testing.T) {
	_, o, ids := triOrch(t, Config{})
	dep, err := o.Provision(bg, triSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	// Primary-route ToR: role path only.
	entries := o.NodeImpact(ids.tors[0][0])
	if len(entries) != 1 || entries[0].ID != dep.ID {
		t.Fatalf("NodeImpact(primary ToR) = %+v", entries)
	}
	if len(entries[0].Roles) != 1 || entries[0].Roles[0] != "path" {
		t.Fatalf("roles = %v, want [path]", entries[0].Roles)
	}
	// Standby-route OPS: on the standby only (the AL cover needs just
	// the primary route's OPS).
	entries = o.NodeImpact(ids.opss[1])
	if len(entries) != 1 || len(entries[0].Roles) != 1 || entries[0].Roles[0] != "standby" {
		t.Fatalf("NodeImpact(standby OPS) = %+v, want roles [standby]", entries)
	}
	// A slice OPS reports the slice role.
	sliceEntries := o.NodeImpact(dep.Slice.OPSs[0])
	if len(sliceEntries) != 1 {
		t.Fatalf("NodeImpact(slice OPS) = %+v", sliceEntries)
	}
	hasSlice := false
	for _, r := range sliceEntries[0].Roles {
		if r == "slice" {
			hasSlice = true
		}
	}
	if !hasSlice {
		t.Fatalf("slice OPS roles = %v, want slice included", sliceEntries[0].Roles)
	}
	// VNF host PM: host + path.
	hostEntries := o.NodeImpact(dep.Placement.Hosts[0])
	if len(hostEntries) != 1 {
		t.Fatalf("NodeImpact(host) = %+v", hostEntries)
	}
	hasHost := false
	for _, r := range hostEntries[0].Roles {
		if r == "host" {
			hasHost = true
		}
	}
	if !hasHost {
		t.Fatalf("host roles = %v, want host included", hostEntries[0].Roles)
	}
	// Spare-route ToR: zero blast radius.
	if entries := o.NodeImpact(ids.tors[0][2]); len(entries) != 0 {
		t.Fatalf("NodeImpact(spare ToR) = %+v, want empty", entries)
	}
	// Link variants.
	if entries := o.LinkImpact(ids.torOpsLinks[0][0]); len(entries) != 1 ||
		len(entries[0].Roles) != 1 || entries[0].Roles[0] != "path" {
		t.Fatalf("LinkImpact(primary link) = %+v", entries)
	}
	if entries := o.LinkImpact(ids.torOpsLinks[0][1]); len(entries) != 1 ||
		len(entries[0].Roles) != 1 || entries[0].Roles[0] != "standby" {
		t.Fatalf("LinkImpact(standby link) = %+v", entries)
	}
	if entries := o.LinkImpact(ids.torOpsLinks[0][2]); len(entries) != 0 {
		t.Fatalf("LinkImpact(spare link) = %+v, want empty", entries)
	}
	// After delete, every blast radius is empty.
	if _, err := o.Delete(bg, dep.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if entries := o.NodeImpact(ids.tors[0][0]); len(entries) != 0 {
		t.Fatalf("NodeImpact after delete = %+v", entries)
	}
}
