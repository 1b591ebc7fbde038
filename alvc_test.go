package alvc

import (
	"context"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/alvc/alvc/internal/orch"
)

// ctx is what the package's tests pass where a request context goes.
var ctx = context.Background()

func archConfig() TopologyConfig {
	cfg := DefaultTopology()
	cfg.Racks = 6
	cfg.OPSCount = 18
	cfg.ToRUplinks = 12
	cfg.OPSChords = 2
	cfg.OptoFrac = 0.6
	return cfg
}

func TestNewAndSummarize(t *testing.T) {
	arch, err := New(archConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s := arch.Summarize()
	if s.VMs == 0 || s.OPSs != 18 || s.ToRs != 6 {
		t.Fatalf("summary = %+v", s)
	}
	if s.ActiveDeployments != 0 || s.Clusters != 0 {
		t.Fatalf("fresh architecture not empty: %+v", s)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := archConfig()
	cfg.Racks = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("bad config accepted")
	}
	if _, err := FromTopology(nil); err == nil {
		t.Fatal("nil topology accepted")
	}
}

func TestDeployLifecycleThroughFacade(t *testing.T) {
	arch, err := New(archConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec, err := LinearChain("c1", "tenant-a", "web", 2, 1<<20, "firewall", "lb")
	if err != nil {
		t.Fatalf("LinearChain: %v", err)
	}
	dep, err := arch.Deploy(ctx, spec)
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if got := arch.Deployment(dep.ID); got == nil || got.State != orch.StateActive {
		t.Fatal("deployment not active")
	}
	s := arch.Summarize()
	if s.ActiveDeployments != 1 || s.Clusters != 1 || s.InstalledRules == 0 {
		t.Fatalf("summary after deploy = %+v", s)
	}
	if err := arch.Apply(dep.ID, ChangeBandwidth(5)); err != nil {
		t.Fatalf("modify: %v", err)
	}
	if err := arch.Apply(dep.ID, ChangeVersion()); err != nil {
		t.Fatalf("upgrade: %v", err)
	}
	res, err := arch.MeasureDeployment(dep.ID, 10)
	if err != nil {
		t.Fatalf("MeasureDeployment: %v", err)
	}
	if res.Flows != 10 || res.MeanHops == 0 {
		t.Fatalf("flow result = %+v", res)
	}
	if _, err := arch.Delete(ctx, dep.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if arch.Summarize().ActiveDeployments != 0 {
		t.Fatal("deployment not removed from summary")
	}
	if _, err := arch.MeasureDeployment(999, 1); err == nil {
		t.Fatal("measuring unknown deployment accepted")
	}
	if _, err := arch.MeasureDeployment(dep.ID, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestBuildServiceClusters(t *testing.T) {
	arch, err := New(archConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	vcs, err := arch.BuildServiceClusters()
	if err != nil {
		t.Fatalf("BuildServiceClusters: %v", err)
	}
	if len(vcs) != 3 {
		t.Fatalf("clusters = %d, want 3 services", len(vcs))
	}
	if len(arch.Clusters()) != 3 {
		t.Fatal("Clusters() inconsistent")
	}
	for _, vc := range vcs {
		if err := arch.ReleaseCluster(vc.ID); err != nil {
			t.Fatalf("ReleaseCluster: %v", err)
		}
	}
	if len(arch.Clusters()) != 0 {
		t.Fatal("clusters remain after release")
	}
}

func TestClusterAndChainShareOPSPool(t *testing.T) {
	// Service clusters claim OPSs; a subsequent chain deployment must
	// build its AL from the remainder (shared allocator).
	arch, err := New(archConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := arch.BuildServiceClusters(); err != nil {
		t.Fatalf("BuildServiceClusters: %v", err)
	}
	claimed := make(map[NodeID]bool)
	for _, vc := range arch.Clusters() {
		for _, ops := range vc.AL.OPSs {
			claimed[ops] = true
		}
	}
	spec, err := LinearChain("c1", "t", "web", 1, 1<<20, "firewall")
	if err != nil {
		t.Fatalf("LinearChain: %v", err)
	}
	dep, err := arch.Deploy(ctx, spec)
	if err != nil {
		// Acceptable outcome: pool exhausted. The invariant is that it
		// must NOT double-allocate.
		return
	}
	for _, ops := range dep.VC.AL.OPSs {
		if claimed[ops] {
			t.Fatalf("OPS %d allocated to both a service cluster and a chain", ops)
		}
	}
}

func TestWithOptions(t *testing.T) {
	arch, err := New(archConfig(),
		WithBuilder(GreedyBuilder{}),
		WithPolicy(OptimalPlacement{}),
		WithPerRunAccounting(),
		WithConversionCost(1e-12, 1e-4),
	)
	if err != nil {
		t.Fatalf("New with options: %v", err)
	}
	spec, err := LinearChain("c1", "t", "web", 1, 1<<20, "firewall", "dpi")
	if err != nil {
		t.Fatalf("LinearChain: %v", err)
	}
	dep, err := arch.Deploy(ctx, spec)
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if dep.Placement.Policy != "optimal" {
		t.Fatalf("policy = %s", dep.Placement.Policy)
	}
}

func TestNFCatalogExposed(t *testing.T) {
	names := NFCatalog()
	if len(names) < 8 {
		t.Fatalf("catalog = %v", names)
	}
}

func TestFacadeFailureRecovery(t *testing.T) {
	arch, err := New(archConfig(), WithWavelengths(8))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec, err := LinearChain("c1", "tenant-a", "web", 2, 1<<20, "firewall", "lb", "dpi")
	if err != nil {
		t.Fatalf("LinearChain: %v", err)
	}
	dep, err := arch.Deploy(ctx, spec)
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if dep.Lambda < 0 {
		t.Fatalf("lambda = %d, want assigned with WithWavelengths", dep.Lambda)
	}
	victim := dep.Slice.OPSs[0]
	reports, err := arch.Fail(ctx, NewFailures([]NodeID{victim}, nil))
	if err != nil {
		t.Fatalf("Fail: %v", err)
	}
	repaired := RepairedIDs(reports)
	if len(repaired) != 1 || repaired[0] != dep.ID {
		t.Fatalf("repaired = %v (reports %+v)", repaired, reports)
	}
	after := arch.Deployment(dep.ID)
	if after.Repairs != 1 || after.Slice.Contains(victim) {
		t.Fatalf("repair did not move off the failed OPS: %+v", after.Slice.OPSs)
	}
	if err := arch.Recover(NewFailures([]NodeID{victim}, nil)); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if err := arch.Repair(dep.ID); err != nil {
		t.Fatalf("manual Repair: %v", err)
	}
	if arch.Deployment(dep.ID).Repairs != 2 {
		t.Fatal("manual repair not counted")
	}
	if _, err := arch.Fail(ctx, NewFailures([]NodeID{999999}, nil)); err == nil {
		t.Fatal("unknown node accepted")
	}
}

// TestCloseFlushesPendingFailures: a failure report still held by the
// debouncer when the architecture closes is repaired by Close, once —
// not dropped with the window. Counts only: the hour-long window never
// expires in the test.
func TestCloseFlushesPendingFailures(t *testing.T) {
	arch, err := New(archConfig(), WithFailureDebounce(time.Hour))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec, err := LinearChain("c1", "tenant-a", "web", 2, 1<<20, "firewall", "lb")
	if err != nil {
		t.Fatalf("LinearChain: %v", err)
	}
	dep, err := arch.Deploy(ctx, spec)
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	victim := NodeID(-1)
	for _, n := range dep.Path {
		if dep.Slice.Contains(n) {
			victim = n
			break
		}
	}
	if victim < 0 {
		t.Fatalf("no slice OPS on the path %v", dep.Path)
	}
	arch.ReportFailures(ctx, NewFailures([]NodeID{victim}, nil))
	if nodes, links := arch.Debouncer().Pending(); nodes != 1 || links != 0 {
		t.Fatalf("before Close: pending (%d, %d), want (1, 0)", nodes, links)
	}
	arch.Close()
	if nodes, links := arch.Debouncer().Pending(); nodes != 0 || links != 0 {
		t.Fatalf("after Close: pending (%d, %d), want (0, 0)", nodes, links)
	}
	if st, _ := arch.FailureDebounceStats(); st.Batches != 1 {
		t.Fatalf("after Close: %d batches flushed, want 1", st.Batches)
	}
	if got := arch.Deployment(dep.ID).Repairs; got != 1 {
		t.Fatalf("after Close: the chain was repaired %d times, want once", got)
	}
}

// TestOneFormPerVerb pins the shape of the orchestration surface: no
// type offers a verb twice (X beside XCtx), and a shard offers none of
// the fleet-level entry points — failures, batches and hooks are the
// shard set's.
func TestOneFormPerVerb(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf(&orch.Sharded{}),
		reflect.TypeOf(&orch.Orchestrator{}),
		reflect.TypeOf(&orch.FailureDebouncer{}),
		reflect.TypeOf(&Architecture{}),
	} {
		for i := 0; i < typ.NumMethod(); i++ {
			name := typ.Method(i).Name
			if _, twin := typ.MethodByName(name + "Ctx"); twin {
				t.Errorf("%v has both %s and %sCtx", typ, name, name)
			}
			if strings.HasSuffix(name, "Ctx") {
				t.Errorf("%v.%s: the context form goes under the plain name", typ, name)
			}
		}
	}
	// One failure set from the wire to the reconciler: no verb of the
	// failure plane keeps a per-node or per-link twin.
	twin := regexp.MustCompile(`^(Fail|Recover|Set)(Node|Link)s?(Down)?$|^(Node|Link)Impact$|^FailBatch$`)
	for _, typ := range []reflect.Type{
		reflect.TypeOf(&orch.Sharded{}),
		reflect.TypeOf(&orch.Orchestrator{}),
		reflect.TypeOf(&Architecture{}),
		reflect.TypeOf(&Topology{}),
	} {
		for i := 0; i < typ.NumMethod(); i++ {
			if name := typ.Method(i).Name; twin.MatchString(name) {
				t.Errorf("%v.%s: failures, recoveries and blast radii take one Failures set", typ, name)
			}
		}
	}
	// One edit verb: Apply(id, Change) on every layer, no per-edit twin.
	for _, typ := range []reflect.Type{
		reflect.TypeOf(&orch.Sharded{}),
		reflect.TypeOf(&orch.Orchestrator{}),
		reflect.TypeOf(&Architecture{}),
	} {
		for _, name := range []string{"Modify", "Upgrade", "ScaleNF", "MoveNF"} {
			if _, twin := typ.MethodByName(name); twin {
				t.Errorf("%v.%s: an edit is Apply(id, Change)", typ, name)
			}
		}
		if _, ok := typ.MethodByName("Apply"); !ok {
			t.Errorf("%v has no Apply", typ)
		}
	}
	shard := reflect.TypeOf(&orch.Orchestrator{})
	for i := 0; i < shard.NumMethod(); i++ {
		name := shard.Method(i).Name
		if strings.HasPrefix(name, "Handle") || strings.HasPrefix(name, "Set") || name == "ProvisionBatch" {
			t.Errorf("shard method %s belongs to the shard set", name)
		}
	}
}
