package alvc

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/alvc/alvc/internal/cluster"
	"github.com/alvc/alvc/internal/optimizer"
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
	dep, err := arch.Sharded().Provision(ctx, spec)
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if got := arch.Deployment(dep.ID); got == nil || got.State != orch.StateActive {
		t.Fatal("deployment not active")
	}
	s := arch.Summarize()
	if s.ActiveDeployments != 1 || s.Clusters != 1 || s.InstalledRules == 0 {
		t.Fatalf("summary after deploy = %+v", s)
	}
	if _, err := arch.Sharded().Apply(dep.ID, ChangeBandwidth(5)); err != nil {
		t.Fatalf("modify: %v", err)
	}
	if _, err := arch.Sharded().Apply(dep.ID, ChangeVersion()); err != nil {
		t.Fatalf("upgrade: %v", err)
	}
	res, err := arch.MeasureDeployment(dep.ID, 10)
	if err != nil {
		t.Fatalf("MeasureDeployment: %v", err)
	}
	if res.Flows != 10 || res.MeanHops == 0 {
		t.Fatalf("flow result = %+v", res)
	}
	if _, err := arch.Sharded().Delete(ctx, dep.ID); err != nil {
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
	vcs, err := arch.Sharded().BuildServiceClusters()
	if err != nil {
		t.Fatalf("BuildServiceClusters: %v", err)
	}
	if len(vcs) != 3 {
		t.Fatalf("clusters = %d, want 3 services", len(vcs))
	}
	if len(arch.Sharded().Clusters()) != 3 {
		t.Fatal("Clusters() inconsistent")
	}
	for _, vc := range vcs {
		if err := arch.Sharded().ReleaseCluster(vc.ID); err != nil {
			t.Fatalf("ReleaseCluster: %v", err)
		}
	}
	if len(arch.Sharded().Clusters()) != 0 {
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
	if _, err := arch.Sharded().BuildServiceClusters(); err != nil {
		t.Fatalf("BuildServiceClusters: %v", err)
	}
	claimed := make(map[NodeID]bool)
	for _, vc := range arch.Sharded().Clusters() {
		for _, ops := range vc.AL.OPSs {
			claimed[ops] = true
		}
	}
	spec, err := LinearChain("c1", "t", "web", 1, 1<<20, "firewall")
	if err != nil {
		t.Fatalf("LinearChain: %v", err)
	}
	dep, err := arch.Sharded().Provision(ctx, spec)
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

// TestReleaseClusterRefusesAChainsLayer: a deployed chain's cluster is
// its abstraction layer, so ReleaseCluster refuses its ID and changes
// nothing — the chain keeps its layer and Clusters() its entries, and no
// OPS goes back to the pool while the chain holds it (one OPS serves one
// AL, §III) — while a service cluster still releases. Every ID Clusters()
// lists names one cluster, at one shard and at four.
func TestReleaseClusterRefusesAChainsLayer(t *testing.T) {
	cfg := DefaultTopology()
	cfg.Racks, cfg.OPSCount, cfg.ToRUplinks, cfg.OPSChords = 4, 16, 16, 0
	cfg.Services = []string{"web"}
	cfg.PMCapacity = Resources{CPUCores: 1 << 20, MemoryGB: 1 << 20, StorageGB: 1 << 20}
	for _, shards := range []int{1, 4} {
		arch, err := New(cfg, WithShards(shards))
		if err != nil {
			t.Fatalf("%d shards: New: %v", shards, err)
		}
		service, err := arch.Sharded().BuildServiceClusters()
		if err != nil {
			t.Fatalf("%d shards: BuildServiceClusters: %v", shards, err)
		}
		var deps []*Deployment
		for i := 0; i < 8; i++ {
			spec, err := LinearChain(fmt.Sprintf("c%d", i), fmt.Sprintf("tenant-%d", i), "web", 1, 1<<20, "firewall")
			if err != nil {
				t.Fatalf("LinearChain: %v", err)
			}
			dep, err := arch.Sharded().Provision(ctx, spec)
			if err != nil {
				t.Fatalf("%d shards: Provision %d: %v", shards, i, err)
			}
			deps = append(deps, dep)
		}
		before := arch.Sharded().Clusters()
		seen := make(map[cluster.VCID]bool)
		for _, vc := range before {
			if seen[vc.ID] {
				t.Errorf("%d shards: VC ID %d names two clusters", shards, vc.ID)
			}
			seen[vc.ID] = true
		}
		for _, dep := range deps {
			if err := arch.Sharded().ReleaseCluster(dep.VC.ID); err == nil {
				t.Errorf("%d shards: ReleaseCluster(%d) dissolved chain %d's layer", shards, dep.VC.ID, dep.ID)
			}
			if now := arch.Deployment(dep.ID); now.State != orch.StateActive || !slices.Equal(now.VC.AL.OPSs, dep.VC.AL.OPSs) {
				t.Errorf("%d shards: chain %d changed: %v over %v, was over %v", shards, dep.ID, now.State, now.VC.AL.OPSs, dep.VC.AL.OPSs)
			}
		}
		if after := arch.Sharded().Clusters(); !slices.EqualFunc(after, before, func(a, b *VC) bool { return a.ID == b.ID }) {
			t.Errorf("%d shards: refused releases moved Clusters() from %d to %d entries", shards, len(before), len(after))
		}
		if err := arch.Sharded().ReleaseCluster(service[0].ID); err != nil {
			t.Errorf("%d shards: ReleaseCluster of a service cluster: %v", shards, err)
		}
		if got := len(arch.Sharded().Clusters()); got != len(before)-1 {
			t.Errorf("%d shards: %d clusters after releasing the service one, want %d", shards, got, len(before)-1)
		}
		arch.Close()
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
	dep, err := arch.Sharded().Provision(ctx, spec)
	if err != nil {
		t.Fatalf("Provision: %v", err)
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
	dep, err := arch.Sharded().Provision(ctx, spec)
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if dep.Lambda < 0 {
		t.Fatalf("lambda = %d, want assigned with WithWavelengths", dep.Lambda)
	}
	victim := dep.Slice.OPSs[0]
	reports, err := arch.Sharded().HandleFailures(ctx, NewFailures([]NodeID{victim}, nil))
	if err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	repaired := orch.RepairedIDs(reports)
	if len(repaired) != 1 || repaired[0] != dep.ID {
		t.Fatalf("repaired = %v (reports %+v)", repaired, reports)
	}
	after := arch.Deployment(dep.ID)
	if after.Repairs != 1 || after.Slice.Contains(victim) {
		t.Fatalf("repair did not move off the failed OPS: %+v", after.Slice.OPSs)
	}
	if err := arch.Sharded().Recover(NewFailures([]NodeID{victim}, nil)); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if _, err := arch.Sharded().Apply(dep.ID, ChangeRebuild()); err != nil {
		t.Fatalf("manual rebuild: %v", err)
	}
	if arch.Deployment(dep.ID).Repairs != 2 {
		t.Fatal("manual repair not counted")
	}
	if _, err := arch.Sharded().HandleFailures(ctx, NewFailures([]NodeID{999999}, nil)); err == nil {
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
	dep, err := arch.Sharded().Provision(ctx, spec)
	if err != nil {
		t.Fatalf("Provision: %v", err)
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
	arch.Debouncer().Report(ctx, NewFailures([]NodeID{victim}, nil))
	if nodes, links := arch.Debouncer().Pending(); nodes != 1 || links != 0 {
		t.Fatalf("before Close: pending (%d, %d), want (1, 0)", nodes, links)
	}
	arch.Close()
	if nodes, links := arch.Debouncer().Pending(); nodes != 0 || links != 0 {
		t.Fatalf("after Close: pending (%d, %d), want (0, 0)", nodes, links)
	}
	if st := arch.Debouncer().Stats(); st.Batches != 1 {
		t.Fatalf("after Close: %d batches flushed, want 1", st.Batches)
	}
	if got := arch.Deployment(dep.ID).Repairs; got != 1 {
		t.Fatalf("after Close: the chain was repaired %d times, want once", got)
	}
}

// TestOneFormPerVerb pins the shape of the orchestration surface: no
// type offers a verb twice (X beside XCtx), a failure twin per node or
// link, an edit beside Apply (a re-home and a λ-defrag are Changes too,
// on the optimizer's Target as well), or a second way to observe the
// control plane beside orch.Hooks; and the facade forwards no verb of
// the orchestrator, so every chain verb has one home, orch.Sharded. The
// shard, internal to orch, is held to the same rows by orch's
// TestShardSurface.
func TestOneFormPerVerb(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf(&orch.Sharded{}),
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
		reflect.TypeOf(&Architecture{}),
		reflect.TypeOf(&Topology{}),
	} {
		for i := 0; i < typ.NumMethod(); i++ {
			if name := typ.Method(i).Name; twin.MatchString(name) {
				t.Errorf("%v.%s: failures, recoveries and blast radii take one Failures set", typ, name)
			}
		}
	}
	// One edit verb: Apply(id, Change) on the orchestrator and the
	// optimizer's Target, no per-edit twin on any layer — the optimizer's
	// re-home and λ-defrag included.
	for _, typ := range []reflect.Type{
		reflect.TypeOf(&orch.Sharded{}),
		reflect.TypeOf(&Architecture{}),
		reflect.TypeOf((*optimizer.Target)(nil)).Elem(),
	} {
		for _, name := range []string{"Modify", "Upgrade", "ScaleNF", "MoveNF", "Repair", "Rehome", "DefragLambda"} {
			if _, twin := typ.MethodByName(name); twin {
				t.Errorf("%v.%s: an edit is Apply(id, Change)", typ, name)
			}
		}
	}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(&orch.Sharded{}),
		reflect.TypeOf((*optimizer.Target)(nil)).Elem(),
	} {
		if _, ok := typ.MethodByName("Apply"); !ok {
			t.Errorf("%v has no Apply", typ)
		}
	}
	// One orchestration surface: no facade method shares a name with an
	// orchestrator method, except Close (it composes the debouncer's
	// flush, the optimizer's stop and the shard set's close) and
	// Deployment (benchmark/runner.go reads it through the facade); and
	// the renamed forwarders stay gone.
	sharded, facade := reflect.TypeOf(&orch.Sharded{}), reflect.TypeOf(&Architecture{})
	for i := 0; i < facade.NumMethod(); i++ {
		name := facade.Method(i).Name
		if _, shared := sharded.MethodByName(name); shared && name != "Close" && name != "Deployment" {
			t.Errorf("Architecture.%s forwards a verb: call Sharded().%s", name, name)
		}
	}
	for _, name := range []string{"Deploy", "Fail", "ReportFailures"} {
		if _, ok := facade.MethodByName(name); ok {
			t.Errorf("Architecture.%s forwards a verb under another name: call Sharded() or Debouncer()", name)
		}
	}
	// One observer seam: every event sink, observer and the tracer is an
	// orch.Hooks field. No setter on the debouncer or the optimizer, no
	// subscription on the facade, and no type in orch that takes
	// subscriptions or passes events on (a multiplexer).
	for _, typ := range []reflect.Type{
		reflect.TypeOf(&orch.FailureDebouncer{}),
		reflect.TypeOf(&optimizer.Engine{}),
	} {
		for i := 0; i < typ.NumMethod(); i++ {
			if name := typ.Method(i).Name; strings.HasPrefix(name, "Set") {
				t.Errorf("%v.%s: observers attach through orch.Hooks", typ, name)
			}
		}
	}
	if _, ok := reflect.TypeOf(&Architecture{}).MethodByName("SubscribeEvents"); ok {
		t.Error("Architecture.SubscribeEvents: event sinks attach to orch.Hooks.Events")
	}
	files, err := filepath.Glob("internal/orch/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("internal/orch sources: %v (%d files)", err, len(files))
	}
	mux := regexp.MustCompile(`(?i)mux|multiplex|fanout|broadcast`)
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() && mux.MatchString(ts.Name.Name) {
						t.Errorf("%s: orch.%s: events fan out through orch.Hooks.Events", fset.Position(ts.Pos()), ts.Name.Name)
					}
				}
			case *ast.FuncDecl:
				if d.Recv != nil && (d.Name.Name == "OrchEvent" || d.Name.Name == "Subscribe") {
					t.Errorf("%s: a type in orch with %s is a second event seam beside orch.Hooks.Events", fset.Position(d.Pos()), d.Name.Name)
				}
			}
		}
	}
}
