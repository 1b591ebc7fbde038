package cluster

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/alvc/alvc/internal/topology"
)

// fig4Topo reconstructs the worked example of paper Fig. 4 as a full
// topology: four ToRs, six VMs (some on dual-homed PMs), three OPSs.
//
//	ToR1 (VMs 1-4, uplinks A,B)   weight 4+2 = 6  -> selected first
//	ToR2 (VMs 2,3, uplinks B,C)   weight 2+2 = 4  -> skipped (covered)
//	ToR3 (VMs 5,6, uplink C)      weight 2+1 = 3  -> selected second
//	ToR4 (VM 6, uplink A)         weight 1+1 = 2  -> not needed
//
// Phase 2 must then cover {ToR1, ToR3} by OPSs; C is forced (only
// uplink of ToR3) and one of A/B completes — minimum AL size 2.
func fig4Topo(t *testing.T) (*topology.Topology, []topology.NodeID, map[string]topology.NodeID) {
	t.Helper()
	topo := topology.New()
	ids := make(map[string]topology.NodeID)
	ids["opsA"] = topo.AddOPS(true, topology.Resources{CPUCores: 4, MemoryGB: 8, StorageGB: 16})
	ids["opsB"] = topo.AddOPS(true, topology.Resources{CPUCores: 4, MemoryGB: 8, StorageGB: 16})
	ids["opsC"] = topo.AddOPS(false, topology.Resources{})
	for i := 1; i <= 4; i++ {
		ids[torName(i)] = topo.AddToR(i - 1)
	}
	link := func(a, b topology.NodeID, k topology.LinkKind) {
		t.Helper()
		if _, err := topo.AddLink(a, b, k, 10, 1); err != nil {
			t.Fatalf("AddLink: %v", err)
		}
	}
	// Optical mesh: A-B, B-C.
	link(ids["opsA"], ids["opsB"], topology.LinkOptical)
	link(ids["opsB"], ids["opsC"], topology.LinkOptical)
	// Uplinks.
	link(ids["tor1"], ids["opsA"], topology.LinkBoundary)
	link(ids["tor1"], ids["opsB"], topology.LinkBoundary)
	link(ids["tor2"], ids["opsB"], topology.LinkBoundary)
	link(ids["tor2"], ids["opsC"], topology.LinkBoundary)
	link(ids["tor3"], ids["opsC"], topology.LinkBoundary)
	link(ids["tor4"], ids["opsA"], topology.LinkBoundary)
	// PMs and VMs. pm2, pm3 dual-homed (tor1+tor2); pm6 dual (tor3+tor4).
	addPM := func(name string, tors ...string) topology.NodeID {
		t.Helper()
		pm := topo.AddPM(0, topology.Resources{CPUCores: 16, MemoryGB: 64, StorageGB: 256})
		for _, tor := range tors {
			link(pm, ids[tor], topology.LinkElectronic)
		}
		ids[name] = pm
		return pm
	}
	vms := make([]topology.NodeID, 0, 6)
	addVM := func(pm topology.NodeID) {
		t.Helper()
		vm, err := topo.AddVM(pm, "web")
		if err != nil {
			t.Fatalf("AddVM: %v", err)
		}
		vms = append(vms, vm)
	}
	addVM(addPM("pm1", "tor1"))
	addVM(addPM("pm2", "tor1", "tor2"))
	addVM(addPM("pm3", "tor1", "tor2"))
	addVM(addPM("pm4", "tor1"))
	addVM(addPM("pm5", "tor3"))
	addVM(addPM("pm6", "tor3", "tor4"))
	if err := topo.Validate(); err != nil {
		t.Fatalf("fig4 topo invalid: %v", err)
	}
	return topo, vms, ids
}

func torName(i int) string {
	return [...]string{"", "tor1", "tor2", "tor3", "tor4"}[i]
}

func TestPaperBuilderFig4WalkThrough(t *testing.T) {
	topo, vms, ids := fig4Topo(t)
	al, err := PaperBuilder{}.Build(topo, vms, nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Phase 1 must select exactly ToR1 and ToR3, as the paper narrates.
	if len(al.ToRs) != 2 || al.ToRs[0] != ids["tor1"] || al.ToRs[1] != ids["tor3"] {
		t.Fatalf("selected ToRs = %v, want [tor1 tor3] = [%d %d]", al.ToRs, ids["tor1"], ids["tor3"])
	}
	// Phase 2 must reach the minimum: 2 OPSs including C (forced).
	if al.Size() != 2 {
		t.Fatalf("AL size = %d, want 2 (OPSs %v)", al.Size(), al.OPSs)
	}
	hasC := false
	for _, o := range al.OPSs {
		if o == ids["opsC"] {
			hasC = true
		}
	}
	if !hasC {
		t.Fatalf("AL %v must include opsC (only uplink of ToR3)", al.OPSs)
	}
	if !VerifyAL(topo, vms, al) {
		t.Fatal("paper AL does not connect all VMs")
	}
}

func TestAllBuildersProduceValidALs(t *testing.T) {
	topo, vms, _ := fig4Topo(t)
	builders := []Builder{
		PaperBuilder{},
		GreedyBuilder{},
		RandomBuilder{RNG: rand.New(rand.NewSource(3))},
		ExactBuilder{},
		DirectBuilder{},
		DirectBuilder{Exact: true},
	}
	sizes := make(map[string]int)
	for _, b := range builders {
		al, err := b.Build(topo, vms, nil)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		if !VerifyAL(topo, vms, al) {
			t.Fatalf("%s: AL does not connect all VMs", b.Name())
		}
		sizes[b.Name()] = al.Size()
	}
	// The direct exact optimum is the global lower bound.
	for name, size := range sizes {
		if size < sizes["direct-exact"] {
			t.Fatalf("%s size %d beats the global optimum %d", name, size, sizes["direct-exact"])
		}
	}
	// Per-phase exact must not beat direct exact but must match paper
	// structure; paper must be <= random on this instance is not
	// guaranteed per-seed, but must hold for the exact bound.
	if sizes["paper-maxweight"] < sizes["direct-exact"] {
		t.Fatal("impossible: paper below global optimum")
	}
}

func TestBuildersEmptyGroup(t *testing.T) {
	topo, _, _ := fig4Topo(t)
	for _, b := range []Builder{PaperBuilder{}, GreedyBuilder{}, ExactBuilder{}, DirectBuilder{}} {
		if _, err := b.Build(topo, nil, nil); !errors.Is(err, ErrNoVMs) {
			t.Errorf("%s: empty group error = %v, want ErrNoVMs", b.Name(), err)
		}
	}
}

func TestRandomBuilderNilRNG(t *testing.T) {
	topo, vms, _ := fig4Topo(t)
	if _, err := (RandomBuilder{}).Build(topo, vms, nil); err == nil {
		t.Fatal("nil RNG accepted")
	}
}

func TestBuildRestrictedOPSFails(t *testing.T) {
	topo, vms, ids := fig4Topo(t)
	// Only opsA available: ToR3's VMs (5,6) cannot be covered — tor3
	// uplinks only to C; tor4 to A. VM5 is single-homed on tor3, so no
	// AL exists.
	allow := topology.NodeSet{ids["opsA"]}
	for _, b := range []Builder{PaperBuilder{}, GreedyBuilder{}, ExactBuilder{}, DirectBuilder{}} {
		_, err := b.Build(topo, vms, allow)
		if err == nil {
			t.Errorf("%s: build succeeded with insufficient OPSs", b.Name())
			continue
		}
		if !errors.Is(err, ErrInsufficientOPS) {
			t.Errorf("%s: error = %v, want ErrInsufficientOPS", b.Name(), err)
		}
	}
}

func TestAllocatorDisjointALs(t *testing.T) {
	// Disjoint ALs consume OPS supply: give every ToR a wide uplink
	// window so three service clusters can claim disjoint layers.
	cfg := topology.DefaultGenConfig()
	cfg.OPSCount = 12
	cfg.ToRUplinks = 8
	topo, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	alloc, err := NewRestrictedAllocator(topo, PaperBuilder{}, nil, 0, 1)
	if err != nil {
		t.Fatalf("NewRestrictedAllocator: %v", err)
	}
	vcs, err := alloc.BuildAllByService()
	if err != nil {
		t.Fatalf("BuildAllByService: %v", err)
	}
	if len(vcs) != len(cfg.Services) {
		t.Fatalf("VCs = %d, want %d", len(vcs), len(cfg.Services))
	}
	if !Disjoint(alloc.VCs()) {
		t.Fatal("ALs are not disjoint")
	}
	// Every OPS in an AL is owned by exactly that VC.
	for _, vc := range vcs {
		if !VerifyAL(topo, vc.VMs, vc.AL) {
			t.Fatalf("VC %d AL does not connect its VMs", vc.ID)
		}
		for _, ops := range vc.AL.OPSs {
			owner, ok := alloc.OwnerOf(ops)
			if !ok || owner != vc.ID {
				t.Fatalf("OPS %d owner = %d,%v want %d", ops, owner, ok, vc.ID)
			}
		}
	}
}

func TestAllocatorReleaseFreesOPS(t *testing.T) {
	topo, vms, _ := fig4Topo(t)
	alloc, err := NewRestrictedAllocator(topo, PaperBuilder{}, nil, 0, 1)
	if err != nil {
		t.Fatalf("NewRestrictedAllocator: %v", err)
	}
	vc, err := alloc.BuildVC("web", vms)
	if err != nil {
		t.Fatalf("BuildVC: %v", err)
	}
	before := len(alloc.AvailableOPS())
	if err := alloc.Release(vc.ID); err != nil {
		t.Fatalf("Release: %v", err)
	}
	after := len(alloc.AvailableOPS())
	if after != before+vc.AL.Size() {
		t.Fatalf("available OPSs %d -> %d, want +%d", before, after, vc.AL.Size())
	}
	if alloc.VC(vc.ID) != nil {
		t.Fatal("VC still present after release")
	}
	if err := alloc.Release(vc.ID); err == nil {
		t.Fatal("double release accepted")
	}
}

func TestAllocatorExhaustsOPS(t *testing.T) {
	topo, vms, _ := fig4Topo(t)
	alloc, err := NewRestrictedAllocator(topo, PaperBuilder{}, nil, 0, 1)
	if err != nil {
		t.Fatalf("NewRestrictedAllocator: %v", err)
	}
	if _, err := alloc.BuildVC("web", vms); err != nil {
		t.Fatalf("first BuildVC: %v", err)
	}
	// Second cluster over the same VMs cannot get disjoint OPSs
	// (only 3 OPSs exist and VM5 depends on opsC).
	if _, err := alloc.BuildVC("web2", vms); !errors.Is(err, ErrInsufficientOPS) {
		t.Fatalf("second BuildVC error = %v, want ErrInsufficientOPS", err)
	}
	if !Disjoint(alloc.VCs()) {
		t.Fatal("failed build corrupted disjointness")
	}
}

func TestBuildAllByServiceRollsBackOnFailure(t *testing.T) {
	// Fig. 4 topology has only 3 OPSs; the "web" group (all 6 VMs)
	// claims 2 of them. Add a second service whose VMs are only
	// reachable through already-claimed OPSs: BuildAllByService must
	// fail and release everything.
	topo, _, ids := fig4Topo(t)
	pm := topo.AddPM(0, topology.Resources{})
	if _, err := topo.AddLink(pm, ids["tor3"], topology.LinkElectronic, 10, 1); err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	// tor3 uplinks only to opsC, which "web" will claim (it is forced).
	if _, err := topo.AddVM(pm, "zzz-backup"); err != nil {
		t.Fatalf("AddVM: %v", err)
	}
	alloc, err := NewRestrictedAllocator(topo, PaperBuilder{}, nil, 0, 1)
	if err != nil {
		t.Fatalf("NewRestrictedAllocator: %v", err)
	}
	if _, err := alloc.BuildAllByService(); err == nil {
		t.Fatal("expected failure: second service cannot get a disjoint AL")
	}
	if len(alloc.VCs()) != 0 {
		t.Fatalf("clusters leaked after failed BuildAll: %d", len(alloc.VCs()))
	}
	if got := len(alloc.AvailableOPS()); got != 3 {
		t.Fatalf("available OPSs = %d, want all 3 released", got)
	}
}

func TestNewAllocatorNilArgs(t *testing.T) {
	topo, _, _ := fig4Topo(t)
	if _, err := NewRestrictedAllocator(nil, PaperBuilder{}, nil, 0, 1); err == nil {
		t.Fatal("nil topology accepted")
	}
	if _, err := NewRestrictedAllocator(topo, nil, nil, 0, 1); err == nil {
		t.Fatal("nil builder accepted")
	}
}

// Property: on random generated topologies, every builder yields a
// covering AL, sizes respect exact ≤ heuristics, and the allocator
// keeps ALs disjoint across all services.
func TestClusterProperty(t *testing.T) {
	f := func(seed int64) bool {
		cfg := topology.DefaultGenConfig()
		cfg.Seed = seed
		cfg.Racks = 2 + int(abs64(seed)%6)
		cfg.OPSCount = 3 + int(abs64(seed/3)%6)
		if cfg.ToRUplinks > cfg.OPSCount {
			cfg.ToRUplinks = cfg.OPSCount
		}
		topo, err := topology.Generate(cfg)
		if err != nil {
			return false
		}
		groups := topo.VMsByService()
		for _, vms := range groups {
			alPaper, err := PaperBuilder{}.Build(topo, vms, nil)
			if err != nil || !VerifyAL(topo, vms, alPaper) {
				return false
			}
			alDirect, err := (DirectBuilder{Exact: true}).Build(topo, vms, nil)
			if err != nil || !VerifyAL(topo, vms, alDirect) {
				return false
			}
			if alPaper.Size() < alDirect.Size() {
				return false // heuristic beat the optimum: impossible
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		if x == -x {
			return 0
		}
		return -x
	}
	return x
}

// TestAllocatorStridesVCIDs: allocator i of n issues i+1, i+1+n, …, so
// allocators over disjoint pools never issue one ID twice.
func TestAllocatorStridesVCIDs(t *testing.T) {
	topo, err := topology.Generate(topology.DefaultGenConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	alloc, err := NewRestrictedAllocator(topo, PaperBuilder{}, nil, 1, 3)
	if err != nil {
		t.Fatalf("NewRestrictedAllocator: %v", err)
	}
	vcs, err := alloc.BuildAllByService()
	if err != nil || len(vcs) < 2 {
		t.Fatalf("BuildAllByService: %d VCs, %v", len(vcs), err)
	}
	for i, vc := range vcs {
		if want := VCID(2 + 3*i); vc.ID != want {
			t.Errorf("VC %d has ID %d, want %d", i, vc.ID, want)
		}
	}
}
