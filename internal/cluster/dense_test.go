package cluster

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/alvc/alvc/internal/topology"
)

// randomTopo generates a topology of seeded shape and fails a seeded
// share of its switches, machines and links.
func randomTopo(t *testing.T, rng *rand.Rand) *topology.Topology {
	t.Helper()
	cfg := topology.DefaultGenConfig()
	cfg.Seed = rng.Int63()
	cfg.Core = topology.CoreShape(rng.Intn(3))
	cfg.Racks = 2 + rng.Intn(7)
	cfg.PMsPerRack = 1 + rng.Intn(3)
	cfg.VMsPerPM = 1 + rng.Intn(3)
	cfg.OPSCount = 2 + rng.Intn(14)
	cfg.ToRUplinks = 1 + rng.Intn(cfg.OPSCount)
	cfg.OPSChords = rng.Intn(3)
	cfg.DualHomeFrac = rng.Float64()
	topo, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate(%+v): %v", cfg, err)
	}
	if rng.Intn(3) > 0 {
		for _, n := range topo.Nodes(topology.KindOPS, topology.KindToR, topology.KindPhysicalMachine) {
			if rng.Float64() < 0.08 {
				if err := topo.SetNodeDown(n.ID, true); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, l := range topo.Links() {
			if rng.Float64() < 0.08 {
				if err := topo.SetLinkDown(l.ID, true); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return topo
}

// randomAllow draws an allow set: nil, empty, or a seeded share of the
// OPSs — sparse ones leave ToRs uncoverable — with a few explicit false
// entries, which must read as absent.
func randomAllow(rng *rand.Rand, topo *topology.Topology) map[topology.NodeID]bool {
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return map[topology.NodeID]bool{}
	}
	allow := map[topology.NodeID]bool{}
	share := rng.Float64()
	for _, ops := range topo.NodeIDs(topology.KindOPS) {
		if rng.Float64() < share {
			allow[ops] = true
		} else if rng.Intn(4) == 0 {
			allow[ops] = false
		}
	}
	return allow
}

// Property: every builder equals its frozen reference — AL for AL,
// failure kind for failure kind — over random fabrics, failures, VM
// groups (unsorted, with repeats) and allow sets: the paper's in both
// weight readings, greedy, random (the same seed on both sides), exact
// and direct. The exact builders are compared up to 64 distinct VMs,
// where the reference's search is the one this exact search equals.
func TestPaperBuilderEqualsOracle(t *testing.T) {
	built, refused := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		topo := randomTopo(t, rng)
		all := topo.NodeIDs(topology.KindVM)
		for trial := 0; trial < 6; trial++ {
			var vms []topology.NodeID
			for n := rng.Intn(2 * len(all)); n > 0; n-- {
				vms = append(vms, all[rng.Intn(len(all))])
			}
			allow := randomAllow(rng, topo)
			before := maps.Clone(allow)
			rngSeed := rng.Int63()
			seeded := func() *rand.Rand { return rand.New(rand.NewSource(rngSeed)) }
			type build struct {
				name      string
				got, want func() (AL, error)
			}
			builds := []build{
				{"paper", func() (AL, error) { return PaperBuilder{}.Build(topo, vms, allow) },
					func() (AL, error) { return oraclePaperBuild(topo, vms, allow, false) }},
				{"static", func() (AL, error) { return PaperBuilder{StaticWeight: true}.Build(topo, vms, allow) },
					func() (AL, error) { return oraclePaperBuild(topo, vms, allow, true) }},
				{"greedy", func() (AL, error) { return GreedyBuilder{}.Build(topo, vms, allow) },
					func() (AL, error) { return refBuildGreedy(topo, vms, allow) }},
				{"random", func() (AL, error) { return RandomBuilder{RNG: seeded()}.Build(topo, vms, allow) },
					func() (AL, error) { return refBuildRandom(topo, vms, allow, seeded()) }},
				{"direct", func() (AL, error) { return DirectBuilder{}.Build(topo, vms, allow) },
					func() (AL, error) { return refBuildDirect(topo, vms, allow, false) }},
			}
			group := slices.Clone(vms)
			slices.Sort(group)
			if len(slices.Compact(group)) <= 64 {
				builds = append(builds, []build{
					{"exact", func() (AL, error) { return ExactBuilder{}.Build(topo, vms, allow) },
						func() (AL, error) { return refBuildExact(topo, vms, allow) }},
					{"direct-exact", func() (AL, error) { return DirectBuilder{Exact: true}.Build(topo, vms, allow) },
						func() (AL, error) { return refBuildDirect(topo, vms, allow, true) }},
				}...)
			}
			for _, b := range builds {
				got, err := b.got()
				want, wantErr := b.want()
				if !sameOutcome(got, err, want, wantErr) {
					t.Fatalf("seed %d trial %d %s vms=%v allow=%v:\n got  %+v, %v\n want %+v, %v",
						seed, trial, b.name, vms, allow, got, err, want, wantErr)
				}
				if err == nil && !VerifyAL(topo, vms, got) {
					t.Fatalf("seed %d trial %d %s: AL %+v does not connect the group", seed, trial, b.name, got)
				}
				if err == nil {
					built++
				} else {
					refused++
				}
			}
			if !maps.Equal(allow, before) {
				t.Fatalf("seed %d trial %d: Build modified allowOPS", seed, trial)
			}
		}
	}
	if built < 2000 || refused < 2000 {
		t.Fatalf("instances too one-sided to mean anything: %d built, %d refused", built, refused)
	}
}

// A node that is not a VM is rejected by every builder, the paper's in
// either reading.
func TestPaperBuilderRejectsNonVM(t *testing.T) {
	topo, vms, ids := fig4Topo(t)
	for _, b := range []Builder{
		PaperBuilder{}, PaperBuilder{StaticWeight: true}, GreedyBuilder{},
		RandomBuilder{RNG: rand.New(rand.NewSource(1))}, ExactBuilder{}, DirectBuilder{}, DirectBuilder{Exact: true},
	} {
		_, err := b.Build(topo, append(vms, ids["tor1"]), nil)
		if err == nil || errors.Is(err, ErrInsufficientOPS) || errors.Is(err, ErrNoVMs) {
			t.Fatalf("%s: ToR in the VM group: err = %v", b.Name(), err)
		}
	}
}

// checkAllocator compares the allocator's free set — AvailableOPS reads
// it off the dense mask the paper's builder is handed — and ownership
// with what its clusters imply.
func checkAllocator(t *testing.T, alloc *Allocator, pool []topology.NodeID, step string) {
	t.Helper()
	want := make(map[topology.NodeID]bool, len(pool))
	for _, ops := range pool {
		want[ops] = true
	}
	for _, vc := range alloc.VCs() {
		for _, ops := range vc.AL.OPSs {
			if !want[ops] {
				t.Fatalf("%s: VC %d holds OPS %d, outside the pool or held twice", step, vc.ID, ops)
			}
			delete(want, ops)
			if owner, ok := alloc.OwnerOf(ops); !ok || owner != vc.ID {
				t.Fatalf("%s: OwnerOf(%d) = %d, %v; want VC %d", step, ops, owner, ok, vc.ID)
			}
		}
	}
	if got := alloc.AvailableOPS(); !maps.Equal(got, want) {
		t.Fatalf("%s: AvailableOPS = %v, want pool minus owned = %v", step, got, want)
	}
	if !alloc.Disjoint() {
		t.Fatalf("%s: ALs overlap", step)
	}
}

// Model test: after any sequence of BuildVC / PatchVC / Release — with
// switches failing and recovering in between — on whole-fabric and
// restricted pools, the free mask is the pool minus the owned OPSs, a
// build off it is Build off the same set, ALs stay disjoint, and a
// refused build or patch changes nothing.
func TestAllocatorFreeSetModel(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		topo := randomTopo(t, rng)
		opss := topo.NodeIDs(topology.KindOPS)
		vmsAll := topo.NodeIDs(topology.KindVM)
		pool := opss
		var alloc *Allocator
		var err error
		if seed%2 == 0 {
			alloc, err = NewAllocator(topo, PaperBuilder{})
		} else {
			pool = nil
			for _, ops := range opss {
				if rng.Intn(3) > 0 {
					pool = append(pool, ops)
				}
			}
			if len(pool) == 0 {
				pool = opss[:1]
			}
			alloc, err = NewRestrictedAllocator(topo, PaperBuilder{}, pool)
		}
		if err != nil {
			t.Fatal(err)
		}
		group := func() []topology.NodeID {
			vms := make([]topology.NodeID, 1+rng.Intn(4))
			for i := range vms {
				vms[i] = vmsAll[rng.Intn(len(vmsAll))]
			}
			return vms
		}
		var live []VCID
		for step := 0; step < 80; step++ {
			name := fmt.Sprintf("seed %d step %d", seed, step)
			before := alloc.AvailableOPS()
			var opErr error
			switch op := rng.Intn(10); {
			case op < 4:
				// The allocator's build off its mask is Build off the set.
				vms := group()
				want, wantErr := PaperBuilder{}.Build(topo, vms, before)
				var vc *VC
				if vc, opErr = alloc.BuildVC("svc", vms); opErr == nil {
					live = append(live, vc.ID)
				}
				if (opErr == nil) != (wantErr == nil) || (opErr == nil && !reflect.DeepEqual(vc.AL, want)) {
					t.Fatalf("%s: BuildVC = %+v, %v; Build over the free set = %+v, %v", name, vc, opErr, want, wantErr)
				}
			case op < 6 && len(live) > 0:
				i := rng.Intn(len(live))
				if opErr = alloc.Release(live[i]); opErr != nil {
					t.Fatalf("%s: release: %v", name, opErr)
				}
				live = slices.Delete(live, i, i+1)
			case op < 8 && len(live) > 0:
				id := live[rng.Intn(len(live))]
				vc := alloc.VC(id)
				// Patch around a member that just failed, or around nothing.
				if rng.Intn(3) > 0 {
					if err := topo.SetNodeDown(vc.AL.OPSs[rng.Intn(len(vc.AL.OPSs))], true); err != nil {
						t.Fatal(err)
					}
				}
				var patched *VC
				if patched, opErr = alloc.PatchVC(id, vc.VMs); opErr == nil && patched.ID != id {
					t.Fatalf("%s: patch changed the VC ID", name)
				}
			default:
				ops := opss[rng.Intn(len(opss))]
				if err := topo.SetNodeDown(ops, !topo.Node(ops).Down && rng.Intn(2) == 0); err != nil {
					t.Fatal(err)
				}
			}
			if opErr != nil && !maps.Equal(alloc.AvailableOPS(), before) {
				t.Fatalf("%s: refused (%v) yet the free set moved", name, opErr)
			}
			checkAllocator(t, alloc, pool, name)
		}
		for _, id := range live {
			if err := alloc.Release(id); err != nil {
				t.Fatal(err)
			}
		}
		checkAllocator(t, alloc, pool, fmt.Sprintf("seed %d drained", seed))
		if got := len(alloc.AvailableOPS()); got != alloc.PoolSize() {
			t.Fatalf("seed %d: %d OPSs free after releasing everything, pool is %d", seed, got, alloc.PoolSize())
		}
	}
}

// wideFabric is the benchmark fleets' shape: 4 racks of dual-homed PMs,
// every ToR wired to every one of ops OPSs, one service.
func wideFabric(tb testing.TB, ops int) (*topology.Topology, []topology.NodeID) {
	tb.Helper()
	cfg := topology.DefaultGenConfig()
	cfg.Racks, cfg.PMsPerRack, cfg.VMsPerPM = 4, 2, 2
	cfg.OPSCount, cfg.ToRUplinks, cfg.OPSChords = ops, ops, 0
	cfg.DualHomeFrac = 1
	cfg.Services = []string{"web"}
	topo, err := topology.Generate(cfg)
	if err != nil {
		tb.Fatalf("Generate: %v", err)
	}
	return topo, topo.VMsByService()["web"]
}

// A build on the 1200-OPS fabric allocates a fixed handful of buffers —
// the map-and-copy construction took 6469 allocations here.
func TestPaperBuilderAllocCeiling(t *testing.T) {
	topo, vms := wideFabric(t, 1200)
	allow := make(map[topology.NodeID]bool)
	for _, ops := range topo.NodeIDs(topology.KindOPS) {
		allow[ops] = true
	}
	if _, err := (PaperBuilder{}).Build(topo, vms, allow); err != nil { // fills the derived caches
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := (PaperBuilder{}).Build(topo, vms, allow); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Fatalf("PaperBuilder.Build allocates %.0f times at 1200 OPS, ceiling 40", allocs)
	}
}

// BenchmarkBuildVC times what a provision holds Allocator.mu for: one
// BuildVC (and the Release that keeps the pool from draining) with a
// third of the pool already claimed.
func BenchmarkBuildVC(b *testing.B) {
	for _, ops := range []int{300, 1200, 4800} {
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			topo, vms := wideFabric(b, ops)
			alloc, err := NewAllocator(topo, PaperBuilder{})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < ops/3; i++ {
				if _, err := alloc.BuildVC("resident", vms); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vc, err := alloc.BuildVC("web", vms)
				if err != nil {
					b.Fatal(err)
				}
				if err := alloc.Release(vc.ID); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
