package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/alvc/alvc/internal/graph"
	"github.com/alvc/alvc/internal/topology"
)

// coverMarginalOnly is buildMarginal with phase 2 left to
// graph.CoverMarginal alone: the construction the full-cover pick must
// reproduce, AL for AL.
func coverMarginalOnly(topo *topology.Topology, vms []topology.NodeID, admit []bool) (AL, error) {
	group := slices.Clone(vms)
	slices.Sort(group)
	group = slices.Compact(group)
	lefts := make([][]topology.NodeID, len(group))
	for i, vm := range group {
		lefts[i] = topo.ToRsOfVM(vm)
	}
	tors, err := graph.CoverMarginal(nil, lefts, nil, func(tor topology.NodeID) float64 {
		return float64(len(topo.OPSsOfToR(tor)))
	})
	if err != nil {
		return AL{}, err
	}
	opss, err := graph.CoverMarginal(nil, uplinks(topo, tors), admit, degreeTie(topo))
	if err != nil {
		return AL{}, err
	}
	return AL{ToRs: tors, OPSs: opss}, nil
}

func uplinks(topo *topology.Topology, tors []topology.NodeID) [][]topology.NodeID {
	lefts := make([][]topology.NodeID, len(tors))
	for i, tor := range tors {
		lefts[i] = topo.OPSsOfToR(tor)
	}
	return lefts
}

func degreeTie(topo *topology.Topology) func(topology.NodeID) float64 {
	deg := topo.OpticalDegrees()
	return func(ops topology.NodeID) float64 { return float64(deg[ops]) }
}

// fullCoverAgrees reports where fullCover, walking byTie, and
// CoverMarginal over the ToRs' live uplinks disagree: a pick that is not
// CoverMarginal's whole cover, or no pick where CoverMarginal covers the
// ToRs with one OPS.
func fullCoverAgrees(topo *topology.Topology, tors, byTie []topology.NodeID, admit []bool) error {
	lefts := uplinks(topo, tors)
	want, wantErr := graph.CoverMarginal(nil, lefts, admit, degreeTie(topo))
	single := wantErr == nil && len(want) == 1
	switch got, _ := fullCover(lefts, byTie, admit); {
	case got > 0 && (!single || want[0] != got):
		return fmt.Errorf("full cover picks OPS %d, CoverMarginal answers %v, %v", got, want, wantErr)
	case got == 0 && single:
		return fmt.Errorf("full cover finds none, CoverMarginal covers with OPS %d", want[0])
	}
	return nil
}

// shortcutFabric draws one of the fabrics the full-cover pick meets: ring
// windows of uplinks, where a group spanning racks often has no OPS in
// common and the fallback runs; all-to-all uplinks over a plain ring,
// where every OPS has the same degree; and all-to-all uplinks over a
// chorded ring, where degrees differ and decide the pick.
func shortcutFabric(t *testing.T, rng *rand.Rand, kind int) *topology.Topology {
	t.Helper()
	cfg := topology.DefaultGenConfig()
	cfg.Seed = rng.Int63()
	cfg.Racks = 2 + rng.Intn(6)
	cfg.PMsPerRack = 1 + rng.Intn(3)
	cfg.VMsPerPM = 1 + rng.Intn(2)
	cfg.DualHomeFrac = rng.Float64()
	cfg.OPSCount = 6 + rng.Intn(20)
	switch kind {
	case 0:
		cfg.ToRUplinks = 2 + rng.Intn(cfg.OPSCount/2)
		cfg.OPSChords = rng.Intn(2)
	case 1:
		cfg.ToRUplinks, cfg.OPSChords = cfg.OPSCount, 0
	default:
		cfg.ToRUplinks, cfg.OPSChords = cfg.OPSCount, 1+rng.Intn(3)
	}
	topo, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate(%+v): %v", cfg, err)
	}
	return topo
}

// TestFullCoverEqualsCoverMarginal: over seeded fabrics of every kind,
// an allocator's builds and patches — its own claimed OPSs barred, a
// patched cluster's live ones lent back, OPSs and ToR–OPS links failing
// and recovering between builds — equal CoverMarginal's, and every chosen
// ToR's tie-ordered uplinks give the pick CoverMarginal makes. The
// fabrics exercise the full-cover pick and the fallback alike.
func TestFullCoverEqualsCoverMarginal(t *testing.T) {
	var total CoverStats
	for seed := int64(0); seed < 90; seed++ {
		rng := rand.New(rand.NewSource(seed))
		topo := shortcutFabric(t, rng, int(seed%3))
		alloc, err := NewRestrictedAllocator(topo, PaperBuilder{}, nil, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		vmsAll := topo.NodeIDs(topology.KindVM)
		opss := topo.NodeIDs(topology.KindOPS)
		var boundary []topology.LinkID
		for _, l := range topo.Links() {
			if l.Kind == topology.LinkBoundary {
				boundary = append(boundary, l.ID)
			}
		}
		check := func(step string, vms []topology.NodeID, admit []bool, got *VC, gotErr error) {
			t.Helper()
			want, wantErr := coverMarginalOnly(topo, vms, admit)
			if (gotErr == nil) != (wantErr == nil) || (gotErr == nil && !(slices.Equal(got.AL.ToRs, want.ToRs) && slices.Equal(got.AL.OPSs, want.OPSs))) {
				t.Fatalf("seed %d %s: allocator %+v, %v; CoverMarginal %+v, %v", seed, step, got, gotErr, want, wantErr)
			}
			for _, tor := range want.ToRs {
				if err := fullCoverAgrees(topo, want.ToRs, topo.OPSsOfToRByDegree(tor), admit); err != nil {
					t.Fatalf("seed %d %s: scanning ToR %d of %v: %v", seed, step, tor, want.ToRs, err)
				}
			}
		}
		var live []VCID
		for step := 0; step < 60; step++ {
			name := fmt.Sprintf("step %d", step)
			switch op := rng.Intn(12); {
			case op < 4:
				vms := make([]topology.NodeID, 1+rng.Intn(6))
				for i := range vms {
					vms[i] = vmsAll[rng.Intn(len(vmsAll))]
				}
				admit := slices.Clone(alloc.free)
				vc, err := alloc.BuildVC(freeID(alloc), "svc", vms)
				check(name+" build", vms, admit, vc, err)
				if err == nil {
					live = append(live, vc.ID)
				}
			case op < 6 && len(live) > 0:
				vc := alloc.VC(live[rng.Intn(len(live))])
				if rng.Intn(2) == 0 {
					if err := topo.SetDown(topology.NewFailures([]topology.NodeID{vc.AL.OPSs[rng.Intn(len(vc.AL.OPSs))]}, nil), true); err != nil {
						t.Fatal(err)
					}
				}
				admit := slices.Clone(alloc.free)
				for _, ops := range vc.AL.OPSs {
					if !topo.Node(ops).Down {
						admit[ops] = true
					}
				}
				patched, err := alloc.PatchVC(vc.ID, vc.VMs)
				check(name+" patch", vc.VMs, admit, patched, err)
			case op < 7 && len(live) > 0:
				i := rng.Intn(len(live))
				if err := alloc.Release(live[i]); err != nil {
					t.Fatal(err)
				}
				live = slices.Delete(live, i, i+1)
			case op < 9:
				ops := opss[rng.Intn(len(opss))]
				if err := topo.SetDown(topology.NewFailures([]topology.NodeID{ops}, nil), !topo.Node(ops).Down); err != nil {
					t.Fatal(err)
				}
			default:
				l := boundary[rng.Intn(len(boundary))]
				if err := topo.SetDown(topology.NewFailures(nil, []topology.LinkID{l}), !topo.Link(l).Down); err != nil {
					t.Fatal(err)
				}
			}
		}
		st := alloc.CoverStats()
		total.FullCovers += st.FullCovers
		total.Fallbacks += st.Fallbacks
		total.Evaluated += st.Evaluated
	}
	if total.FullCovers < 1000 || total.Fallbacks < 500 || total.Evaluated < total.FullCovers {
		t.Fatalf("%+v: the fabrics do not exercise both paths", total)
	}
}

// TestFullCoverCatchesStaleTieOrder corrupts the tie order the way a list
// cached once would go stale — it missed an uplink that recovered, or it
// keeps the degrees of before a chord was added — and shows
// fullCoverAgrees catches each, while the topology's own list, refilled
// per generation, agrees.
func TestFullCoverCatchesStaleTieOrder(t *testing.T) {
	cfg := topology.DefaultGenConfig()
	cfg.Racks, cfg.PMsPerRack, cfg.VMsPerPM = 2, 1, 1
	cfg.OPSCount, cfg.ToRUplinks, cfg.OPSChords = 8, 8, 0
	cfg.DualHomeFrac = 1
	topo, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tors := topo.NodeIDs(topology.KindToR)
	opss := topo.NodeIDs(topology.KindOPS)
	fresh := func() []topology.NodeID { return slices.Clone(topo.OPSsOfToRByDegree(tors[0])) }
	expectStale := func(what string, stale []topology.NodeID) {
		t.Helper()
		if err := fullCoverAgrees(topo, tors, stale, nil); err == nil {
			t.Fatalf("%s: stale tie order %v passed", what, stale)
		}
		if err := fullCoverAgrees(topo, tors, fresh(), nil); err != nil {
			t.Fatalf("%s: fresh tie order %v: %v", what, fresh(), err)
		}
	}

	// A plain ring: every degree is 2, the tie order is the ID order.
	if got := fresh(); !slices.Equal(got, opss) {
		t.Fatalf("tie order on a plain ring = %v, want the IDs %v", got, opss)
	}
	// Missed recovery: the list was taken while the first OPS was down.
	if err := topo.SetDown(topology.NewFailures([]topology.NodeID{opss[0]}, nil), true); err != nil {
		t.Fatal(err)
	}
	stale := fresh()
	if err := topo.SetDown(topology.NewFailures([]topology.NodeID{opss[0]}, nil), false); err != nil {
		t.Fatal(err)
	}
	expectStale("recovered OPS", stale)
	// Missed recovery of one ToR–OPS link, not the whole OPS.
	link := topo.LinkBetween(tors[0], opss[0])
	if err := topo.SetDown(topology.NewFailures(nil, []topology.LinkID{link.ID}), true); err != nil {
		t.Fatal(err)
	}
	stale = fresh()
	if err := topo.SetDown(topology.NewFailures(nil, []topology.LinkID{link.ID}), false); err != nil {
		t.Fatal(err)
	}
	expectStale("recovered uplink", stale)
	// Old degrees: two chords make the last OPS the best-connected one.
	stale = fresh()
	last := opss[len(opss)-1]
	for _, other := range opss[3:5] {
		if _, err := topo.AddLink(last, other, topology.LinkOptical, 100, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := fresh(); got[0] != last {
		t.Fatalf("tie order after the chords = %v, want OPS %d first", got, last)
	}
	expectStale("added chords", stale)
}
