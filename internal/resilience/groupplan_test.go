package resilience

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/alvc/alvc/internal/topology"
)

// meshFleet is a randomized endpoint-sharing fleet over a PM mesh:
// every PM pair is joined by several parallel two-ToR routes, and the
// fleet's chains draw (src, dst) from the small PM pool so segment
// searches collide.
type meshFleet struct {
	topo   *topology.Topology
	finder PathFinder
	chains []meshChain
}

type meshChain struct {
	primary []topology.NodeID
	stops   []topology.NodeID
}

// buildMeshFleet generates one randomized fleet. All randomness flows
// from rng so every failure reproduces from the logged seed.
func buildMeshFleet(t *testing.T, rng *rand.Rand) meshFleet {
	t.Helper()
	topo := topology.New()
	big := topology.Resources{CPUCores: 32, MemoryGB: 64, StorageGB: 512}
	pmCount := 3 + rng.Intn(2)
	pms := make([]topology.NodeID, pmCount)
	for i := range pms {
		pms[i] = topo.AddPM(i, big)
	}
	routes := make(map[string][][]topology.NodeID)
	addRoute := func(a, b topology.NodeID, lat float64) []topology.NodeID {
		t1, t2 := topo.AddToR(0), topo.AddToR(1)
		for _, hop := range [][2]topology.NodeID{{a, t1}, {t1, t2}, {t2, b}} {
			if _, err := topo.AddLink(hop[0], hop[1], topology.LinkElectronic, 10, lat); err != nil {
				t.Fatalf("AddLink: %v", err)
			}
		}
		return []topology.NodeID{a, t1, t2, b}
	}
	for i := 0; i < pmCount; i++ {
		for j := i + 1; j < pmCount; j++ {
			for r, n := 0, 2+rng.Intn(2); r < n; r++ {
				path := addRoute(pms[i], pms[j], float64(1+rng.Intn(5)))
				fwd := fmt.Sprintf("%d-%d", pms[i], pms[j])
				routes[fwd] = append(routes[fwd], path)
				rev := make([]topology.NodeID, len(path))
				for n, id := range path {
					rev[len(path)-1-n] = id
				}
				routes[fmt.Sprintf("%d-%d", pms[j], pms[i])] = append(
					routes[fmt.Sprintf("%d-%d", pms[j], pms[i])], rev)
			}
		}
	}
	fleet := meshFleet{topo: topo, finder: finderOver(t, topo)}
	chainCount := 4 + rng.Intn(8)
	for c := 0; c < chainCount; c++ {
		src := pms[rng.Intn(pmCount)]
		dst := pms[rng.Intn(pmCount)]
		for dst == src {
			dst = pms[rng.Intn(pmCount)]
		}
		stops := []topology.NodeID{src, dst}
		if rng.Intn(3) == 0 {
			mid := pms[rng.Intn(pmCount)]
			if mid != src && mid != dst {
				stops = []topology.NodeID{src, mid, dst}
			}
		}
		var primary []topology.NodeID
		for s := 0; s+1 < len(stops); s++ {
			seg := routes[fmt.Sprintf("%d-%d", stops[s], stops[s+1])][0]
			if len(primary) > 0 {
				seg = seg[1:]
			}
			primary = append(primary, seg...)
		}
		fleet.chains = append(fleet.chains, meshChain{primary: primary, stops: stops})
	}
	return fleet
}

// TestGroupPlannerEquivalentToPlanStandby: with no domain avoidance
// set, group planning is per-chain planning — every chain's standby is
// byte-identical to the per-chain path, across randomized fleets.
func TestGroupPlannerEquivalentToPlanStandby(t *testing.T) {
	const k = 4
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fleet := buildMeshFleet(t, rng)
		gp, err := NewGroupPlanner(fleet.finder, fleet.topo, nil)
		if err != nil {
			t.Fatalf("seed %d: NewGroupPlanner: %v", seed, err)
		}
		for i, ch := range fleet.chains {
			want, wantErr := PlanStandby(fleet.finder, fleet.topo, ch.primary, ch.stops, nil, k, topology.Pool{})
			got, gotErr := gp.Plan(ch.primary, ch.stops, nil, topology.Pool{})
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("seed %d chain %d: error mismatch: per-chain %v, group %v", seed, i, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			got.PlannedAt = want.PlannedAt
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d chain %d: group plan diverged:\nper-chain %+v\ngroup     %+v", seed, i, want, got)
			}
		}
		st := gp.Stats()
		if st.Planned != len(fleet.chains) {
			t.Fatalf("seed %d: Planned = %d, want %d", seed, st.Planned, len(fleet.chains))
		}
	}
}

// TestGroupPlannerAvoidsDomainSRLGs: the planner's shared avoidance
// set steers standbys off the domain's trays, where per-chain
// PlanStandby (which has no domain knowledge) would happily pick one.
func TestGroupPlannerAvoidsDomainSRLGs(t *testing.T) {
	topo := topology.New()
	big := topology.Resources{CPUCores: 32, MemoryGB: 64, StorageGB: 512}
	pm1, pm2 := topo.AddPM(0, big), topo.AddPM(1, big)
	var routes [][]topology.NodeID
	var trayLinks []topology.LinkID
	for r := 0; r < 3; r++ {
		t1, t2 := topo.AddToR(0), topo.AddToR(1)
		var ids []topology.LinkID
		for _, hop := range [][2]topology.NodeID{{pm1, t1}, {t1, t2}, {t2, pm2}} {
			l, err := topo.AddLink(hop[0], hop[1], topology.LinkElectronic, 10, float64(r+1))
			if err != nil {
				t.Fatalf("AddLink: %v", err)
			}
			ids = append(ids, l)
		}
		if r == 1 {
			trayLinks = ids
		}
		routes = append(routes, []topology.NodeID{pm1, t1, t2, pm2})
	}
	// Route 1 — the first disjoint alternative — rides the failed tray.
	const tray = 4242
	for _, l := range trayLinks {
		if err := topo.SetLinkSRLG(l, tray); err != nil {
			t.Fatalf("SetLinkSRLG: %v", err)
		}
	}
	primary := routes[0]
	stops := []topology.NodeID{pm1, pm2}
	finder := finderOver(t, topo)

	perChain, err := PlanStandby(finder, topo, primary, stops, nil, 3, topology.Pool{})
	if err != nil {
		t.Fatalf("PlanStandby: %v", err)
	}
	if perChain.Path[1] != routes[1][1] {
		t.Fatalf("per-chain standby = %v, want the tray route (no domain knowledge)", perChain.Path)
	}

	gp, err := NewGroupPlanner(finder, topo, []int{tray})
	if err != nil {
		t.Fatalf("NewGroupPlanner: %v", err)
	}
	grouped, err := gp.Plan(primary, stops, nil, topology.Pool{})
	if err != nil {
		t.Fatalf("group Plan: %v", err)
	}
	if grouped.Path[1] == perChain.Path[1] {
		t.Fatalf("group standby %v still rides the domain tray", grouped.Path)
	}
	if !grouped.Disjoint {
		t.Fatalf("group standby not disjoint: %+v", grouped)
	}
}

// TestNewGroupPlannerValidation mirrors PlanStandby's guards.
func TestNewGroupPlannerValidation(t *testing.T) {
	topo := topology.New()
	if _, err := NewGroupPlanner(nil, topo, nil); err == nil {
		t.Fatal("nil finder accepted")
	}
	if _, err := NewGroupPlanner(finderOver(t, topo), nil, nil); err == nil {
		t.Fatal("nil topology accepted")
	}
}
