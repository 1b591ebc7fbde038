package topology

import (
	"math/rand"
	"testing"

	"github.com/alvc/alvc/internal/graph"
)

// TestLivenessOverlayEqualsColdRebuild is the failure-storm property
// test: after an arbitrary interleaving of fail/recover patches —
// single and batch, nodes and links — every masked-snapshot search
// (Dijkstra and Yen, unrestricted and restricted) must be
// byte-identical to a cold rebuild of the same topology state, while
// the cached snapshot itself never rebuilds.
func TestLivenessOverlayEqualsColdRebuild(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Seed = 11
	topo, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	tors := topo.NodeIDs(KindToR)
	opss := topo.NodeIDs(KindOPS)
	pms := topo.NodeIDs(KindPhysicalMachine)
	var linkIDs []LinkID
	for _, l := range topo.Links() {
		linkIDs = append(linkIDs, l.ID)
	}
	// Nodes eligible for fail/recover churn (never the search
	// endpoints' whole kind at once — the comparison handles dead
	// endpoints anyway).
	churnNodes := append(append([]NodeID{}, opss...), pms...)

	opts := GraphOptions{IncludeVMs: true}
	snap := topo.RoutingSnapshot(opts)
	warmBuilds := topo.GraphBuilds()

	// Endpoints to compare: ToRs, OPSs and a few VMs (VMs exercise the
	// host-coupling rule: a VM on a down PM is unreachable, and a route
	// to a live one is its host's plus the VM's 0.1 µs hop).
	vms := topo.NodeIDs(KindVM)
	endpoints := append(append([]NodeID{}, tors...), opss[:4]...)
	if len(vms) > 4 {
		endpoints = append(endpoints, vms[:4]...)
	}

	compare := func(step int) {
		cold := routingGraph(topo, true, nil)
		for trial := 0; trial < 6; trial++ {
			src := endpoints[rng.Intn(len(endpoints))]
			dst := endpoints[rng.Intn(len(endpoints))]
			if src == dst {
				continue
			}
			var restrict NodeSet
			if trial%2 == 1 {
				restrict = NodeSet{}
				for _, ops := range opss {
					if rng.Float64() < 0.7 {
						restrict = append(restrict, ops)
					}
				}
			}
			// The cold comparator applies the restriction at build time.
			coldG := cold
			if restrict != nil {
				coldG = routingGraph(topo, true, restrict)
			}
			wantP, wantW, wantErr := coldG.ShortestPath(graph.VertexID(src), graph.VertexID(dst))
			gotP, gotW, gotErr := snap.ShortestPath(src, dst, restrict)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("step %d %d->%d: error mismatch cold=%v masked=%v", step, src, dst, wantErr, gotErr)
			}
			if wantErr == nil {
				if wantW != gotW || len(wantP) != len(gotP) {
					t.Fatalf("step %d %d->%d: cold %v (%g) vs masked %v (%g)", step, src, dst, wantP, wantW, gotP, gotW)
				}
				for i := range wantP {
					if NodeID(wantP[i]) != gotP[i] {
						t.Fatalf("step %d %d->%d: cold %v vs masked %v", step, src, dst, wantP, gotP)
					}
				}
			}

			// Yen runs between vertices of the routing graph; a VM is none.
			if topo.Node(src).Kind == KindVM || topo.Node(dst).Kind == KindVM {
				continue
			}
			wantPs, wantWs, wantErr2 := coldG.KShortestPaths(graph.VertexID(src), graph.VertexID(dst), 3)
			gotPs, gotWs, _, gotErr2 := snap.KShortestPaths(src, dst, 3, restrict)
			if (wantErr2 == nil) != (gotErr2 == nil) {
				t.Fatalf("step %d yen %d->%d: error mismatch cold=%v masked=%v", step, src, dst, wantErr2, gotErr2)
			}
			if wantErr2 == nil {
				if len(wantPs) != len(gotPs) {
					t.Fatalf("step %d yen %d->%d: %d vs %d paths", step, src, dst, len(wantPs), len(gotPs))
				}
				for i := range wantPs {
					if wantWs[i] != gotWs[i] || len(wantPs[i]) != len(gotPs[i]) {
						t.Fatalf("step %d yen path %d: cold %v (%g) vs masked %v (%g)", step, i, wantPs[i], wantWs[i], gotPs[i], gotWs[i])
					}
					for j := range wantPs[i] {
						if NodeID(wantPs[i][j]) != gotPs[i][j] {
							t.Fatalf("step %d yen path %d: cold %v vs masked %v", step, i, wantPs[i], gotPs[i])
						}
					}
				}
			}
		}
	}

	downNodes := make(map[NodeID]bool)
	downLinks := make(map[LinkID]bool)
	for step := 0; step < 40; step++ {
		switch rng.Intn(4) {
		case 0: // single node flip
			id := churnNodes[rng.Intn(len(churnNodes))]
			down := !downNodes[id]
			if err := topo.SetDown(NewFailures([]NodeID{id}, nil), down); err != nil {
				t.Fatal(err)
			}
			downNodes[id] = down
		case 1: // single link flip
			id := linkIDs[rng.Intn(len(linkIDs))]
			down := !downLinks[id]
			if err := topo.SetDown(NewFailures(nil, []LinkID{id}), down); err != nil {
				t.Fatal(err)
			}
			downLinks[id] = down
		case 2: // node batch (correlated rack-style event)
			var batch []NodeID
			for i := 0; i < 1+rng.Intn(4); i++ {
				batch = append(batch, churnNodes[rng.Intn(len(churnNodes))])
			}
			down := rng.Intn(2) == 0
			if err := topo.SetDown(NewFailures(batch, nil), down); err != nil {
				t.Fatal(err)
			}
			for _, id := range batch {
				downNodes[id] = down
			}
		default: // link batch (SRLG-style tray cut)
			var batch []LinkID
			for i := 0; i < 1+rng.Intn(5); i++ {
				batch = append(batch, linkIDs[rng.Intn(len(linkIDs))])
			}
			down := rng.Intn(2) == 0
			if err := topo.SetDown(NewFailures(nil, batch), down); err != nil {
				t.Fatal(err)
			}
			for _, id := range batch {
				downLinks[id] = down
			}
		}
		if s := topo.RoutingSnapshot(opts); s != snap {
			t.Fatalf("step %d: liveness churn replaced the cached snapshot", step)
		}
		compare(step)
	}

	// Full recovery: the overlay must drain back to the pristine state.
	var deadN []NodeID
	for id, down := range downNodes {
		if down {
			deadN = append(deadN, id)
		}
	}
	var deadL []LinkID
	for id, down := range downLinks {
		if down {
			deadL = append(deadL, id)
		}
	}
	if err := topo.SetDown(NewFailures(deadN, nil), false); err != nil {
		t.Fatal(err)
	}
	if err := topo.SetDown(NewFailures(nil, deadL), false); err != nil {
		t.Fatal(err)
	}
	compare(40)

	// The cold comparators build map graphs, not snapshots: the masked
	// side rebuilt nothing across the whole interleaving.
	if got := topo.GraphBuilds(); got != warmBuilds {
		t.Fatalf("liveness churn triggered snapshot rebuilds: %d builds, want %d", got, warmBuilds)
	}
}
