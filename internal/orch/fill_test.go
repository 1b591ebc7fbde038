package orch

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/cluster"
	"github.com/alvc/alvc/internal/graph"
	"github.com/alvc/alvc/internal/optical"
	"github.com/alvc/alvc/internal/topology"
)

// fillTopology is bigpool_fill's data center (benchmark/fleet.go
// fleetTopology) at pool size ops: four racks of dual-homed PMs, every
// ToR wired to every OPS of a plain ring, one service.
func fillTopology(tb testing.TB, ops int) *topology.Topology {
	tb.Helper()
	cfg := topology.DefaultGenConfig()
	cfg.Racks, cfg.PMsPerRack, cfg.VMsPerPM = 4, 2, 2
	cfg.OPSCount, cfg.ToRUplinks, cfg.OPSChords = ops, ops, 0
	cfg.DualHomeFrac = 1.0
	cfg.Services = []string{"web"}
	cfg.PMCapacity = topology.Resources{CPUCores: 1 << 20, MemoryGB: 1 << 20, StorageGB: 1 << 20}
	topo, err := topology.Generate(cfg)
	if err != nil {
		tb.Fatalf("generate: %v", err)
	}
	return topo
}

// fillShapes are bigpool_fill's chain shapes, provisioned in equal shares.
var fillShapes = [][]string{
	{"firewall", "nat"},
	{"firewall", "lb", "dpi"},
	{"nat", "secgw"},
	{"firewall", "ids", "nat"},
}

// fillSpec is chain n of a fill, shaped like bigpool_fill's.
func fillSpec(tb testing.TB, n int, shape []string) chain.Spec {
	tb.Helper()
	spec, err := chain.Linear(fmt.Sprintf("c%d", n), fmt.Sprintf("t%d", n), "web", 1, 1<<20, shape...)
	if err != nil {
		tb.Fatalf("spec %d: %v", n, err)
	}
	return spec
}

// coverMarginalBuilder is the paper's builder with phase 2 left to
// graph.CoverMarginal alone — the construction before the full-cover
// pick, which the allocator only runs for PaperBuilder itself.
type coverMarginalBuilder struct{}

func (coverMarginalBuilder) Name() string { return "cover-marginal" }

func (coverMarginalBuilder) Build(topo *topology.Topology, vms []topology.NodeID, allow topology.NodeSet) (cluster.AL, error) {
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
		return cluster.AL{}, err
	}
	lefts = lefts[:len(tors)]
	for i, tor := range tors {
		lefts[i] = topo.OPSsOfToR(tor)
	}
	degree := topo.OpticalDegrees()
	admit := make([]bool, len(degree))
	for _, ops := range allow {
		admit[ops] = true
	}
	opss, err := graph.CoverMarginal(nil, lefts, admit, func(ops topology.NodeID) float64 { return float64(degree[ops]) })
	if err != nil {
		return cluster.AL{}, fmt.Errorf("%w: %v", cluster.ErrInsufficientOPS, err)
	}
	return cluster.AL{ToRs: tors, OPSs: opss}, nil
}

// fingerprint is what a provision decided for a chain: its AL, placement,
// path and standby route.
func fingerprint(d *Deployment) string {
	standby := []topology.NodeID(nil)
	if d.Standby != nil {
		standby = d.Standby.Path
	}
	return fmt.Sprintf("AL %v/%v hosts %v domains %v path %v standby %v",
		d.VC.AL.ToRs, d.VC.AL.OPSs, d.Placement.Hosts, d.Placement.Domains, d.Path, standby)
}

// TestFullCoverReplaysBigpoolFill replays bigpool_fill's script in
// process — fill 600 chains of the four shapes in seeded order, 25 to a
// batch, into a 1200-OPS pool, delete them all in seeded order, again —
// against the same fleet built with CoverMarginal alone: every chain gets
// the same AL, placement, path and standby. One worker, so both fleets
// claim in the same order.
func TestFullCoverReplaysBigpoolFill(t *testing.T) {
	const pool, perCycle, batch = 1200, 600, 25
	cycles := 3
	if testing.Short() || raceEnabled {
		cycles = 1
	}
	got, _ := newTestOrch(t, Config{Topo: fillTopology(t, pool)})
	want, _ := newTestOrch(t, Config{Topo: fillTopology(t, pool), Builder: coverMarginalBuilder{}})
	rng := rand.New(rand.NewSource(11))
	n := 0
	for c := 0; c < cycles; c++ {
		var ids []DeploymentID
		for b := 0; b < perCycle/batch; b++ {
			specs := make([]chain.Spec, batch)
			for i := range specs {
				n++
				specs[i] = fillSpec(t, n, fillShapes[rng.Intn(len(fillShapes))])
			}
			gotRes, wantRes := got.ProvisionBatch(specs), want.ProvisionBatch(specs)
			for i := range specs {
				if gotRes[i].Err != nil || wantRes[i].Err != nil {
					t.Fatalf("cycle %d batch %d spec %d: %v / %v", c, b, i, gotRes[i].Err, wantRes[i].Err)
				}
				g, w := fingerprint(gotRes[i].Deployment), fingerprint(wantRes[i].Deployment)
				if g != w {
					t.Fatalf("cycle %d batch %d spec %d:\n full cover     %s\n CoverMarginal  %s", c, b, i, g, w)
				}
				ids = append(ids, gotRes[i].Deployment.ID)
			}
		}
		for _, i := range rng.Perm(len(ids)) {
			if _, err := got.Delete(bg, ids[i]); err != nil {
				t.Fatal(err)
			}
			if _, err := want.Delete(bg, ids[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := got.shards[0].alloc.CoverStats()
	if st.FullCovers != n || st.Fallbacks != 0 {
		t.Fatalf("%d provisions answered as %+v, want every one by the full cover", n, st)
	}
}

// halfClaimedFleet is a one-shard fleet on bigpool_fill's fabric at pool
// size ops with half the pool claimed — by clusters, not chains, so the
// pool grows and nothing else does: resident chains would also grow the
// fleet, and at 4800 OPSs their standby legs alone overflow the SDN
// controller's 4096-entry memo.
func halfClaimedFleet(tb testing.TB, ops int) (*Sharded, *shard, *topology.Topology) {
	tb.Helper()
	topo := fillTopology(tb, ops)
	s, o := newTestOrch(tb, Config{Topo: topo})
	vms := topo.NodeIDs(topology.KindVM)
	for i := 0; i < ops/2; i++ {
		if _, err := o.alloc.BuildVC(cluster.VCID(claimSlot(o)), "resident", vms); err != nil {
			tb.Fatal(err)
		}
	}
	return s, o, topo
}

// provisionCosts provisions k chains one at a time into a fleet at pool
// size ops with half the pool claimed, deleting each after, and returns
// per provision the OPSs the AL cover evaluated, the search-state entries
// the plain search restored and the fewest allocations.
func provisionCosts(t *testing.T, ops, k int) (evaluated, resets int64, allocs uint64) {
	s, o, topo := halfClaimedFleet(t, ops)
	frozen := topo.RoutingSnapshot(topology.GraphOptions{IncludeVMs: true}).Graph()
	allocs = ^uint64(0)
	var ms runtime.MemStats
	for i := -2; i < k; i++ { // two unmeasured: caches and pools fill
		spec := fillSpec(t, i+2, fillShapes[(i+2)%len(fillShapes)])
		evalBefore, resetsBefore := o.alloc.CoverStats().Evaluated, frozen.SearchResets()
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		dep, err := s.Provision(bg, spec)
		runtime.ReadMemStats(&ms)
		if err != nil {
			t.Fatalf("ops=%d: provision: %v", ops, err)
		}
		if i >= 0 {
			allocs = min(allocs, ms.Mallocs-mallocs)
			evaluated += int64(o.alloc.CoverStats().Evaluated - evalBefore)
			resets += frozen.SearchResets() - resetsBefore
		}
		if _, err := s.Delete(bg, dep.ID); err != nil {
			t.Fatal(err)
		}
	}
	return evaluated / int64(k), resets / int64(k), allocs
}

// TestProvisionCostFollowsTheAL: on bigpool_fill's fabric with half the
// pool claimed, a provision at 4800 OPSs evaluates as many OPSs in the
// AL cover, restores as many plain-search entries and allocates as much
// as one at 1200 — counts, no clock.
func TestProvisionCostFollowsTheAL(t *testing.T) {
	const k = 8
	evalSmall, resetsSmall, allocsSmall := provisionCosts(t, 1200, k)
	evalBig, resetsBig, allocsBig := provisionCosts(t, 4800, k)
	t.Logf("per provision at 1200 / 4800 OPSs: %d / %d OPSs evaluated, %d / %d entries reset, %d / %d allocations",
		evalSmall, evalBig, resetsSmall, resetsBig, allocsSmall, allocsBig)
	if evalSmall != evalBig || evalSmall == 0 {
		t.Errorf("the AL cover evaluates %d OPSs at 1200 and %d at 4800, want the same few", evalSmall, evalBig)
	}
	if resetsSmall != resetsBig || resetsSmall == 0 || resetsSmall > 1200 {
		t.Errorf("the plain search restores %d entries at 1200 and %d at 4800, want the same few", resetsSmall, resetsBig)
	}
	if allocsSmall != allocsBig && !raceEnabled {
		t.Errorf("a provision allocates %d times at 1200 and %d at 4800, want the same", allocsSmall, allocsBig)
	}
}

// TestProvisionAllocatesOneBlockPerLayer: on bigpool_fill's fabric with
// half the pool claimed, each layer keeps a provisioned chain's state in
// one allocation — the cluster its VC with the VMs and the AL, the
// optical layer its slice with the OPS list, the orchestrator the record
// with its lists, for both of the fleet's two- and three-NF shapes — and
// a warm untraced provision allocates at most 13 times (22 when each list
// was an allocation of its own), as many at 4800 OPSs as at 1200. Every
// list a snapshot or a caller reaches is clipped, so an append
// reallocates; the record's index lists, its own, keep the block's
// spare room.
func TestProvisionAllocatesOneBlockPerLayer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts of pooled code are not exact under the race detector")
	}
	s, o, topo := halfClaimedFleet(t, 1200)
	vms, ops := topo.LiveVMs("web"), topo.NodeIDs(topology.KindOPS)[:1]
	id := claimSlot(o)
	layers := map[string]func(){
		"cluster.BuildVC": func() {
			vc, err := o.alloc.BuildVC(cluster.VCID(id), "web", vms)
			if err != nil {
				t.Fatal(err)
			}
			_ = o.alloc.Release(vc.ID)
		},
		"optical.Allocate": func() {
			slice, err := o.slices.Allocate(optical.SliceID(id), "t", ops, 1)
			if err != nil {
				t.Fatal(err)
			}
			_ = o.slices.Release(slice.ID)
		},
	}
	for i, shape := range fillShapes[:2] {
		dep, err := s.Provision(bg, fillSpec(t, i, shape))
		if err != nil {
			t.Fatal(err)
		}
		var d Deployment
		var nodes, links int
		s.ViewDeployment(dep.ID, func(live *Deployment) {
			for name, c := range map[string][2]int{
				"Instances": {len(live.Instances), cap(live.Instances)}, "Path": {len(live.Path), cap(live.Path)},
				"Hosts": {len(live.Placement.Hosts), cap(live.Placement.Hosts)}, "Domains": {len(live.Placement.Domains), cap(live.Placement.Domains)},
				"primaryLinks": {len(live.primaryLinks), cap(live.primaryLinks)}, "VMs": {len(live.VC.VMs), cap(live.VC.VMs)},
				"ToRs": {len(live.VC.AL.ToRs), cap(live.VC.AL.ToRs)}, "OPSs": {len(live.VC.AL.OPSs), cap(live.VC.AL.OPSs)},
				"slice OPSs": {len(live.Slice.OPSs), cap(live.Slice.OPSs)},
			} {
				if c[0] != c[1] {
					t.Errorf("%v: the live record's %s has capacity %d for %d elements", shape, name, c[1], c[0])
				}
			}
			d, nodes, links = *live, len(live.idxNodes), len(live.idxLinks)
		})
		layers[fmt.Sprintf("orch record of %d NFs", len(shape))] = func() { newRecord(&d, nodes, links) }
	}
	for name, fn := range layers {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 1 {
			t.Errorf("%s allocates %.0f times, want 1: one block", name, allocs)
		}
	}
	const k = 8
	_, _, small := provisionCosts(t, 1200, k)
	_, _, big := provisionCosts(t, 4800, k)
	t.Logf("a provision allocates %d times at 1200 OPSs and %d at 4800", small, big)
	if small > 13 || big != small {
		t.Errorf("a provision allocates %d times at 1200 OPSs and %d at 4800, want at most 13 at both", small, big)
	}
}

// BenchmarkProvisionFill is bigpool_fill's provision path in process, at
// its pool size and at four times it: a half-claimed pool, 25-spec
// batches; every batch is deleted again off the clock.
// Each size runs untraced and traced, with a tracer on the default store
// attached to the hooks as alvc.New attaches one. ns/provision is a
// batch's time over its 25 chains.
func BenchmarkProvisionFill(b *testing.B) {
	const batch = 25
	for _, ops := range []int{1200, 4800} {
		for _, traced := range []bool{false, true} {
			name := fmt.Sprintf("ops=%d/untraced", ops)
			if traced {
				name = fmt.Sprintf("ops=%d/traced", ops)
			}
			b.Run(name, func(b *testing.B) {
				s, _, _ := halfClaimedFleet(b, ops)
				if traced {
					s.UpdateHooks(func(h *Hooks) { h.Tracer = newTestTracer() })
				}
				n := 0
				specs := func() []chain.Spec {
					out := make([]chain.Spec, batch)
					for i := range out {
						n++
						out[i] = fillSpec(b, n, fillShapes[n%len(fillShapes)])
					}
					return out
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					next := specs()
					b.StartTimer()
					results := s.ProvisionBatch(next)
					b.StopTimer()
					for _, res := range results {
						if res.Err != nil {
							b.Fatal(res.Err)
						}
						if _, err := s.Delete(bg, res.Deployment.ID); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/provision")
			})
		}
	}
}
