package resilience

import (
	"fmt"
	"testing"

	"github.com/alvc/alvc/internal/sdn"
	"github.com/alvc/alvc/internal/topology"
)

// fleetChain is one chain of the repository benchmark's fleet shape
// (benchmark/fleet.go: 4 racks × 2 dual-homed PMs, every ToR wired to
// every OPS): two VMs on different machines, one exclusive slice OPS
// and a VNF on a third machine — or, with nfOnSliceOPS, on the slice OPS
// itself, the seven-node shape of the benchmark's resident chains —
// routed as provisioning routes it.
type fleetChain struct {
	topo    *topology.Topology
	primary []topology.NodeID
	stops   []topology.NodeID
	slice   topology.NodeSet
}

func newFleetChain(tb testing.TB, ops int, nfOnSliceOPS bool) fleetChain {
	tb.Helper()
	cfg := topology.DefaultGenConfig()
	cfg.Racks, cfg.PMsPerRack, cfg.VMsPerPM = 4, 2, 2
	cfg.OPSCount, cfg.ToRUplinks, cfg.OPSChords = ops, ops, 0
	cfg.DualHomeFrac = 1.0
	cfg.Services = []string{"web"}
	topo, err := topology.Generate(cfg)
	if err != nil {
		tb.Fatalf("Generate: %v", err)
	}
	ctrl, err := sdn.NewController(topo)
	if err != nil {
		tb.Fatalf("NewController: %v", err)
	}
	vms := topo.NodeIDs(topology.KindVM)
	pms := topo.NodeIDs(topology.KindPhysicalMachine)
	src, dst, host, sliceOPS := vms[0], vms[len(vms)-1], pms[3], topo.NodeIDs(topology.KindOPS)[ops/2]
	if nfOnSliceOPS {
		host = sliceOPS
	}
	c := fleetChain{topo: topo, slice: topology.NodeSet{sliceOPS}}
	if c.primary, err = ctrl.ComputePathVia(src, []topology.NodeID{host}, dst, c.slice); err != nil {
		tb.Fatalf("ComputePathVia: %v", err)
	}
	c.stops = []topology.NodeID{src, topo.Node(src).Host, host, topo.Node(dst).Host, dst}
	return c
}

func (c fleetChain) plan(tb testing.TB, f PathFinder) *Standby {
	sb, err := PlanStandby(f, c.topo, c.primary, c.stops, c.slice, 4, topology.Pool{})
	if err != nil || !sb.Disjoint {
		tb.Fatalf("PlanStandby = %+v, %v; want a disjoint standby", sb, err)
	}
	return sb
}

// TestPlanStandbyAllocCeiling: a plan whose segments are all memo hits
// — what a provision into a quiet fabric pays — allocates the standby
// and little else. A standby of the resident chains' shape (seven nodes
// over four links) is one block, so its plan costs 2: the block and the
// slice list PlanStandby makes of its map. A longer one (the VNF on a
// third machine: nine nodes over six links) is one block too, 2; it kept
// the record and its two arrays apart, 4, before the nine-node block.
// Maps for the avoid sets or a slice per segment took this to 30–40 and
// showed in the benchmark's allocs_per_op.
func TestPlanStandbyAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of what it is handed under the race detector")
	}
	for _, tc := range []struct {
		name         string
		nfOnSliceOPS bool
		ceiling      float64
	}{{"seven-node", true, 2}, {"nine-node", false, 2}} {
		c := newFleetChain(t, 300, tc.nfOnSliceOPS)
		ctrl, err := sdn.NewController(c.topo)
		if err != nil {
			t.Fatalf("NewController: %v", err)
		}
		sb := c.plan(t, ctrl) // fills the memo
		got := testing.AllocsPerRun(200, func() { c.plan(t, ctrl) })
		t.Logf("%s: a standby of %d nodes over %d links, %.0f allocations a warm plan", tc.name, len(sb.Path), len(sb.Links), got)
		if got > tc.ceiling {
			t.Errorf("%s: warm PlanStandby allocates %.0f times, want at most %.0f", tc.name, got, tc.ceiling)
		}
	}
}

// BenchmarkPlanStandby plans one chain's standby on the benchmark's two
// fabric sizes: warm (every segment a memo hit) and cold (memo off,
// every segment searched).
func BenchmarkPlanStandby(b *testing.B) {
	for _, ops := range []int{300, 1200} {
		c := newFleetChain(b, ops, false)
		for _, warm := range []bool{true, false} {
			name := fmt.Sprintf("ops=%d/cold", ops)
			if warm {
				name = fmt.Sprintf("ops=%d/warm", ops)
			}
			b.Run(name, func(b *testing.B) {
				ctrl, err := sdn.NewController(c.topo)
				if err != nil {
					b.Fatalf("NewController: %v", err)
				}
				ctrl.SetAlternativesCache(warm)
				c.plan(b, ctrl)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.plan(b, ctrl)
				}
			})
		}
	}
}
