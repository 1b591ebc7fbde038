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
// and a VNF on a third machine, routed as provisioning routes it.
type fleetChain struct {
	topo    *topology.Topology
	primary []topology.NodeID
	stops   []topology.NodeID
	slice   map[topology.NodeID]bool
}

func newFleetChain(tb testing.TB, ops int) fleetChain {
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
	src, dst, host := vms[0], vms[len(vms)-1], pms[3]
	c := fleetChain{topo: topo, slice: map[topology.NodeID]bool{topo.NodeIDs(topology.KindOPS)[ops/2]: true}}
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
// and little else (measured: 5). Maps for the avoid sets or a slice per
// segment took this to 30–40 and showed in the benchmark's
// allocs_per_op.
func TestPlanStandbyAllocCeiling(t *testing.T) {
	c := newFleetChain(t, 300)
	ctrl, err := sdn.NewController(c.topo)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	c.plan(t, ctrl) // fills the memo
	if got := testing.AllocsPerRun(200, func() { c.plan(t, ctrl) }); got > 8 {
		t.Fatalf("warm PlanStandby allocates %.0f times, want at most 8", got)
	}
}

// BenchmarkPlanStandby plans one chain's standby on the benchmark's two
// fabric sizes: warm (every segment a memo hit) and cold (memo off,
// every segment searched).
func BenchmarkPlanStandby(b *testing.B) {
	for _, ops := range []int{300, 1200} {
		c := newFleetChain(b, ops)
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
