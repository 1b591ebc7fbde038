// Benchmarks: one per experiment of internal/experiments (E1..E12).
// Each benchmark times the core operation the experiment sweeps, so
// `go test -bench=. -benchmem` regenerates the performance side of
// every table/figure; `go run ./cmd/alvc exp` regenerates the numeric
// tables themselves, and contracts_test.go holds the control plane's
// count contracts.
package alvc_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/cluster"
	"github.com/alvc/alvc/internal/flow"
	"github.com/alvc/alvc/internal/nfv"
	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/placement"
	"github.com/alvc/alvc/internal/topology"
	"github.com/alvc/alvc/internal/workload"
)

// ctx is what the benchmarks pass where a request context goes.
var ctx = context.Background()

func genTopo(b *testing.B, racks, ops, uplinks int) *topology.Topology {
	b.Helper()
	cfg := topology.DefaultGenConfig()
	cfg.Racks = racks
	cfg.OPSCount = ops
	cfg.ToRUplinks = uplinks
	topo, err := topology.Generate(cfg)
	if err != nil {
		b.Fatalf("generate: %v", err)
	}
	return topo
}

func orchTopo(b *testing.B) *topology.Topology {
	b.Helper()
	cfg := topology.DefaultGenConfig()
	cfg.Racks = 8
	cfg.OPSCount = 24
	cfg.ToRUplinks = 16
	cfg.OPSChords = 2
	topo, err := topology.Generate(cfg)
	if err != nil {
		b.Fatalf("generate: %v", err)
	}
	return topo
}

// BenchmarkE1_TopologyGen times full topology generation across DC
// sizes (experiment E1, Fig. 1-2).
func BenchmarkE1_TopologyGen(b *testing.B) {
	for _, racks := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("racks=%d", racks), func(b *testing.B) {
			cfg := topology.DefaultGenConfig()
			cfg.Racks = racks
			cfg.OPSCount = 8 + racks/4
			for i := 0; i < b.N; i++ {
				if _, err := topology.Generate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2_Clustering times correlated traffic generation plus
// service grouping (experiment E2, Fig. 3).
func BenchmarkE2_Clustering(b *testing.B) {
	topo := genTopo(b, 16, 8, 4)
	cfg := workload.DefaultTrafficConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flows, err := workload.GenerateTraffic(topo, cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = workload.IntraFraction(flows)
	}
}

// BenchmarkE3_ALConstruction times the paper's AL construction
// (experiment E3, Fig. 4).
func BenchmarkE3_ALConstruction(b *testing.B) {
	topo := genTopo(b, 8, 8, 3)
	group := topo.VMsByService()["web"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (cluster.PaperBuilder{}).Build(topo, group, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4_ALQuality times every AL builder on the same instance
// (experiment E4).
func BenchmarkE4_ALQuality(b *testing.B) {
	topo := genTopo(b, 8, 8, 3)
	group := topo.VMsByService()["web"]
	builders := []cluster.Builder{
		cluster.PaperBuilder{},
		cluster.PaperBuilder{StaticWeight: true},
		cluster.GreedyBuilder{},
		cluster.RandomBuilder{RNG: rand.New(rand.NewSource(1))},
		cluster.DirectBuilder{},
		cluster.DirectBuilder{Exact: true},
	}
	for _, bl := range builders {
		b.Run(bl.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bl.Build(topo, group, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5_ChainDeploy times end-to-end provision+delete of one
// chain (experiment E5, Fig. 5).
func BenchmarkE5_ChainDeploy(b *testing.B) {
	topo := orchTopo(b)
	o, err := orch.New(orch.Config{Topo: topo}, 1, orch.ShardByTenant)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := chain.Linear("bench", "t", "web", 1, 1<<20, "firewall", "lb", "dpi")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dep, err := o.Provision(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := o.Delete(ctx, dep.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6_Lifecycle times the full lifecycle storm cycle
// (experiment E6, Fig. 6).
func BenchmarkE6_Lifecycle(b *testing.B) {
	topo := orchTopo(b)
	o, err := orch.New(orch.Config{Topo: topo}, 1, orch.ShardByTenant)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := chain.Linear("bench", "t", "web", 1, 1<<20, "firewall", "dpi")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dep, err := o.Provision(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := o.Apply(dep.ID, orch.ChangeBandwidth(4)); err != nil {
			b.Fatal(err)
		}
		if _, err := o.Apply(dep.ID, orch.ChangeVersion()); err != nil {
			b.Fatal(err)
		}
		if _, err := o.Delete(ctx, dep.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7_Slicing times slice allocation/release on the optical
// layer (experiment E7, Fig. 7).
func BenchmarkE7_Slicing(b *testing.B) {
	arch, err := alvc.New(func() alvc.TopologyConfig {
		cfg := alvc.DefaultTopology()
		cfg.Racks = 8
		cfg.OPSCount = 24
		cfg.ToRUplinks = 16
		return cfg
	}())
	if err != nil {
		b.Fatal(err)
	}
	slices := arch.Sharded().Slices()
	opss := arch.Topology().NodeIDs(topology.KindOPS)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := slices.Allocate("tenant", opss[:4], 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := slices.Release(s.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8_OEOPlacement times the three placement policies on the
// Fig. 8 chain (experiment E8).
func BenchmarkE8_OEOPlacement(b *testing.B) {
	topo := orchTopo(b)
	ledger, err := nfv.NewLedger(topo)
	if err != nil {
		b.Fatal(err)
	}
	var oers, pms []topology.NodeID
	for _, n := range topo.Nodes(topology.KindOPS) {
		if n.Optoelectronic {
			oers = append(oers, n.ID)
		}
	}
	for _, n := range topo.Nodes(topology.KindPhysicalMachine) {
		pms = append(pms, n.ID)
	}
	profiles, err := nfv.ResolveChain([]string{"secgw", "firewall", "dpi"})
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := placement.NewContext(topo, ledger, oers[:3], pms[:4], profiles, placement.AccountPerVNF)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []placement.Policy{placement.AllElectronic{}, placement.OpticalFirst{}, placement.Optimal{}} {
		b.Run(p.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Place(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9_UpdateCost times the per-event AL-VC update path
// (experiment E9, claim [14]): a VM joins the service and the
// allocator's PatchVC re-covers its AL.
func BenchmarkE9_UpdateCost(b *testing.B) {
	b.Run("alvc", func(b *testing.B) {
		topo := genTopo(b, 16, 10, 4)
		alloc, err := cluster.NewRestrictedAllocator(topo, cluster.PaperBuilder{}, nil, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		vc, err := alloc.BuildVC("web", topo.LiveVMs("web"))
		if err != nil {
			b.Fatal(err)
		}
		pms := topo.NodeIDs(topology.KindPhysicalMachine)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := topo.AddVM(pms[i%len(pms)], "web"); err != nil {
				b.Fatal(err)
			}
			if _, err := alloc.PatchVC(vc.ID, topo.LiveVMs("web")); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE10_Scalability times AL construction as the DC grows
// (experiment E10, claim [15]).
func BenchmarkE10_Scalability(b *testing.B) {
	for _, racks := range []int{8, 32, 64} {
		b.Run(fmt.Sprintf("racks=%d", racks), func(b *testing.B) {
			topo := genTopo(b, racks, 8+racks/4, 4)
			group := topo.VMsByService()["web"]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (cluster.PaperBuilder{}).Build(topo, group, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE11_CapacityGate times capacity-constrained optical-first
// placement (experiment E11, §IV-D constraint).
func BenchmarkE11_CapacityGate(b *testing.B) {
	topo := topology.New()
	oer := topo.AddOPS(true, topology.Resources{CPUCores: 2, MemoryGB: 4, StorageGB: 8})
	plain := topo.AddOPS(false, topology.Resources{})
	tor := topo.AddToR(0)
	pm := topo.AddPM(0, topology.Resources{CPUCores: 64, MemoryGB: 256, StorageGB: 2048})
	for _, l := range []struct {
		a, c topology.NodeID
		k    topology.LinkKind
	}{
		{oer, plain, topology.LinkOptical},
		{tor, oer, topology.LinkBoundary},
		{pm, tor, topology.LinkElectronic},
	} {
		if _, err := topo.AddLink(l.a, l.c, l.k, 10, 1); err != nil {
			b.Fatal(err)
		}
	}
	ledger, err := nfv.NewLedger(topo)
	if err != nil {
		b.Fatal(err)
	}
	profiles, err := nfv.ResolveChain([]string{"nat", "secgw", "lb", "firewall", "dpi"})
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := placement.NewContext(topo, ledger,
		[]topology.NodeID{oer}, []topology.NodeID{pm}, profiles, placement.AccountPerVNF)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (placement.OpticalFirst{}).Place(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12_FlowSteering times one flow's walk through a deployed
// chain's rules and its measurement, and a batch replay of the walk
// (experiment E12, §IV-A).
func BenchmarkE12_FlowSteering(b *testing.B) {
	topo := orchTopo(b)
	o, err := orch.New(orch.Config{Topo: topo}, 1, orch.ShardByTenant)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := chain.Linear("bench", "t", "web", 1, 1<<20, "secgw", "firewall", "dpi")
	if err != nil {
		b.Fatal(err)
	}
	dep, err := o.Provision(ctx, spec)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := flow.NewSimulator(topo, flow.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	ctrl := o.ControllerOf(dep.ID)
	b.Run("measure", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			walk, err := ctrl.Walk(dep.FlowKey())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Measure(flow.Spec{Walk: walk, Bytes: 1 << 20}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch1000", func(b *testing.B) {
		walk, err := ctrl.Walk(dep.FlowKey())
		if err != nil {
			b.Fatal(err)
		}
		specs := make([]flow.Spec, 1000)
		for i := range specs {
			specs[i] = flow.Spec{Walk: walk, Bytes: 1 << 20}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunBatch(specs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
