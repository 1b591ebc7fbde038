package topology

import (
	"fmt"
	"testing"
)

// fleetTopo is the repository benchmark's fleet data center at pool size
// ops: four racks of two dual-homed PMs with two VMs each, every ToR
// wired to every OPS, no chords.
func fleetTopo(tb testing.TB, ops int) *Topology {
	tb.Helper()
	cfg := DefaultGenConfig()
	cfg.Racks, cfg.PMsPerRack, cfg.VMsPerPM = 4, 2, 2
	cfg.OPSCount, cfg.ToRUplinks, cfg.OPSChords = ops, ops, 0
	cfg.DualHomeFrac = 1.0
	cfg.Services = []string{"web"}
	cfg.PMCapacity = Resources{CPUCores: 1 << 20, MemoryGB: 1 << 20, StorageGB: 1 << 20}
	topo, err := Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return topo
}

// TestColdSnapshotAllocs: a cold routing snapshot is built from the node
// and link tables into the CSR arrays directly, so its allocations are a
// fixed few — the same at 300 and 1 200 OPSs, where the fabric has four
// times the links. So is Validate, which reads the same tables.
func TestColdSnapshotAllocs(t *testing.T) {
	for _, ops := range []int{300, 1200} {
		topo := fleetTopo(t, ops)
		build := testing.AllocsPerRun(5, func() { topo.buildSnapshot(topo.StructuralGeneration()) })
		validate := testing.AllocsPerRun(5, func() {
			if err := topo.Validate(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("ops=%d: a cold snapshot allocates %.0f times, Validate %.0f", ops, build, validate)
		if build > 100 {
			t.Errorf("ops=%d: a cold snapshot allocates %.0f times, want ≤ 100", ops, build)
		}
		if validate > 20 {
			t.Errorf("ops=%d: Validate allocates %.0f times, want ≤ 20", ops, validate)
		}
	}
}

// BenchmarkColdSnapshot is one cold routing-snapshot build on the
// benchmark fleet's fabric: what every structural edit costs the next
// search.
func BenchmarkColdSnapshot(b *testing.B) {
	for _, ops := range []int{300, 1200} {
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			topo := fleetTopo(b, ops)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				topo.buildSnapshot(topo.StructuralGeneration())
			}
		})
	}
}
