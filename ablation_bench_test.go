// Ablation benchmarks for the design choices the package docs call out:
// the §III-C weight reading (marginal vs static), the O/E/O accounting
// convention, and the repair/WDM extensions.
package alvc_test

import (
	"fmt"
	"testing"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/cluster"
	"github.com/alvc/alvc/internal/optical"
	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/placement"
	"github.com/alvc/alvc/internal/topology"
)

// BenchmarkAblation_WeightReading compares the two readings of the
// paper's max-weight rule (experiment E4: the static reading loses to
// random on ring-window cores).
func BenchmarkAblation_WeightReading(b *testing.B) {
	topo := genTopo(b, 16, 12, 4)
	group := topo.VMsByService()["web"]
	for _, bl := range []cluster.Builder{
		cluster.PaperBuilder{},
		cluster.PaperBuilder{StaticWeight: true},
	} {
		b.Run(bl.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bl.Build(topo, group, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Accounting compares the two O/E/O accounting
// conventions on long mixed chains.
func BenchmarkAblation_Accounting(b *testing.B) {
	domains := make([]topology.Domain, 64)
	for i := range domains {
		if i%3 == 0 {
			domains[i] = topology.DomainOptical
		} else {
			domains[i] = topology.DomainElectronic
		}
	}
	for _, mode := range []placement.Mode{placement.AccountPerVNF, placement.AccountPerRun} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = placement.CountOEO(domains, mode)
			}
		})
	}
}

// BenchmarkE13_Repair times one full failure-repair cycle.
func BenchmarkE13_Repair(b *testing.B) {
	topo := orchTopo(b)
	o, err := orch.New(orch.Config{Topo: topo}, 1, orch.ShardByTenant)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := chain.Linear("bench", "t", "web", 1, 1<<20, "firewall", "dpi")
	if err != nil {
		b.Fatal(err)
	}
	dep, err := o.Provision(ctx, spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Apply(dep.ID, orch.ChangeRebuild()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14_WDM times wavelength assignment/release cycles under
// continuity constraints.
func BenchmarkE14_WDM(b *testing.B) {
	topo := orchTopo(b)
	var links []topology.LinkID
	for _, l := range topo.Links() {
		if l.Kind != topology.LinkElectronic {
			links = append(links, l.ID)
			if len(links) == 8 {
				break
			}
		}
	}
	w, err := optical.NewWDM(32)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("flow-%d", i)
		if _, err := w.AssignPath(key, links); err != nil {
			b.Fatal(err)
		}
		if err := w.Release(key); err != nil {
			b.Fatal(err)
		}
	}
}
