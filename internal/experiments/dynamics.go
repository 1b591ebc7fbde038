package experiments

import (
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/alvc/alvc/internal/cluster"
	"github.com/alvc/alvc/internal/flow"
	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/topology"
	"github.com/alvc/alvc/internal/update"
)

// E9UpdateCost (§I claim via [14]): AL-VC's scoped updates touch far
// fewer switches than whole-network updates, and the gap widens with
// data-center size.
func E9UpdateCost() (*Result, error) {
	res := &Result{
		ID:     "E9",
		Title:  "Network update cost under churn: AL-VC vs flat",
		Figure: "§I claim via [14] (low network update costs)",
	}
	tbl := NewTable("E9: switches touched over 50 churn events",
		"racks", "AL-VC", "flat", "flat/AL-VC", "AL rebuilds")
	prevRatio := 0.0
	widens := true
	alwaysWins := true
	for _, racks := range []int{4, 8, 16, 32} {
		cfg := topology.DefaultGenConfig()
		cfg.Racks = racks
		cfg.OPSCount = 6 + racks/2
		cfg.ToRUplinks = 4
		cfg.Seed = 9
		topo, err := topology.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("E9: %w", err)
		}
		m, err := update.NewModel(topo, cluster.PaperBuilder{})
		if err != nil {
			return nil, fmt.Errorf("E9: %w", err)
		}
		report, err := m.RunChurn(update.ChurnConfig{
			Events: 50, Service: "web", JoinFrac: 0.35, LeaveFrac: 0.3, Seed: 17,
		})
		if err != nil {
			return nil, fmt.Errorf("E9: churn %d racks: %w", racks, err)
		}
		ratio := float64(report.Flat.SwitchesTouched) / float64(report.ALVC.SwitchesTouched)
		tbl.AddRow(fmt.Sprint(racks),
			fmt.Sprint(report.ALVC.SwitchesTouched), fmt.Sprint(report.Flat.SwitchesTouched),
			Fmt(ratio), fmt.Sprint(report.Rebuilds))
		if report.ALVC.SwitchesTouched >= report.Flat.SwitchesTouched {
			alwaysWins = false
		}
		if ratio < prevRatio {
			widens = false
		}
		prevRatio = ratio
	}
	res.Tables = append(res.Tables, tbl)
	if alwaysWins {
		res.Findings = append(res.Findings, "AL-VC touches fewer switches than whole-network updates at every size")
	} else {
		res.Violations = append(res.Violations, "AL-VC did not beat flat updates at some size")
	}
	if widens {
		res.Findings = append(res.Findings, "the flat/AL-VC cost ratio widens with data-center size")
	} else {
		res.Findings = append(res.Findings, "cost ratio fluctuates but AL-VC wins throughout")
	}
	return res, nil
}

// E12FlowSteering (§IV-A per-user/per-application chaining at scale):
// replaying thousands of user flows through a deployed chain along the
// walk its installed rules take, not along its record: the switches'
// route must be the deployed path, and the walk-measured conversion count
// is set beside the placement-derived per-VNF count.
func E12FlowSteering() (*Result, error) {
	res := &Result{
		ID:     "E12",
		Title:  "Per-user flow steering through deployed chains",
		Figure: "Fig. 5 / §IV-A (per-user, per-application chaining)",
	}
	topo, err := orchTopology(12)
	if err != nil {
		return nil, fmt.Errorf("E12: %w", err)
	}
	o, err := orch.New(orch.Config{Topo: topo}, 1, orch.ShardByTenant)
	if err != nil {
		return nil, fmt.Errorf("E12: %w", err)
	}
	specs, err := fig5Chains()
	if err != nil {
		return nil, fmt.Errorf("E12: %w", err)
	}
	dep, err := o.Provision(context.Background(), specs[0])
	if err != nil {
		return nil, fmt.Errorf("E12: provision: %w", err)
	}
	walk, err := o.ControllerOf(dep.ID).Walk(dep.FlowKey())
	if err != nil {
		return nil, fmt.Errorf("E12: walk: %w", err)
	}
	if slices.Equal(walk.Route, dep.Path) {
		res.Findings = append(res.Findings,
			fmt.Sprintf("the blue chain's %d rules walk its deployed path hop for hop", len(walk.Rules)))
	} else {
		res.Violations = append(res.Violations,
			fmt.Sprintf("the blue chain's rules walk %v, its record says %v", walk.Route, dep.Path))
	}
	sim, err := flow.NewSimulator(topo, flow.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("E12: %w", err)
	}
	tbl := NewTable("E12: flow replay through the blue chain",
		"flows", "mode", "conversions/flow", "mean latency us", "wall time")
	for _, n := range []int{100, 1000, 10000} {
		fls := make([]flow.Spec, n)
		for i := range fls {
			fls[i] = flow.Spec{Walk: walk, Bytes: dep.Spec.FlowBytes}
		}
		start := time.Now()
		batch, err := sim.RunBatch(fls)
		if err != nil {
			return nil, fmt.Errorf("E12: batch: %w", err)
		}
		tbl.AddRow(fmt.Sprint(n), "batch",
			Fmt(float64(batch.TotalConversions)/float64(batch.Flows)),
			Fmt(batch.MeanLatencyUs), time.Since(start).Round(time.Microsecond).String())
	}
	res.Tables = append(res.Tables, tbl)
	// Cross-check: the per-flow excursion count the rules apply vs the
	// orchestrator's analytic per-VNF count.
	pf, err := sim.Measure(flow.Spec{Walk: walk, Bytes: dep.Spec.FlowBytes})
	if err != nil {
		return nil, fmt.Errorf("E12: measure: %w", err)
	}
	t2 := NewTable("E12b: analytic vs path-measured conversions (blue chain)",
		"source", "conversions")
	t2.AddRow("placement (per-VNF accounting)", fmt.Sprint(dep.Conversions))
	t2.AddRow("path walk (measured excursions)", fmt.Sprint(pf.OEOConversions))
	res.Tables = append(res.Tables, t2)
	if pf.OEOConversions <= dep.Conversions {
		res.Findings = append(res.Findings,
			"walk-measured excursions never exceed the per-VNF analytic count (colocated VNFs share excursions)")
	} else {
		res.Findings = append(res.Findings,
			fmt.Sprintf("walk-measured %d exceeds analytic %d: transit between electronic hosts re-enters the optical core",
				pf.OEOConversions, dep.Conversions))
	}
	return res, nil
}
