package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"github.com/alvc/alvc/internal/cluster"
	"github.com/alvc/alvc/internal/flow"
	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/topology"
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
		report, err := RunChurn(topo, ChurnConfig{
			Events: 50, Service: "web", JoinFrac: 0.35, LeaveFrac: 0.3, Seed: 17,
		})
		if err != nil {
			return nil, fmt.Errorf("E9: %d racks: %w", racks, err)
		}
		ratio := float64(report.Flat) / float64(report.Switches)
		tbl.AddRow(fmt.Sprint(racks),
			fmt.Sprint(report.Switches), fmt.Sprint(report.Flat),
			Fmt(ratio), fmt.Sprint(report.Rebuilds))
		if report.Switches >= report.Flat {
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

// ChurnConfig is a seeded VM churn sequence on one service group. Each
// event is a join with probability JoinFrac, a leave with LeaveFrac and
// a migration otherwise; a group of one VM only grows.
type ChurnConfig struct {
	Events              int
	Service             string
	JoinFrac, LeaveFrac float64
	Seed                int64
}

// ChurnReport prices a churn sequence in the units an operator pays in.
type ChurnReport struct {
	// Switches and Rules are AL-VC's cost: per event, the switches
	// entering or leaving the AL, installed and removed, or the VM's ToR
	// alone when the AL is unchanged.
	Switches, Rules int
	// Flat is a flat virtual network's cost: every event reprograms one
	// rule on every ToR and OPS.
	Flat int
	// Rebuilds counts the events that changed the AL.
	Rebuilds int
	// FinalSize is the final AL's OPS count.
	FinalSize int
}

// RunChurn applies cfg's events to topo and re-covers the service's AL
// after each one the way the control plane does, with the allocator's
// PatchVC: the layer may keep its own OPSs and claim free ones.
func RunChurn(topo *topology.Topology, cfg ChurnConfig) (ChurnReport, error) {
	if cfg.Events <= 0 {
		return ChurnReport{}, fmt.Errorf("churn: events must be positive, got %d", cfg.Events)
	}
	if !(cfg.JoinFrac >= 0 && cfg.LeaveFrac >= 0 && cfg.JoinFrac+cfg.LeaveFrac <= 1) { // NaN too
		return ChurnReport{}, fmt.Errorf("churn: bad join/leave fractions %g/%g", cfg.JoinFrac, cfg.LeaveFrac)
	}
	group := topo.LiveVMs(cfg.Service)
	if len(group) == 0 {
		return ChurnReport{}, fmt.Errorf("churn: no VMs for service %q", cfg.Service)
	}
	alloc, err := cluster.NewRestrictedAllocator(topo, cluster.PaperBuilder{}, nil, 0, 1)
	if err != nil {
		return ChurnReport{}, fmt.Errorf("churn: %w", err)
	}
	vc, err := alloc.BuildVC(1, cfg.Service, group)
	if err != nil {
		return ChurnReport{}, fmt.Errorf("churn: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pms := topo.NodeIDs(topology.KindPhysicalMachine)
	report := ChurnReport{
		Flat: cfg.Events * (len(topo.NodeIDs(topology.KindToR)) + len(topo.NodeIDs(topology.KindOPS))),
	}
	for i := 0; i < cfg.Events; i++ {
		group = topo.LiveVMs(cfg.Service)
		switch r := rng.Float64(); {
		case r < cfg.JoinFrac || len(group) <= 1:
			_, err = topo.AddVM(pms[rng.Intn(len(pms))], cfg.Service)
		case r < cfg.JoinFrac+cfg.LeaveFrac:
			err = topo.RemoveVM(group[rng.Intn(len(group))])
		default:
			err = topo.MigrateVM(group[rng.Intn(len(group))], pms[rng.Intn(len(pms))])
		}
		if err != nil {
			return ChurnReport{}, fmt.Errorf("churn: event %d: %w", i, err)
		}
		patched, err := alloc.PatchVC(vc.ID, topo.LiveVMs(cfg.Service))
		if err != nil {
			return ChurnReport{}, fmt.Errorf("churn: event %d: %w", i, err)
		}
		changed := symmetricDiffLen(vc.AL.OPSs, patched.AL.OPSs) + symmetricDiffLen(vc.AL.ToRs, patched.AL.ToRs)
		if changed == 0 {
			report.Switches++
			report.Rules++
		} else {
			report.Switches += changed
			report.Rules += 2 * changed
			report.Rebuilds++
		}
		vc = patched
	}
	report.FinalSize = vc.AL.Size()
	return report, nil
}

// symmetricDiffLen counts the nodes in exactly one of a and b.
func symmetricDiffLen(a, b []topology.NodeID) int {
	n := 0
	for _, x := range a {
		if !slices.Contains(b, x) {
			n++
		}
	}
	for _, x := range b {
		if !slices.Contains(a, x) {
			n++
		}
	}
	return n
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
	t2.AddRow("placement (per-VNF accounting)", fmt.Sprint(dep.Placement.Conversions))
	t2.AddRow("path walk (measured excursions)", fmt.Sprint(pf.OEOConversions))
	res.Tables = append(res.Tables, t2)
	if pf.OEOConversions <= dep.Placement.Conversions {
		res.Findings = append(res.Findings,
			"walk-measured excursions never exceed the per-VNF analytic count (colocated VNFs share excursions)")
	} else {
		res.Findings = append(res.Findings,
			fmt.Sprintf("walk-measured %d exceeds analytic %d: transit between electronic hosts re-enters the optical core",
				pf.OEOConversions, dep.Placement.Conversions))
	}
	return res, nil
}
