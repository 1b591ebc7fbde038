package experiments

import (
	"context"
	"fmt"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/cluster"
	"github.com/alvc/alvc/internal/nfv"
	"github.com/alvc/alvc/internal/optical"
	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/placement"
	"github.com/alvc/alvc/internal/topology"
)

// orchTopology generates the standard orchestration substrate used by
// E5-E7 and E12: wide uplink windows so several disjoint ALs fit.
func orchTopology(seed int64) (*topology.Topology, error) {
	cfg := topology.DefaultGenConfig()
	cfg.Racks = 8
	cfg.OPSCount = 24
	cfg.ToRUplinks = 16
	cfg.OPSChords = 2
	cfg.OptoFrac = 0.5
	cfg.Services = []string{"web", "mapreduce", "sns"}
	cfg.Seed = seed
	return topology.Generate(cfg)
}

// fig5Chains returns the three chains of Fig. 5 (blue, black, green):
// distinct per-application NF sequences.
func fig5Chains() ([]chain.Spec, error) {
	var specs []chain.Spec
	for _, c := range []struct {
		name, tenant, service string
		nfs                   []string
	}{
		{"blue", "tenant-blue", "web", []string{"secgw", "firewall", "dpi"}},
		{"black", "tenant-black", "mapreduce", []string{"firewall", "wanopt"}},
		{"green", "tenant-green", "sns", []string{"secgw", "lb", "firewall"}},
	} {
		s, err := chain.Linear(c.name, c.tenant, c.service, 2, 1<<20, c.nfs...)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// E5ChainDeploy (Fig. 5): three per-application chains deploy over one
// substrate; each gets its own path, rules and NF set.
func E5ChainDeploy() (*Result, error) {
	res := &Result{
		ID:     "E5",
		Title:  "Three NFCs orchestrated over AL-VC",
		Figure: "Fig. 5 (blue/black/green chains)",
	}
	topo, err := orchTopology(3)
	if err != nil {
		return nil, fmt.Errorf("E5: %w", err)
	}
	o, err := orch.New(orch.Config{Topo: topo}, 1, orch.ShardByTenant)
	if err != nil {
		return nil, fmt.Errorf("E5: %w", err)
	}
	specs, err := fig5Chains()
	if err != nil {
		return nil, fmt.Errorf("E5: %w", err)
	}
	tbl := NewTable("E5: per-chain deployment",
		"chain", "NFs", "AL size", "path hops", "rules", "conversions", "slice-confined")
	for _, spec := range specs {
		dep, err := o.Provision(context.Background(), spec)
		if err != nil {
			return nil, fmt.Errorf("E5: provision %s: %w", spec.Name, err)
		}
		rules := o.ControllerOf(dep.ID).RulesForFlow(dep.FlowKey())
		tbl.AddRow(spec.Name, fmt.Sprint(len(spec.NFs)), fmt.Sprint(dep.VC.AL.Size()),
			fmt.Sprint(len(dep.Path)-1), fmt.Sprint(len(rules)),
			fmt.Sprint(dep.Conversions), fmt.Sprint(dep.SliceConfined))
	}
	res.Tables = append(res.Tables, tbl)
	if len(o.Deployments()) == 3 && cluster.Disjoint(o.Clusters()) && o.Slices().Disjoint() {
		res.Findings = append(res.Findings,
			"all three Fig. 5 chains route over disjoint ALs with per-chain flow rules")
	} else {
		res.Violations = append(res.Violations, "chains failed to co-exist on disjoint ALs")
	}
	return res, nil
}

// E6Lifecycle (Fig. 6): lifecycle storms — provision, modify, upgrade,
// scale, delete — leave the management stack consistent.
func E6Lifecycle() (*Result, error) {
	res := &Result{
		ID:     "E6",
		Title:  "NFV management-stack lifecycle storm",
		Figure: "Fig. 6 (orchestrator over SDN controller + Cloud/NFV manager)",
	}
	topo, err := orchTopology(6)
	if err != nil {
		return nil, fmt.Errorf("E6: %w", err)
	}
	o, err := orch.New(orch.Config{Topo: topo}, 1, orch.ShardByTenant)
	if err != nil {
		return nil, fmt.Errorf("E6: %w", err)
	}
	specs, err := fig5Chains()
	if err != nil {
		return nil, fmt.Errorf("E6: %w", err)
	}
	tbl := NewTable("E6: lifecycle storm (10 rounds x 3 chains)",
		"round", "provisioned", "modified", "upgraded", "scaled", "deleted", "leaks")
	const rounds = 10
	totalOps := 0
	for round := 1; round <= rounds; round++ {
		var ids []orch.DeploymentID
		for _, spec := range specs {
			dep, err := o.Provision(context.Background(), spec)
			if err != nil {
				return nil, fmt.Errorf("E6 round %d: provision: %w", round, err)
			}
			ids = append(ids, dep.ID)
		}
		for _, id := range ids {
			if _, err := o.Apply(id, orch.ChangeBandwidth(4)); err != nil {
				return nil, fmt.Errorf("E6 round %d: modify: %w", round, err)
			}
			if _, err := o.Apply(id, orch.ChangeVersion()); err != nil {
				return nil, fmt.Errorf("E6 round %d: upgrade: %w", round, err)
			}
			// Scale an electronic-hosted NF: servers have headroom,
			// whereas optoelectronic routers are capacity-limited by
			// design (§IV-D) and may not fit a second replica.
			dep := o.Deployment(id)
			scaleIdx := -1
			for i, d := range dep.Placement.Domains {
				if d == topology.DomainElectronic {
					scaleIdx = i
					break
				}
			}
			if scaleIdx >= 0 {
				if _, err := o.Apply(id, orch.ChangeReplicas(scaleIdx, 2)); err != nil {
					return nil, fmt.Errorf("E6 round %d: scale: %w", round, err)
				}
			}
			if _, err := o.Delete(context.Background(), id); err != nil {
				return nil, fmt.Errorf("E6 round %d: delete: %w", round, err)
			}
		}
		leaks := len(o.Deployments()) + len(o.Slices().Slices()) + len(o.Clusters())
		tbl.AddRow(fmt.Sprint(round), "3", "3", "3", "3", "3", fmt.Sprint(leaks))
		totalOps += 15
		if leaks != 0 {
			res.Violations = append(res.Violations, fmt.Sprintf("round %d leaked resources", round))
		}
	}
	res.Tables = append(res.Tables, tbl)
	if len(res.Violations) == 0 {
		res.Findings = append(res.Findings,
			fmt.Sprintf("%d lifecycle operations across %d rounds completed with zero leaked clusters, slices or rules", totalOps, rounds))
	}
	return res, nil
}

// E7Slicing (Fig. 7): one optical slice per AL per tenant; slices are
// pairwise disjoint and paths stay inside their slice when the AL is
// connected.
func E7Slicing() (*Result, error) {
	res := &Result{
		ID:     "E7",
		Title:  "Optical slice allocation per AL",
		Figure: "Fig. 7 (NF/VNFs in AL-VC; one slice per NFC)",
	}
	topo, err := orchTopology(7)
	if err != nil {
		return nil, fmt.Errorf("E7: %w", err)
	}
	o, err := orch.New(orch.Config{Topo: topo}, 1, orch.ShardByTenant)
	if err != nil {
		return nil, fmt.Errorf("E7: %w", err)
	}
	specs, err := fig5Chains()
	if err != nil {
		return nil, fmt.Errorf("E7: %w", err)
	}
	tbl := NewTable("E7: slices",
		"tenant", "slice OPSs", "bandwidth Gbps", "confined path")
	confinedAll := true
	for _, spec := range specs {
		dep, err := o.Provision(context.Background(), spec)
		if err != nil {
			return nil, fmt.Errorf("E7: provision: %w", err)
		}
		tbl.AddRow(spec.Tenant, fmt.Sprint(len(dep.Slice.OPSs)),
			Fmt(dep.Slice.BandwidthGbps), fmt.Sprint(dep.SliceConfined))
		if !dep.SliceConfined {
			confinedAll = false
		}
	}
	res.Tables = append(res.Tables, tbl)
	if !o.Slices().Disjoint() {
		res.Violations = append(res.Violations, "slices overlap")
	} else {
		res.Findings = append(res.Findings, "slices are pairwise disjoint (one OPS never serves two NFCs)")
	}
	if confinedAll {
		res.Findings = append(res.Findings, "every provisioned path stayed inside its tenant's slice")
	} else {
		res.Findings = append(res.Findings,
			"some path used transit OPSs outside its slice (AL not connected in the mesh); VNF hosting stayed in-slice")
	}
	return res, nil
}

// E8OEOPlacement (Fig. 8): the central quantitative claim — moving
// VNFs into the optical domain saves O/E/O conversions, bounded by
// optoelectronic-router capacity.
func E8OEOPlacement() (*Result, error) {
	res := &Result{
		ID:     "E8",
		Title:  "VNF placement saves O/E/O conversions",
		Figure: "Fig. 8 (+ §IV-D cost-proportional-to-flow-length)",
	}
	topo, ledger, opticalHosts, electronicHosts, err := fig8Substrate()
	if err != nil {
		return nil, fmt.Errorf("E8: %w", err)
	}
	// Part 1: the exact Fig. 8 instance — 3 VNFs, two light, one heavy.
	fig8, err := nfv.ResolveChain([]string{"secgw", "firewall", "dpi"})
	if err != nil {
		return nil, fmt.Errorf("E8: %w", err)
	}
	ctx, err := placement.NewContext(topo, ledger, opticalHosts, electronicHosts, fig8, placement.AccountPerVNF)
	if err != nil {
		return nil, fmt.Errorf("E8: %w", err)
	}
	t1 := NewTable("E8a: Fig. 8 instance (3-VNF chain)",
		"policy", "optical VNFs", "conversions", "energy J (1GB flow)")
	model := optical.DefaultCostModel()
	policies := []placement.Policy{placement.AllElectronic{}, placement.OpticalFirst{}, placement.Optimal{}}
	convs := make(map[string]int)
	for _, p := range policies {
		r, err := p.Place(ctx)
		if err != nil {
			return nil, fmt.Errorf("E8: %s: %w", p.Name(), err)
		}
		if err := placement.Verify(ctx, r); err != nil {
			return nil, fmt.Errorf("E8: verify %s: %w", p.Name(), err)
		}
		convs[p.Name()] = r.Conversions
		t1.AddRow(p.Name(), fmt.Sprint(r.OpticalCount()), fmt.Sprint(r.Conversions),
			fmt.Sprintf("%.3f", model.TotalEnergy(r.Conversions, 1<<30)))
	}
	res.Tables = append(res.Tables, t1)
	if convs["all-electronic"] >= convs["optical-first"] && convs["optical-first"] >= convs["optimal"] {
		res.Findings = append(res.Findings, fmt.Sprintf(
			"Fig. 8 shape holds: all-electronic %d >= optical-first %d >= optimal %d conversions",
			convs["all-electronic"], convs["optical-first"], convs["optimal"]))
	} else {
		res.Violations = append(res.Violations, "conversion ordering violated on Fig. 8 instance")
	}

	// Part 2: chain-length sweep.
	t2 := NewTable("E8b: conversions vs chain length (per-VNF accounting)",
		"chain len", "all-electronic", "optical-first", "optimal", "saved by paper %")
	mixes := [][]string{
		{"firewall", "dpi"},
		{"secgw", "firewall", "dpi"},
		{"nat", "secgw", "firewall", "dpi"},
		{"nat", "secgw", "lb", "firewall", "dpi"},
		{"nat", "secgw", "lb", "firewall", "ids", "dpi"},
		{"nat", "secgw", "lb", "firewall", "cache", "ids", "dpi"},
		{"nat", "secgw", "lb", "firewall", "cache", "ids", "wanopt", "dpi"},
	}
	orderingHolds := true
	for _, mix := range mixes {
		profiles, err := nfv.ResolveChain(mix)
		if err != nil {
			return nil, fmt.Errorf("E8: %w", err)
		}
		ctx, err := placement.NewContext(topo, ledger, opticalHosts, electronicHosts, profiles, placement.AccountPerVNF)
		if err != nil {
			return nil, fmt.Errorf("E8: %w", err)
		}
		var row [3]int
		for i, p := range policies {
			r, err := p.Place(ctx)
			if err != nil {
				return nil, fmt.Errorf("E8 sweep %d: %s: %w", len(mix), p.Name(), err)
			}
			row[i] = r.Conversions
		}
		saved := 0.0
		if row[0] > 0 {
			saved = 100 * float64(row[0]-row[1]) / float64(row[0])
		}
		t2.AddRow(fmt.Sprint(len(mix)), fmt.Sprint(row[0]), fmt.Sprint(row[1]),
			fmt.Sprint(row[2]), Fmt(saved))
		if !(row[0] >= row[1] && row[1] >= row[2]) {
			orderingHolds = false
		}
	}
	res.Tables = append(res.Tables, t2)
	if orderingHolds {
		res.Findings = append(res.Findings,
			"across chain lengths 2-8 the ordering all-electronic >= optical-first >= optimal always holds")
	} else {
		res.Violations = append(res.Violations, "ordering violated in chain-length sweep")
	}

	// Part 3: conversion cost proportional to flow length.
	t3 := NewTable("E8c: energy per conversion vs flow length",
		"flow bytes", "energy J/conversion")
	for _, bytes := range []int64{1 << 10, 1 << 20, 1 << 30, 10 << 30} {
		t3.AddRow(fmt.Sprint(bytes), fmt.Sprintf("%.6f", model.ConversionEnergy(bytes)))
	}
	res.Tables = append(res.Tables, t3)
	res.Findings = append(res.Findings,
		"conversion energy grows linearly with flow length (the paper's 'larger the flow, higher the cost')")
	return res, nil
}

// fig8Substrate builds the E8/E11 hosting substrate: 3 OERs and 4 PMs.
func fig8Substrate() (*topology.Topology, *nfv.Ledger, []topology.NodeID, []topology.NodeID, error) {
	return fig8SubstrateWithOERCap(topology.Resources{CPUCores: 4, MemoryGB: 8, StorageGB: 32})
}

func fig8SubstrateWithOERCap(oerCap topology.Resources) (*topology.Topology, *nfv.Ledger, []topology.NodeID, []topology.NodeID, error) {
	topo := topology.New()
	var oers, pms []topology.NodeID
	for i := 0; i < 3; i++ {
		oers = append(oers, topo.AddOPS(true, oerCap))
	}
	plain := topo.AddOPS(false, topology.Resources{})
	for i := 0; i < len(oers); i++ {
		next := plain
		if i+1 < len(oers) {
			next = oers[i+1]
		}
		if _, err := topo.AddLink(oers[i], next, topology.LinkOptical, 100, 1); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	tor := topo.AddToR(0)
	if _, err := topo.AddLink(tor, oers[0], topology.LinkBoundary, 10, 1); err != nil {
		return nil, nil, nil, nil, err
	}
	for i := 0; i < 4; i++ {
		pm := topo.AddPM(0, topology.Resources{CPUCores: 64, MemoryGB: 256, StorageGB: 2048})
		if _, err := topo.AddLink(pm, tor, topology.LinkElectronic, 10, 1); err != nil {
			return nil, nil, nil, nil, err
		}
		pms = append(pms, pm)
	}
	ledger, err := nfv.NewLedger(topo)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return topo, ledger, oers, pms, nil
}

// E11CapacityGate (§IV-D constraint): as optoelectronic capacity
// shrinks, fewer VNFs fit the optical domain and savings degrade
// gracefully; high-demand VNFs never land on routers.
func E11CapacityGate() (*Result, error) {
	res := &Result{
		ID:     "E11",
		Title:  "Optoelectronic capacity gates optical placement",
		Figure: "§IV-D ('some VNFs' resource demand cannot be met by optoelectronic routers')",
	}
	mix := []string{"nat", "secgw", "lb", "firewall", "dpi"}
	profiles, err := nfv.ResolveChain(mix)
	if err != nil {
		return nil, fmt.Errorf("E11: %w", err)
	}
	tbl := NewTable("E11: optical VNFs and conversions vs OER CPU capacity",
		"OER cores", "optical VNFs", "conversions", "DPI electronic")
	prevOptical := 1 << 30
	monotone := true
	dpiAlwaysElectronic := true
	for _, cores := range []float64{16, 8, 4, 2, 1, 0.5} {
		cap := topology.Resources{CPUCores: cores, MemoryGB: cores * 2, StorageGB: cores * 8}
		topo, ledger, oers, pms, err := fig8SubstrateWithOERCap(cap)
		if err != nil {
			return nil, fmt.Errorf("E11: %w", err)
		}
		ctx, err := placement.NewContext(topo, ledger, oers, pms, profiles, placement.AccountPerVNF)
		if err != nil {
			return nil, fmt.Errorf("E11: %w", err)
		}
		r, err := placement.OpticalFirst{}.Place(ctx)
		if err != nil {
			return nil, fmt.Errorf("E11: place: %w", err)
		}
		if err := placement.Verify(ctx, r); err != nil {
			return nil, fmt.Errorf("E11: verify: %w", err)
		}
		dpiElectronic := r.Domains[4] == topology.DomainElectronic
		// DPI needs 8 cores; with 16-core OERs it may go optical.
		if cores < 8 && !dpiElectronic {
			dpiAlwaysElectronic = false
		}
		opt := r.OpticalCount()
		if opt > prevOptical {
			monotone = false
		}
		prevOptical = opt
		tbl.AddRow(Fmt(cores), fmt.Sprint(opt), fmt.Sprint(r.Conversions), fmt.Sprint(dpiElectronic))
	}
	res.Tables = append(res.Tables, tbl)
	if monotone {
		res.Findings = append(res.Findings,
			"optical VNF count decreases monotonically as router capacity shrinks; conversions rise accordingly")
	} else {
		res.Violations = append(res.Violations, "optical count not monotone in capacity")
	}
	if dpiAlwaysElectronic {
		res.Findings = append(res.Findings,
			"the high-demand VNF (DPI) is pinned to the electronic domain whenever routers are smaller than its demand")
	} else {
		res.Violations = append(res.Violations, "DPI landed on an undersized router")
	}
	return res, nil
}
