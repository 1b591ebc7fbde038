// Command alvc is the umbrella CLI for the AL-VC architecture:
//
//	alvc clusters   build service-based virtual clusters and print ALs
//	alvc deploy     deploy generated chain requests end to end
//	alvc catalog    list the network function catalog
//	alvc churn      replay VM churn and compare AL-VC vs flat update costs
//	alvc exp        run the paper's experiments (internal/experiments)
//
// Every subcommand but catalog and exp takes -racks/-ops/-uplinks/-seed
// to shape the underlying generated data center, the same one for each.
// churn runs experiment E9's loop (experiments.RunChurn) on it: each
// event re-covers the service's AL with the allocator's PatchVC, as the
// control plane's slice patch does. exp prints each experiment's
// tables, then its shape findings as [ok] lines and any that did not
// hold as [VIOLATION] lines, and exits 2 on a violation.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/experiments"
	"github.com/alvc/alvc/internal/topology"
	"github.com/alvc/alvc/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func usage() {
	ids := experiments.IDs()
	fmt.Fprintf(os.Stderr, `usage: alvc <command> [flags]

commands:
  clusters   build one virtual cluster per service and print each AL
  deploy     deploy generated chain requests and print the deployments
  catalog    list the built-in network function types
  churn      replay VM churn and compare AL-VC vs flat update costs
  exp        run experiments (all, or -exp %s..%s)
`, ids[0], ids[len(ids)-1])
}

func run(args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "clusters":
		return runClusters(rest)
	case "deploy":
		return runDeploy(rest)
	case "catalog":
		return runCatalog()
	case "churn":
		return runChurn(rest)
	case "exp":
		return runExp(rest)
	case "-h", "--help", "help":
		usage()
		return 0
	default:
		fmt.Fprintf(os.Stderr, "alvc: unknown command %q\n", cmd)
		usage()
		return 2
	}
}

func topoFlags(fs *flag.FlagSet) *alvc.TopologyConfig {
	cfg := alvc.DefaultTopology()
	cfg.Racks = 8
	cfg.OPSCount = 24
	cfg.ToRUplinks = 16
	cfg.OPSChords = 2
	fs.IntVar(&cfg.Racks, "racks", cfg.Racks, "number of racks")
	fs.IntVar(&cfg.OPSCount, "ops", cfg.OPSCount, "optical switches")
	fs.IntVar(&cfg.ToRUplinks, "uplinks", cfg.ToRUplinks, "OPS uplinks per ToR")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "generator seed")
	return &cfg
}

func runClusters(args []string) int {
	fs := flag.NewFlagSet("clusters", flag.ContinueOnError)
	cfg := topoFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	arch, err := alvc.New(*cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alvc clusters: %v\n", err)
		return 1
	}
	vcs, err := arch.Sharded().BuildServiceClusters()
	if err != nil {
		fmt.Fprintf(os.Stderr, "alvc clusters: %v\n", err)
		return 1
	}
	tbl := experiments.NewTable("virtual clusters", "id", "service", "VMs", "selected ToRs", "AL size (OPSs)")
	for _, vc := range vcs {
		tbl.AddRow(fmt.Sprint(vc.ID), vc.Service, fmt.Sprint(len(vc.VMs)),
			fmt.Sprint(len(vc.AL.ToRs)), fmt.Sprint(vc.AL.Size()))
	}
	if err := tbl.Render(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "alvc clusters: %v\n", err)
		return 1
	}
	return 0
}

func runDeploy(args []string) int {
	ctx := context.Background()
	fs := flag.NewFlagSet("deploy", flag.ContinueOnError)
	cfg := topoFlags(fs)
	tenants := fs.Int("tenants", 3, "number of tenants")
	perTenant := fs.Int("chains", 1, "chains per tenant")
	fromFile := fs.String("f", "", "deploy chain specs from a JSON file instead of generating them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.Services = workload.ServiceNames(workload.DefaultCatalog())
	arch, err := alvc.New(*cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alvc deploy: %v\n", err)
		return 1
	}
	var specs []alvc.Spec
	if *fromFile != "" {
		data, err := os.ReadFile(*fromFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alvc deploy: %v\n", err)
			return 1
		}
		specs, err = chain.ParseSpecs(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alvc deploy: %v\n", err)
			return 1
		}
	} else {
		reqCfg := workload.DefaultRequestConfig()
		reqCfg.Tenants = *tenants
		reqCfg.ChainsPerTenant = *perTenant
		reqs, err := workload.GenerateRequests(reqCfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alvc deploy: %v\n", err)
			return 1
		}
		for _, req := range reqs {
			spec, err := alvc.LinearChain(req.Name, req.Tenant, req.Service,
				req.BandwidthGbps, req.FlowBytes, req.NFNames...)
			if err != nil {
				fmt.Fprintf(os.Stderr, "alvc deploy: %v\n", err)
				return 1
			}
			specs = append(specs, spec)
		}
	}
	tbl := experiments.NewTable("deployments",
		"chain", "tenant", "service", "NFs", "AL", "hops", "conversions", "energy J")
	failures := 0
	for _, spec := range specs {
		dep, err := arch.Sharded().Provision(ctx, spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alvc deploy: %s: %v\n", spec.Name, err)
			failures++
			continue
		}
		tbl.AddRow(spec.Name, spec.Tenant, spec.Service, fmt.Sprint(len(spec.NFs)),
			fmt.Sprint(dep.VC.AL.Size()), fmt.Sprint(len(dep.Path)-1),
			fmt.Sprint(dep.Conversions), fmt.Sprintf("%.4f", dep.EnergyJoules))
	}
	if err := tbl.Render(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "alvc deploy: %v\n", err)
		return 1
	}
	s := arch.Summarize()
	fmt.Printf("\nactive deployments: %d  installed rules: %d  total conversions: %d\n",
		s.ActiveDeployments, s.InstalledRules, s.TotalConversions)
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "alvc deploy: %d requests failed (OPS pool exhausted?)\n", failures)
		return 1
	}
	return 0
}

func runCatalog() int {
	tbl := experiments.NewTable("network function catalog", "name")
	for _, name := range alvc.NFCatalog() {
		tbl.AddRow(name)
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return 1
	}
	return 0
}

func runChurn(args []string) int {
	fs := flag.NewFlagSet("churn", flag.ContinueOnError)
	cfg := topoFlags(fs)
	events := fs.Int("events", 50, "churn events to replay")
	service := fs.String("service", "web", "service group to churn")
	joins := fs.Float64("joins", 0.35, "fraction of joins")
	leaves := fs.Float64("leaves", 0.3, "fraction of leaves (rest migrate)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	topo, err := topology.Generate(*cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alvc churn: %v\n", err)
		return 1
	}
	report, err := experiments.RunChurn(topo, experiments.ChurnConfig{
		Events:    *events,
		Service:   *service,
		JoinFrac:  *joins,
		LeaveFrac: *leaves,
		Seed:      cfg.Seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "alvc %v\n", err) // RunChurn's errors begin "churn:"
		return 1
	}
	tbl := experiments.NewTable(fmt.Sprintf("churn: %d events on service %q", *events, *service),
		"strategy", "switches touched", "rules changed")
	tbl.AddRow("AL-VC (scoped)", fmt.Sprint(report.Switches), fmt.Sprint(report.Rules))
	tbl.AddRow("flat (whole network)", fmt.Sprint(report.Flat), fmt.Sprint(report.Flat))
	if err := tbl.Render(os.Stdout); err != nil {
		return 1
	}
	fmt.Printf("\nAL rebuilds: %d  final AL size: %d  advantage: %.1fx fewer switches\n",
		report.Rebuilds, report.FinalSize, float64(report.Flat)/float64(report.Switches))
	return 0
}

func runExp(args []string) int {
	fs := flag.NewFlagSet("exp", flag.ContinueOnError)
	exp := fs.String("exp", "", "experiment ID (default all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ids := experiments.IDs()
	if *exp != "" {
		ids = []string{*exp}
	}
	violations := 0
	for _, id := range ids {
		res, err := experiments.Run(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alvc exp: %v\n", err)
			return 1
		}
		fmt.Printf("=== %s — %s\n    reproduces: %s\n\n", res.ID, res.Title, res.Figure)
		for _, tbl := range res.Tables {
			if err := tbl.Render(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "alvc exp: %s: render: %v\n", res.ID, err)
				return 1
			}
			fmt.Println()
		}
		for _, f := range res.Findings {
			fmt.Printf("  [ok] %s\n", f)
		}
		for _, v := range res.Violations {
			fmt.Printf("  [VIOLATION] %s\n", v)
		}
		fmt.Println()
		violations += len(res.Violations)
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "alvc exp: %d shape violations\n", violations)
		return 2
	}
	return 0
}
