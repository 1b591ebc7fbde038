package workload

import (
	"testing"
	"testing/quick"

	"github.com/alvc/alvc/internal/topology"
)

func genTopo(t *testing.T) *topology.Topology {
	t.Helper()
	cfg := topology.DefaultGenConfig()
	cfg.Services = ServiceNames(DefaultCatalog())
	topo, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return topo
}

func TestGenerateTrafficBasics(t *testing.T) {
	topo := genTopo(t)
	cfg := DefaultTrafficConfig()
	flows, err := GenerateTraffic(topo, cfg)
	if err != nil {
		t.Fatalf("GenerateTraffic: %v", err)
	}
	wantFlows := topo.ComputeStats().VMs * cfg.FlowsPerVM
	if len(flows) != wantFlows {
		t.Fatalf("flows = %d, want %d", len(flows), wantFlows)
	}
	for _, f := range flows {
		if f.Src == f.Dst {
			t.Fatal("self flow generated")
		}
		if f.Bytes <= 0 {
			t.Fatalf("non-positive flow size %d", f.Bytes)
		}
		if topo.Node(f.Src) == nil || topo.Node(f.Dst) == nil {
			t.Fatal("flow references unknown node")
		}
		if topo.Node(f.Src).Kind != topology.KindVM {
			t.Fatal("flow source is not a VM")
		}
	}
}

func TestTrafficCorrelationTracksIntraFrac(t *testing.T) {
	topo := genTopo(t)
	lo := DefaultTrafficConfig()
	lo.IntraFrac = 0.1
	hi := DefaultTrafficConfig()
	hi.IntraFrac = 0.95
	flowsLo, err := GenerateTraffic(topo, lo)
	if err != nil {
		t.Fatalf("GenerateTraffic lo: %v", err)
	}
	flowsHi, err := GenerateTraffic(topo, hi)
	if err != nil {
		t.Fatalf("GenerateTraffic hi: %v", err)
	}
	fLo, fHi := IntraFraction(flowsLo), IntraFraction(flowsHi)
	if fHi <= fLo {
		t.Fatalf("intra fraction did not rise with IntraFrac: lo=%f hi=%f", fLo, fHi)
	}
	if fHi < 0.8 {
		t.Fatalf("high correlation setting yielded only %f intra fraction", fHi)
	}
}

func TestGenerateTrafficDeterministic(t *testing.T) {
	topo := genTopo(t)
	cfg := DefaultTrafficConfig()
	f1, err := GenerateTraffic(topo, cfg)
	if err != nil {
		t.Fatalf("GenerateTraffic: %v", err)
	}
	f2, err := GenerateTraffic(topo, cfg)
	if err != nil {
		t.Fatalf("GenerateTraffic: %v", err)
	}
	if len(f1) != len(f2) {
		t.Fatal("same seed different flow counts")
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("flow %d differs between identical seeds", i)
		}
	}
}

func TestGenerateTrafficRejectsBadConfig(t *testing.T) {
	topo := genTopo(t)
	cfg := DefaultTrafficConfig()
	cfg.FlowsPerVM = 0
	if _, err := GenerateTraffic(topo, cfg); err == nil {
		t.Fatal("FlowsPerVM=0 accepted")
	}
	cfg = DefaultTrafficConfig()
	cfg.IntraFrac = 1.5
	if _, err := GenerateTraffic(topo, cfg); err == nil {
		t.Fatal("IntraFrac>1 accepted")
	}
}

func TestGenerateTrafficNeedsVMs(t *testing.T) {
	empty := topology.New()
	if _, err := GenerateTraffic(empty, DefaultTrafficConfig()); err == nil {
		t.Fatal("empty topology accepted")
	}
}

func TestGenerateRequests(t *testing.T) {
	cfg := DefaultRequestConfig()
	reqs, err := GenerateRequests(cfg)
	if err != nil {
		t.Fatalf("GenerateRequests: %v", err)
	}
	if len(reqs) != cfg.Tenants*cfg.ChainsPerTenant {
		t.Fatalf("requests = %d, want %d", len(reqs), cfg.Tenants*cfg.ChainsPerTenant)
	}
	tenants := make(map[string]int)
	for _, r := range reqs {
		tenants[r.Tenant]++
		if len(r.NFNames) == 0 {
			t.Fatalf("request %s has empty chain", r.Name)
		}
		if r.BandwidthGbps < cfg.MinGbps || r.BandwidthGbps > cfg.MaxGbps {
			t.Fatalf("bandwidth %f outside [%f,%f]", r.BandwidthGbps, cfg.MinGbps, cfg.MaxGbps)
		}
		if r.FlowBytes <= 0 {
			t.Fatalf("request %s has non-positive flow bytes", r.Name)
		}
	}
	if len(tenants) != cfg.Tenants {
		t.Fatalf("distinct tenants = %d, want %d", len(tenants), cfg.Tenants)
	}
}

func TestGenerateRequestsDeterministic(t *testing.T) {
	cfg := DefaultRequestConfig()
	r1, err := GenerateRequests(cfg)
	if err != nil {
		t.Fatalf("GenerateRequests: %v", err)
	}
	r2, err := GenerateRequests(cfg)
	if err != nil {
		t.Fatalf("GenerateRequests: %v", err)
	}
	for i := range r1 {
		if r1[i].Name != r2[i].Name || len(r1[i].NFNames) != len(r2[i].NFNames) {
			t.Fatalf("request %d differs between identical seeds", i)
		}
	}
}

func TestGenerateRequestsRejectsBadConfig(t *testing.T) {
	cases := []func(*RequestConfig){
		func(c *RequestConfig) { c.Tenants = 0 },
		func(c *RequestConfig) { c.ChainsPerTenant = 0 },
		func(c *RequestConfig) { c.Catalog = nil },
		func(c *RequestConfig) { c.MinGbps = 0 },
		func(c *RequestConfig) { c.MaxGbps = c.MinGbps - 1 },
	}
	for i, mutate := range cases {
		cfg := DefaultRequestConfig()
		mutate(&cfg)
		if _, err := GenerateRequests(cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}

func TestDefaultCatalogSane(t *testing.T) {
	for _, p := range DefaultCatalog() {
		if p.Name == "" || p.Popularity <= 0 || p.MeanFlowBytes <= 0 {
			t.Fatalf("bad profile %+v", p)
		}
		if len(p.DefaultChain) == 0 {
			t.Fatalf("profile %s has empty default chain", p.Name)
		}
	}
}

// Property: flow sizes are always positive and lognormal means stay
// within a plausible multiple of the target.
func TestLognormalProperty(t *testing.T) {
	f := func(seed int64) bool {
		topo := topology.New()
		// Tiny 2-VM topology.
		ops := topo.AddOPS(false, topology.Resources{})
		tor := topo.AddToR(0)
		if _, err := topo.AddLink(tor, ops, topology.LinkBoundary, 1, 1); err != nil {
			return false
		}
		pm := topo.AddPM(0, topology.Resources{})
		if _, err := topo.AddLink(pm, tor, topology.LinkElectronic, 1, 1); err != nil {
			return false
		}
		if _, err := topo.AddVM(pm, "web"); err != nil {
			return false
		}
		if _, err := topo.AddVM(pm, "web"); err != nil {
			return false
		}
		cfg := DefaultTrafficConfig()
		cfg.Seed = seed
		cfg.FlowsPerVM = 8
		flows, err := GenerateTraffic(topo, cfg)
		if err != nil {
			return false
		}
		for _, fl := range flows {
			if fl.Bytes <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
