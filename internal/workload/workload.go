// Package workload generates the synthetic inputs of the AL-VC
// experiments: service catalogs, traffic matrices with tunable
// intra-service correlation (paper §III-A: "two machines providing
// similar service have high data correlation"), and per-user /
// per-application network-function-chain requests (§IV-A).
//
// All generators are seeded and deterministic. The workload package
// deliberately knows nothing about chains, VNFs or orchestration — it
// emits plain requests (service names, NF names, byte counts) that the
// upper layers interpret.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/alvc/alvc/internal/topology"
)

// ServiceProfile describes one service type hosted in the data center.
type ServiceProfile struct {
	// Name is the service label carried by VM nodes.
	Name string
	// Popularity is a relative weight used by skewed generators.
	Popularity float64
	// DefaultChain is the NF sequence a chain request for this service
	// asks for, by NF catalog name (resolved by internal/nfv).
	DefaultChain []string
	// MeanFlowBytes parameterizes the lognormal flow-size draw.
	MeanFlowBytes float64
}

// DefaultCatalog returns the service mix used throughout the
// experiments: the three services the paper names in Fig. 1 (web, Map-
// Reduce, SNS) plus the storage-oriented services §III-A mentions
// (file, backup).
func DefaultCatalog() []ServiceProfile {
	return []ServiceProfile{
		{Name: "web", Popularity: 5, DefaultChain: []string{"firewall", "lb", "dpi"}, MeanFlowBytes: 64 << 10},
		{Name: "mapreduce", Popularity: 3, DefaultChain: []string{"firewall", "wanopt"}, MeanFlowBytes: 256 << 20},
		{Name: "sns", Popularity: 4, DefaultChain: []string{"secgw", "firewall", "dpi", "lb"}, MeanFlowBytes: 16 << 10},
		{Name: "file", Popularity: 2, DefaultChain: []string{"firewall", "ids"}, MeanFlowBytes: 64 << 20},
		{Name: "backup", Popularity: 1, DefaultChain: []string{"secgw", "wanopt"}, MeanFlowBytes: 1 << 30},
	}
}

// ServiceNames returns the names of the catalog's services in order.
func ServiceNames(catalog []ServiceProfile) []string {
	names := make([]string, len(catalog))
	for i, p := range catalog {
		names[i] = p.Name
	}
	return names
}

// Flow is one src→dst transfer of Bytes bytes between two VMs.
type Flow struct {
	Src, Dst topology.NodeID
	Bytes    int64
	// Service is the service label of the source VM.
	Service string
	// Intra reports whether src and dst share a service (used to verify
	// the correlation target).
	Intra bool
}

// TrafficConfig parameterizes the traffic-matrix generator.
type TrafficConfig struct {
	// FlowsPerVM is the number of flows each VM originates.
	FlowsPerVM int
	// IntraFrac is the probability that a flow's destination is drawn
	// from the same service group as its source (the paper's data
	// correlation). The remainder go to uniformly random other VMs.
	IntraFrac float64
	// SigmaLog is the lognormal shape parameter for flow sizes (the
	// mean comes from each service's MeanFlowBytes).
	SigmaLog float64
	// Catalog maps service names to profiles; services not present use
	// a 1 MB mean.
	Catalog []ServiceProfile
	Seed    int64
}

// DefaultTrafficConfig returns a moderately correlated traffic mix.
func DefaultTrafficConfig() TrafficConfig {
	return TrafficConfig{
		FlowsPerVM: 4,
		IntraFrac:  0.8,
		SigmaLog:   1.0,
		Catalog:    DefaultCatalog(),
		Seed:       1,
	}
}

// GenerateTraffic draws a traffic matrix over the topology's VMs.
// It requires at least two VMs.
func GenerateTraffic(topo *topology.Topology, cfg TrafficConfig) ([]Flow, error) {
	if cfg.FlowsPerVM <= 0 {
		return nil, fmt.Errorf("workload: traffic: FlowsPerVM must be positive, got %d", cfg.FlowsPerVM)
	}
	if cfg.IntraFrac < 0 || cfg.IntraFrac > 1 {
		return nil, fmt.Errorf("workload: traffic: IntraFrac %f outside [0,1]", cfg.IntraFrac)
	}
	vms := topo.NodeIDs(topology.KindVM)
	if len(vms) < 2 {
		return nil, fmt.Errorf("workload: traffic: need at least 2 VMs, have %d", len(vms))
	}
	byService := topo.VMsByService()
	meanOf := make(map[string]float64, len(cfg.Catalog))
	for _, p := range cfg.Catalog {
		meanOf[p.Name] = p.MeanFlowBytes
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var flows []Flow
	for _, src := range vms {
		svc := topo.Node(src).Service
		peers := byService[svc]
		for f := 0; f < cfg.FlowsPerVM; f++ {
			var dst topology.NodeID
			intra := rng.Float64() < cfg.IntraFrac && len(peers) > 1
			if intra {
				for {
					dst = peers[rng.Intn(len(peers))]
					if dst != src {
						break
					}
				}
			} else {
				for {
					dst = vms[rng.Intn(len(vms))]
					if dst != src {
						break
					}
				}
				intra = topo.Node(dst).Service == svc
			}
			mean := meanOf[svc]
			if mean <= 0 {
				mean = 1 << 20
			}
			bytes := lognormalBytes(rng, mean, cfg.SigmaLog)
			flows = append(flows, Flow{Src: src, Dst: dst, Bytes: bytes, Service: svc, Intra: intra})
		}
	}
	return flows, nil
}

// lognormalBytes draws a lognormal sample whose mean is targetMean.
func lognormalBytes(rng *rand.Rand, targetMean, sigma float64) int64 {
	// mean of lognormal = exp(mu + sigma^2/2) => mu = ln(mean) - s^2/2.
	mu := math.Log(targetMean) - sigma*sigma/2
	v := math.Exp(mu + sigma*rng.NormFloat64())
	if v < 1 {
		v = 1
	}
	if v > math.MaxInt64/2 {
		v = math.MaxInt64 / 2
	}
	return int64(v)
}

// IntraFraction returns the fraction of flows whose endpoints share a
// service — the measured data-correlation of a traffic matrix.
func IntraFraction(flows []Flow) float64 {
	if len(flows) == 0 {
		return 0
	}
	n := 0
	for _, f := range flows {
		if f.Intra {
			n++
		}
	}
	return float64(n) / float64(len(flows))
}

// ChainRequest is a tenant's request for one network function chain
// (§IV-A: per-user / per-application service chaining).
type ChainRequest struct {
	Tenant  string
	Name    string
	Service string
	// NFNames is the ordered middlebox sequence, by catalog name.
	NFNames []string
	// BandwidthGbps is the chain's network resource requirement.
	BandwidthGbps float64
	// FlowBytes is the representative flow length used for O/E/O cost
	// accounting (§IV-D: "cost of this conversion corresponds to the
	// length of the flow").
	FlowBytes int64
}

// RequestConfig parameterizes the chain-request generator.
type RequestConfig struct {
	Tenants         int
	ChainsPerTenant int
	Catalog         []ServiceProfile
	// MutateProb is the chance a request's chain deviates from the
	// service default (an NF is dropped or duplicated) — exercising
	// heterogeneous chains like Fig. 5's three distinct paths.
	MutateProb float64
	MinGbps    float64
	MaxGbps    float64
	Seed       int64
}

// DefaultRequestConfig returns a small multi-tenant request mix.
func DefaultRequestConfig() RequestConfig {
	return RequestConfig{
		Tenants:         3,
		ChainsPerTenant: 2,
		Catalog:         DefaultCatalog(),
		MutateProb:      0.25,
		MinGbps:         0.5,
		MaxGbps:         4,
		Seed:            1,
	}
}

// GenerateRequests draws chain requests.
func GenerateRequests(cfg RequestConfig) ([]ChainRequest, error) {
	if cfg.Tenants <= 0 || cfg.ChainsPerTenant <= 0 {
		return nil, fmt.Errorf("workload: requests: Tenants and ChainsPerTenant must be positive")
	}
	if len(cfg.Catalog) == 0 {
		return nil, fmt.Errorf("workload: requests: empty catalog")
	}
	if cfg.MinGbps <= 0 || cfg.MaxGbps < cfg.MinGbps {
		return nil, fmt.Errorf("workload: requests: bad bandwidth range [%f,%f]", cfg.MinGbps, cfg.MaxGbps)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	totalPop := 0.0
	for _, p := range cfg.Catalog {
		totalPop += p.Popularity
	}
	pickService := func() ServiceProfile {
		x := rng.Float64() * totalPop
		for _, p := range cfg.Catalog {
			x -= p.Popularity
			if x <= 0 {
				return p
			}
		}
		return cfg.Catalog[len(cfg.Catalog)-1]
	}
	var reqs []ChainRequest
	for t := 0; t < cfg.Tenants; t++ {
		tenant := fmt.Sprintf("tenant-%d", t+1)
		for c := 0; c < cfg.ChainsPerTenant; c++ {
			p := pickService()
			nfs := append([]string(nil), p.DefaultChain...)
			if len(nfs) > 1 && rng.Float64() < cfg.MutateProb {
				if rng.Intn(2) == 0 {
					// Drop one NF.
					i := rng.Intn(len(nfs))
					nfs = append(nfs[:i], nfs[i+1:]...)
				} else {
					// Duplicate one NF (e.g. a second firewall stage).
					i := rng.Intn(len(nfs))
					nfs = append(nfs[:i+1], append([]string{nfs[i]}, nfs[i+1:]...)...)
				}
			}
			bw := cfg.MinGbps + rng.Float64()*(cfg.MaxGbps-cfg.MinGbps)
			reqs = append(reqs, ChainRequest{
				Tenant:        tenant,
				Name:          fmt.Sprintf("%s-%s-%d", tenant, p.Name, c+1),
				Service:       p.Name,
				NFNames:       nfs,
				BandwidthGbps: bw,
				FlowBytes:     int64(p.MeanFlowBytes),
			})
		}
	}
	return reqs, nil
}
