// Package nfv implements the NFV side of AL-VC (§IV): the network
// function catalog (the middleboxes the paper names — firewalls, DPI,
// load balancers, security gateways — plus common companions), VNF
// instances, host resource accounting, and the Cloud/NFV manager
// responsible for "VNF creation, scaling, termination, and update
// events during the life cycle of VNF" (§IV-B).
package nfv

import (
	"fmt"
	"maps"
	"sort"

	"github.com/alvc/alvc/internal/topology"
)

// NFType names a network function in the catalog.
type NFType string

// The catalog's network functions. The paper names firewalls, DPI,
// load balancers (§I) and security gateways (§IV-A); the rest are
// standard middleboxes used to vary chain resource profiles.
const (
	Firewall     NFType = "firewall"
	DPI          NFType = "dpi"
	LoadBalancer NFType = "lb"
	SecurityGW   NFType = "secgw"
	NAT          NFType = "nat"
	IDS          NFType = "ids"
	WANOptimizer NFType = "wanopt"
	VideoOpt     NFType = "videoopt"
	Cache        NFType = "cache"
)

// NFProfile describes one network function type.
type NFProfile struct {
	Type NFType
	// Demand is the per-replica resource demand. Whether a VNF can move
	// into the optical domain depends on this fitting an optoelectronic
	// router's remaining capacity (§IV-D: "VNFs only with low resource
	// demands need to be implemented in this domain").
	Demand topology.Resources
	// PerPacketMicros is the added processing latency per packet.
	PerPacketMicros float64
	// Description documents the function.
	Description string
}

// DefaultProfiles returns the built-in catalog keyed by type. Demands
// are chosen so that light functions (firewall, NAT, secgw, lb) fit the
// default optoelectronic-router capacity while heavy ones (DPI, IDS,
// video optimizer) do not — reproducing the §IV-D split where only two
// of the three VNFs of Fig. 8 can move into the optical domain.
//
// Every call returns a fresh map the caller may edit; lookups go to the
// package's own copy instead (see ProfileByName).
func DefaultProfiles() map[NFType]NFProfile { return maps.Clone(catalog) }

// catalog is the built-in catalog, built once and never written: NF
// names are resolved for every NF of every provision.
var catalog = map[NFType]NFProfile{
	Firewall:     {Type: Firewall, Demand: topology.Resources{CPUCores: 1, MemoryGB: 1, StorageGB: 1}, PerPacketMicros: 2, Description: "stateless packet filter"},
	NAT:          {Type: NAT, Demand: topology.Resources{CPUCores: 1, MemoryGB: 1, StorageGB: 1}, PerPacketMicros: 1, Description: "address translation"},
	SecurityGW:   {Type: SecurityGW, Demand: topology.Resources{CPUCores: 2, MemoryGB: 2, StorageGB: 2}, PerPacketMicros: 4, Description: "IPsec-style security gateway"},
	LoadBalancer: {Type: LoadBalancer, Demand: topology.Resources{CPUCores: 2, MemoryGB: 2, StorageGB: 1}, PerPacketMicros: 2, Description: "L4 load balancer"},
	Cache:        {Type: Cache, Demand: topology.Resources{CPUCores: 2, MemoryGB: 6, StorageGB: 16}, PerPacketMicros: 3, Description: "content cache"},
	DPI:          {Type: DPI, Demand: topology.Resources{CPUCores: 8, MemoryGB: 16, StorageGB: 8}, PerPacketMicros: 12, Description: "deep packet inspection"},
	IDS:          {Type: IDS, Demand: topology.Resources{CPUCores: 6, MemoryGB: 12, StorageGB: 16}, PerPacketMicros: 10, Description: "intrusion detection"},
	WANOptimizer: {Type: WANOptimizer, Demand: topology.Resources{CPUCores: 4, MemoryGB: 12, StorageGB: 32}, PerPacketMicros: 8, Description: "WAN optimizer"},
	VideoOpt:     {Type: VideoOpt, Demand: topology.Resources{CPUCores: 12, MemoryGB: 24, StorageGB: 16}, PerPacketMicros: 20, Description: "video transcoder/optimizer"},
}

// ProfileByName resolves a catalog name (e.g. from a workload request).
func ProfileByName(name string) (NFProfile, error) {
	p, ok := catalog[NFType(name)]
	if !ok {
		return NFProfile{}, fmt.Errorf("nfv: unknown network function %q", name)
	}
	return p, nil
}

// catalogTypes is ProfileNames: the event log keeps a created
// instance's type as its index here.
var catalogTypes = ProfileNames()

// ProfileNames returns the catalog's names sorted.
func ProfileNames() []string {
	names := make([]string, 0, len(catalog))
	for t := range catalog {
		names = append(names, string(t))
	}
	sort.Strings(names)
	return names
}

// ResolveChain maps NF names to profiles, preserving order.
func ResolveChain(names []string) ([]NFProfile, error) {
	out := make([]NFProfile, 0, len(names))
	for _, n := range names {
		p, err := ProfileByName(n)
		if err != nil {
			return nil, fmt.Errorf("nfv: resolve chain: %w", err)
		}
		out = append(out, p)
	}
	return out, nil
}
