// Package chain models Network Function Chains (§IV-A): "an NFC is
// defined as a set of Network Functions, packet processing order
// (simple or complex), network resource requirements (node and links),
// and network forwarding graph". Only simple (linear) orders are
// modelled: a chain's forwarding graph is its NF sequence.
package chain

import (
	"fmt"
	"strings"

	"github.com/alvc/alvc/internal/topology"
)

// NFRef names one network function position in a chain. Demand, when
// non-zero, overrides the catalog profile's default demand (chains may
// request bigger firewalls, etc.).
type NFRef struct {
	Name   string
	Demand topology.Resources
}

// Spec is a tenant's chain request: the NF sequence in processing
// order plus the network resource requirements.
type Spec struct {
	Name    string
	Tenant  string
	Service string
	// NFs is the processing order. Chains are linear: the paper's
	// complex (branching) orders are not modelled.
	NFs []NFRef
	// BandwidthGbps is the chain's link resource requirement.
	BandwidthGbps float64
	// FlowBytes is the representative flow length for O/E/O cost
	// accounting (§IV-D ties conversion cost to flow length).
	FlowBytes int64
}

// Validate checks the spec's structural requirements.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("chain: spec: empty name")
	case s.Tenant == "":
		return fmt.Errorf("chain: spec %q: empty tenant", s.Name)
	case strings.Contains(s.Tenant, "/"):
		// With no "/" in the tenant, the flow key Tenant+"/"+Name names
		// one tenant, so the tenant router sends equal keys to one shard.
		return fmt.Errorf("chain: spec %q: tenant %q contains \"/\"", s.Name, s.Tenant)
	case len(s.NFs) == 0:
		return fmt.Errorf("chain: spec %q: no network functions", s.Name)
	case s.BandwidthGbps <= 0:
		return fmt.Errorf("chain: spec %q: bandwidth must be positive, got %f", s.Name, s.BandwidthGbps)
	case s.FlowBytes <= 0:
		return fmt.Errorf("chain: spec %q: flow bytes must be positive, got %d", s.Name, s.FlowBytes)
	}
	for i, nf := range s.NFs {
		if nf.Name == "" {
			return fmt.Errorf("chain: spec %q: NF %d has empty name", s.Name, i)
		}
	}
	return nil
}

// NFNames returns the chain's NF names in processing order.
func (s Spec) NFNames() []string {
	names := make([]string, len(s.NFs))
	for i, nf := range s.NFs {
		names[i] = nf.Name
	}
	return names
}

// Linear builds a valid linear Spec from NF names — the convenience
// constructor used by examples and tests.
func Linear(name, tenant, service string, bandwidthGbps float64, flowBytes int64, nfNames ...string) (Spec, error) {
	refs := make([]NFRef, len(nfNames))
	for i, n := range nfNames {
		refs[i] = NFRef{Name: n}
	}
	s := Spec{
		Name:          name,
		Tenant:        tenant,
		Service:       service,
		NFs:           refs,
		BandwidthGbps: bandwidthGbps,
		FlowBytes:     flowBytes,
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}
