// Package topology models the hybrid electronic/optical data-center
// network of the AL-VC architecture (paper §III-B, Fig. 2): servers in
// racks attach to Top-of-Rack (ToR) switches; each ToR uplinks to
// multiple Optical Packet Switches (OPSs) forming the network core;
// some OPSs are optoelectronic routers with limited buffer, storage and
// processing capability so they can host VNFs (§IV-D).
//
// The package provides the node/link data model, deterministic
// generators for parameterized DCNs, structural validation, and the
// cached adjacency (a VM's ToRs, a ToR's OPS uplinks, optical degrees)
// the abstraction-layer covers of internal/cluster run on.
package topology

import "fmt"

// NodeID identifies a node. IDs are assigned densely from 1 by the
// Topology container and are stable for the lifetime of the topology.
type NodeID int

// LinkID identifies a link.
type LinkID int

// NodeKind classifies a node.
type NodeKind int

// Node kinds. Physical machines host VMs; ToRs aggregate a rack; OPSs
// form the optical core.
const (
	KindPhysicalMachine NodeKind = iota + 1
	KindVM
	KindToR
	KindOPS
)

// String returns the human-readable kind name.
func (k NodeKind) String() string {
	switch k {
	case KindPhysicalMachine:
		return "pm"
	case KindVM:
		return "vm"
	case KindToR:
		return "tor"
	case KindOPS:
		return "ops"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Domain distinguishes the electronic and optical parts of the hybrid
// network. Crossing from one to the other costs an O/E/O conversion
// (§IV-D).
type Domain int

// Domains of the hybrid DCN.
const (
	DomainElectronic Domain = iota + 1
	DomainOptical
)

// String returns the human-readable domain name.
func (d Domain) String() string {
	switch d {
	case DomainElectronic:
		return "electronic"
	case DomainOptical:
		return "optical"
	default:
		return fmt.Sprintf("domain(%d)", int(d))
	}
}

// Resources describes compute capacity or demand. The zero value means
// "none". Optoelectronic routers carry small capacities (limited
// buffer/storage/processing, §IV-D); electronic servers carry large
// ones.
type Resources struct {
	CPUCores  float64
	MemoryGB  float64
	StorageGB float64
}

// Add returns r + o component-wise.
func (r Resources) Add(o Resources) Resources {
	return Resources{
		CPUCores:  r.CPUCores + o.CPUCores,
		MemoryGB:  r.MemoryGB + o.MemoryGB,
		StorageGB: r.StorageGB + o.StorageGB,
	}
}

// Sub returns r - o component-wise.
func (r Resources) Sub(o Resources) Resources {
	return Resources{
		CPUCores:  r.CPUCores - o.CPUCores,
		MemoryGB:  r.MemoryGB - o.MemoryGB,
		StorageGB: r.StorageGB - o.StorageGB,
	}
}

// Fits reports whether demand o fits within r component-wise.
func (r Resources) Fits(o Resources) bool {
	return o.CPUCores <= r.CPUCores+1e-9 &&
		o.MemoryGB <= r.MemoryGB+1e-9 &&
		o.StorageGB <= r.StorageGB+1e-9
}

// IsZero reports whether all components are zero.
func (r Resources) IsZero() bool {
	return r.CPUCores == 0 && r.MemoryGB == 0 && r.StorageGB == 0
}

// Scale returns r scaled by f.
func (r Resources) Scale(f float64) Resources {
	return Resources{
		CPUCores:  r.CPUCores * f,
		MemoryGB:  r.MemoryGB * f,
		StorageGB: r.StorageGB * f,
	}
}

// String renders the resource vector compactly.
func (r Resources) String() string {
	return fmt.Sprintf("cpu=%.1f mem=%.1fGB sto=%.1fGB", r.CPUCores, r.MemoryGB, r.StorageGB)
}

// Node is a vertex of the data-center network.
type Node struct {
	ID   NodeID
	Kind NodeKind
	Name string

	// Rack is the rack index for PMs and ToRs (−1 when not applicable).
	Rack int

	// Host is the PM hosting this VM (VMs only; 0 otherwise).
	Host NodeID

	// Service is the service-type label of a VM (§III-A groups VMs by
	// service). Empty for non-VM nodes.
	Service string

	// Optoelectronic marks an OPS as an optoelectronic router able to
	// host VNFs (§IV-D). Plain OPSs cannot.
	Optoelectronic bool

	// Capacity is the hostable resource capacity: large for PMs, small
	// for optoelectronic OPSs, zero otherwise.
	Capacity Resources

	// Down marks a failed node. Down nodes are skipped by connectivity
	// queries and routing; the orchestrator's repair path reacts to
	// them (failure injection for resilience experiments).
	Down bool
}

// Domain returns the domain the node lives in: OPSs are optical,
// everything else is electronic.
func (n *Node) Domain() Domain {
	if n.Kind == KindOPS {
		return DomainOptical
	}
	return DomainElectronic
}

// LinkKind classifies a link by the domains it connects.
type LinkKind int

// Link kinds. Boundary links (ToR↔OPS) are where O/E/O conversion
// happens: electronic packets from the ToR are converted to optical
// before entering the core and back at the egress (§III-B).
const (
	LinkElectronic LinkKind = iota + 1 // server↔ToR, VM↔PM (virtual)
	LinkBoundary                       // ToR↔OPS: O/E/O conversion point
	LinkOptical                        // OPS↔OPS inside the core
)

// String returns the human-readable link-kind name.
func (k LinkKind) String() string {
	switch k {
	case LinkElectronic:
		return "electronic"
	case LinkBoundary:
		return "boundary"
	case LinkOptical:
		return "optical"
	default:
		return fmt.Sprintf("linkkind(%d)", int(k))
	}
}

// Link is an undirected edge of the data-center network.
type Link struct {
	ID            LinkID
	From, To      NodeID
	Kind          LinkKind
	BandwidthGbps float64
	LatencyMicros float64

	// Down marks a failed link; down links are skipped by connectivity
	// queries and routing.
	Down bool

	// SRLG lists the shared-risk link groups this link belongs to (same
	// cable tray, same conduit, same rack power feed). Links sharing a
	// group tend to fail together, so standby planning counts a shared
	// group as overlap and failure classification treats same-group
	// links as suspect. Empty for links with no modeled shared risk.
	// Set at topology-build time (SetLinkSRLG); immutable afterwards.
	SRLG []int
}
