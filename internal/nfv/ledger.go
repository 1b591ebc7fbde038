package nfv

import (
	"errors"
	"fmt"
	"sync"

	"github.com/alvc/alvc/internal/topology"
)

// ErrInsufficientCapacity is wrapped when a hosting node cannot fit a
// requested allocation. Callers (the HTTP control plane in particular)
// use it to distinguish capacity exhaustion from malformed requests.
var ErrInsufficientCapacity = errors.New("nfv: insufficient capacity")

// Ledger tracks resource allocation on hosting-capable nodes: physical
// machines (electronic domain) and optoelectronic routers (optical
// domain). The limited capacity of optoelectronic routers is the
// constraint that keeps high-demand VNFs in the electronic domain
// (§IV-D). Safe for concurrent use.
type Ledger struct {
	mu sync.Mutex
	// hosts holds, by node ID, each node's capacity, what is allocated
	// on it and its domain; a zero domain marks a node that cannot host.
	hosts []hostEntry
	// capacityIn and usedIn total capacity and used by domain, kept in
	// step with every Alloc and Free.
	capacityIn, usedIn [topology.DomainOptical + 1]topology.Resources
}

// hostEntry is one node's row of the ledger.
type hostEntry struct {
	capacity, used topology.Resources
	domain         topology.Domain
}

// NewLedger indexes the topology's hosting-capable nodes: every PM and
// every optoelectronic OPS.
func NewLedger(topo *topology.Topology) (*Ledger, error) {
	if topo == nil {
		return nil, fmt.Errorf("nfv: ledger: nil topology")
	}
	l := &Ledger{}
	add := func(n *topology.Node, d topology.Domain) {
		l.hosts = topology.Widen(l.hosts, n.ID)
		l.hosts[n.ID] = hostEntry{capacity: n.Capacity, domain: d}
		l.capacityIn[d] = l.capacityIn[d].Add(n.Capacity)
	}
	for _, n := range topo.Nodes(topology.KindPhysicalMachine) {
		add(n, topology.DomainElectronic)
	}
	for _, n := range topo.Nodes(topology.KindOPS) {
		if n.Optoelectronic {
			add(n, topology.DomainOptical)
		}
	}
	return l, nil
}

// host returns the node's row, nil when it cannot host. Caller holds
// l.mu.
func (l *Ledger) host(id topology.NodeID) *hostEntry {
	if id < 0 || int(id) >= len(l.hosts) || l.hosts[id].domain == 0 {
		return nil
	}
	return &l.hosts[id]
}

// Alloc reserves demand on node id.
func (l *Ledger) Alloc(id topology.NodeID, demand topology.Resources) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := l.host(id)
	if h == nil {
		return fmt.Errorf("nfv: alloc: node %d cannot host VNFs", id)
	}
	if !h.capacity.Sub(h.used).Fits(demand) {
		return fmt.Errorf("%w: node %d lacks room for %s (free %s)",
			ErrInsufficientCapacity, id, demand, h.capacity.Sub(h.used))
	}
	h.used = h.used.Add(demand)
	l.usedIn[h.domain] = l.usedIn[h.domain].Add(demand)
	return nil
}

// Free releases demand on node id. Releasing more than allocated is an
// error (the ledger clamps nothing — it signals the accounting bug).
func (l *Ledger) Free(id topology.NodeID, demand topology.Resources) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := l.host(id)
	if h == nil {
		return fmt.Errorf("nfv: free: node %d cannot host VNFs", id)
	}
	rem := h.used.Sub(demand)
	if rem.CPUCores < -1e-9 || rem.MemoryGB < -1e-9 || rem.StorageGB < -1e-9 {
		return fmt.Errorf("nfv: free: node %d releasing %s exceeds used %s", id, demand, h.used)
	}
	h.used = rem
	l.usedIn[h.domain] = l.usedIn[h.domain].Sub(demand)
	return nil
}

// Available returns the free capacity of node id (zero if it cannot
// host).
func (l *Ledger) Available(id topology.NodeID) topology.Resources {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := l.host(id)
	if h == nil {
		return topology.Resources{}
	}
	return h.capacity.Sub(h.used)
}

// Used returns the allocated resources on node id.
func (l *Ledger) Used(id topology.NodeID) topology.Resources {
	l.mu.Lock()
	defer l.mu.Unlock()
	if h := l.host(id); h != nil {
		return h.used
	}
	return topology.Resources{}
}

// Domain returns the domain of a hosting-capable node.
func (l *Ledger) Domain(id topology.NodeID) (topology.Domain, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if h := l.host(id); h != nil {
		return h.domain, true
	}
	return 0, false
}

// DomainTotals returns what the domain's hosting-capable nodes have
// allocated and what they hold in total. It allocates nothing and costs
// no walk: the totals are kept as allocations come and go.
func (l *Ledger) DomainTotals(d topology.Domain) (used, capacity topology.Resources) {
	if d != topology.DomainElectronic && d != topology.DomainOptical {
		return topology.Resources{}, topology.Resources{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.usedIn[d], l.capacityIn[d]
}
