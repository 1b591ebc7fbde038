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
	mu       sync.Mutex
	capacity map[topology.NodeID]topology.Resources
	used     map[topology.NodeID]topology.Resources
	domain   map[topology.NodeID]topology.Domain
	// capacityIn and usedIn total capacity and used by domain, kept in
	// step with every Alloc and Free.
	capacityIn, usedIn [topology.DomainOptical + 1]topology.Resources
}

// NewLedger indexes the topology's hosting-capable nodes: every PM and
// every optoelectronic OPS.
func NewLedger(topo *topology.Topology) (*Ledger, error) {
	if topo == nil {
		return nil, fmt.Errorf("nfv: ledger: nil topology")
	}
	l := &Ledger{
		capacity: make(map[topology.NodeID]topology.Resources),
		used:     make(map[topology.NodeID]topology.Resources),
		domain:   make(map[topology.NodeID]topology.Domain),
	}
	for _, n := range topo.Nodes(topology.KindPhysicalMachine) {
		l.capacity[n.ID] = n.Capacity
		l.domain[n.ID] = topology.DomainElectronic
		l.capacityIn[topology.DomainElectronic] = l.capacityIn[topology.DomainElectronic].Add(n.Capacity)
	}
	for _, n := range topo.Nodes(topology.KindOPS) {
		if n.Optoelectronic {
			l.capacity[n.ID] = n.Capacity
			l.domain[n.ID] = topology.DomainOptical
			l.capacityIn[topology.DomainOptical] = l.capacityIn[topology.DomainOptical].Add(n.Capacity)
		}
	}
	return l, nil
}

// Alloc reserves demand on node id.
func (l *Ledger) Alloc(id topology.NodeID, demand topology.Resources) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	cap, ok := l.capacity[id]
	if !ok {
		return fmt.Errorf("nfv: alloc: node %d cannot host VNFs", id)
	}
	if !cap.Sub(l.used[id]).Fits(demand) {
		return fmt.Errorf("%w: node %d lacks room for %s (free %s)",
			ErrInsufficientCapacity, id, demand, cap.Sub(l.used[id]))
	}
	l.used[id] = l.used[id].Add(demand)
	d := l.domain[id]
	l.usedIn[d] = l.usedIn[d].Add(demand)
	return nil
}

// Free releases demand on node id. Releasing more than allocated is an
// error (the ledger clamps nothing — it signals the accounting bug).
func (l *Ledger) Free(id topology.NodeID, demand topology.Resources) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.capacity[id]; !ok {
		return fmt.Errorf("nfv: free: node %d cannot host VNFs", id)
	}
	rem := l.used[id].Sub(demand)
	if rem.CPUCores < -1e-9 || rem.MemoryGB < -1e-9 || rem.StorageGB < -1e-9 {
		return fmt.Errorf("nfv: free: node %d releasing %s exceeds used %s", id, demand, l.used[id])
	}
	l.used[id] = rem
	d := l.domain[id]
	l.usedIn[d] = l.usedIn[d].Sub(demand)
	return nil
}

// Available returns the free capacity of node id (zero if it cannot
// host).
func (l *Ledger) Available(id topology.NodeID) topology.Resources {
	l.mu.Lock()
	defer l.mu.Unlock()
	cap, ok := l.capacity[id]
	if !ok {
		return topology.Resources{}
	}
	return cap.Sub(l.used[id])
}

// Used returns the allocated resources on node id.
func (l *Ledger) Used(id topology.NodeID) topology.Resources {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.used[id]
}

// Domain returns the domain of a hosting-capable node.
func (l *Ledger) Domain(id topology.NodeID) (topology.Domain, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d, ok := l.domain[id]
	return d, ok
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
