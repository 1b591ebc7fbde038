// Package optical models the optical domain of AL-VC: the O/E/O
// conversion cost model of §IV-D ("cost of this conversion corresponds
// to the length of the flow — the larger the flow is, higher will be
// the cost") and the optical slices of §IV-C, where each abstraction
// layer is handed to exactly one network function chain as its slice of
// the optical network.
package optical

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/alvc/alvc/internal/topology"
)

// CostModel prices O/E/O conversions. One conversion of a flow of L
// bytes costs FixedJoules + JoulesPerBit × 8L: the per-bit term captures
// the paper's length-proportional cost, the fixed term the transceiver
// overhead.
type CostModel struct {
	JoulesPerBit float64
	FixedJoules  float64
}

// DefaultCostModel returns a model in the range reported for commercial
// O/E/O transponders (~10 pJ/bit) with a 1 mJ fixed setup term.
func DefaultCostModel() CostModel {
	return CostModel{JoulesPerBit: 10e-12, FixedJoules: 1e-3}
}

// ConversionEnergy returns the energy in joules for one O/E/O
// conversion of a flow of the given length.
func (m CostModel) ConversionEnergy(flowBytes int64) float64 {
	if flowBytes < 0 {
		flowBytes = 0
	}
	return m.FixedJoules + m.JoulesPerBit*8*float64(flowBytes)
}

// TotalEnergy returns the energy of n conversions of the given flow.
func (m CostModel) TotalEnergy(conversions int, flowBytes int64) float64 {
	if conversions <= 0 {
		return 0
	}
	return float64(conversions) * m.ConversionEnergy(flowBytes)
}

// SliceID identifies an optical slice.
type SliceID int

// Slice is the portion of the optical network allocated to one tenant's
// chain: the OPSs of an abstraction layer plus a bandwidth reservation
// (§IV-B: the orchestrator "will logically divide the optical network
// into virtual slices and will allocate each slice to a single NFC").
type Slice struct {
	ID            SliceID
	Tenant        string
	OPSs          []topology.NodeID
	BandwidthGbps float64
}

// Contains reports whether the slice includes the given OPS.
func (s *Slice) Contains(ops topology.NodeID) bool {
	for _, o := range s.OPSs {
		if o == ops {
			return true
		}
	}
	return false
}

// OPSSet returns the slice's OPSs as a set: the OPS list itself, which
// the manager keeps ascending, so the set costs nothing and is
// read-only. Never nil: a slice restricts to its OPSs, even none.
func (s *Slice) OPSSet() topology.NodeSet {
	if s.OPSs == nil {
		return topology.NodeSet{}
	}
	return topology.NodeSet(s.OPSs)
}

// SliceManager allocates disjoint optical slices. It is the optical-
// layer enforcement of the one-OPS-one-AL rule (the cluster allocator
// enforces it at the logical layer; slicing re-checks it where the
// resources actually live). Safe for concurrent use.
type SliceManager struct {
	mu     sync.Mutex
	topo   *topology.Topology
	slices map[SliceID]*Slice
	// owner holds, by node ID, the slice an OPS belongs to, 0 for none
	// (slice IDs start at 1).
	owner  []SliceID
	nextID SliceID
}

// NewSliceManager returns a manager over the topology's OPSs.
func NewSliceManager(topo *topology.Topology) (*SliceManager, error) {
	if topo == nil {
		return nil, fmt.Errorf("optical: slice manager: nil topology")
	}
	return &SliceManager{
		topo:   topo,
		slices: make(map[SliceID]*Slice),
	}, nil
}

// Allocate reserves the given OPSs as a slice for tenant. It fails if
// any OPS is unknown, not an OPS, or already part of another slice.
func (m *SliceManager) Allocate(tenant string, opss []topology.NodeID, bandwidthGbps float64) (*Slice, error) {
	if tenant == "" {
		return nil, fmt.Errorf("optical: allocate: empty tenant")
	}
	if len(opss) == 0 {
		return nil, fmt.Errorf("optical: allocate: empty OPS set")
	}
	if bandwidthGbps <= 0 {
		return nil, fmt.Errorf("optical: allocate: bandwidth must be positive, got %f", bandwidthGbps)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ops := range opss {
		n := m.topo.Node(ops)
		if n == nil || n.Kind != topology.KindOPS {
			return nil, fmt.Errorf("optical: allocate: node %d is not an OPS", ops)
		}
		if n.Down {
			return nil, fmt.Errorf("optical: allocate: OPS %d is down", ops)
		}
		if owner := m.ownerOf(ops); owner != 0 {
			return nil, fmt.Errorf("optical: allocate: OPS %d already in slice %d", ops, owner)
		}
	}
	m.nextID++
	s := newSlice(m.nextID, tenant, opss, bandwidthGbps)
	m.own(s.OPSs, s.ID)
	m.slices[s.ID] = s
	return s, nil
}

// sliceBlock is a one-OPS slice with its OPS list inline.
type sliceBlock struct {
	s    Slice
	opss [1]topology.NodeID
}

// newSlice returns the slice of opss with its OPS list sorted and
// clipped: in a 64-byte block with the record for one OPS, the benchmark
// fleets' slices, else in an array of its own.
func newSlice(id SliceID, tenant string, opss []topology.NodeID, bandwidthGbps float64) *Slice {
	var s *Slice
	var room []topology.NodeID
	if len(opss) == 1 {
		b := new(sliceBlock)
		s, room = &b.s, b.opss[:]
	} else {
		s, room = new(Slice), make([]topology.NodeID, len(opss))
	}
	*s = Slice{ID: id, Tenant: tenant, OPSs: room[:copy(room, opss):len(opss)], BandwidthGbps: bandwidthGbps}
	slices.Sort(s.OPSs)
	return s
}

// ownerOf returns the slice the OPS belongs to, 0 for none. Caller holds
// m.mu.
func (m *SliceManager) ownerOf(ops topology.NodeID) SliceID {
	if ops < 0 || int(ops) >= len(m.owner) {
		return 0
	}
	return m.owner[ops]
}

// own records the OPSs as the slice's (0: as no slice's). Caller holds
// m.mu and checked the IDs against the topology.
func (m *SliceManager) own(opss []topology.NodeID, id SliceID) {
	for _, ops := range opss {
		m.owner = topology.Widen(m.owner, ops)
		m.owner[ops] = id
	}
}

// Release frees the slice's OPSs.
func (m *SliceManager) Release(id SliceID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.slices[id]
	if !ok {
		return fmt.Errorf("optical: release: unknown slice %d", id)
	}
	m.own(s.OPSs, 0)
	delete(m.slices, id)
	return nil
}

// PatchMembership swaps the slice's OPS membership while keeping its
// identity, tenant and bandwidth reservation — the optical-layer side
// of a differential repair, where a failed OPS is replaced without the
// tenant ever losing its reservation. The new membership must be live
// OPSs owned by no other slice (the slice's own survivors are fine). A
// fresh Slice record is returned (and stored) so snapshots handed out
// before the patch stay immutable. On error the manager is unchanged.
func (m *SliceManager) PatchMembership(id SliceID, opss []topology.NodeID) (*Slice, error) {
	if len(opss) == 0 {
		return nil, fmt.Errorf("optical: patch: empty OPS set")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.slices[id]
	if !ok {
		return nil, fmt.Errorf("optical: patch: unknown slice %d", id)
	}
	for _, ops := range opss {
		n := m.topo.Node(ops)
		if n == nil || n.Kind != topology.KindOPS {
			return nil, fmt.Errorf("optical: patch: node %d is not an OPS", ops)
		}
		if n.Down {
			return nil, fmt.Errorf("optical: patch: OPS %d is down", ops)
		}
		if owner := m.ownerOf(ops); owner != 0 && owner != id {
			return nil, fmt.Errorf("optical: patch: OPS %d already in slice %d", ops, owner)
		}
	}
	m.own(s.OPSs, 0)
	patched := newSlice(id, s.Tenant, opss, s.BandwidthGbps)
	m.own(patched.OPSs, id)
	m.slices[id] = patched
	return patched, nil
}

// UpdateBandwidth changes a slice's bandwidth reservation — the
// slice-level effect of an NFC modification (§IV-B); the caller checks
// the bandwidth is positive. Like PatchMembership it stores and returns
// a fresh Slice record, so snapshots handed out before stay immutable.
func (m *SliceManager) UpdateBandwidth(id SliceID, bandwidthGbps float64) (*Slice, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.slices[id]
	if !ok {
		return nil, fmt.Errorf("optical: update bandwidth: unknown slice %d", id)
	}
	updated := *s
	updated.BandwidthGbps = bandwidthGbps
	m.slices[id] = &updated
	return &updated, nil
}

// Slices returns all slices sorted by ID.
func (m *SliceManager) Slices() []*Slice {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Slice, 0, len(m.slices))
	for _, s := range m.slices {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Disjoint reports whether all slices are pairwise disjoint.
func (m *SliceManager) Disjoint() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := make(map[topology.NodeID]SliceID)
	for id, s := range m.slices {
		for _, ops := range s.OPSs {
			if prev, dup := seen[ops]; dup && prev != id {
				return false
			}
			seen[ops] = id
		}
	}
	return true
}
