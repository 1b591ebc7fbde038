package nfv

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/alvc/alvc/internal/ring"
	"github.com/alvc/alvc/internal/slot"
	"github.com/alvc/alvc/internal/topology"
)

// InstanceID identifies a VNF instance by its slot in the manager's table
// and the slot's generation (slot.ID).
type InstanceID int

// State is a VNF lifecycle state. Transitions follow §IV-B's manager
// responsibilities (creation, scaling, update, termination):
//
//	Create  → Pending
//	Activate: Pending → Active
//	ScaleTo:  Active  → Active (replica count changes)
//	Update:   Active  → Updating → Active
//	Terminate: any state → Terminated, and the manager forgets the
//	           instance (the transition stays in the event log)
type State int

// Lifecycle states.
const (
	StatePending State = iota + 1
	StateActive
	StateUpdating
	StateTerminated
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateActive:
		return "active"
	case StateUpdating:
		return "updating"
	case StateTerminated:
		return "terminated"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Instance is a placed VNF.
type Instance struct {
	ID       InstanceID
	Type     NFType
	Host     topology.NodeID
	Domain   topology.Domain
	Replicas int
	State    State
	Version  int
	// Demand is the per-replica resource demand at placement time.
	Demand topology.Resources
}

// Event records one lifecycle transition for auditability. Seq numbers
// every transition since the manager started, so a reader of Events can
// tell from the first Seq how many older ones the log has dropped.
type Event struct {
	Seq      int
	Instance InstanceID
	From, To State
	Note     string
}

// EventLogSize is how many lifecycle events the manager retains: the
// newest ones, oldest dropped first.
const EventLogSize = 1024

// logEntry is an Event as the log keeps it, 40 bytes against Event's
// 48: the note's values, which Events formats. The transition says which
// note it is; a and b are its numbers (a create's host, a scale's replica
// counts, an update's version, a migration's hosts), nf is a create's
// type as its index in catalogTypes.
type logEntry struct {
	seq                  int
	instance             InstanceID
	a, b                 int
	from, to, domain, nf uint8
}

// event returns the entry as Events hands it out, its note formatted.
func (e *logEntry) event() Event {
	ev := Event{Seq: e.seq, Instance: e.instance, From: State(e.from), To: State(e.to)}
	switch {
	case ev.To == StatePending:
		ev.Note = fmt.Sprintf("created %s on node %d (%s)", catalogTypes[e.nf], e.a, topology.Domain(e.domain))
	case ev.To == StateTerminated:
		ev.Note = "terminated"
	case ev.From == StatePending:
		ev.Note = "activated"
	case ev.To == StateUpdating:
		ev.Note = "update started"
	case ev.From == StateUpdating:
		ev.Note = fmt.Sprintf("update finished, version %d", e.a)
	case e.domain != 0:
		ev.Note = fmt.Sprintf("migrated node %d -> %d (%s)", e.a, e.b, topology.Domain(e.domain))
	default:
		ev.Note = fmt.Sprintf("scaled %d -> %d replicas", e.a, e.b)
	}
	return ev
}

// Manager is the Cloud/NFV manager of Fig. 6: it owns the live VNF
// instances, their lifecycle and the host resource ledger. It holds no
// history: a terminated instance is forgotten and the event log is a
// bounded ring. Safe for concurrent use.
type Manager struct {
	mu        sync.Mutex
	topo      *topology.Topology
	ledger    *Ledger
	profiles  map[NFType]NFProfile
	instances []instanceSlot // by slot (slot.Of of the ID); free hands them out
	free      slot.Free
	events    ring.Ring[logEntry] // the newest EventLogSize transitions
	eventSeq  int
}

// instanceSlot is an instance, nil for none, and its slot's generation.
type instanceSlot struct {
	inst *Instance
	gen  uint32
}

// NewManager returns a manager over the topology with the default
// catalog.
func NewManager(topo *topology.Topology) (*Manager, error) {
	ledger, err := NewLedger(topo)
	if err != nil {
		return nil, err
	}
	return &Manager{
		topo:     topo,
		ledger:   ledger,
		profiles: DefaultProfiles(),
		events:   ring.New[logEntry](EventLogSize),
	}, nil
}

// Ledger exposes the host resource ledger (shared with placement).
func (m *Manager) Ledger() *Ledger { return m.ledger }

// recordLocked logs a transition of instance id; e holds its note's
// values.
func (m *Manager) recordLocked(id InstanceID, from, to State, e logEntry) {
	m.eventSeq++
	e.seq, e.instance, e.from, e.to = m.eventSeq, id, uint8(from), uint8(to)
	m.events.Push(e)
}

// Create places a new VNF of type t on host, reserving one replica's
// resources, and returns the instance as created. The instance starts
// Pending; call Activate to bring it up.
func (m *Manager) Create(t NFType, host topology.NodeID) (Instance, error) {
	profile, ok := m.profiles[t]
	if !ok {
		return Instance{}, fmt.Errorf("nfv: create: unknown NF type %q", t)
	}
	node := m.topo.Node(host)
	if node == nil {
		return Instance{}, fmt.Errorf("nfv: create: unknown host %d", host)
	}
	if node.Down {
		return Instance{}, fmt.Errorf("nfv: create: host %d is down", host)
	}
	domain, ok := m.ledger.Domain(host)
	if !ok {
		return Instance{}, fmt.Errorf("nfv: create: node %d (%s) cannot host VNFs", host, node.Kind)
	}
	if err := m.ledger.Alloc(host, profile.Demand); err != nil {
		return Instance{}, fmt.Errorf("nfv: create %s on %d: %w", t, host, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	k := m.free.Take(len(m.instances))
	if k >= 1<<slot.Bits {
		m.free.Unget(k)
		_ = m.ledger.Free(host, profile.Demand) // gives back what Alloc just took
		return Instance{}, fmt.Errorf("nfv: create %s: every instance slot is taken", t)
	}
	m.instances = slot.Widen(m.instances, k)
	e := &m.instances[k]
	inst := &Instance{
		ID:       InstanceID(slot.ID(k, e.gen)),
		Type:     t,
		Host:     host,
		Domain:   domain,
		Replicas: 1,
		State:    StatePending,
		Version:  1,
		Demand:   profile.Demand,
	}
	e.inst = inst
	m.recordLocked(inst.ID, 0, StatePending, logEntry{a: int(host), domain: uint8(domain), nf: uint8(slices.Index(catalogTypes, string(t)))})
	return *inst, nil
}

// Activate brings a Pending instance to Active.
func (m *Manager) Activate(id InstanceID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	inst, err := m.getLocked(id)
	if err != nil {
		return err
	}
	if inst.State != StatePending {
		return fmt.Errorf("nfv: activate: instance %d is %s, want pending", id, inst.State)
	}
	inst.State = StateActive
	m.recordLocked(id, StatePending, StateActive, logEntry{})
	return nil
}

// ScaleTo changes the replica count of an Active instance, adjusting
// host reservations. Scaling to zero is rejected (terminate instead).
func (m *Manager) ScaleTo(id InstanceID, replicas int) error {
	if replicas <= 0 {
		return fmt.Errorf("nfv: scale: replicas must be positive, got %d", replicas)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	inst, err := m.getLocked(id)
	if err != nil {
		return err
	}
	if inst.State != StateActive {
		return fmt.Errorf("nfv: scale: instance %d is %s, want active", id, inst.State)
	}
	delta := replicas - inst.Replicas
	switch {
	case delta > 0:
		if err := m.ledger.Alloc(inst.Host, inst.Demand.Scale(float64(delta))); err != nil {
			return fmt.Errorf("nfv: scale out instance %d: %w", id, err)
		}
	case delta < 0:
		if err := m.ledger.Free(inst.Host, inst.Demand.Scale(float64(-delta))); err != nil {
			return fmt.Errorf("nfv: scale in instance %d: %w", id, err)
		}
	default:
		return nil
	}
	from := inst.Replicas
	inst.Replicas = replicas
	m.recordLocked(id, StateActive, StateActive, logEntry{a: from, b: replicas})
	return nil
}

// Update performs an in-place version upgrade: Active → Updating →
// Active, bumping Version.
func (m *Manager) Update(id InstanceID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	inst, err := m.getLocked(id)
	if err != nil {
		return err
	}
	if inst.State != StateActive {
		return fmt.Errorf("nfv: update: instance %d is %s, want active", id, inst.State)
	}
	inst.State = StateUpdating
	m.recordLocked(id, StateActive, StateUpdating, logEntry{})
	inst.Version++
	inst.State = StateActive
	m.recordLocked(id, StateUpdating, StateActive, logEntry{a: inst.Version})
	return nil
}

// Migrate moves an Active instance (all replicas) to another hosting-
// capable node, reserving the destination before releasing the source
// so a failed migration leaves the instance where it was. The paper's
// introduction motivates exactly this: "without virtualization, we are
// limited to place a VM and also are limited in replacing or moving
// it".
func (m *Manager) Migrate(id InstanceID, to topology.NodeID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	inst, err := m.getLocked(id)
	if err != nil {
		return err
	}
	if inst.State != StateActive {
		return fmt.Errorf("nfv: migrate: instance %d is %s, want active", id, inst.State)
	}
	if to == inst.Host {
		return nil
	}
	node := m.topo.Node(to)
	if node == nil {
		return fmt.Errorf("nfv: migrate: unknown host %d", to)
	}
	if node.Down {
		return fmt.Errorf("nfv: migrate: host %d is down", to)
	}
	domain, ok := m.ledger.Domain(to)
	if !ok {
		return fmt.Errorf("nfv: migrate: node %d (%s) cannot host VNFs", to, node.Kind)
	}
	total := inst.Demand.Scale(float64(inst.Replicas))
	if err := m.ledger.Alloc(to, total); err != nil {
		return fmt.Errorf("nfv: migrate instance %d to %d: %w", id, to, err)
	}
	if err := m.ledger.Free(inst.Host, total); err != nil {
		// Destination reservation must not leak on the (unexpected)
		// source-accounting failure.
		_ = m.ledger.Free(to, total)
		return fmt.Errorf("nfv: migrate instance %d: release source: %w", id, err)
	}
	from := inst.Host
	inst.Host = to
	inst.Domain = domain
	m.recordLocked(id, StateActive, StateActive, logEntry{a: int(from), b: int(to), domain: uint8(domain)})
	return nil
}

// Terminate releases the instance's resources and forgets the instance:
// from here on its ID is unknown (Instance returns nil, terminating
// twice is an error), and only the event log remembers it.
func (m *Manager) Terminate(id InstanceID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	inst, err := m.getLocked(id)
	if err != nil {
		return err
	}
	if err := m.ledger.Free(inst.Host, inst.Demand.Scale(float64(inst.Replicas))); err != nil {
		return fmt.Errorf("nfv: terminate instance %d: %w", id, err)
	}
	k, _ := slot.Of(int(id))
	m.instances[k] = instanceSlot{gen: m.instances[k].gen + 1}
	m.free.Put(k)
	m.recordLocked(id, inst.State, StateTerminated, logEntry{})
	return nil
}

func (m *Manager) getLocked(id InstanceID) (*Instance, error) {
	if id > 0 {
		if k, gen := slot.Of(int(id)); k < len(m.instances) && m.instances[k].gen == gen && m.instances[k].inst != nil {
			return m.instances[k].inst, nil
		}
	}
	return nil, fmt.Errorf("nfv: unknown instance %d", id)
}

func (m *Manager) copyLocked(inst *Instance) *Instance {
	c := *inst
	return &c
}

// Instance returns a copy of the instance, or nil if unknown or
// terminated.
func (m *Manager) Instance(id InstanceID) *Instance {
	m.mu.Lock()
	defer m.mu.Unlock()
	inst, err := m.getLocked(id)
	if err != nil {
		return nil
	}
	return m.copyLocked(inst)
}

// Instances returns copies of all live instances sorted by ID.
func (m *Manager) Instances() []*Instance {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*Instance
	for _, e := range m.instances {
		if e.inst != nil {
			out = append(out, m.copyLocked(e.inst))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Events returns a copy of the lifecycle audit log: the newest
// EventLogSize transitions, oldest first. The notes are formatted here,
// outside the lock, not when the transitions happen.
func (m *Manager) Events() []Event {
	m.mu.Lock()
	entries := m.events.AppendTo(nil)
	m.mu.Unlock()
	out := make([]Event, len(entries))
	for i := range entries {
		out[i] = entries[i].event()
	}
	return out
}
