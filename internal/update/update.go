// Package update models the network-update cost the paper cites as a
// key property of AL-VC (§I, companion paper [14]: "low network update
// costs"): when a VM arrives, departs or migrates, AL-VC only needs to
// rebuild the affected cluster's abstraction layer and reprogram the
// switches whose membership changed, whereas a flat (non-clustered)
// virtual network must reconsider every switch.
//
// Costs are counted in switches touched and rules changed — the units a
// network operator pays in, independent of controller implementation.
package update

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/alvc/alvc/internal/cluster"
	"github.com/alvc/alvc/internal/topology"
)

// EventKind classifies a churn event.
type EventKind int

// Churn event kinds.
const (
	VMJoin EventKind = iota + 1
	VMLeave
	VMMigrate
)

// String returns the kind name.
func (k EventKind) String() string {
	switch k {
	case VMJoin:
		return "join"
	case VMLeave:
		return "leave"
	case VMMigrate:
		return "migrate"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one churn event applied to a service group.
type Event struct {
	Kind    EventKind
	Service string
	// VM is the affected VM (leave/migrate).
	VM topology.NodeID
	// PM is the target physical machine (join/migrate).
	PM topology.NodeID
}

// Cost is the price of reacting to one event.
type Cost struct {
	SwitchesTouched int
	RulesChanged    int
	ALRebuilt       bool
}

// Add accumulates.
func (c Cost) Add(o Cost) Cost {
	return Cost{
		SwitchesTouched: c.SwitchesTouched + o.SwitchesTouched,
		RulesChanged:    c.RulesChanged + o.RulesChanged,
		ALRebuilt:       c.ALRebuilt || o.ALRebuilt,
	}
}

// Model computes update costs over a topology.
type Model struct {
	topo    *topology.Topology
	builder cluster.Builder
}

// NewModel returns an update-cost model using the given AL builder.
func NewModel(topo *topology.Topology, builder cluster.Builder) (*Model, error) {
	if topo == nil {
		return nil, fmt.Errorf("update: model: nil topology")
	}
	if builder == nil {
		builder = cluster.PaperBuilder{}
	}
	return &Model{topo: topo, builder: builder}, nil
}

// ALVCCost applies the event to the topology and returns the AL-VC
// update cost: the affected cluster's AL is rebuilt and only the
// switches entering or leaving the layer (plus the VM's ToRs) are
// touched. The new AL is returned so callers can thread state through a
// churn sequence.
func (m *Model) ALVCCost(oldAL cluster.AL, ev Event) (Cost, cluster.AL, error) {
	if err := m.apply(ev); err != nil {
		return Cost{}, cluster.AL{}, err
	}
	group := m.topo.VMsByService()[ev.Service]
	if len(group) == 0 {
		// Group emptied: the whole AL is released.
		return Cost{
			SwitchesTouched: len(oldAL.OPSs) + len(oldAL.ToRs),
			RulesChanged:    len(oldAL.OPSs) + len(oldAL.ToRs),
			ALRebuilt:       true,
		}, cluster.AL{}, nil
	}
	newAL, err := m.builder.Build(m.topo, group, nil)
	if err != nil {
		return Cost{}, cluster.AL{}, fmt.Errorf("update: rebuild AL: %w", err)
	}
	diffOPS := symmetricDiff(oldAL.OPSs, newAL.OPSs)
	diffToR := symmetricDiff(oldAL.ToRs, newAL.ToRs)
	cost := Cost{
		SwitchesTouched: len(diffOPS) + len(diffToR),
		RulesChanged:    2 * (len(diffOPS) + len(diffToR)), // install + remove per switch
		ALRebuilt:       len(diffOPS)+len(diffToR) > 0,
	}
	// Even an unchanged AL needs the VM's ToR rule updated (the VM's
	// attachment point changed).
	if cost.SwitchesTouched == 0 {
		cost.SwitchesTouched = 1
		cost.RulesChanged = 1
	}
	return cost, newAL, nil
}

func (m *Model) apply(ev Event) error {
	switch ev.Kind {
	case VMJoin:
		if _, err := m.topo.AddVM(ev.PM, ev.Service); err != nil {
			return fmt.Errorf("update: apply join: %w", err)
		}
	case VMLeave:
		if err := m.topo.RemoveVM(ev.VM); err != nil {
			return fmt.Errorf("update: apply leave: %w", err)
		}
	case VMMigrate:
		if err := m.topo.MigrateVM(ev.VM, ev.PM); err != nil {
			return fmt.Errorf("update: apply migrate: %w", err)
		}
	default:
		return fmt.Errorf("update: apply: unknown event kind %d", ev.Kind)
	}
	return nil
}

func symmetricDiff(a, b []topology.NodeID) []topology.NodeID {
	inA := make(map[topology.NodeID]bool, len(a))
	for _, x := range a {
		inA[x] = true
	}
	inB := make(map[topology.NodeID]bool, len(b))
	for _, x := range b {
		inB[x] = true
	}
	var out []topology.NodeID
	for _, x := range a {
		if !inB[x] {
			out = append(out, x)
		}
	}
	for _, x := range b {
		if !inA[x] {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ChurnConfig parameterizes a churn sequence.
type ChurnConfig struct {
	Events  int
	Service string
	// JoinFrac, LeaveFrac: probabilities of join and leave; the rest
	// are migrations.
	JoinFrac, LeaveFrac float64
	Seed                int64
}

// ChurnReport compares AL-VC against the flat baseline over one churn
// sequence applied to two identical topologies.
type ChurnReport struct {
	Events    int
	ALVC      Cost
	Flat      Cost
	Rebuilds  int
	FinalSize int // final AL size
}

// RunChurn generates a seeded churn sequence for the given service and
// replays it on the model's topology, accumulating both cost models.
// Both strategies see the same events (flat cost is computed without
// re-applying the event).
func (m *Model) RunChurn(cfg ChurnConfig) (ChurnReport, error) {
	if cfg.Events <= 0 {
		return ChurnReport{}, fmt.Errorf("update: churn: Events must be positive")
	}
	if cfg.JoinFrac < 0 || cfg.LeaveFrac < 0 || cfg.JoinFrac+cfg.LeaveFrac > 1 {
		return ChurnReport{}, fmt.Errorf("update: churn: bad join/leave fractions %f/%f", cfg.JoinFrac, cfg.LeaveFrac)
	}
	group := m.topo.VMsByService()[cfg.Service]
	if len(group) == 0 {
		return ChurnReport{}, fmt.Errorf("update: churn: no VMs for service %q", cfg.Service)
	}
	al, err := m.builder.Build(m.topo, group, nil)
	if err != nil {
		return ChurnReport{}, fmt.Errorf("update: churn: initial AL: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pms := m.topo.NodeIDs(topology.KindPhysicalMachine)
	report := ChurnReport{}
	for i := 0; i < cfg.Events; i++ {
		group = m.topo.VMsByService()[cfg.Service]
		ev := Event{Service: cfg.Service}
		r := rng.Float64()
		switch {
		case r < cfg.JoinFrac || len(group) <= 1:
			ev.Kind = VMJoin
			ev.PM = pms[rng.Intn(len(pms))]
		case r < cfg.JoinFrac+cfg.LeaveFrac:
			ev.Kind = VMLeave
			ev.VM = group[rng.Intn(len(group))]
		default:
			ev.Kind = VMMigrate
			ev.VM = group[rng.Intn(len(group))]
			ev.PM = pms[rng.Intn(len(pms))]
		}
		// Flat cost first (does not depend on AL state and must price
		// the same event); it is computed on the post-event topology,
		// so compute the cost numbers before applying via ALVCCost.
		tors := len(m.topo.NodeIDs(topology.KindToR))
		opss := len(m.topo.NodeIDs(topology.KindOPS))
		report.Flat = report.Flat.Add(Cost{SwitchesTouched: tors + opss, RulesChanged: tors + opss})

		cost, newAL, err := m.ALVCCost(al, ev)
		if err != nil {
			return ChurnReport{}, fmt.Errorf("update: churn event %d: %w", i, err)
		}
		if cost.ALRebuilt {
			report.Rebuilds++
		}
		report.ALVC = report.ALVC.Add(cost)
		report.Events++
		al = newAL
	}
	report.FinalSize = al.Size()
	return report, nil
}
