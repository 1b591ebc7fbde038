package orch

import (
	"github.com/alvc/alvc/internal/topology"
	"github.com/alvc/alvc/internal/trace"
)

// EventKind classifies one orchestrator lifecycle event.
type EventKind int

// Event kinds the orchestrator emits. They are the wake-up sources of
// the background optimization engine (internal/optimizer): repairs may
// leave chains unprotected or drifted, recoveries restore capacity
// that drifted chains and degraded standbys should reclaim, deletes
// cancel pending maintenance.
const (
	// EventRepairCompleted: one deployment's failure reconciliation
	// succeeded; Deployment and Action are set. The chain may have a
	// consumed or missing standby (swap/re-path) or a drifted placement
	// (replace/patch/rebuild).
	EventRepairCompleted EventKind = iota + 1
	// EventPlacementChanged: a VNF migration (MoveNF, re-home)
	// re-provisioned the chain's connectivity; the standby was dropped
	// and must be replanned around the new primary.
	EventPlacementChanged
	// EventNodeRecovered: a node came back; Node is set.
	EventNodeRecovered
	// EventLinkRecovered: a link came back; Link is set.
	EventLinkRecovered
	// EventDeploymentDeleted: the deployment was torn down; pending
	// maintenance for it is moot.
	EventDeploymentDeleted
)

// String returns the event kind name.
func (k EventKind) String() string {
	switch k {
	case EventRepairCompleted:
		return "repair-completed"
	case EventPlacementChanged:
		return "placement-changed"
	case EventNodeRecovered:
		return "node-recovered"
	case EventLinkRecovered:
		return "link-recovered"
	case EventDeploymentDeleted:
		return "deployment-deleted"
	default:
		return "event(?)"
	}
}

// Event is one orchestrator lifecycle notification. Fields beyond Kind
// are set per kind (see the kind constants).
type Event struct {
	Kind       EventKind
	Deployment DeploymentID
	Action     RepairAction
	Node       topology.NodeID
	Link       topology.LinkID
	// Domain names the shared failure domain for repair-completed
	// events: "srlg:…" when the batch cut risk-grouped links, else a
	// unique "batch:N" tag. Every repair of one HandleFailures batch
	// carries the same domain — the optimizer's storm mode groups
	// re-protect work by it.
	Domain string
	// TraceID/SpanID identify the span that emitted the event (the
	// repair span for repair-completed) when tracing is enabled, so
	// consumers on the far side of the event mux — the optimizer's
	// task queue, the /v1/watch stream — continue the causal chain
	// instead of starting orphan traces. Empty/0 when tracing is off.
	TraceID string
	SpanID  trace.SpanID
}

// EventSink receives orchestrator events. Calls are synchronous and
// arrive with no orchestrator locks held, so a sink may call back into
// the orchestrator's read API; implementations must therefore return
// quickly (enqueue, don't execute).
type EventSink interface {
	OrchEvent(Event)
}

// SetEventSink attaches (or, with nil, detaches) the event sink.
// Attaching a sink is purely observational — telemetry bridges and
// event muxes may subscribe freely; whether repairs defer standby
// replanning to a background optimizer is a separate switch
// (SetDeferReprotect), flipped only when an optimizer is actually
// consuming the events.
func (o *Orchestrator) SetEventSink(s EventSink) {
	o.mu.Lock()
	o.sink = s
	o.mu.Unlock()
}

func (o *Orchestrator) eventSink() EventSink {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.sink
}

// SetDeferReprotect switches standby replanning between inline and
// deferred mode. Deferred: repair re-runs of the pipeline stop
// planning standbys inline — the standby search leaves the recovery hot
// path entirely — and instead rely on a background optimizer
// re-protecting the chain from the emitted repair-completed event.
// Provision-time standby planning is unaffected. Only flip this on
// when such an optimizer is subscribed, or repaired chains stay
// unprotected.
func (o *Orchestrator) SetDeferReprotect(v bool) {
	o.mu.Lock()
	o.deferReprotect = v
	o.mu.Unlock()
}

// asyncOptimize reports whether repairs defer standby replanning to a
// background optimizer instead of planning inline.
func (o *Orchestrator) asyncOptimize() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.deferReprotect
}

// emit delivers the event to the attached sink, if any. Callers must
// not hold o.mu or topoMu (the sink may read orchestrator state).
func (o *Orchestrator) emit(ev Event) {
	if s := o.eventSink(); s != nil {
		s.OrchEvent(ev)
	}
}
