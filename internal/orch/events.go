package orch

import (
	"strconv"
	"time"

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
	// EventPlacementChanged: a VNF migration (ChangeHost, re-home)
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
	// Domain is the shared failure domain of repair-completed events.
	// Every repair of one HandleFailures batch carries the same domain —
	// the optimizer groups re-protect work by it.
	Domain FailureDomain
	// TraceID/SpanID identify the span that emitted the event (the
	// repair span for repair-completed) when tracing is enabled, so the
	// sinks of Hooks.Events — the optimizer's task queue, the /v1/watch
	// stream — continue the causal chain instead of starting orphan
	// traces. Empty/0 when tracing is off.
	TraceID string
	SpanID  trace.SpanID
}

// FailureDomain is the shared cause of one HandleFailures batch: the
// risk groups of the links it cut, ascending, when it cut any — the
// physical tray or conduit that snapped — else the batch's sequence
// number. The zero value is no domain.
type FailureDomain struct {
	SRLGs []int
	Batch uint64
	// key is the domain's rendering, made once by the batch that names
	// the domain (failureDomain), so its events do not each render it.
	key string
}

// String renders the domain as "srlg:3+7" or "batch:N" ("" for no
// domain): the /v1/watch domain field and the optimizer's group key.
func (d FailureDomain) String() string {
	switch {
	case d.key != "":
		return d.key
	case len(d.SRLGs) > 0:
		b := []byte("srlg:")
		for i, g := range d.SRLGs {
			if i > 0 {
				b = append(b, '+')
			}
			b = strconv.AppendInt(b, int64(g), 10)
		}
		return string(b)
	case d.Batch > 0:
		return "batch:" + strconv.FormatUint(d.Batch, 10)
	}
	return ""
}

// EventSink receives orchestrator events. Calls are synchronous and
// arrive with no orchestrator locks held, so a sink may call back into
// the orchestrator's read API; implementations must therefore return
// quickly (enqueue, don't execute).
type EventSink interface {
	OrchEvent(Event)
}

// Hooks is everything that observes the control plane — the
// orchestrator, the failure debouncer wrapped around it and the
// optimizer draining its events — as one value on the shared core: every
// reader loads the same one, with one atomic load per operation, and
// Sharded.UpdateHooks is the one way to change it. A zero field is "not
// attached". Every hook is record-only: it runs synchronously on the
// calling path and must not block.
type Hooks struct {
	// Events receives lifecycle events, each sink in turn in list order.
	// Attaching a sink is purely observational — whether repairs defer
	// standby replanning to a background optimizer is
	// Config.DeferReprotect, not implied by it. The list is shared by
	// every copy of the value: an UpdateHooks edit replaces it (append
	// to slices.Clip of it, or build a new one), never writes into it,
	// so a delivery under way finishes on the list it loaded and a sink
	// added or removed takes effect from the next event.
	Events []EventSink
	// Stage is called once per executed pipeline stage with the stage
	// name and its wall-clock duration, inside the provisioning/repair
	// pipeline: it must never call back into the orchestrator.
	Stage func(stage string, d time.Duration)
	// Rehome is called once per VNF migration a re-home commits, with
	// the source and destination racks (-1 when a host has no rack).
	// Same contract as Stage.
	Rehome func(fromRack, toRack int)
	// Flush is called once per failure-debouncer batch with its
	// reconciliation latency (the HandleFailures wall time) and report
	// count; it must not call back into the debouncer.
	Flush func(d time.Duration, reports int)
	// Drain is called once per optimizer Drain pass with its wall time
	// and result count (one per member; busy retries out); it must not
	// call back into the optimizer.
	Drain func(d time.Duration, tasks int)
	// Tracer records spans: Provision/Delete and every reconciliation
	// repair record one, each executed pipeline stage becomes a child
	// span, repair-completed events carry their repair span's identity
	// so downstream consumers continue the trace, each debouncer flush
	// records a batch span, and each optimizer task queued by a traced
	// event records a span in that event's trace. Nil leaves the hot
	// paths with zero span allocations.
	Tracer *trace.Tracer
}

// UpdateHooks replaces the hooks value with a copy edited by fn — the
// only way to attach or detach an observer after construction (the
// telemetry plane comes and goes on a running orchestrator). An
// operation already under way keeps the value it loaded; fn may run
// more than once if updates race.
func (s *Sharded) UpdateHooks(fn func(h *Hooks)) {
	for {
		old := s.core.hooks.Load()
		h := *old
		fn(&h)
		if s.core.hooks.CompareAndSwap(old, &h) {
			return
		}
	}
}

// Hooks returns the current hooks value, for the components layered over
// the set (the failure debouncer, the optimizer) to read. It is shared:
// read it, never write it.
func (s *Sharded) Hooks() *Hooks { return s.core.hooks.Load() }

// emit delivers the event to every attached sink, in list order.
// Callers must not hold a shard's mu or topoMu (a sink may read
// orchestrator state).
func (c *sharedCore) emit(ev Event) {
	for _, s := range c.hooks.Load().Events {
		s.OrchEvent(ev)
	}
}
