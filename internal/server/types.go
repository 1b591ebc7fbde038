package server

import (
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/topology"
)

// DeploymentJSON is the wire form of an orchestrated chain. It
// flattens the orchestrator's Deployment into stable, client-friendly
// fields (the internal struct nests cluster and slice objects whose
// shape is not part of the API contract).
type DeploymentJSON struct {
	ID            int               `json:"id"`
	Name          string            `json:"name"`
	Tenant        string            `json:"tenant"`
	Service       string            `json:"service"`
	State         string            `json:"state"`
	Version       int               `json:"version"`
	Repairs       int               `json:"repairs"`
	NFs           []string          `json:"nfs"`
	BandwidthGbps float64           `json:"bandwidth_gbps"`
	FlowBytes     int64             `json:"flow_bytes"`
	SliceOPSs     []topology.NodeID `json:"slice_opss"`
	Hosts         []topology.NodeID `json:"hosts"`
	Domains       []string          `json:"domains"`
	Path          []topology.NodeID `json:"path"`
	SliceConfined bool              `json:"slice_confined"`
	Lambda        int               `json:"lambda"`
	Conversions   int               `json:"conversions"`
	EnergyJoules  float64           `json:"energy_joules"`
	// Drifted reports instances moved under duress (a replaced, patched
	// or rebuilt repair) and not since re-homed: why the chain is on the
	// optimizer's re-home list after a recovery. Absent when false.
	Drifted bool `json:"drifted,omitempty"`
	// Standby is the chain's protection health: operators watch
	// disjoint and lastReplanned to see which chains the background
	// optimizer still owes work. Absent when no standby is planned —
	// i.e. the chain is currently unprotected.
	Standby *StandbyJSON `json:"standby,omitempty"`
	// DeletedAt and LastTraceID appear only on a tombstone — the answer
	// for a deleted chain once its record is gone: when it was deleted,
	// and the trace of that delete (GET /v1/traces/{id}).
	DeletedAt   *time.Time `json:"deleted_at,omitempty"`
	LastTraceID string     `json:"last_trace_id,omitempty"`
}

// StandbyJSON is the wire form of a chain's standby-path health.
type StandbyJSON struct {
	Path []topology.NodeID `json:"path"`
	// Disjoint reports survivable disjointness from the primary
	// (transit nodes, links, and shared-risk groups all distinct).
	Disjoint bool `json:"disjoint"`
	// LastReplanned is when this standby was (re)planned.
	LastReplanned time.Time `json:"lastReplanned"`
}

// tombstoneJSON renders what is remembered of a deleted chain in the
// deployment wire form: identity and state, no resources.
func tombstoneJSON(t orch.Tombstone) DeploymentJSON {
	return DeploymentJSON{
		ID:          int(t.ID),
		Name:        t.Name,
		Tenant:      t.Tenant,
		Service:     t.Service,
		State:       orch.StateDeleted.String(),
		Lambda:      -1,
		DeletedAt:   &t.DeletedAt,
		LastTraceID: t.TraceID,
	}
}

// BatchRequest is the body of POST /v1/chains:batch. Workers is
// decoded and checked like any int field, and ignored: a batch
// provisions its specs in input order. The repository benchmark still
// sends it; ROADMAP item 3 or 5 drops it.
type BatchRequest struct {
	Specs   []chain.Spec `json:"specs"`
	Workers int          `json:"workers,omitempty"`
}

// BatchItemJSON is one spec's outcome within a batch response.
type BatchItemJSON struct {
	Index      int             `json:"index"`
	Deployment *DeploymentJSON `json:"deployment,omitempty"`
	Error      string          `json:"error,omitempty"`
}

// BatchResponse summarizes a batch provision.
type BatchResponse struct {
	Provisioned int             `json:"provisioned"`
	Failed      int             `json:"failed"`
	Results     []BatchItemJSON `json:"results"`
}

// ModifyRequest is the body of POST /v1/chains/{id}/modify.
type ModifyRequest struct {
	BandwidthGbps float64 `json:"bandwidth_gbps"`
}

// ScaleRequest is the body of POST /v1/chains/{id}/scale.
type ScaleRequest struct {
	NFIndex  int `json:"nf_index"`
	Replicas int `json:"replicas"`
}

// MoveRequest is the body of POST /v1/chains/{id}/move.
type MoveRequest struct {
	NFIndex int             `json:"nf_index"`
	To      topology.NodeID `json:"to"`
}

// RepairReportJSON is one deployment's reconciliation outcome within a
// failure response: the action the engine took (repathed / replaced /
// patched / rebuilt / failed / skipped) and the error for failed ones.
type RepairReportJSON struct {
	ID     int    `json:"id"`
	Action string `json:"action"`
	Error  string `json:"error,omitempty"`
	// TraceID keys the repair's span tree in GET /v1/traces/{id}
	// (absent when tracing is disabled).
	TraceID string `json:"trace_id,omitempty"`
}

// FailureResponse reports a failure injection (single node, single
// link, or a batch of both): the per-chain reconciliation reports, plus
// the repaired/failed ID lists derived from them (kept as first-class
// fields for scripting convenience). Exactly one of Node/Link or the
// Nodes/Links pair is populated, matching the endpoint used.
type FailureResponse struct {
	Node     topology.NodeID    `json:"node,omitempty"`
	Link     topology.LinkID    `json:"link,omitempty"`
	Nodes    []topology.NodeID  `json:"nodes,omitempty"`
	Links    []topology.LinkID  `json:"links,omitempty"`
	Reports  []RepairReportJSON `json:"reports"`
	Repaired []int              `json:"repaired"`
	Failed   []int              `json:"failed,omitempty"`
	Error    string             `json:"error,omitempty"`
}

// FailureAcceptedResponse is the 202 body the failure endpoints return
// when the architecture runs with a failure debouncer (-debounce):
// the report has been absorbed into the pending union and repairs will
// run when the window flushes, so there are no per-chain reports yet.
// PendingNodes/PendingLinks are the union sizes after this report.
type FailureAcceptedResponse struct {
	Node         topology.NodeID   `json:"node,omitempty"`
	Link         topology.LinkID   `json:"link,omitempty"`
	Nodes        []topology.NodeID `json:"nodes,omitempty"`
	Links        []topology.LinkID `json:"links,omitempty"`
	Accepted     bool              `json:"accepted"`
	PendingNodes int               `json:"pending_nodes"`
	PendingLinks int               `json:"pending_links"`
}

// RecoverResponse is the body of DELETE /v1/failures/{node} and DELETE
// /v1/failures/links/{id}: the node or the link that is live again.
type RecoverResponse struct {
	Node      topology.NodeID `json:"node,omitempty"`
	Link      topology.LinkID `json:"link,omitempty"`
	Recovered bool            `json:"recovered"`
}

// BatchFailureRequest is the body of POST /v1/failures:batch — one
// rack-scale event: every named node and link goes down together and
// each affected chain is reconciled exactly once against the union.
type BatchFailureRequest struct {
	Nodes []topology.NodeID `json:"nodes,omitempty"`
	Links []topology.LinkID `json:"links,omitempty"`
}

// ImpactEntryJSON is one chain inside a resource's blast radius.
type ImpactEntryJSON struct {
	ID    int      `json:"id"`
	Roles []string `json:"roles"`
}

// ImpactResponse is the body of GET /v1/nodes/{id}/impact and
// GET /v1/links/{id}/impact: the active chains that would be affected
// if the resource died, with the roles it plays for each.
type ImpactResponse struct {
	Node   topology.NodeID   `json:"node,omitempty"`
	Link   topology.LinkID   `json:"link,omitempty"`
	Chains []ImpactEntryJSON `json:"chains"`
	Count  int               `json:"count"`
}

// OptimizerRunResponse is the body of POST /v1/optimizer:run — a
// synchronous drain of the background maintenance queue: the tasks
// executed by this call and the engine state afterwards.
type OptimizerRunResponse struct {
	Drained int                        `json:"drained"`
	Results []alvc.OptimizerTaskResult `json:"results"`
	Status  OptimizerStatusJSON        `json:"status"`
}

// OptimizerStatusJSON is the body of GET /v1/optimizer/status: the
// engine's Status with the failure debouncer's counters, when one is
// attached, between group_plans and last_results. The outer LastResults
// hides the embedded one, so encoding/json writes the fields in that
// order.
type OptimizerStatusJSON struct {
	alvc.OptimizerStatus
	Debounce    *alvc.DebounceStats        `json:"debounce,omitempty"`
	LastResults []alvc.OptimizerTaskResult `json:"last_results"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
