package server

// The read plane's and the failure plane's encoders. A chain record, a
// trace summary, a 202, a recovery or an error is appended as JSON text
// straight from the value it describes — for a live chain, from the
// orchestrator's own record under its shard's lock
// (orch.ViewDeployment) — into a pooled buffer that is written to the
// connection in one piece once the lock is released. The bytes are
// exactly what encoding/json makes of DeploymentJSON, BatchResponse,
// TraceSummaryJSON, FailureAcceptedResponse, RecoverResponse,
// OptimizerRunResponse, the optimizer's Status and ErrorResponse, which
// stay as the types clients decode into; the tests hold the two equal.

import (
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/jsonwrite"
	"github.com/alvc/alvc/internal/orch"
)

// scratch is what a response body is built in.
type scratch struct {
	body []byte
	// recs holds a list's records in the order the shards showed them,
	// segs where each lies, until they are joined into body in ID order.
	recs []byte
	segs []segment
}

type segment struct {
	id         orch.DeploymentID
	start, end int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxPooledBytes bounds the buffers a pooled scratch may keep: one grown
// past it (a list of some 1 500 chains) goes to the collector instead of
// pinning its size for the life of the process.
const maxPooledBytes = 1 << 20

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(sc *scratch) {
	if max(cap(sc.body), cap(sc.recs)) > maxPooledBytes {
		return
	}
	sc.body, sc.recs, sc.segs = sc.body[:0], sc.recs[:0], sc.segs[:0]
	scratchPool.Put(sc)
}

// jsonContentType is the Content-Type of every JSON answer: one list
// shared by them all. net/http copies a response's headers when it
// writes them, and nothing here edits one in place.
var jsonContentType = []string{"application/json"}

// The answers that never change.
var (
	healthyBody = []byte(`{"status":"ok"}` + "\n")
	pausedBody  = []byte(`{"paused":true}` + "\n")
	resumedBody = []byte(`{"paused":false}` + "\n")
)

// sendJSON sends an encoded JSON body in one write.
func sendJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeBody is sendJSON with the body's length announced, whatever its
// size: the read plane's answers, a list's megabyte among them.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	sendJSON(w, status, body)
}

// writeDeployment answers with a record the caller owns: a provision's
// snapshot, a delete's final record.
func writeDeployment(w http.ResponseWriter, status int, dep *orch.Deployment) {
	sc := getScratch()
	defer putScratch(sc)
	sc.body = append(appendDeployment(sc.body, dep), '\n')
	writeBody(w, status, sc.body)
}

// writeChain answers 200 with what the orchestrator holds of the chain
// now: its live record, read in place; else its tombstone; else a 404.
// GET /v1/chains/{id} is this, and so is the answer of every verb that
// changed a chain and reads it back — a delete may land in between, and
// that is a tombstone, not an error.
func (s *Server) writeChain(w http.ResponseWriter, id alvc.DeploymentID) {
	sc := getScratch()
	defer putScratch(sc)
	if s.arch.Sharded().ViewDeployment(id, func(dep *orch.Deployment) {
		sc.body = append(appendDeployment(sc.body, dep), '\n')
	}) {
		writeBody(w, http.StatusOK, sc.body)
		return
	}
	if t, ok := s.arch.Tombstone(id); ok {
		writeJSON(w, http.StatusOK, tombstoneJSON(t))
		return
	}
	writeError(w, http.StatusNotFound, "unknown deployment %d", id)
}

// writeChains answers with every record in the given state ("" for
// all), ordered by ID. Each shard's records are encoded under that
// shard's lock, one shard at a time — the list is point-in-time per
// shard — and nothing is written until the last lock is released.
func (s *Server) writeChains(w http.ResponseWriter, state string) {
	sc := getScratch()
	defer putScratch(sc)
	s.arch.Sharded().ViewDeployments(func(dep *orch.Deployment) {
		if state != "" && dep.State.String() != state {
			return
		}
		start := len(sc.recs)
		sc.recs = appendDeployment(sc.recs, dep)
		sc.segs = append(sc.segs, segment{id: dep.ID, start: start, end: len(sc.recs)})
	})
	// Shards issue interleaved IDs: ID order across them is a sort of
	// the segments, already in order when there is one shard.
	slices.SortFunc(sc.segs, func(a, b segment) int { return int(a.id - b.id) })
	sc.body = append(sc.body, '[')
	for i, seg := range sc.segs {
		if i > 0 {
			sc.body = append(sc.body, ',')
		}
		sc.body = append(sc.body, sc.recs[seg.start:seg.end]...)
	}
	sc.body = append(sc.body, ']', '\n')
	writeBody(w, http.StatusOK, sc.body)
}

// writeBatch answers a batch provision: BatchResponse's encoding, each
// provisioned chain's record appended from its snapshot.
func writeBatch(w http.ResponseWriter, results []orch.BatchResult) {
	provisioned := 0
	for _, res := range results {
		if res.Err == nil {
			provisioned++
		}
	}
	failed := len(results) - provisioned
	status := http.StatusCreated
	if provisioned == 0 {
		// Nothing provisioned: surface the dominant failure class.
		status = http.StatusConflict
	} else if failed > 0 {
		status = http.StatusMultiStatus
	}
	sc := getScratch()
	defer putScratch(sc)
	b := strconv.AppendInt(append(sc.body, `{"provisioned":`...), int64(provisioned), 10)
	b = strconv.AppendInt(append(b, `,"failed":`...), int64(failed), 10)
	b = append(b, `,"results":[`...)
	for i, res := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"index":`...), int64(res.Index), 10)
		switch {
		case res.Err == nil:
			b = appendDeployment(append(b, `,"deployment":`...), res.Deployment)
		case res.Err.Error() != "":
			b = jsonwrite.String(append(b, `,"error":`...), res.Err.Error())
		}
		b = append(b, '}')
	}
	sc.body = append(b, "]}\n"...)
	writeBody(w, status, sc.body)
}

// writeTraceSummaries answers a trace listing.
func writeTraceSummaries(w http.ResponseWriter, sums []alvc.TraceSummary) {
	sc := getScratch()
	defer putScratch(sc)
	b := append(sc.body, '[')
	for i := range sums {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendTraceSummary(b, &sums[i])
	}
	sc.body = append(b, ']', '\n')
	writeBody(w, http.StatusOK, sc.body)
}

// statusView is what the optimizer bodies read the engine's state
// through: optimizer.Engine.ViewStatus.
type statusView interface {
	ViewStatus(fn func(st *alvc.OptimizerStatus, results [][]byte))
}

// writeOptimizerRun answers a drain: OptimizerRunResponse's encoding of
// the tasks it ran and the engine's state after.
func writeOptimizerRun(w http.ResponseWriter, results []alvc.OptimizerTaskResult, eng statusView) {
	if results == nil {
		results = []alvc.OptimizerTaskResult{} // a drain that ran nothing lists nothing
	}
	sc := getScratch()
	defer putScratch(sc)
	b := strconv.AppendInt(append(sc.body, `{"drained":`...), int64(len(results)), 10)
	b = append(b, `,"results":[`...)
	for i := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = results[i].AppendJSON(b)
	}
	eng.ViewStatus(func(st *alvc.OptimizerStatus, last [][]byte) {
		b = appendOptimizerStatus(append(b, `],"status":`...), st, last)
	})
	sc.body = append(b, "}\n"...)
	writeBody(w, http.StatusOK, sc.body)
}

// writeOptimizerStatus answers GET /v1/optimizer/status.
func writeOptimizerStatus(w http.ResponseWriter, eng statusView) {
	sc := getScratch()
	defer putScratch(sc)
	eng.ViewStatus(func(st *alvc.OptimizerStatus, last [][]byte) {
		sc.body = append(appendOptimizerStatus(sc.body, st, last), '\n')
	})
	writeBody(w, http.StatusOK, sc.body)
}

// appendOptimizerStatus appends optimizer.Status's encoding, its
// last_results from results (see optimizer.Engine.ViewStatus).
func appendOptimizerStatus(b []byte, st *alvc.OptimizerStatus, results [][]byte) []byte {
	b = strconv.AppendBool(append(b, `{"paused":`...), st.Paused)
	b = strconv.AppendInt(append(b, `,"queue_depth":`...), int64(st.QueueDepth), 10)
	if len(st.ShardDepths) > 0 {
		b = jsonwrite.Ints(append(b, `,"shard_depths":`...), st.ShardDepths)
	}
	if len(st.ShardHighWater) > 0 {
		b = jsonwrite.Ints(append(b, `,"shard_high_water":`...), st.ShardHighWater)
	}
	b = strconv.AppendInt(append(b, `,"running":`...), int64(st.Running), 10)
	b = append(b, `,"kinds":`...)
	if st.Kinds == nil {
		b = append(b, "null"...)
	} else {
		kinds := make([]string, 0, len(st.Kinds))
		for k := range st.Kinds {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		b = append(b, '{')
		for i, k := range kinds {
			if i > 0 {
				b = append(b, ',')
			}
			ks := st.Kinds[k]
			b = append(jsonwrite.String(b, k), ':')
			b = strconv.AppendInt(append(b, `{"enqueued":`...), int64(ks.Enqueued), 10)
			b = strconv.AppendInt(append(b, `,"deduped":`...), int64(ks.Deduped), 10)
			b = strconv.AppendInt(append(b, `,"completed":`...), int64(ks.Completed), 10)
			b = strconv.AppendInt(append(b, `,"requeued":`...), int64(ks.Requeued), 10)
			b = strconv.AppendInt(append(b, `,"skipped":`...), int64(ks.Skipped), 10)
			b = strconv.AppendInt(append(b, `,"cancelled":`...), int64(ks.Cancelled), 10)
			b = strconv.AppendInt(append(b, `,"failed":`...), int64(ks.Failed), 10)
			b = append(b, '}')
		}
		b = append(b, '}')
	}
	b = strconv.AppendInt(append(b, `,"queue_shed":`...), int64(st.Shed), 10)
	b = strconv.AppendBool(append(b, `,"storm":{"active":`...), st.Storm.Active)
	b = strconv.AppendInt(append(b, `,"activations":`...), int64(st.Storm.Activations), 10)
	b = strconv.AppendInt(append(b, `,"domains":`...), int64(st.Storm.Domains), 10)
	b = strconv.AppendInt(append(b, `,"coalesced_tasks":`...), int64(st.Storm.CoalescedTasks), 10)
	b = strconv.AppendInt(append(b, `},"group_plans":{"planned":`...), int64(st.GroupPlans.Planned), 10)
	b = strconv.AppendInt(append(b, `,"fallbacks":`...), int64(st.GroupPlans.Fallbacks), 10)
	b = append(b, '}')
	if d := st.Debounce; d != nil {
		b = strconv.AppendUint(append(b, `,"debounce":{"events":`...), d.Events, 10)
		b = strconv.AppendUint(append(b, `,"batches":`...), d.Batches, 10)
		b = strconv.AppendUint(append(b, `,"coalesced":`...), d.Coalesced, 10)
		b = append(b, '}')
	}
	b = append(b, `,"last_results":`...)
	if results == nil {
		return append(b, "null}"...)
	}
	b = append(b, '[')
	for i, r := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, r...)
	}
	return append(b, "]}"...)
}

// appendDeployment appends the chain's wire form: byte for byte what
// encoding/json makes of DeploymentJSON filled from the same record.
func appendDeployment(b []byte, d *orch.Deployment) []byte {
	b = strconv.AppendInt(append(b, `{"id":`...), int64(d.ID), 10)
	b = jsonwrite.String(append(b, `,"name":`...), d.Spec.Name)
	b = jsonwrite.String(append(b, `,"tenant":`...), d.Spec.Tenant)
	b = jsonwrite.String(append(b, `,"service":`...), d.Spec.Service)
	b = jsonwrite.String(append(b, `,"state":`...), d.State.String())
	b = strconv.AppendInt(append(b, `,"version":`...), int64(d.Version), 10)
	b = strconv.AppendInt(append(b, `,"repairs":`...), int64(d.Repairs), 10)
	b = append(b, `,"nfs":[`...)
	for i := range d.Spec.NFs {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonwrite.String(b, d.Spec.NFs[i].Name)
	}
	b = jsonwrite.Float(append(b, `],"bandwidth_gbps":`...), d.Spec.BandwidthGbps)
	b = strconv.AppendInt(append(b, `,"flow_bytes":`...), d.Spec.FlowBytes, 10)
	b = append(b, `,"slice_opss":`...)
	if d.Slice != nil {
		b = jsonwrite.Ints(b, d.Slice.OPSs)
	} else {
		b = append(b, "null"...)
	}
	b = jsonwrite.Ints(append(b, `,"hosts":`...), d.Placement.Hosts)
	b = append(b, `,"domains":`...)
	if len(d.Placement.Domains) == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, dom := range d.Placement.Domains {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonwrite.String(b, dom.String())
		}
		b = append(b, ']')
	}
	b = jsonwrite.Ints(append(b, `,"path":`...), d.Path)
	b = strconv.AppendBool(append(b, `,"slice_confined":`...), d.SliceConfined)
	b = strconv.AppendInt(append(b, `,"lambda":`...), int64(d.Lambda), 10)
	b = strconv.AppendInt(append(b, `,"conversions":`...), int64(d.Conversions), 10)
	b = jsonwrite.Float(append(b, `,"energy_joules":`...), d.EnergyJoules)
	sb := d.Standby
	pathFrom, pathTo := 0, 0 // where the standby path's digits lie in b once written
	if sb != nil && len(sb.Path) > 0 {
		b = append(b, `,"standby_path":`...)
		pathFrom = len(b)
		b = jsonwrite.Ints(b, sb.Path)
		pathTo = len(b)
	}
	if sb != nil && sb.Disjoint {
		b = append(b, `,"standby_disjoint":true`...)
	}
	if d.Drifted {
		b = append(b, `,"drifted":true`...)
	}
	if sb != nil {
		b = append(b, `,"standby":{"path":`...)
		if pathTo > pathFrom {
			b = append(b, b[pathFrom:pathTo]...) // the same path again: copied, not formatted twice
		} else {
			b = jsonwrite.Ints(b, sb.Path)
		}
		b = strconv.AppendBool(append(b, `,"disjoint":`...), sb.Disjoint)
		b = jsonwrite.Time(append(b, `,"lastReplanned":`...), sb.PlannedAt)
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendAccepted appends FailureAcceptedResponse's encoding.
func appendAccepted(b []byte, resp *FailureAcceptedResponse) []byte {
	b = append(b, '{')
	if resp.Node != 0 {
		b = append(strconv.AppendInt(append(b, `"node":`...), int64(resp.Node), 10), ',')
	}
	if resp.Link != 0 {
		b = append(strconv.AppendInt(append(b, `"link":`...), int64(resp.Link), 10), ',')
	}
	if len(resp.Nodes) > 0 {
		b = append(jsonwrite.Ints(append(b, `"nodes":`...), resp.Nodes), ',')
	}
	if len(resp.Links) > 0 {
		b = append(jsonwrite.Ints(append(b, `"links":`...), resp.Links), ',')
	}
	b = strconv.AppendBool(append(b, `"accepted":`...), resp.Accepted)
	b = strconv.AppendInt(append(b, `,"pending_nodes":`...), int64(resp.PendingNodes), 10)
	b = strconv.AppendInt(append(b, `,"pending_links":`...), int64(resp.PendingLinks), 10)
	return append(b, '}')
}

// appendTraceSummary appends TraceSummaryJSON's encoding of the summary.
func appendTraceSummary(b []byte, sum *alvc.TraceSummary) []byte {
	b = jsonwrite.String(append(b, `{"id":`...), sum.ID)
	b = jsonwrite.String(append(b, `,"kind":`...), sum.Kind)
	b = jsonwrite.String(append(b, `,"name":`...), sum.Name)
	b = jsonwrite.Time(append(b, `,"start":`...), sum.Start.UTC())
	b = jsonwrite.Float(append(b, `,"duration_ms":`...), float64(sum.Duration)/float64(time.Millisecond))
	b = strconv.AppendInt(append(b, `,"spans":`...), int64(sum.Spans), 10)
	if sum.Dropped != 0 {
		b = strconv.AppendInt(append(b, `,"dropped":`...), int64(sum.Dropped), 10)
	}
	if sum.Errored {
		b = append(b, `,"errored":true`...)
	}
	if len(sum.Deps) > 0 {
		b = jsonwrite.Ints(append(b, `,"chains":`...), sum.Deps)
	}
	return append(b, '}')
}
