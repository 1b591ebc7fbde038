// Package server exposes the AL-VC orchestrator as a REST control
// plane: the network-service surface of the paper's Fig. 6
// orchestrator. Chains are provisioned, inspected, modified, upgraded,
// scaled, moved and deleted over HTTP; node failures are injected and
// recovered; the topology is served as JSON and every metric on
// GET /metrics (Prometheus text, internal/telemetry). All state
// lives in the wrapped alvc.Architecture — the server itself is
// stateless and safe for concurrent requests.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/cluster"
	"github.com/alvc/alvc/internal/jsonwrite"
	"github.com/alvc/alvc/internal/nfv"
	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/placement"
	"github.com/alvc/alvc/internal/telemetry"
	"github.com/alvc/alvc/internal/topology"
)

// maxBodyBytes bounds request bodies; a 100-spec batch is ~50 KB, so
// 10 MB leaves ample headroom without letting a client exhaust memory.
const maxBodyBytes = 10 << 20

// Option customizes a Server.
type Option func(*Server)

// WithLogger replaces the default logger, which logs nothing. Request
// lines are structured: method, path, status, duration and trace_id
// attributes.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.logger = l }
}

// WithWatchRing sets the /v1/watch Last-Event-ID replay horizon in
// events (default 256).
func WithWatchRing(n int) Option {
	return func(s *Server) { s.watchRing = n }
}

// Server is the REST control plane over one Architecture. The batch
// worker ceiling comes from the Architecture's WithBatchWorkers option
// (one worker per CPU when unset); requests may lower it per call but
// never raise it.
type Server struct {
	arch      *alvc.Architecture
	logger    *slog.Logger
	watchRing int
	handler   http.Handler
	tele      *telemetry.Plane
}

// New wires the route table over the architecture.
func New(arch *alvc.Architecture, opts ...Option) (*Server, error) {
	if arch == nil {
		return nil, fmt.Errorf("server: nil architecture")
	}
	s := &Server{
		arch:   arch,
		logger: slog.New(quietHandler{}),
	}
	for _, opt := range opts {
		opt(s)
	}
	// The telemetry plane wires its observer hooks and event-mux
	// subscriptions at construction; the server just mounts its two
	// handlers.
	s.tele = telemetry.NewPlane(arch, s.watchRing)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.tele.MetricsHandler())
	mux.Handle("GET /v1/watch", s.tele.WatchHandler())
	mux.HandleFunc("GET /v1/traces", s.handleListTraces)
	mux.HandleFunc("GET /v1/traces/{id}", s.handleGetTrace)
	mux.HandleFunc("GET /v1/chains/{id}/traces", s.handleChainTraces)
	mux.HandleFunc("POST /v1/chains", s.handleProvision)
	mux.HandleFunc("POST /v1/chains:batch", s.handleProvisionBatch)
	mux.HandleFunc("GET /v1/chains", s.handleListChains)
	mux.HandleFunc("GET /v1/chains/{id}", s.handleGetChain)
	mux.HandleFunc("DELETE /v1/chains/{id}", s.handleDeleteChain)
	mux.HandleFunc("POST /v1/chains/{id}/modify", s.handleModify)
	mux.HandleFunc("POST /v1/chains/{id}/upgrade", s.handleUpgrade)
	mux.HandleFunc("POST /v1/chains/{id}/scale", s.handleScale)
	mux.HandleFunc("POST /v1/chains/{id}/move", s.handleMove)
	mux.HandleFunc("POST /v1/failures/{node}", s.handleFail)
	mux.HandleFunc("DELETE /v1/failures/{node}", s.handleRecover)
	mux.HandleFunc("POST /v1/failures/links/{link}", s.handleFail)
	mux.HandleFunc("DELETE /v1/failures/links/{link}", s.handleRecover)
	mux.HandleFunc("POST /v1/failures:batch", s.handleFail)
	mux.HandleFunc("GET /v1/nodes/{node}/impact", s.handleImpact)
	mux.HandleFunc("GET /v1/links/{link}/impact", s.handleImpact)
	mux.HandleFunc("GET /v1/topology", s.handleTopology)
	mux.HandleFunc("GET /v1/optimizer/status", s.handleOptimizerStatus)
	mux.HandleFunc("POST /v1/optimizer:run", s.handleOptimizerRun)
	mux.HandleFunc("POST /v1/optimizer/pause", s.handleOptimizerPause)
	mux.HandleFunc("POST /v1/optimizer/resume", s.handleOptimizerResume)

	// Tracing sits outermost so the root HTTP span brackets logging and
	// recovery, and the span context is in place before any handler runs.
	s.handler = withTracing(arch.Tracer(), withLogging(s.logger, withRecovery(s.logger, mux)))
	return s, nil
}

// Handler returns the fully wrapped route table, ready for
// http.Server or httptest.
func (s *Server) Handler() http.Handler { return s.handler }

// Telemetry returns the server's telemetry plane (registry and watch
// hub) for tests and embedders.
func (s *Server) Telemetry() *telemetry.Plane { return s.tele }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError answers with an ErrorResponse.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	sc := getScratch()
	defer putScratch(sc)
	sc.body = append(jsonwrite.String(append(sc.body, `{"error":`...), fmt.Sprintf(format, args...)), "}\n"...)
	sendJSON(w, status, sc.body)
}

// statusOf maps orchestration errors to HTTP statuses: missing things
// are 404, state conflicts and exhausted pools 409, requests the
// architecture cannot satisfy 422.
func statusOf(err error) int {
	switch {
	case errors.Is(err, orch.ErrUnknownDeployment):
		return http.StatusNotFound
	case errors.Is(err, orch.ErrNotActive),
		errors.Is(err, orch.ErrBusy),
		errors.Is(err, orch.ErrDuplicateChain):
		return http.StatusConflict
	case errors.Is(err, cluster.ErrInsufficientOPS),
		errors.Is(err, nfv.ErrInsufficientCapacity),
		errors.Is(err, placement.ErrNoCapacity):
		return http.StatusConflict
	default:
		return http.StatusUnprocessableEntity
	}
}

func (s *Server) pathID(w http.ResponseWriter, r *http.Request) (alvc.DeploymentID, bool) {
	n, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || n <= 0 {
		writeError(w, http.StatusBadRequest, "invalid deployment id %q", r.PathValue("id"))
		return 0, false
	}
	return alvc.DeploymentID(n), true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sendJSON(w, http.StatusOK, healthyBody)
}

func (s *Server) handleProvision(w http.ResponseWriter, r *http.Request) {
	var spec chain.Spec
	if err := decodeBody(w, r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, "parse chain spec: %v", err)
		return
	}
	dep, err := s.arch.Deploy(r.Context(), spec)
	if err != nil {
		writeError(w, statusOf(err), "provision: %v", err)
		return
	}
	writeDeployment(w, http.StatusCreated, dep)
}

func (s *Server) handleProvisionBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "parse batch request: %v", err)
		return
	}
	if len(req.Specs) == 0 {
		writeError(w, http.StatusBadRequest, "batch request has no specs")
		return
	}
	// Clamp to the architecture's pool size so a client cannot demand
	// unbounded provisioning parallelism.
	ceiling := s.arch.BatchWorkers()
	if ceiling <= 0 {
		ceiling = orch.DefaultBatchWorkers()
	}
	workers := req.Workers
	if workers <= 0 || workers > ceiling {
		workers = ceiling
	}
	writeBatch(w, s.arch.Sharded().ProvisionBatch(req.Specs, workers))
}

// handleListChains lists the chains the orchestrator holds records of.
// Deleted chains have none: ?state=deleted lists their tombstones.
func (s *Server) handleListChains(w http.ResponseWriter, r *http.Request) {
	stateFilter := r.URL.Query().Get("state")
	if stateFilter == orch.StateDeleted.String() {
		tombs := s.arch.Tombstones()
		out := make([]DeploymentJSON, 0, len(tombs))
		for _, t := range tombs {
			out = append(out, tombstoneJSON(t))
		}
		writeJSON(w, http.StatusOK, out)
		return
	}
	s.writeChains(w, stateFilter)
}

func (s *Server) handleGetChain(w http.ResponseWriter, r *http.Request) {
	id, ok := s.pathID(w, r)
	if !ok {
		return
	}
	s.writeChain(w, id)
}

func (s *Server) handleDeleteChain(w http.ResponseWriter, r *http.Request) {
	id, ok := s.pathID(w, r)
	if !ok {
		return
	}
	final, err := s.arch.Delete(r.Context(), id)
	if err != nil {
		writeError(w, statusOf(err), "delete: %v", err)
		return
	}
	writeDeployment(w, http.StatusOK, final)
}

func (s *Server) handleModify(w http.ResponseWriter, r *http.Request) {
	id, ok := s.pathID(w, r)
	if !ok {
		return
	}
	var req ModifyRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "parse modify request: %v", err)
		return
	}
	if req.BandwidthGbps <= 0 {
		writeError(w, http.StatusBadRequest, "bandwidth_gbps must be positive, got %f", req.BandwidthGbps)
		return
	}
	if err := s.arch.Modify(id, req.BandwidthGbps); err != nil {
		writeError(w, statusOf(err), "modify: %v", err)
		return
	}
	s.writeChain(w, id)
}

func (s *Server) handleUpgrade(w http.ResponseWriter, r *http.Request) {
	id, ok := s.pathID(w, r)
	if !ok {
		return
	}
	if err := s.arch.Upgrade(id); err != nil {
		writeError(w, statusOf(err), "upgrade: %v", err)
		return
	}
	s.writeChain(w, id)
}

func (s *Server) handleScale(w http.ResponseWriter, r *http.Request) {
	id, ok := s.pathID(w, r)
	if !ok {
		return
	}
	var req ScaleRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "parse scale request: %v", err)
		return
	}
	if err := s.arch.ScaleNF(id, req.NFIndex, req.Replicas); err != nil {
		writeError(w, statusOf(err), "scale: %v", err)
		return
	}
	s.writeChain(w, id)
}

func (s *Server) handleMove(w http.ResponseWriter, r *http.Request) {
	id, ok := s.pathID(w, r)
	if !ok {
		return
	}
	var req MoveRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "parse move request: %v", err)
		return
	}
	if err := s.arch.MoveNF(id, req.NFIndex, req.To); err != nil {
		writeError(w, statusOf(err), "move: %v", err)
		return
	}
	s.writeChain(w, id)
}

// fillReports folds the reconciler's reports into the wire response.
func fillReports(resp *FailureResponse, reports []orch.RepairReport, err error) {
	resp.Reports = make([]RepairReportJSON, 0, len(reports))
	resp.Repaired = make([]int, 0, len(reports))
	for _, rep := range reports {
		rj := RepairReportJSON{ID: int(rep.ID), Action: string(rep.Action), TraceID: rep.TraceID}
		if rep.Err != nil {
			rj.Error = rep.Err.Error()
		}
		resp.Reports = append(resp.Reports, rj)
		switch {
		case rep.Succeeded():
			resp.Repaired = append(resp.Repaired, int(rep.ID))
		case rep.Action == orch.ActionFailed:
			resp.Failed = append(resp.Failed, int(rep.ID))
		}
	}
	sort.Ints(resp.Repaired)
	sort.Ints(resp.Failed)
	if err != nil {
		resp.Error = err.Error()
	}
}

// writeRecovered answers a recovery: RecoverResponse's encoding.
func writeRecovered(w http.ResponseWriter, resource string, id int) {
	sc := getScratch()
	defer putScratch(sc)
	b := append(append(append(sc.body, `{"`...), resource...), `":`...)
	sc.body = append(strconv.AppendInt(b, int64(id), 10), `,"recovered":true}`+"\n"...)
	sendJSON(w, http.StatusOK, sc.body)
}

// failureTarget is what a failure, recover or impact route names: the
// {node} or the {link} path value, or a batch body's lists as sent —
// the echo keeps the request's order and duplicates.
type failureTarget struct {
	node  [1]topology.NodeID
	link  [1]topology.LinkID
	batch BatchFailureRequest
}

// parseTarget reads the route's target into t and checks that every ID
// exists, answering 400 for a malformed target and 404 for an unknown
// ID; it returns false once it has answered.
func (s *Server) parseTarget(w http.ResponseWriter, r *http.Request, t *failureTarget) bool {
	for _, what := range [2]string{"node", "link"} {
		v := r.PathValue(what)
		if v == "" {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "invalid %s id %q", what, v)
			return false
		}
		if what == "node" {
			t.node[0] = topology.NodeID(n)
		} else {
			t.link[0] = topology.LinkID(n)
		}
	}
	if t.node[0] == 0 && t.link[0] == 0 {
		var req BatchFailureRequest
		if err := decodeBody(w, r, &req); err != nil {
			writeError(w, http.StatusBadRequest, "parse batch failure request: %v", err)
			return false
		}
		if len(req.Nodes) == 0 && len(req.Links) == 0 {
			writeError(w, http.StatusBadRequest, "batch failure names no nodes or links")
			return false
		}
		t.batch = req
	}
	topo := s.arch.Topology()
	nodes, links := t.lists()
	for _, n := range nodes {
		if topo.Node(n) == nil {
			writeError(w, http.StatusNotFound, "unknown node %d", n)
			return false
		}
	}
	for _, l := range links {
		if topo.Link(l) == nil {
			writeError(w, http.StatusNotFound, "unknown link %d", l)
			return false
		}
	}
	return true
}

// lists returns the target's IDs: a path value sliced from t itself,
// so the failure set built on it stays in the handler's frame, or the
// batch body's lists.
func (t *failureTarget) lists() ([]topology.NodeID, []topology.LinkID) {
	nodes, links := t.batch.Nodes, t.batch.Links
	if t.node[0] != 0 {
		nodes = t.node[:]
	}
	if t.link[0] != 0 {
		links = t.link[:]
	}
	return nodes, links
}

// handleFail injects the target's failure. With a debouncer the report
// joins the pending union and the answer is 202 Accepted: repairs run
// when the window flushes, so there are no per-chain reports yet.
func (s *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	var t failureTarget
	if !s.parseTarget(w, r, &t) {
		return
	}
	f := alvc.NewFailures(t.lists())
	if d := s.arch.Debouncer(); d != nil {
		s.arch.ReportFailures(r.Context(), f)
		resp := FailureAcceptedResponse{Node: t.node[0], Link: t.link[0], Nodes: t.batch.Nodes, Links: t.batch.Links, Accepted: true}
		resp.PendingNodes, resp.PendingLinks = d.Pending()
		sc := getScratch()
		defer putScratch(sc)
		sc.body = append(appendAccepted(sc.body, &resp), '\n')
		sendJSON(w, http.StatusAccepted, sc.body)
		return
	}
	// Every ID exists, so Fail's error can only report repairs that did
	// not succeed — the injection itself has landed. Report those
	// in-band: the client asked for a failure and got one.
	reports, err := s.arch.Fail(r.Context(), f)
	resp := FailureResponse{Node: t.node[0], Link: t.link[0], Nodes: t.batch.Nodes, Links: t.batch.Links}
	fillReports(&resp, reports, err)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRecover(w http.ResponseWriter, r *http.Request) {
	var t failureTarget
	if !s.parseTarget(w, r, &t) {
		return
	}
	what, id := "node", int(t.node[0])
	if id == 0 {
		what, id = "link", int(t.link[0])
	}
	if err := s.arch.Recover(alvc.NewFailures(t.lists())); err != nil {
		writeError(w, statusOf(err), "recover %s: %v", what, err)
		return
	}
	writeRecovered(w, what, id)
}

func (s *Server) handleImpact(w http.ResponseWriter, r *http.Request) {
	var t failureTarget
	if !s.parseTarget(w, r, &t) {
		return
	}
	entries := s.arch.Impact(alvc.NewFailures(t.lists()))
	resp := ImpactResponse{Node: t.node[0], Link: t.link[0], Chains: toImpactJSON(entries), Count: len(entries)}
	writeJSON(w, http.StatusOK, resp)
}

func toImpactJSON(entries []alvc.ImpactEntry) []ImpactEntryJSON {
	out := make([]ImpactEntryJSON, 0, len(entries))
	for _, e := range entries {
		out = append(out, ImpactEntryJSON{ID: int(e.ID), Roles: e.Roles})
	}
	return out
}

// optimizer resolves the architecture's background optimizer, writing
// a 404 when none is attached (the server was started without it).
func (s *Server) optimizer(w http.ResponseWriter) *alvc.Optimizer {
	eng := s.arch.Optimizer()
	if eng == nil {
		writeError(w, http.StatusNotFound, "optimizer not enabled")
		return nil
	}
	return eng
}

func (s *Server) handleOptimizerStatus(w http.ResponseWriter, r *http.Request) {
	eng := s.optimizer(w)
	if eng == nil {
		return
	}
	writeOptimizerStatus(w, eng)
}

func (s *Server) handleOptimizerRun(w http.ResponseWriter, r *http.Request) {
	eng := s.optimizer(w)
	if eng == nil {
		return
	}
	writeOptimizerRun(w, eng.Drain(), eng)
}

func (s *Server) handleOptimizerPause(w http.ResponseWriter, r *http.Request) {
	eng := s.optimizer(w)
	if eng == nil {
		return
	}
	eng.Pause()
	sendJSON(w, http.StatusOK, pausedBody)
}

func (s *Server) handleOptimizerResume(w http.ResponseWriter, r *http.Request) {
	eng := s.optimizer(w)
	if eng == nil {
		return
	}
	eng.Resume()
	sendJSON(w, http.StatusOK, resumedBody)
}

func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) {
	data, err := s.arch.TopologyJSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "marshal topology: %v", err)
		return
	}
	sendJSON(w, http.StatusOK, data)
}
