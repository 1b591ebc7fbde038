package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/alvc/alvc"
)

// doTraced issues one request with an X-Trace-Id header and returns
// the status, body, and the echoed X-Trace-Id response header.
func doTraced(t *testing.T, method, url, traceID string, body []byte) (int, []byte, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("NewRequest %s %s: %v", method, url, err)
	}
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, data, resp.Header.Get("X-Trace-Id")
}

// findSpan walks a span tree depth-first for the first span with the
// given name.
func findSpan(roots []*SpanJSON, name string) *SpanJSON {
	for _, n := range roots {
		if n.Name == name {
			return n
		}
		if hit := findSpan(n.Children, name); hit != nil {
			return hit
		}
	}
	return nil
}

// TestTraceEndpointsEndToEnd is the CI acceptance path over httptest:
// a provision pinned to an explicit X-Trace-Id comes back as a queryable
// span tree with every pipeline stage, and a failure injection's repair
// span shares the failure request's trace.
func TestTraceEndpointsEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t, alvc.WithPolicy(alvc.AllElectronic{}))

	status, body, echoed := doTraced(t, "POST", ts.URL+"/v1/chains", "ci-prov-1",
		specBody("c1", "t1", "web", "firewall", "lb"))
	if status != http.StatusCreated {
		t.Fatalf("provision: got %d (%s)", status, body)
	}
	if echoed != "ci-prov-1" {
		t.Fatalf("X-Trace-Id echoed %q, want ci-prov-1", echoed)
	}
	dep := mustUnmarshal[DeploymentJSON](t, body)

	status, body, _ = doTraced(t, "GET", ts.URL+"/v1/traces/ci-prov-1", "", nil)
	if status != http.StatusOK {
		t.Fatalf("get trace: got %d (%s)", status, body)
	}
	tj := mustUnmarshal[TraceJSON](t, body)
	root := findSpan(tj.Roots, "POST /v1/chains")
	if root == nil || root.Kind != "http" {
		t.Fatalf("no http root span in %s", body)
	}
	prov := findSpan(root.Children, "provision")
	if prov == nil || prov.Chain != dep.ID {
		t.Fatalf("no provision span for deployment %d under the http root: %s", dep.ID, body)
	}
	for _, stage := range []string{"cluster", "slice", "placement", "instantiate", "path", "standby", "wdm", "rules"} {
		if sp := findSpan(prov.Children, stage); sp == nil || sp.Kind != "stage" {
			t.Fatalf("missing stage span %q under provision: %s", stage, body)
		}
	}

	// Failure injection on its own pinned trace: the synchronous repair
	// span must land inside it, causally under the http root.
	victim := dep.SliceOPSs[0]
	status, body, _ = doTraced(t, "POST", fmt.Sprintf("%s/v1/failures/%d", ts.URL, victim), "ci-fail-1", nil)
	if status != http.StatusOK {
		t.Fatalf("fail node: got %d (%s)", status, body)
	}
	fr := mustUnmarshal[FailureResponse](t, body)
	if len(fr.Reports) != 1 || fr.Reports[0].TraceID != "ci-fail-1" {
		t.Fatalf("reports = %+v, want one report on trace ci-fail-1", fr.Reports)
	}

	status, body, _ = doTraced(t, "GET", ts.URL+"/v1/traces/ci-fail-1", "", nil)
	if status != http.StatusOK {
		t.Fatalf("get repair trace: got %d (%s)", status, body)
	}
	tj = mustUnmarshal[TraceJSON](t, body)
	failRoot := findSpan(tj.Roots, fmt.Sprintf("POST /v1/failures/%d", victim))
	if failRoot == nil {
		t.Fatalf("no http root for the failure request: %s", body)
	}
	repair := findSpan(failRoot.Children, "repair")
	if repair == nil || repair.Kind != "repair" || repair.Chain != dep.ID {
		t.Fatalf("no repair span for deployment %d in the failure trace: %s", dep.ID, body)
	}

	// The listing filters by kind, and the chain index ties both traces
	// to the deployment.
	status, body, _ = doTraced(t, "GET", ts.URL+"/v1/traces?kind=http", "", nil)
	if status != http.StatusOK {
		t.Fatalf("list traces: got %d (%s)", status, body)
	}
	sums := mustUnmarshal[[]TraceSummaryJSON](t, body)
	seen := map[string]bool{}
	for _, s := range sums {
		seen[s.ID] = true
	}
	if !seen["ci-prov-1"] || !seen["ci-fail-1"] {
		t.Fatalf("kind=http listing %v missing the pinned traces", seen)
	}

	status, body, _ = doTraced(t, "GET", fmt.Sprintf("%s/v1/chains/%d/traces", ts.URL, dep.ID), "", nil)
	if status != http.StatusOK {
		t.Fatalf("chain traces: got %d (%s)", status, body)
	}
	sums = mustUnmarshal[[]TraceSummaryJSON](t, body)
	seen = map[string]bool{}
	for _, s := range sums {
		seen[s.ID] = true
	}
	if !seen["ci-prov-1"] || !seen["ci-fail-1"] {
		t.Fatalf("chain %d traces %v missing provision/repair traces", dep.ID, seen)
	}
}

// TestTraceEndpointValidation: unknown IDs 404, bad filters 400, and
// the untraced endpoints never pollute the store.
func TestTraceEndpointValidation(t *testing.T) {
	ts, arch := newTestServer(t)
	status, _, _ := doTraced(t, "GET", ts.URL+"/v1/traces/no-such-trace", "", nil)
	if status != http.StatusNotFound {
		t.Fatalf("unknown trace: got %d, want 404", status)
	}
	status, _, _ = doTraced(t, "GET", ts.URL+"/v1/traces?min_duration=bogus", "", nil)
	if status != http.StatusBadRequest {
		t.Fatalf("bad min_duration: got %d, want 400", status)
	}

	before := arch.TraceStore().Stats().SpansRecorded
	for _, path := range []string{"/healthz", "/metrics", "/v1/traces", "/v1/chains/1/traces"} {
		if status, _, echoed := doTraced(t, "GET", ts.URL+path, "probe-1", nil); status != http.StatusOK || echoed != "" {
			t.Fatalf("GET %s: status %d, echoed trace %q — want untraced 200", path, status, echoed)
		}
	}
	if after := arch.TraceStore().Stats().SpansRecorded; after != before {
		t.Fatalf("untraced endpoints recorded %d spans", after-before)
	}
}

// lockedBuffer serializes writes so the slog handler is safe under
// concurrent requests.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestLogCarriesTraceID: the structured request log line for a
// traced request includes its trace_id, so log lines pivot straight
// into GET /v1/traces/{id}.
func TestRequestLogCarriesTraceID(t *testing.T) {
	cfg := alvc.DefaultTopology()
	cfg.Racks = 4
	arch, err := alvc.New(cfg)
	if err != nil {
		t.Fatalf("alvc.New: %v", err)
	}
	var buf lockedBuffer
	srv, err := New(arch, WithLogger(slog.New(slog.NewJSONHandler(&buf, nil))))
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	status, body, _ := doTraced(t, "POST", ts.URL+"/v1/chains", "log-trace-1",
		specBody("c1", "t1", "web", "firewall"))
	if status != http.StatusCreated {
		t.Fatalf("provision: got %d (%s)", status, body)
	}
	var logged bool
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec struct {
			Msg     string `json:"msg"`
			Path    string `json:"path"`
			Status  int    `json:"status"`
			TraceID string `json:"trace_id"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable log line %q: %v", line, err)
		}
		if rec.Msg == "request" && rec.Path == "/v1/chains" {
			if rec.TraceID != "log-trace-1" || rec.Status != http.StatusCreated {
				t.Fatalf("request log = %+v, want trace_id log-trace-1 status 201", rec)
			}
			logged = true
		}
	}
	if !logged {
		t.Fatalf("no request log line for /v1/chains in %q", buf.String())
	}
}

// TestTracingDisabled: WithTracing(nil) removes the trace surface —
// 404 on the query API, no X-Trace-Id echo, nil store — while the
// request paths keep working.
func TestTracingDisabled(t *testing.T) {
	ts, arch := newTestServer(t, alvc.WithTracing(nil))
	if arch.Tracer() != nil || arch.TraceStore() != nil {
		t.Fatal("WithTracing(nil) left a tracer attached")
	}
	status, body, echoed := doTraced(t, "POST", ts.URL+"/v1/chains", "untraced-1",
		specBody("c1", "t1", "web", "firewall"))
	if status != http.StatusCreated {
		t.Fatalf("provision without tracing: got %d (%s)", status, body)
	}
	if echoed != "" {
		t.Fatalf("X-Trace-Id echoed %q with tracing disabled", echoed)
	}
	status, _, _ = doTraced(t, "GET", ts.URL+"/v1/traces", "", nil)
	if status != http.StatusNotFound {
		t.Fatalf("trace listing with tracing disabled: got %d, want 404", status)
	}
}

// TestContextRoutesNestTheOrchestratorSpan covers every route whose
// handler passes a context to the architecture — provision, delete, the
// 202 failure report and the synchronous failure — behind a listening
// logger. Each request is pinned to a trace ID; the orchestrator's span
// must hang off the request's root span and reach the store in the same
// insert as it (the report's in the flush's insert, which continues the
// request's trace), and the request's log line must carry the trace ID.
// A handler that hands the architecture r.Context() instead of the
// frame's carrier fails here: its spans start a trace of their own.
func TestContextRoutesNestTheOrchestratorSpan(t *testing.T) {
	boot := func(opts ...alvc.Option) (http.Handler, *alvc.Architecture, *lockedBuffer) {
		cfg := wideConfig(48)
		cfg.DualHomeFrac = 1.0
		arch, err := alvc.New(cfg, opts...)
		if err != nil {
			t.Fatalf("alvc.New: %v", err)
		}
		var logs lockedBuffer
		srv, err := New(arch, WithLogger(slog.New(slog.NewJSONHandler(&logs, nil))))
		if err != nil {
			t.Fatalf("server.New: %v", err)
		}
		for i := 0; i < 4; i++ {
			deployOne(t, arch, i)
		}
		return srv.Handler(), arch, &logs
	}
	sync, syncArch, syncLogs := boot()
	debounced, debArch, debLogs := boot(alvc.WithFailureDebounce(time.Hour))
	victim := syncArch.Sharded().Deployments()[0].Slice.OPSs[0]
	reported := debArch.Sharded().Deployments()[0].Slice.OPSs[0]

	var provisioned DeploymentJSON
	for _, route := range []struct {
		name, method string
		target       func() string
		body         []byte
		h            http.Handler
		arch         *alvc.Architecture
		logs         *lockedBuffer
		status       int
		kind         string // the orchestrator span's
		flush        bool   // the span comes with the debouncer's flush
	}{
		{"provision", "POST", func() string { return "/v1/chains" }, specBody("routed", "tenant-r", "web", "firewall", "lb"),
			sync, syncArch, syncLogs, http.StatusCreated, "provision", false},
		{"delete", "DELETE", func() string { return fmt.Sprintf("/v1/chains/%d", provisioned.ID) }, nil,
			sync, syncArch, syncLogs, http.StatusOK, "delete", false},
		{"failure", "POST", func() string { return fmt.Sprintf("/v1/failures/%d", victim) }, nil,
			sync, syncArch, syncLogs, http.StatusOK, "repair", false},
		{"report", "POST", func() string { return fmt.Sprintf("/v1/failures/%d", reported) }, nil,
			debounced, debArch, debLogs, http.StatusAccepted, "batch", true},
	} {
		id := "route-" + route.name
		st := route.arch.TraceStore()
		before := st.Stats().Commits
		req := httptest.NewRequest(route.method, route.target(), bytes.NewReader(route.body))
		req.Header.Set("X-Trace-Id", id)
		rec := httptest.NewRecorder()
		route.h.ServeHTTP(rec, req)
		if rec.Code != route.status || rec.Header().Get("X-Trace-Id") != id {
			t.Fatalf("%s: %d, X-Trace-Id %q (%s)", route.name, rec.Code, rec.Header().Get("X-Trace-Id"), rec.Body)
		}
		if route.name == "provision" {
			provisioned = mustUnmarshal[DeploymentJSON](t, rec.Body.Bytes())
		}
		inserts := uint64(1)
		if route.flush {
			if reports, err := route.arch.FlushFailures(); err != nil || len(reports) == 0 {
				t.Fatalf("%s: the flush repaired %d chains, %v", route.name, len(reports), err)
			}
			inserts = 2
		}
		if got := st.Stats().Commits - before; got != inserts {
			t.Errorf("%s: %d inserts, want %d", route.name, got, inserts)
		}
		spans, _, ok := st.Trace(id)
		if !ok {
			t.Fatalf("%s: no trace %s", route.name, id)
		}
		var root alvc.TraceSpan
		for _, sp := range spans {
			if sp.Parent == 0 {
				root = sp
			}
		}
		if root.Kind != "http" || !strings.HasPrefix(root.Name, route.method+" ") {
			t.Fatalf("%s: trace %s has no request root: %+v", route.name, id, spans)
		}
		nested := false
		for _, sp := range spans {
			nested = nested || sp.Kind == route.kind && sp.Parent == root.SpanID
		}
		if !nested {
			t.Errorf("%s: no %s span under the request's root in trace %s: %+v", route.name, route.kind, id, spans)
		}
		logged := false
		for _, line := range strings.Split(strings.TrimSpace(route.logs.String()), "\n") {
			var l struct {
				TraceID string `json:"trace_id"`
			}
			if json.Unmarshal([]byte(line), &l) == nil && l.TraceID == id {
				logged = true
			}
		}
		if !logged {
			t.Errorf("%s: no request log line carries trace_id %s:\n%s", route.name, id, route.logs.String())
		}
	}
}
