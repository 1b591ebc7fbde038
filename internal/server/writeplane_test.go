package server

// The write plane — failure reports through the debouncer, recoveries,
// error answers — on a booted fleet: what each verb allocates through the
// full middleware, and what the handlers do under concurrent reads.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/topology"
	"github.com/alvc/alvc/internal/trace"
)

// doer returns a func that serves one bodiless request through the full
// middleware into a discardWriter, holding the answer to a status.
func doer(tb testing.TB, srv *Server, method, target string, status int) func() {
	req := httptest.NewRequest(method, target, nil)
	w := &discardWriter{h: make(http.Header)}
	return func() {
		clear(w.h)
		w.status, w.bytes = 0, 0
		srv.Handler().ServeHTTP(w, req)
		if w.status != status || w.bytes == 0 {
			tb.Fatalf("%s %s: status %d, %d bytes, want %d", method, target, w.status, w.bytes, status)
		}
	}
}

// TestWritePlaneAllocationCeilings counts, through the full middleware on
// a 200-chain fleet with a debouncer attached, what the failure plane's
// verbs allocate — the parent's counts in the comments.
func TestWritePlaneAllocationCeilings(t *testing.T) {
	srv, arch, ids := bootFleet(t, 200, 1, alvc.WithFailureDebounce(time.Hour), alvc.WithOptimizer(alvc.OptimizerOptions{}))
	dep := arch.Deployment(ids[100])
	link := dep.Standby.Links[1]
	for _, verb := range []struct {
		name, method, target string
		status               int
		ceiling              float64
	}{
		{"get", "GET", fmt.Sprintf("/v1/chains/%d", ids[100]), http.StatusOK, 10},                       // 16
		{"recover link", "DELETE", fmt.Sprintf("/v1/failures/links/%d", link), http.StatusOK, 5},        // 24
		{"recover node", "DELETE", fmt.Sprintf("/v1/failures/%d", dep.Path[2]), http.StatusOK, 5},       // 23
		{"report link", "POST", fmt.Sprintf("/v1/failures/links/%d", link), http.StatusAccepted, 5},     // 15
		{"unknown link", "DELETE", fmt.Sprintf("/v1/failures/links/%d", 1<<30), http.StatusNotFound, 7}, // 17
		{"unknown chain", "GET", fmt.Sprintf("/v1/chains/%d", 1<<30), http.StatusNotFound, 6},           // 17
		{"healthz", "GET", "/healthz", http.StatusOK, 2},                                                // 6
	} {
		do := doer(t, srv, verb.method, verb.target, verb.status)
		do()
		do() // the pooled buffers and the store's spare entries have their size now
		got := testing.AllocsPerRun(20, do)
		t.Logf("%-13s %3.0f allocations a request (ceiling %.0f)", verb.name, got, verb.ceiling)
		if got > verb.ceiling && !raceEnabled {
			t.Errorf("%s allocates %.0f times a request, ceiling %.0f", verb.name, got, verb.ceiling)
		}
	}
}

// TestFailureBodiesEqualEncodingJSON: every body the failure plane
// answers — a recovery, a 202 with a node, a link, a batch's nodes and
// links (echoed in the request's order, duplicates and all) and the
// pending counts growing under them, a node's and a link's blast
// radius, the synchronous reports of a node, a link and a batch, the
// constant answers, an error whose text JSON and HTML both escape — is
// byte for byte encoding/json's rendering of the response struct
// clients decode into; and a batch body naming a single node or link
// is rejected, as any unknown field is.
func TestFailureBodiesEqualEncodingJSON(t *testing.T) {
	srv, arch, ids := bootFleet(t, 8, 1, alvc.WithFailureDebounce(time.Hour), alvc.WithOptimizer(alvc.OptimizerOptions{}))
	dep := arch.Deployment(ids[3])
	node, link, other := dep.Path[2], dep.Standby.Links[1], dep.Standby.Links[2]
	check := func(what string, rec *httptest.ResponseRecorder, status int, want any) {
		t.Helper()
		if rec.Code != status || !bytes.Equal(rec.Body.Bytes(), mustOracleBody(t, want)) {
			t.Errorf("%s: %d %q, want %d %q", what, rec.Code, rec.Body, status, mustOracleBody(t, want))
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", what, ct)
		}
	}
	check("recover node", serve(t, srv, "DELETE", fmt.Sprintf("/v1/failures/%d", node), nil),
		http.StatusOK, RecoverResponse{Node: node, Recovered: true})
	check("recover link", serve(t, srv, "DELETE", fmt.Sprintf("/v1/failures/links/%d", link), nil),
		http.StatusOK, RecoverResponse{Link: link, Recovered: true})
	check("report node", serve(t, srv, "POST", fmt.Sprintf("/v1/failures/%d", node), nil),
		http.StatusAccepted, FailureAcceptedResponse{Node: node, Accepted: true, PendingNodes: 1})
	check("report link", serve(t, srv, "POST", fmt.Sprintf("/v1/failures/links/%d", link), nil),
		http.StatusAccepted, FailureAcceptedResponse{Link: link, Accepted: true, PendingNodes: 1, PendingLinks: 1})
	batch := BatchFailureRequest{Nodes: []topology.NodeID{node, dep.Path[1]}, Links: []topology.LinkID{other}}
	check("report batch", serve(t, srv, "POST", "/v1/failures:batch", mustOracleBody(t, batch)), http.StatusAccepted,
		FailureAcceptedResponse{Nodes: batch.Nodes, Links: batch.Links, Accepted: true, PendingNodes: 2, PendingLinks: 2})
	check("report links only", serve(t, srv, "POST", "/v1/failures:batch", []byte(`{"links":[`+fmt.Sprint(link)+`]}`)), http.StatusAccepted,
		FailureAcceptedResponse{Links: []topology.LinkID{link}, Accepted: true, PendingNodes: 2, PendingLinks: 2})
	unsorted := BatchFailureRequest{Nodes: []topology.NodeID{dep.Path[3], node, dep.Path[3]}, Links: []topology.LinkID{other, link, other}}
	check("report unsorted batch", serve(t, srv, "POST", "/v1/failures:batch", mustOracleBody(t, unsorted)), http.StatusAccepted,
		FailureAcceptedResponse{Nodes: unsorted.Nodes, Links: unsorted.Links, Accepted: true, PendingNodes: 3, PendingLinks: 2})
	for _, field := range []string{"node", "link"} {
		check("batch naming a "+field, serve(t, srv, "POST", "/v1/failures:batch", []byte(`{"`+field+`":`+fmt.Sprint(link)+`}`)),
			http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("parse batch failure request: json: unknown field %q", field)})
	}
	nodeImpact := arch.Sharded().Impact(alvc.NewFailures([]topology.NodeID{node}, nil))
	check("node impact", serve(t, srv, "GET", fmt.Sprintf("/v1/nodes/%d/impact", node), nil), http.StatusOK,
		ImpactResponse{Node: node, Chains: toImpactJSON(nodeImpact), Count: len(nodeImpact)})
	linkImpact := arch.Sharded().Impact(alvc.NewFailures(nil, []topology.LinkID{link}))
	check("link impact", serve(t, srv, "GET", fmt.Sprintf("/v1/links/%d/impact", link), nil), http.StatusOK,
		ImpactResponse{Link: link, Chains: toImpactJSON(linkImpact), Count: len(linkImpact)})
	if len(nodeImpact) == 0 || len(linkImpact) == 0 {
		t.Errorf("blast radii %v and %v: the chain's path node and standby link serve no chain", nodeImpact, linkImpact)
	}
	check("healthz", serve(t, srv, "GET", "/healthz", nil), http.StatusOK, map[string]string{"status": "ok"})
	check("pause", serve(t, srv, "POST", "/v1/optimizer/pause", nil), http.StatusOK, map[string]bool{"paused": true})
	check("resume", serve(t, srv, "POST", "/v1/optimizer/resume", nil), http.StatusOK, map[string]bool{"paused": false})
	check("unknown link", serve(t, srv, "DELETE", "/v1/failures/links/999999", nil),
		http.StatusNotFound, ErrorResponse{Error: "unknown link 999999"})
	const hostile = `a"b\c<d>&é` + "\u2028\x01"
	check("hostile id", serve(t, srv, "GET", "/v1/chains/a%22b%5Cc%3Cd%3E&%C3%A9%E2%80%A8%01", nil),
		http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("invalid deployment id %q", hostile)})
	rec := httptest.NewRecorder()
	writeError(rec, http.StatusConflict, "%s: %d%%", hostile, 100)
	check("hostile text", rec, http.StatusConflict, ErrorResponse{Error: hostile + ": 100%"})

	// Without a debouncer a failure answers 200 with the repair reports;
	// the echo is the request's, as sent.
	syncSrv, syncArch, syncIDs := bootFleet(t, 8, 1)
	sdep := syncArch.Deployment(syncIDs[3])
	for _, f := range []struct {
		what, method, target string
		body                 []byte
		echo                 FailureResponse
	}{
		{"fail link", "POST", fmt.Sprintf("/v1/failures/links/%d", sdep.Standby.Links[1]), nil,
			FailureResponse{Link: sdep.Standby.Links[1]}},
		{"fail node", "POST", fmt.Sprintf("/v1/failures/%d", sdep.Path[2]), nil, FailureResponse{Node: sdep.Path[2]}},
		{"fail unsorted batch", "POST", "/v1/failures:batch",
			mustOracleBody(t, BatchFailureRequest{Nodes: []topology.NodeID{sdep.Slice.OPSs[0], sdep.Placement.Hosts[0], sdep.Slice.OPSs[0]}}),
			FailureResponse{Nodes: []topology.NodeID{sdep.Slice.OPSs[0], sdep.Placement.Hosts[0], sdep.Slice.OPSs[0]}}},
	} {
		rec := serve(t, syncSrv, f.method, f.target, f.body)
		var got FailureResponse
		dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("%s: %d %q: %v", f.what, rec.Code, rec.Body, err)
		}
		if got.Node != f.echo.Node || got.Link != f.echo.Link || !slices.Equal(got.Nodes, f.echo.Nodes) || !slices.Equal(got.Links, f.echo.Links) {
			t.Errorf("%s: echo %v %v %v %v, want %v %v %v %v", f.what, got.Node, got.Link, got.Nodes, got.Links,
				f.echo.Node, f.echo.Link, f.echo.Nodes, f.echo.Links)
		}
		if !slices.ContainsFunc(got.Reports, func(r RepairReportJSON) bool { return r.ID == int(sdep.ID) }) {
			t.Errorf("%s: no report for chain %d in %+v", f.what, sdep.ID, got.Reports)
		}
		check(f.what, rec, http.StatusOK, got)
	}
}

// TestTraceContextBothForms: the span context reads back the same from
// a trace.Carrier and from the server's request frame, from
// either directly, through a context.WithValue child, and through a
// cancelled child; the parent's own values and its cancellation pass
// through both.
func TestTraceContextBothForms(t *testing.T) {
	type key struct{}
	parent, cancelParent := context.WithCancel(context.WithValue(context.Background(), key{}, "below"))
	defer cancelParent()
	sc := trace.SpanContext{TraceID: "t-1", SpanID: 7}
	f := &frame{}
	f.ctx.Context, f.ctx.SC = parent, sc
	forms := map[string]context.Context{"carrier": &trace.Carrier{Context: parent, SC: sc}, "frame": &f.ctx}
	for name, ctx := range forms {
		cancelled, cancel := context.WithCancel(ctx)
		cancel()
		for how, c := range map[string]context.Context{
			"direct": ctx, "value child": context.WithValue(ctx, "other", 1), "cancelled child": cancelled,
		} {
			if got, ok := trace.FromContext(c); !ok || got != sc {
				t.Errorf("%s, %s: FromContext = %+v, %v", name, how, got, ok)
			}
			if c.Value(key{}) != "below" {
				t.Errorf("%s, %s: the parent's value is hidden", name, how)
			}
		}
		if cancelled.Err() == nil || ctx.Err() != nil {
			t.Errorf("%s: cancelling a child: child %v, carrier %v", name, cancelled.Err(), ctx.Err())
		}
	}
	if _, ok := trace.FromContext(&trace.Carrier{Context: parent}); ok {
		t.Error("an empty span context reads back as valid")
	}
	if _, ok := trace.FromContext(parent); ok {
		t.Error("a context without a carrier has a span context")
	}
	live, cancel := context.WithCancel(forms["frame"])
	defer cancel()
	cancelParent()
	for name, ctx := range forms {
		if ctx.Err() == nil {
			t.Errorf("%s: the parent's cancellation does not reach the carrier", name)
		}
	}
	select {
	case <-live.Done():
	case <-time.After(5 * time.Second):
		t.Error("the parent's cancellation does not reach a child of the frame")
	}
}

// TestResponseControllerReachesTheConnection: behind the tracing frame,
// and behind a listening logger's own recorder on an untraced path, a
// handler's http.ResponseController still sets deadlines on the
// connection and flushes it.
func TestResponseControllerReachesTheConnection(t *testing.T) {
	errs := make(chan error, 2)
	listening := slog.New(slog.NewTextHandler(io.Discard, nil))
	h := withTracing(trace.NewTracer(trace.NewStore(trace.StoreOptions{})), withLogging(listening, withRecovery(listening,
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if _, ok := w.(*statusRecorder); !ok {
				t.Errorf("%s: the handler writes to a %T", r.URL.Path, w)
			}
			rc := http.NewResponseController(w)
			errs <- rc.SetWriteDeadline(time.Now().Add(time.Minute))
			errs <- rc.Flush()
		}))))
	ts := httptest.NewServer(h)
	defer ts.Close()
	for _, path := range []string{"/v1/chains", "/v1/watch"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if traced := resp.Header.Get("X-Trace-Id") != ""; traced == untraced(path) {
			t.Errorf("%s: traced %v", path, traced)
		}
		for _, what := range []string{"SetWriteDeadline", "Flush"} {
			if err := <-errs; err != nil {
				t.Errorf("%s: %s behind the middleware: %v", path, what, err)
			}
		}
	}
}

// TestWritePlaneUnderReads: four goroutines report link failures through
// the debouncer, flush it, drain the optimizer and recover the links
// while four others list, get, query traces and scrape, on four shards.
// Under -race, the proof for the request frames, the recycled trace
// entries, the posting lists' delta commits and the shared header
// values. Every answer is well-formed and the fleet ends whole.
func TestWritePlaneUnderReads(t *testing.T) {
	srv, arch, ids := bootFleet(t, 32, 4, alvc.WithFailureDebounce(time.Hour), alvc.WithOptimizer(alvc.OptimizerOptions{}))
	request := func(method, target string, want int) []byte {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, nil))
		if rec.Code != want {
			t.Errorf("%s %s: %d, want %d (%s)", method, target, rec.Code, want, rec.Body)
		}
		if rec.Header().Get("X-Trace-Id") == "" && !untraced(httptest.NewRequest(method, target, nil).URL.Path) {
			t.Errorf("%s %s: no X-Trace-Id", method, target)
		}
		return rec.Body.Bytes()
	}
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var listed []DeploymentJSON
				if err := json.Unmarshal(request("GET", "/v1/chains", http.StatusOK), &listed); err != nil || len(listed) != len(ids) {
					t.Errorf("list: %d chains, %v", len(listed), err)
					return
				}
				id := ids[(i*7+r)%len(ids)]
				var got DeploymentJSON
				if err := json.Unmarshal(request("GET", fmt.Sprintf("/v1/chains/%d", id), http.StatusOK), &got); err != nil || got.ID != int(id) {
					t.Errorf("get %d: id %d, %v", id, got.ID, err)
				}
				if body := request("GET", "/v1/traces?limit=20", http.StatusOK); !json.Valid(body) {
					t.Errorf("traces: %s", body)
				}
				if body := request("GET", "/metrics", http.StatusOK); !bytes.HasSuffix(body, []byte("\n")) {
					t.Errorf("scrape: %d bytes", len(body))
				}
			}
		}(r)
	}
	// The fabric's ToR↔OPS links by their ends, read once: the topology's
	// liveness bits are the writers' to change from here on.
	transit := make(map[[2]topology.NodeID]topology.LinkID)
	for _, l := range arch.Topology().Links() {
		if l.Kind == topology.LinkBoundary {
			transit[[2]topology.NodeID{l.From, l.To}], transit[[2]topology.NodeID{l.To, l.From}] = l.ID, l.ID
		}
	}
	// Writer w owns every fourth chain. A round cuts one link of its
	// chain — by turns the one the primary enters the fabric on, which the
	// flush repairs by a swap onto the standby, and the standby's own,
	// which costs the chain its standby alone — then drains the optimizer
	// (the chain is re-protected), recovers the link and drains again (the
	// standby is refreshed). Any writer's flush or drain may carry
	// another's work; each chain is still cut by its own writer alone.
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for round := 0; round < 12; round++ {
				id := ids[(w+4*round)%len(ids)]
				// Another writer's cut may have taken this chain's standby
				// since its last round: that writer's flush queues the
				// re-protect, and a drain — that writer's or this one — runs
				// it. Drain until the chain is protected again, a bounded
				// number of times.
				dep := arch.Deployment(id)
				for drains := 0; dep.Standby == nil && drains < 1000; drains++ {
					request("POST", "/v1/optimizer:run", http.StatusOK)
					dep = arch.Deployment(id)
				}
				if dep.Standby == nil {
					t.Errorf("chain %d entered round %d unprotected", dep.ID, round)
					return
				}
				path := dep.Path
				if round%2 == 1 {
					path = dep.Standby.Path
				}
				var cut topology.LinkID
				for i := 0; i+1 < len(path) && cut == 0; i++ {
					cut = transit[[2]topology.NodeID{path[i], path[i+1]}]
				}
				target := fmt.Sprintf("/v1/failures/links/%d", cut)
				request("POST", target, http.StatusAccepted)
				if _, err := arch.FlushFailures(); err != nil {
					t.Errorf("flush: %v", err)
				}
				request("POST", "/v1/optimizer:run", http.StatusOK)
				request("DELETE", target, http.StatusOK)
				request("POST", "/v1/optimizer:run", http.StatusOK)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	request("POST", "/v1/optimizer:run", http.StatusOK)
	for _, id := range ids {
		if dep := arch.Deployment(id); dep == nil || dep.State.String() != "active" || dep.Standby == nil {
			t.Errorf("chain %d left the storm %+v", id, dep)
		}
	}
}
