package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/telemetry"
	"github.com/alvc/alvc/internal/topology"
)

// TestMetricsEndpoint checks the scrape surface end to end: valid
// content type, at least 20 families, each announced exactly once.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)

	status, body := do(t, "POST", ts.URL+"/v1/chains", specBody("c1", "t1", "web", "firewall", "lb"))
	if status != http.StatusCreated {
		t.Fatalf("provision: %d (%s)", status, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type %q", ct)
	}
	seen := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		fam := strings.Fields(line)[2]
		if seen[fam] {
			t.Errorf("family %q announced twice", fam)
		}
		seen[fam] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(seen) < 20 {
		t.Fatalf("only %d metric families, want >= 20", len(seen))
	}
	for _, fam := range []string{
		"alvc_orch_provisions_total",
		"alvc_optimizer_queue_depth",
		"alvc_sdn_path_computations_total",
		"alvc_resilience_standby_chains",
		"alvc_optical_lambda_occupancy_ratio",
	} {
		if !seen[fam] {
			t.Errorf("family %q missing", fam)
		}
	}
}

// newTelemetryServer is newTestServer plus access to the *Server, so
// telemetry tests can reach the plane behind the handler.
func newTelemetryServer(t *testing.T, opts ...alvc.Option) (*httptest.Server, *Server) {
	t.Helper()
	cfg := alvc.DefaultTopology()
	cfg.Racks = 8
	cfg.OPSCount = 24
	cfg.ToRUplinks = 16
	cfg.OPSChords = 2
	arch, err := alvc.New(cfg, opts...)
	if err != nil {
		t.Fatalf("alvc.New: %v", err)
	}
	srv, err := New(arch)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// TestWatchStreamsRepairDuringFailure opens /v1/watch before injecting
// a failure and asserts the repair event arrives over the live stream.
func TestWatchStreamsRepairDuringFailure(t *testing.T) {
	ts, srv := newTelemetryServer(t)

	status, body := do(t, "POST", ts.URL+"/v1/chains", specBody("c1", "t1", "web", "firewall", "lb"))
	if status != http.StatusCreated {
		t.Fatalf("provision: %d (%s)", status, body)
	}
	dep := mustUnmarshal[DeploymentJSON](t, body)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/watch", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /v1/watch: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}

	// Wait for the stream's hub subscription, then inject the failure.
	hub := srv.Telemetry().WatchHandler().(*telemetry.Hub)
	deadline := time.Now().Add(5 * time.Second)
	for hub.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watch subscription never registered")
		}
		time.Sleep(time.Millisecond)
	}
	status, body = do(t, "POST", fmt.Sprintf("%s/v1/failures/%d", ts.URL, dep.SliceOPSs[0]), nil)
	if status != http.StatusOK {
		t.Fatalf("fail node: %d (%s)", status, body)
	}

	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if sc.Text() == "event: repair-completed" {
			return
		}
	}
	t.Fatalf("stream ended without a repair-completed event (scan err: %v)", sc.Err())
}

// TestDebouncedFailuresReturn202 covers the debounced route: failure
// posts are accepted (202) into the pending union, repairs run at
// flush, and the flush histogram records the batch.
func TestDebouncedFailuresReturn202(t *testing.T) {
	ts, arch := newTestServer(t, alvc.WithFailureDebounce(time.Hour))

	status, body := do(t, "POST", ts.URL+"/v1/chains", specBody("c1", "t1", "web", "firewall", "lb"))
	if status != http.StatusCreated {
		t.Fatalf("provision: %d (%s)", status, body)
	}
	dep := mustUnmarshal[DeploymentJSON](t, body)

	status, body = do(t, "POST", fmt.Sprintf("%s/v1/failures/%d", ts.URL, dep.SliceOPSs[0]), nil)
	if status != http.StatusAccepted {
		t.Fatalf("fail node: got %d, want 202 (%s)", status, body)
	}
	acc := mustUnmarshal[FailureAcceptedResponse](t, body)
	if !acc.Accepted || acc.PendingNodes != 1 {
		t.Fatalf("unexpected accepted response: %+v", acc)
	}

	// A second report (a distinct node) coalesces into the armed window.
	other := topology.NodeID(0)
	for _, id := range arch.Topology().NodeIDs(topology.KindOPS) {
		if id != dep.SliceOPSs[0] {
			other = id
			break
		}
	}
	batch := fmt.Sprintf(`{"nodes":[%d]}`, other)
	status, body = do(t, "POST", ts.URL+"/v1/failures:batch", []byte(batch))
	if status != http.StatusAccepted {
		t.Fatalf("batch: got %d, want 202 (%s)", status, body)
	}
	if acc = mustUnmarshal[FailureAcceptedResponse](t, body); acc.PendingNodes != 2 {
		t.Fatalf("pending nodes %d, want 2", acc.PendingNodes)
	}

	// Unknown IDs are still rejected up front, debounced or not.
	status, body = do(t, "POST", ts.URL+"/v1/failures/999999", nil)
	if status != http.StatusNotFound {
		t.Fatalf("unknown node: got %d, want 404 (%s)", status, body)
	}

	reports, err := arch.FlushFailures()
	if err != nil || len(reports) == 0 {
		t.Fatalf("flush: reports=%d err=%v", len(reports), err)
	}
	if stats := arch.Debouncer().Stats(); stats.Batches != 1 || stats.Events != 2 {
		t.Fatalf("debounce stats: %+v", stats)
	}

	_, metrics := do(t, "GET", ts.URL+"/metrics", nil)
	for _, want := range []string{
		"alvc_orch_debounce_batches_total 1",
		"alvc_orch_debounce_events_total 2",
		"alvc_orch_debounce_flush_seconds_count 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("missing %q in exposition", want)
		}
	}
}

// TestWatchStreamEndsWithTheBaseContext: an open /v1/watch stream on a
// server whose base context is cancelled ends — its body reaches EOF —
// and Shutdown then returns without waiting on it, as alvc-server's
// signal path does (cancel the base context, then Shutdown). No clock:
// Shutdown gets a context that never expires.
func TestWatchStreamEndsWithTheBaseContext(t *testing.T) {
	arch, err := alvc.New(wideConfig(4))
	if err != nil {
		t.Fatalf("alvc.New: %v", err)
	}
	srv, err := New(arch)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.BaseContext = func(net.Listener) context.Context { return base }
	ts.Start()
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/watch")
	if err != nil {
		t.Fatalf("GET /v1/watch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/watch = %d", resp.StatusCode)
	}
	hub := srv.Telemetry().WatchHandler().(*telemetry.Hub)
	if n := hub.Subscribers(); n != 1 {
		t.Fatalf("watch subscribers = %d, want the open stream", n)
	}
	cancel()
	if body, err := io.ReadAll(resp.Body); err != nil || len(body) != 0 {
		t.Fatalf("stream after cancel: %q, %v; want EOF with no event", body, err)
	}
	if n := hub.Subscribers(); n != 0 {
		t.Fatalf("watch subscribers = %d after the stream ended, want 0", n)
	}
	if err := ts.Config.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}
