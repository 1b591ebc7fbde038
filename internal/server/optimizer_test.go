package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"github.com/alvc/alvc"
)

// TestOptimizerEndpointsRequireEngine: every optimizer endpoint maps
// to 404 when the architecture was built without WithOptimizer.
func TestOptimizerEndpointsRequireEngine(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, req := range []struct{ method, path string }{
		{"GET", "/v1/optimizer/status"},
		{"POST", "/v1/optimizer:run"},
		{"POST", "/v1/optimizer/pause"},
		{"POST", "/v1/optimizer/resume"},
	} {
		status, body := do(t, req.method, ts.URL+req.path, nil)
		if status != http.StatusNotFound {
			t.Fatalf("%s %s = %d (%s), want 404", req.method, req.path, status, body)
		}
	}
}

// TestOptimizerStatusAndPauseResume: the status endpoint reports queue
// state and the pause/resume endpoints flip it.
func TestOptimizerStatusAndPauseResume(t *testing.T) {
	ts, _ := newTestServerWith(t, wideConfig(24), alvc.WithOptimizer(alvc.OptimizerOptions{}))

	status, body := do(t, "GET", ts.URL+"/v1/optimizer/status", nil)
	if status != http.StatusOK {
		t.Fatalf("status: %d (%s)", status, body)
	}
	var st alvc.OptimizerStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("unmarshal status: %v", err)
	}
	if st.Paused || st.QueueDepth != 0 {
		t.Fatalf("fresh engine status = %+v", st)
	}
	if _, ok := st.Kinds["re-protect"]; !ok {
		t.Fatalf("status kinds = %v, want re-protect entry", st.Kinds)
	}

	if status, body = do(t, "POST", ts.URL+"/v1/optimizer/pause", nil); status != http.StatusOK {
		t.Fatalf("pause: %d (%s)", status, body)
	}
	_, body = do(t, "GET", ts.URL+"/v1/optimizer/status", nil)
	if err := json.Unmarshal(body, &st); err != nil || !st.Paused {
		t.Fatalf("status after pause = %+v (%v)", st, err)
	}
	if status, body = do(t, "POST", ts.URL+"/v1/optimizer/resume", nil); status != http.StatusOK {
		t.Fatalf("resume: %d (%s)", status, body)
	}
	_, body = do(t, "GET", ts.URL+"/v1/optimizer/status", nil)
	if err := json.Unmarshal(body, &st); err != nil || st.Paused {
		t.Fatalf("status after resume = %+v (%v)", st, err)
	}
}

// TestOptimizerRunReprotectsOverHTTP is the control-plane form of the
// acceptance flow: provision (standby health visible in the chain
// JSON), kill the standby's transit (repair drops it, the chain shows
// unprotected), POST /v1/optimizer:run (re-protects), recover + run
// again (disjoint once more).
func TestOptimizerRunReprotectsOverHTTP(t *testing.T) {
	// Fully dual-homed PMs: without a second ToR per PM no standby can
	// ever be transit-disjoint, and this test asserts disjointness.
	cfg := wideConfig(24)
	cfg.DualHomeFrac = 1.0
	ts, arch := newTestServerWith(t, cfg, alvc.WithOptimizer(alvc.OptimizerOptions{}))
	dep := provisionChain(t, ts.URL, "opt", "t-opt")

	// Standby health is part of the chain resource.
	status, body := do(t, "GET", fmt.Sprintf("%s/v1/chains/%d", ts.URL, dep.ID), nil)
	if status != http.StatusOK {
		t.Fatalf("get chain: %d (%s)", status, body)
	}
	var dj DeploymentJSON
	if err := json.Unmarshal(body, &dj); err != nil {
		t.Fatalf("unmarshal chain: %v", err)
	}
	if dj.Standby == nil {
		t.Fatalf("chain JSON has no standby block: %s", body)
	}
	if !dj.Standby.Disjoint || dj.Standby.LastReplanned.IsZero() {
		t.Fatalf("standby health = %+v, want disjoint with a plan timestamp", dj.Standby)
	}

	// Kill a standby-only transit node: the repair drops the standby
	// (async mode) and the chain reports unprotected.
	full := arch.Deployment(alvc.DeploymentID(dep.ID))
	var victim alvc.NodeID
	onPrimary := make(map[alvc.NodeID]bool)
	for _, n := range full.Path {
		onPrimary[n] = true
	}
	hosts := make(map[alvc.NodeID]bool)
	for _, h := range full.Placement.Hosts {
		hosts[h] = true
	}
	for _, n := range full.Standby.Path {
		if !onPrimary[n] && !hosts[n] && !full.Slice.Contains(n) {
			victim = n
			break
		}
	}
	if victim == 0 {
		t.Fatalf("no standby-only transit node (primary %v standby %v)", full.Path, full.Standby.Path)
	}
	if status, body = do(t, "POST", fmt.Sprintf("%s/v1/failures/%d", ts.URL, victim), nil); status != http.StatusOK {
		t.Fatalf("fail node: %d (%s)", status, body)
	}
	_, body = do(t, "GET", fmt.Sprintf("%s/v1/chains/%d", ts.URL, dep.ID), nil)
	dj = DeploymentJSON{}
	if err := json.Unmarshal(body, &dj); err != nil {
		t.Fatalf("unmarshal chain: %v", err)
	}
	if dj.Standby != nil {
		t.Fatalf("standby still reported after async restandby: %+v", dj.Standby)
	}

	// Drain the queue over HTTP: the chain is re-protected.
	status, body = do(t, "POST", ts.URL+"/v1/optimizer:run", nil)
	if status != http.StatusOK {
		t.Fatalf("run: %d (%s)", status, body)
	}
	var run OptimizerRunResponse
	if err := json.Unmarshal(body, &run); err != nil {
		t.Fatalf("unmarshal run: %v", err)
	}
	if run.Drained == 0 {
		t.Fatalf("run drained no tasks: %s", body)
	}
	_, body = do(t, "GET", fmt.Sprintf("%s/v1/chains/%d", ts.URL, dep.ID), nil)
	dj = DeploymentJSON{}
	if err := json.Unmarshal(body, &dj); err != nil {
		t.Fatalf("unmarshal chain: %v", err)
	}
	if dj.Standby == nil {
		t.Fatalf("chain not re-protected after optimizer run: %s", body)
	}

	// Recover the node, drain the refresh: disjoint protection returns
	// (the wide topology always offers a disjoint alternative).
	if status, body = do(t, "DELETE", fmt.Sprintf("%s/v1/failures/%d", ts.URL, victim), nil); status != http.StatusOK {
		t.Fatalf("recover node: %d (%s)", status, body)
	}
	if status, body = do(t, "POST", ts.URL+"/v1/optimizer:run", nil); status != http.StatusOK {
		t.Fatalf("run after recovery: %d (%s)", status, body)
	}
	_, body = do(t, "GET", fmt.Sprintf("%s/v1/chains/%d", ts.URL, dep.ID), nil)
	dj = DeploymentJSON{}
	if err := json.Unmarshal(body, &dj); err != nil {
		t.Fatalf("unmarshal chain: %v", err)
	}
	if dj.Standby == nil || !dj.Standby.Disjoint {
		t.Fatalf("standby after recovery run = %+v, want disjoint", dj.Standby)
	}
}

// TestStormAndDebounceObservabilityOverHTTP: a debounced failure burst
// queues one failure-domain group, and both the coalescing counters and
// the per-shard queue high-water marks are visible over the wire.
func TestStormAndDebounceObservabilityOverHTTP(t *testing.T) {
	ts, arch := newTestServerWith(t, wideConfig(24),
		alvc.WithOptimizer(alvc.OptimizerOptions{}),
		alvc.WithFailureDebounce(time.Hour))

	var hosts []alvc.NodeID
	for i := 0; i < 3; i++ {
		dep := provisionChain(t, ts.URL, fmt.Sprintf("storm-%d", i), "t-storm")
		full := arch.Deployment(alvc.DeploymentID(dep.ID))
		hosts = append(hosts, full.Placement.Hosts[0])
	}
	// Three per-host notifications in one window: one union batch, one
	// shared failure domain, every chain repaired exactly once.
	for _, h := range hosts {
		arch.Debouncer().Report(context.Background(), alvc.NewFailures([]alvc.NodeID{h}, nil))
	}
	reports, err := arch.FlushFailures()
	if err != nil {
		t.Fatalf("FlushFailures: %v", err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %+v, want one per chain", reports)
	}

	_, body := do(t, "GET", ts.URL+"/v1/optimizer/status", nil)
	st := mustUnmarshal[OptimizerStatusJSON](t, body)
	if st.Debounce == nil || st.Debounce.Events != 3 || st.Debounce.Batches != 1 || st.Debounce.Coalesced != 2 {
		t.Fatalf("debounce over HTTP = %+v, want Events=3 Batches=1 Coalesced=2", st.Debounce)
	}
	if st.GroupPlans.Groups != 1 || st.GroupPlans.Coalesced != 2 || st.QueueDepth == 0 {
		t.Fatalf("group plans over HTTP = %+v, queue depth %d; want one queued group of three", st.GroupPlans, st.QueueDepth)
	}

	if peak := scrapeSeries(t, ts.URL)["alvc_optimizer_queue_high_water"]; peak < 2 {
		t.Fatalf("optimizer queue high-water on /metrics = %v, want a recorded spike", peak)
	}

	// Draining over HTTP runs the group: one result per member.
	status, body := do(t, "POST", ts.URL+"/v1/optimizer:run", nil)
	if status != http.StatusOK {
		t.Fatalf("run: %d (%s)", status, body)
	}
	run := mustUnmarshal[OptimizerRunResponse](t, body)
	reprotects := 0
	for _, res := range run.Results {
		if res.Kind == "re-protect" {
			reprotects++
		}
	}
	if reprotects != 3 || run.Status.QueueDepth != 0 {
		t.Fatalf("drain ran %d re-protects, left %d queued; want one per chain and none: %s", reprotects, run.Status.QueueDepth, body)
	}
}

// TestOptimizerStatusBytesWithAndWithoutDebouncer: GET
// /v1/optimizer/status carries the failure debouncer's counters, read
// from the debouncer itself, between group_plans and last_results — an
// empty report uncounted, two reports in one window one batch with one
// coalesced — and no debounce object without a debouncer. Byte for byte.
func TestOptimizerStatusBytesWithAndWithoutDebouncer(t *testing.T) {
	const engine = `{"paused":false,"queue_depth":0,"queue_high_water":0,"running":0,"kinds":{` +
		`"lambda-defrag":{"enqueued":0,"deduped":0,"completed":0,"requeued":0,"skipped":0,"cancelled":0,"failed":0},` +
		`"re-home":{"enqueued":0,"deduped":0,"completed":0,"requeued":0,"skipped":0,"cancelled":0,"failed":0},` +
		`"re-protect":{"enqueued":0,"deduped":0,"completed":0,"requeued":0,"skipped":0,"cancelled":0,"failed":0},` +
		`"refresh":{"enqueued":0,"deduped":0,"completed":0,"requeued":0,"skipped":0,"cancelled":0,"failed":0}},` +
		`"queue_shed":0,"group_plans":{"groups":0,"coalesced":0,"planned":0,"fallbacks":0}`
	for _, tc := range []struct {
		name string
		opts []alvc.Option
		want string
	}{
		{"no debouncer", nil, engine + `,"last_results":null}` + "\n"},
		{"debouncer", []alvc.Option{alvc.WithFailureDebounce(time.Hour)},
			engine + `,"debounce":{"events":2,"batches":1,"coalesced":1},"last_results":null}` + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts, arch := newTestServerWith(t, wideConfig(24), append(tc.opts, alvc.WithOptimizer(alvc.OptimizerOptions{}))...)
			if arch.Debouncer() != nil {
				arch.Debouncer().Report(context.Background(), alvc.NewFailures(nil, nil)) // empty: not counted
				arch.Debouncer().Report(context.Background(), alvc.NewFailures([]alvc.NodeID{99990}, nil))
				arch.Debouncer().Report(context.Background(), alvc.NewFailures([]alvc.NodeID{99991}, nil))
				if _, err := arch.FlushFailures(); err == nil {
					t.Fatal("unknown-node batch should error")
				}
			}
			status, body := do(t, "GET", ts.URL+"/v1/optimizer/status", nil)
			if status != http.StatusOK || string(body) != tc.want {
				t.Fatalf("status %d body\n%s\nwant\n%s", status, body, tc.want)
			}
		})
	}
}
