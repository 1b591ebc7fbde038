package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/chain"
)

// tracedCycleExtra is what tracing may add to the allocations of a
// provision and its delete through the full middleware, into a store
// that is not yet full (no freed entry to reuse): two frames, two trace
// IDs, the provision's carrier, two entries with their record arrays,
// the chain index's ring and the trace's list of chains, and the
// store's maps and order growing. 13 measured; a store committing each
// span on its own added 20.
const tracedCycleExtra = 14

// TestTracedCycleAllocations: a provision and its delete through the
// full middleware allocate at most tracedCycleExtra more with tracing on
// than with WithTracing(nil), and each of the two requests reaches the
// store in one insert — the provision's ten spans (request, provision,
// eight stages) and the delete's two.
func TestTracedCycleAllocations(t *testing.T) {
	traced, arch, _ := bootFleet(t, 0, 1)
	untraced, _, _ := bootFleet(t, 0, 1, alvc.WithTracing(nil))
	body := specBody("cycle", "tenant-c", "web", "firewall", "lb")
	cycle := func(srv *Server) func() {
		return func() {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/chains", bytes.NewReader(body)))
			var dep struct {
				ID int `json:"id"`
			}
			if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &dep) != nil {
				t.Fatalf("provision: %d %s", rec.Code, rec.Body)
			}
			rec = httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("DELETE", fmt.Sprintf("/v1/chains/%d", dep.ID), nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("delete %d: %d %s", dep.ID, rec.Code, rec.Body)
			}
		}
	}
	for i := 0; i < 3; i++ { // pools, caches and the store's spare entries warm up
		cycle(traced)()
		cycle(untraced)()
	}
	before := arch.TraceStore().Stats()
	cycle(traced)()
	after := arch.TraceStore().Stats()
	if commits, spans := after.Commits-before.Commits, after.SpansRecorded-before.SpansRecorded; commits != 2 || spans != 12 {
		t.Fatalf("a cycle reached the store in %d inserts of %d spans, want 2 of 12", commits, spans)
	}
	on, off := testing.AllocsPerRun(50, cycle(traced)), testing.AllocsPerRun(50, cycle(untraced))
	t.Logf("a provision+delete cycle: %.0f allocations traced, %.0f untraced (ceiling +%d)", on, off, tracedCycleExtra)
	if on-off > tracedCycleExtra && !raceEnabled {
		t.Errorf("tracing adds %.0f allocations a cycle, ceiling %d", on-off, tracedCycleExtra)
	}
}

// TestTraceCommitsUnderConcurrentReaders runs the store's writers and
// readers at once: ProvisionBatch workers each committing a batch item's
// trace, a failure report whose request trace commits and is then
// continued by the debounce flush's repairs (their spans appended from
// the pool's workers into the flush's one buffer), and readers of
// GET /v1/traces and GET /v1/traces/{id}. Afterwards every trace is
// whole: each batch item its own trace of nine spans, the report's
// trace its request span followed by the flush's tree, one insert per
// operation. Run it with -race -count=10.
func TestTraceCommitsUnderConcurrentReaders(t *testing.T) {
	srv, arch, ids := bootFleet(t, 8, 2, alvc.WithFailureDebounce(time.Hour), alvc.WithBatchWorkers(2))
	st := arch.TraceStore()
	node := arch.Deployment(ids[3]).Path[2]
	specs := make([]alvc.Spec, 12)
	for i := range specs {
		spec, err := chain.Linear(fmt.Sprintf("batch-%d", i), fmt.Sprintf("tenant-b%d", i), "web", 2, 1<<20, "firewall", "lb")
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		specs[i] = spec
	}
	before := st.Stats()

	var results []alvc.BatchResult
	var reports []alvc.RepairReport
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	writers.Add(2)
	go func() {
		defer writers.Done()
		results = arch.DeployBatch(specs)
	}()
	go func() {
		defer writers.Done()
		req := httptest.NewRequest("POST", fmt.Sprintf("/v1/failures/%d", node), nil)
		req.Header.Set("X-Trace-Id", "storm-1")
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			t.Errorf("report: %d %s", rec.Code, rec.Body)
			return
		}
		var err error
		if reports, err = arch.FlushFailures(); err != nil {
			t.Errorf("flush: %v", err)
		}
	}()
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for _, target := range []string{"/v1/traces", "/v1/traces/storm-1", "/v1/traces?kind=provision"} {
				for {
					rec := httptest.NewRecorder()
					srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
					if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
						t.Errorf("GET %s: %d %s", target, rec.Code, rec.Body)
					}
					select {
					case <-done:
					default:
						continue
					}
					break
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	if t.Failed() {
		return
	}

	seen := map[string]bool{}
	spans := uint64(0)
	for i, res := range results {
		if res.Err != nil {
			continue // a provision that lost its VMs to the failure: still its own trace, shorter
		}
		// The flush may have repaired the item too: storm-1 then indexes it.
		sums := slices.DeleteFunc(st.ChainTraces(int(res.Deployment.ID)), func(s alvc.TraceSummary) bool { return s.ID == "storm-1" })
		if len(sums) != 1 || sums[0].Kind != "provision" || sums[0].Spans != 9 || seen[sums[0].ID] {
			t.Fatalf("batch item %d's traces: %+v, want one provision trace of 9 spans of its own", i, sums)
		}
		seen[sums[0].ID] = true
	}
	for _, sum := range st.Traces(alvc.TraceQuery{Limit: 1 << 20}) {
		spans += uint64(sum.Spans)
	}
	trace, _, ok := st.Trace("storm-1")
	if !ok || len(trace) < 2 || trace[0].Kind != "http" || trace[0].Parent != 0 {
		t.Fatalf("storm-1 = %+v, want the report's request span first", trace)
	}
	flush := trace[len(trace)-1]
	if flush.Kind != "batch" || flush.Parent != trace[0].SpanID {
		t.Fatalf("storm-1 ends with %+v, want the flush under the request span", flush)
	}
	inFlush := map[uint64]bool{uint64(flush.SpanID): true}
	for i := len(trace) - 2; i > 0; i-- { // children end before their parents
		if sp := trace[i]; sp.Kind == "repair" && sp.Parent == flush.SpanID {
			inFlush[uint64(sp.SpanID)] = true
		}
	}
	for _, sp := range trace[1:] {
		if !inFlush[uint64(sp.Parent)] && sp.SpanID != flush.SpanID {
			t.Fatalf("storm-1 span %+v hangs off neither the flush nor one of its repairs", sp)
		}
	}
	if repairs := len(inFlush) - 1; repairs != len(reports) {
		t.Fatalf("storm-1 holds %d repair spans, the flush reported %d", repairs, len(reports))
	}
	after := st.Stats()
	t.Logf("%d batch items, %d repairs in the flush, storm-1 of %d spans, %d spans live", len(results), len(reports), len(trace), spans)
	if got, want := after.Commits-before.Commits, uint64(len(specs)+2); got != want {
		t.Fatalf("%d inserts, want %d: one per batch item, the report's request, the flush", got, want)
	}
	if after.LiveSpans != int(spans) || after.SpansRecorded-before.SpansRecorded+uint64(before.LiveSpans) != spans {
		t.Fatalf("stats %+v against %d spans listed", after, spans)
	}
}
