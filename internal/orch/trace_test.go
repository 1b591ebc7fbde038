package orch

import (
	"context"
	"testing"
	"time"

	"github.com/alvc/alvc/internal/topology"
	"github.com/alvc/alvc/internal/trace"
)

func newTestTracer() *trace.Tracer {
	return trace.NewTracer(trace.NewStore(trace.StoreOptions{}))
}

// carrier returns ctx carrying sc.
func carrier(ctx context.Context, sc trace.SpanContext) context.Context {
	return &trace.Carrier{Context: ctx, SC: sc}
}

// TestProvisionTraceStageSpans: a traced provision records one
// "provision" span under the caller's span, with one child span per
// executed pipeline stage.
func TestProvisionTraceStageSpans(t *testing.T) {
	s, _ := newOrch(t)
	tr := newTestTracer()
	s.UpdateHooks(func(h *Hooks) { h.Tracer = tr })

	root := tr.Start(trace.SpanContext{TraceID: "prov-1"})
	dep, err := s.Provision(carrier(context.Background(), root), webSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	spans, dropped, ok := tr.Store().Trace("prov-1")
	if !ok || dropped != 0 {
		t.Fatalf("Trace(prov-1) = (%d spans, %d dropped, %v)", len(spans), dropped, ok)
	}
	var prov *trace.Span
	for i := range spans {
		if spans[i].Kind == trace.KindProvision {
			prov = &spans[i]
		}
	}
	if prov == nil {
		t.Fatalf("no provision span in %+v", spans)
	}
	if prov.Parent != root.SpanID || prov.Dep != int(dep.ID) || prov.Err != "" {
		t.Fatalf("provision span = %+v, want child of %d for deployment %d", prov, root.SpanID, dep.ID)
	}
	stages := map[string]bool{}
	for _, sp := range spans {
		if sp.Kind == trace.KindStage {
			if sp.Parent != prov.SpanID {
				t.Fatalf("stage %q parented under %d, want provision span %d", sp.Name, sp.Parent, prov.SpanID)
			}
			stages[sp.Name] = true
		}
	}
	want := []string{"cluster", "slice", "placement", "instantiate", "path", "standby", "wdm", "rules"}
	if len(stages) != len(want) {
		t.Fatalf("stage spans = %v, want %v", stages, want)
	}
	for _, name := range want {
		if !stages[name] {
			t.Fatalf("missing stage span %q in %v", name, stages)
		}
	}

	// The provision trace is reachable through the chain index.
	chains := tr.Store().ChainTraces(int(dep.ID))
	if len(chains) != 1 || chains[0].ID != "prov-1" {
		t.Fatalf("ChainTraces = %+v, want [prov-1]", chains)
	}
}

// TestUntracedProvisionRecordsNothing: without a tracer attached the
// same entry points leave the store untouched (and there is no store
// to touch — the orchestrator's tracer is nil).
func TestUntracedProvisionRecordsNothing(t *testing.T) {
	s, _ := newOrch(t)
	if _, err := s.Provision(context.Background(), webSpec(t, "chain-1")); err != nil {
		t.Fatalf("Provision: %v", err)
	}
	// Attach a tracer after the fact: the earlier provision must not
	// have queued anything into it.
	tr := newTestTracer()
	s.UpdateHooks(func(h *Hooks) { h.Tracer = tr })
	if stats := tr.Store().Stats(); stats.SpansRecorded != 0 {
		t.Fatalf("stats = %+v, want empty store", stats)
	}
}

// TestDebouncedStormBatchSpanLinksParents is the exactly-once causal
// chain across the debouncer: two failure reports from two different
// traces coalesce into one flush whose batch span continues the first
// report's trace and links the second, and the single repair it
// triggers records exactly one repair span inside that same trace.
func TestDebouncedStormBatchSpanLinksParents(t *testing.T) {
	s, _, ids := triOrch(t, Config{})
	tr := newTestTracer()
	s.UpdateHooks(func(h *Hooks) { h.Tracer = tr })
	dep, err := s.Provision(bg, triSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}

	d := NewFailureDebouncer(s, time.Hour)
	ctxA := carrier(context.Background(), tr.Start(trace.SpanContext{TraceID: "report-a"}))
	ctxB := carrier(context.Background(), tr.Start(trace.SpanContext{TraceID: "report-b"}))
	d.Report(ctxA, topology.NewFailures(nil, []topology.LinkID{ids.torOpsLinks[0][0]}))
	d.Report(ctxB, topology.NewFailures(nil, []topology.LinkID{ids.torOpsLinks[0][1]}))

	reports, err := d.Flush()
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if len(reports) != 1 || reports[0].ID != dep.ID {
		t.Fatalf("reports = %+v, want exactly one for deployment %d", reports, dep.ID)
	}
	if reports[0].TraceID != "report-a" {
		t.Fatalf("report trace = %q, want the batch's trace report-a", reports[0].TraceID)
	}

	spans, _, ok := tr.Store().Trace("report-a")
	if !ok {
		t.Fatal("batch trace report-a not in store")
	}
	var batch, repair *trace.Span
	repairs := 0
	for i := range spans {
		switch spans[i].Kind {
		case trace.KindBatch:
			batch = &spans[i]
		case trace.KindRepair:
			repair = &spans[i]
			repairs++
		}
	}
	if batch == nil {
		t.Fatalf("no batch span in %+v", spans)
	}
	if len(batch.Links) != 1 || batch.Links[0] != "report-b" {
		t.Fatalf("batch links = %v, want [report-b]", batch.Links)
	}
	if repairs != 1 {
		t.Fatalf("repair spans = %d, want exactly 1 (exactly-once repair)", repairs)
	}
	if repair.Parent != batch.SpanID || repair.Dep != int(dep.ID) {
		t.Fatalf("repair span = %+v, want child of batch %d for deployment %d", repair, batch.SpanID, dep.ID)
	}
	if repair.TraceID != reports[0].TraceID || repair.SpanID != reports[0].SpanID {
		t.Fatalf("report identity (%s,%d) != repair span (%s,%d)",
			reports[0].TraceID, reports[0].SpanID, repair.TraceID, repair.SpanID)
	}
}

// TestReportWithoutSpanStaysUnparented: reports arriving without a
// span in their context flush under a fresh trace with no links.
func TestReportWithoutSpanStaysUnparented(t *testing.T) {
	s, _, ids := triOrch(t, Config{})
	tr := newTestTracer()
	s.UpdateHooks(func(h *Hooks) { h.Tracer = tr })
	if _, err := s.Provision(bg, triSpec(t, "chain-1")); err != nil {
		t.Fatalf("Provision: %v", err)
	}
	d := NewFailureDebouncer(s, time.Hour)
	d.Report(bg, topology.NewFailures(nil, []topology.LinkID{ids.torOpsLinks[0][0]}))
	if _, err := d.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	sums := tr.Store().Traces(trace.Query{Kind: trace.KindBatch})
	if len(sums) != 1 {
		t.Fatalf("batch traces = %+v, want one fresh trace", sums)
	}
	spans, _, _ := tr.Store().Trace(sums[0].ID)
	for _, sp := range spans {
		if sp.Kind == trace.KindBatch && (sp.Parent != 0 || len(sp.Links) != 0) {
			t.Fatalf("unparented batch span = %+v, want root with no links", sp)
		}
	}
}

// TestSingleNodeFailureJoinsRequestTrace: one dead node through the one
// failure entry point, under a request's span, records its repair span
// as that span's child and stamps the report with the repair span's
// identity — what the per-resource context forms used to promise.
func TestSingleNodeFailureJoinsRequestTrace(t *testing.T) {
	s, _, ids := triOrch(t, Config{})
	tr := newTestTracer()
	s.UpdateHooks(func(h *Hooks) { h.Tracer = tr })
	dep, err := s.Provision(bg, triSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	root := tr.Start(trace.SpanContext{TraceID: "fail-1"})
	reports, err := s.HandleFailures(carrier(bg, root), topology.NewFailures([]topology.NodeID{ids.tors[0][0]}, nil))
	if err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	if len(reports) != 1 || reports[0].ID != dep.ID || reports[0].Action != ActionSwapped {
		t.Fatalf("reports = %+v, want one swap of deployment %d", reports, dep.ID)
	}
	if reports[0].TraceID != "fail-1" {
		t.Fatalf("report trace = %q, want the request's trace fail-1", reports[0].TraceID)
	}
	spans, _, ok := tr.Store().Trace("fail-1")
	if !ok {
		t.Fatal("request trace fail-1 not in store")
	}
	var repair *trace.Span
	stages := 0
	for i := range spans {
		switch spans[i].Kind {
		case trace.KindRepair:
			repair = &spans[i]
		case trace.KindStage:
			stages++
		}
	}
	if repair == nil || repair.Parent != root.SpanID || repair.Dep != int(dep.ID) {
		t.Fatalf("repair span = %+v, want a child of the request span %d for deployment %d", repair, root.SpanID, dep.ID)
	}
	if repair.SpanID != reports[0].SpanID {
		t.Fatalf("report span %d != repair span %d", reports[0].SpanID, repair.SpanID)
	}
	if stages != 2 { // a swap re-enters at wdm: wdm, rules
		t.Fatalf("stage spans = %d, want the swap's 2", stages)
	}
}

// TestTracedOperationsCommitOnce counts inserts into the trace store: a
// traced provision's nine spans — its own and its eight stages' — reach
// it in one; inside an operation that buffers (a server request), none
// until that operation ends, and then the request's ten spans in one; a
// delete, and a failure report's repair with its stages, in one each.
func TestTracedOperationsCommitOnce(t *testing.T) {
	var st *trace.Store
	var last trace.Stats
	step := func(what string, commits, spans uint64) {
		t.Helper()
		now := st.Stats()
		if now.Commits-last.Commits != commits || now.SpansRecorded-last.SpansRecorded != spans {
			t.Fatalf("%s: %d inserts of %d spans, want %d of %d", what,
				now.Commits-last.Commits, now.SpansRecorded-last.SpansRecorded, commits, spans)
		}
		last = now
	}

	s, _ := newOrch(t)
	tr := newTestTracer()
	s.UpdateHooks(func(h *Hooks) { h.Tracer = tr })
	st = tr.Store()
	dep, err := s.Provision(bg, webSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	step("provision", 1, 9)
	if _, err := s.Delete(bg, dep.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	step("delete", 1, 1)

	var req trace.Carrier
	tr.Begin(&req, bg, trace.SpanContext{})
	if _, err := s.Provision(&req, webSpec(t, "chain-1")); err != nil {
		t.Fatalf("Provision under a request: %v", err)
	}
	step("provision inside a request", 0, 0)
	tr.End(&req, trace.Span{Name: "request", Kind: trace.KindHTTP, Start: time.Now(), End: time.Now()})
	step("the request's end", 1, 10)
	spans, _, _ := st.Trace(req.SC.TraceID)
	if len(spans) != 10 || spans[9].Parent != 0 || spans[8].Kind != trace.KindProvision || spans[8].Parent != req.SC.SpanID {
		t.Fatalf("request trace = %+v, want 8 stages, the provision under the request, the request last", spans)
	}

	s, _, ids := triOrch(t, Config{})
	if _, err := s.Provision(bg, triSpec(t, "chain-1")); err != nil {
		t.Fatalf("Provision: %v", err)
	}
	s.UpdateHooks(func(h *Hooks) { h.Tracer = tr })
	last = st.Stats()
	root := tr.Start(trace.SpanContext{TraceID: "fail-1"})
	reports, err := s.HandleFailures(carrier(bg, root), topology.NewFailures([]topology.NodeID{ids.tors[0][0]}, nil))
	if err != nil || len(reports) != 1 {
		t.Fatalf("HandleFailures = %+v, %v", reports, err)
	}
	step("a repair under an unbuffered span", 1, 3) // a swap: wdm, rules, the repair
}
