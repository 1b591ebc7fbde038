package trace

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"
)

// TestStoreRecyclesWithoutAliasing: a freed trace's entry and record
// array serve the next new trace, and nothing handed out before the trace was
// freed — a Trace copy, a summary — changes when they do.
func TestStoreRecyclesWithoutAliasing(t *testing.T) {
	st := NewStore(StoreOptions{RecentPerKind: 2, SlowestN: 1, ChainDepth: 1})
	first := mkSpan("t-0", 1, 0, KindProvision, time.Millisecond)
	first.Dep, first.Attrs = 5, []Attr{{Key: "k", Value: "v"}}
	st.add(first)
	st.add(mkSpan("t-0", 2, 1, KindStage, time.Microsecond))
	spans, _, ok := st.Trace("t-0")
	if !ok || len(spans) != 2 {
		t.Fatalf("Trace(t-0) = %d spans, %v", len(spans), ok)
	}
	sums := st.ChainTraces(5)
	before, sumBefore := append([]Span(nil), spans...), append([]Summary(nil), sums...)
	held := st.traces["t-0"]

	// Slower roots on the same chain push t-0 out of the ring, the
	// slowest set and the chain's index: it is freed, and reused.
	for i := 1; i <= 4; i++ {
		sp := mkSpan(fmt.Sprintf("t-%d", i), SpanID(10+i), 0, KindProvision, time.Duration(i+1)*time.Millisecond)
		sp.Dep = 5
		st.add(sp)
	}
	if _, _, ok := st.Trace("t-0"); ok {
		t.Fatal("t-0 is still retained")
	}
	reused := false
	for _, e := range st.traces {
		reused = reused || e == held
	}
	if !reused && !slices.Contains(st.spare, held) {
		t.Fatal("t-0's entry was neither reused nor kept for reuse")
	}
	if !reflect.DeepEqual(spans, before) || !reflect.DeepEqual(sums, sumBefore) {
		t.Fatalf("copies taken before the eviction changed:\n%+v\n%+v", spans, sums)
	}
	for id, e := range st.traces {
		if e.id != id || len(e.recs) != 1 || e.recs[0].span(id).TraceID != id || e.dropped != 0 || e.errored {
			t.Errorf("trace %s is held as %+v", id, e)
		}
	}
	if n := len(st.spare); n > maxSpareEntries {
		t.Errorf("%d spare entries, bound %d", n, maxSpareEntries)
	}
	for _, e := range st.spare {
		if e.id != "" || len(e.recs) != 0 || cap(e.recs) > maxSpareSpans || e.refs != 0 {
			t.Errorf("a spare entry is not blank: %+v", e)
		}
		for _, r := range e.recs[:cap(e.recs)] {
			if r.name != "" || r.attrs != nil {
				t.Errorf("a spare record array still holds %+v", r)
			}
		}
	}
}

// BenchmarkStoreAddSteadyState records single-span traces into a full
// store: each admits one trace and frees another, whose entry and
// record array it takes over. 0 allocs/op.
func BenchmarkStoreAddSteadyState(b *testing.B) {
	st := NewStore(StoreOptions{})
	ids := make([]string, 4096) // a repeat comes long after its first use was freed
	for i := range ids {
		ids[i] = fmt.Sprintf("t-%d", i)
	}
	sp := mkSpan("", 1, 0, KindHTTP, time.Millisecond)
	add := func(i int) {
		sp.TraceID, sp.SpanID = ids[i%len(ids)], SpanID(i+1)
		st.add(sp)
	}
	for i := 0; i < 2*len(ids); i++ {
		add(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		add(i)
	}
}

// BenchmarkStoreCommit records churn-shaped cycles into a full store the
// way the server and the orchestrator do: a provision request (the
// request's span, the provision nested in it, eight stages under the
// provision) and the chain's delete request (the request, the delete),
// each request's spans in one insert. An op is one cycle: 12 spans, 2
// inserts, 2 new traces, a chain indexed and dropped.
func BenchmarkStoreCommit(b *testing.B) {
	tr := NewTracer(NewStore(StoreOptions{}))
	stages := []string{"cluster", "slice", "placement", "instantiate", "path", "standby", "wdm", "rules"}
	attrs := []Attr{{Key: "status", Value: "201"}}
	ctx := context.Background()
	cycle := func(dep int) {
		t0 := time.Now()
		req, prov := new(Carrier), new(Carrier)
		tr.Begin(req, ctx, SpanContext{})
		tr.Begin(prov, req, req.SC)
		for _, s := range stages {
			tr.RecordChild(prov.SC, s, KindStage, t0, time.Microsecond, nil)
		}
		tr.End(prov, Span{Parent: req.SC.SpanID, Name: "provision", Kind: KindProvision, Start: t0, End: t0.Add(time.Millisecond), Dep: dep})
		tr.EndRequest(req, "POST", Span{Name: "/v1/chains", Kind: KindHTTP, Start: t0, End: t0.Add(time.Millisecond), Attrs: attrs})
		del := new(Carrier)
		tr.Begin(del, ctx, SpanContext{})
		tr.Record(tr.Start(del.SC), Span{Parent: del.SC.SpanID, Name: "delete", Kind: KindDelete, Start: t0, End: t0.Add(time.Microsecond), Dep: dep})
		tr.EndRequest(del, "DELETE", Span{Name: "/v1/chains/1", Kind: KindHTTP, Start: t0, End: t0.Add(time.Millisecond), Attrs: attrs})
	}
	for i := 0; i < 4096; i++ { // fill the rings: from here each cycle frees what it admits
		cycle(i + 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(i + 1)
	}
}
