package trace

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestStoreRecyclesWithoutAliasing: a freed trace's entry serves the next
// new trace and its record array is kept for the next, cleared, and
// nothing handed out before the trace was freed — a Trace copy, a
// summary — changes when they are reused.
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
	heldRecs := held.recs[:cap(held.recs)]

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
	gone := mkSpan("t-5", 20, 0, KindDelete, time.Microsecond)
	gone.Dep = 5
	st.add(gone) // chain 5 is deleted: its index's ring is kept for the next chain
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
	// t-0's array is either kept, cleared, or a live trace's.
	owner := ""
	for id, e := range st.traces {
		if e.id != id || len(e.recs) != 1 || e.recs[0].span(id).TraceID != id || e.dropped != 0 || e.errored {
			t.Errorf("trace %s is held as %+v", id, e)
		}
		if !slices.Contains(spanSpares.caps, cap(e.recs)) {
			t.Errorf("trace %s holds an array of %d records, not a class's", id, cap(e.recs))
		}
		if &e.recs[:1][0] == &heldRecs[0] {
			owner = id
		}
	}
	for i, r := range heldRecs {
		if owner == "" || i > 0 {
			if r.name != "" || r.attrs != nil || r.more != nil {
				t.Errorf("t-0's array still holds %+v at %d (held by %q)", r, i, owner)
			}
		}
	}
	if n := len(st.spare); n > maxSpareEntries {
		t.Errorf("%d spare entries, bound %d", n, maxSpareEntries)
	}
	for _, e := range st.spare {
		if e.id != "" || e.recs != nil || e.deps != nil || e.refs != 0 {
			t.Errorf("a spare entry is not blank: %+v", e)
		}
	}
	if n := len(st.spareDeps); n == 0 || n > maxSpareEntries {
		t.Errorf("%d spare chain rings after chain 5 was deleted, want 1 to %d", n, maxSpareEntries)
	}
	for _, x := range st.spareDeps {
		if x.r.Len() != 0 {
			t.Errorf("a spare chain ring holds %d traces", x.r.Len())
		}
	}
}

// TestStoreCommitAllocatesNothingWarm commits into a full store, the way
// the server and the orchestrator do, a provision request (the request,
// the provision, eight stages: 10 spans in one insert), the chain's
// delete (the request and the delete) and a failure report continued by
// its flush (the report's request span, then the flush, twenty repairs
// and their twenty stages: 41 spans onto the committed trace). Each
// draws its record arrays, its entry and its chain-index storage from
// what freed traces gave back, and allocates nothing.
func TestStoreCommitAllocatesNothingWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of what it is handed under the race detector")
	}
	st := NewStore(StoreOptions{})
	ids := make([]string, 1<<14) // a repeat comes long after its first use was freed
	for i := range ids {
		ids[i] = fmt.Sprintf("t-%d", i)
	}
	next := 0
	newID := func() string {
		next++
		return ids[next%len(ids)]
	}
	span := func(id, parent SpanID, kind string, dep int) record {
		sp := mkSpan("", id, parent, kind, time.Millisecond)
		sp.Dep = dep
		return toRecord(&sp)
	}
	prov := []record{}
	for i := 0; i < 8; i++ {
		prov = append(prov, span(SpanID(3+i), 2, KindStage, 0))
	}
	prov = append(prov, span(2, 1, KindProvision, 0), span(1, 0, KindHTTP, 0))
	del := []record{span(2, 1, KindDelete, 0), span(1, 0, KindHTTP, 0)}
	report := []record{span(1, 0, KindHTTP, 0)}
	flush := []record{}
	for i := 0; i < 20; i++ {
		repair := SpanID(10 + 2*i)
		flush = append(flush, span(repair+1, repair, KindStage, 0), span(repair, 2, KindRepair, 1<<20+i%13))
	}
	flush = append(flush, span(2, 1, KindBatch, 0))

	dep, gone := 0, 0
	ops := []struct {
		name string
		do   func()
	}{
		{"provision (10 spans)", func() {
			dep++
			prov[8].dep = int32(dep)
			st.commit(newID(), prov)
		}},
		{"delete (2 spans)", func() {
			gone++
			del[0].dep = int32(gone)
			st.commit(newID(), del)
		}},
		{"report + flush (1 + 41 spans)", func() {
			id := newID()
			st.commit(id, report)
			st.commit(id, flush)
		}},
	}
	for i := 0; i < 2000; i++ { // fill the rings: from here each commit frees what it admits
		for _, op := range ops {
			op.do()
		}
	}
	// A collection empties the pools: count between two, after rounds
	// that refill them.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	mallocs := func() (uint64, uint32) {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs, ms.NumGC
	}
	allocs := make([]uint64, len(ops))
	for try := 0; try < 3; try++ {
		runtime.GC()
		for i := 0; i < 100; i++ {
			for _, op := range ops {
				op.do()
			}
		}
		clear(allocs)
		_, gc := mallocs()
		for i := 0; i < 200; i++ {
			for k, op := range ops {
				m, _ := mallocs()
				op.do()
				after, _ := mallocs()
				allocs[k] += after - m
			}
		}
		if _, now := mallocs(); now == gc {
			break
		}
	}
	for k, op := range ops {
		if allocs[k] != 0 {
			t.Errorf("%s into a full store: %d allocations in 200 commits", op.name, allocs[k])
		}
	}
	if s := st.Stats(); s.SpansDropped != 0 || s.IndexedChains != 13 {
		t.Fatalf("stats %+v: want no drops and the 13 flushed chains indexed", s)
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
