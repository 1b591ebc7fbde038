package trace

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// mkSpan builds a one-off span; parent 0 makes it a root.
func mkSpan(traceID string, id, parent SpanID, kind string, d time.Duration) Span {
	start := time.Unix(1000, 0)
	return Span{
		TraceID: traceID, SpanID: id, Parent: parent,
		Name: kind, Kind: kind, Start: start, End: start.Add(d),
	}
}

func TestValidTraceID(t *testing.T) {
	for _, ok := range []string{"a", "ci-run.42_x", "ABC-123"} {
		if !ValidTraceID(ok) {
			t.Errorf("ValidTraceID(%q) = false, want true", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "has space", "semi;colon", string(long)} {
		if ValidTraceID(bad) {
			t.Errorf("ValidTraceID(%q) = true, want false", bad)
		}
	}
}

func TestTracerParenting(t *testing.T) {
	tr := NewTracer(NewStore(StoreOptions{}))
	root := tr.Start(SpanContext{})
	if !root.Valid() || root.SpanID == 0 {
		t.Fatalf("root = %+v, want fresh trace", root)
	}
	child := tr.Start(root)
	if child.TraceID != root.TraceID || child.SpanID == root.SpanID {
		t.Fatalf("child = %+v under %+v, want same trace, new span", child, root)
	}
}

// TestNilTracerZeroAlloc is the WithTracing(nil) contract: every hot-
// path tracer call on a nil receiver is a no-op that allocates nothing.
func TestNilTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	var c Carrier // a caller's, allocated by the caller
	allocs := testing.AllocsPerRun(200, func() {
		sc := tr.Start(SpanContext{})
		tr.RecordChild(sc, "stage", KindStage, time.Time{}, time.Millisecond, nil)
		tr.Record(sc, Span{})
		tr.Begin(&c, context.Background(), sc)
		tr.End(&c, Span{})
		tr.EndRequest(&c, "GET", Span{})
		_ = tr.NewTraceID()
		_ = tr.Store()
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocated %.1f per run, want 0", allocs)
	}
}

// TestStoreOutOfOrderRoot: spans are recorded on completion, so
// children land before their root. The trace's kind must upgrade when
// the root arrives, and the root's duration wins the summary.
func TestStoreOutOfOrderRoot(t *testing.T) {
	st := NewStore(StoreOptions{})
	st.add(mkSpan("t1", 2, 1, KindStage, 5*time.Millisecond))
	st.add(mkSpan("t1", 1, 0, KindProvision, 20*time.Millisecond))
	if got := st.Traces(Query{Kind: KindProvision}); len(got) != 1 || got[0].ID != "t1" {
		t.Fatalf("kind filter after root upgrade = %+v, want [t1]", got)
	}
	if got := st.Traces(Query{Kind: KindStage}); len(got) != 0 {
		t.Fatalf("trace still filed under its pre-root kind: %+v", got)
	}
	sums := st.Traces(Query{})
	if len(sums) != 1 || sums[0].Duration != 20*time.Millisecond || sums[0].Spans != 2 {
		t.Fatalf("summary = %+v, want root duration over 2 spans", sums)
	}
}

// TestStoreRecentRingEviction: with no pin set claiming them, traces
// fall off the per-kind recent ring oldest-first.
func TestStoreRecentRingEviction(t *testing.T) {
	st := NewStore(StoreOptions{RecentPerKind: 2})
	// Child-only spans: no root, so neither slowest-N nor errored-N pins.
	st.add(mkSpan("t1", 2, 1, KindRepair, time.Millisecond))
	st.add(mkSpan("t2", 4, 3, KindRepair, time.Millisecond))
	st.add(mkSpan("t3", 6, 5, KindRepair, time.Millisecond))
	if _, _, ok := st.Trace("t1"); ok {
		t.Fatal("t1 survived past the ring horizon with no pin")
	}
	for _, id := range []string{"t2", "t3"} {
		if _, _, ok := st.Trace(id); !ok {
			t.Fatalf("%s evicted while inside the ring horizon", id)
		}
	}
	stats := st.Stats()
	if stats.TracesEvicted != 1 || stats.LiveTraces != 2 {
		t.Fatalf("stats = %+v, want 1 evicted / 2 live", stats)
	}
}

// TestStoreErroredPinned: an errored trace survives ring churn.
func TestStoreErroredPinned(t *testing.T) {
	st := NewStore(StoreOptions{RecentPerKind: 1})
	bad := mkSpan("bad", 2, 1, KindRepair, time.Millisecond)
	bad.SetError(errors.New("boom"))
	st.add(bad)
	st.add(mkSpan("t2", 4, 3, KindRepair, time.Millisecond))
	st.add(mkSpan("t3", 6, 5, KindRepair, time.Millisecond))
	if _, _, ok := st.Trace("bad"); !ok {
		t.Fatal("errored trace evicted by ring churn")
	}
	got := st.Traces(Query{Errored: true})
	if len(got) != 1 || got[0].ID != "bad" || !got[0].Errored {
		t.Fatalf("errored query = %+v, want [bad]", got)
	}
}

// TestStoreSlowestPinned: a slow root survives ring churn and sorts
// first in the listing.
func TestStoreSlowestPinned(t *testing.T) {
	st := NewStore(StoreOptions{RecentPerKind: 1})
	st.add(mkSpan("slow", 1, 0, KindProvision, time.Second))
	st.add(mkSpan("t2", 2, 0, KindProvision, time.Millisecond))
	st.add(mkSpan("t3", 3, 0, KindProvision, 2*time.Millisecond))
	if _, _, ok := st.Trace("slow"); !ok {
		t.Fatal("slowest trace evicted by ring churn")
	}
	got := st.Traces(Query{})
	if len(got) == 0 || got[0].ID != "slow" {
		t.Fatalf("listing = %+v, want slow first", got)
	}
	if got := st.Traces(Query{MinDuration: 500 * time.Millisecond}); len(got) != 1 || got[0].ID != "slow" {
		t.Fatalf("min-duration filter = %+v, want [slow]", got)
	}
}

// TestStorePerTraceCap: spans beyond MaxSpansPerTrace are counted as
// dropped, not stored.
func TestStorePerTraceCap(t *testing.T) {
	st := NewStore(StoreOptions{MaxSpansPerTrace: 2})
	for i := SpanID(2); i <= 5; i++ {
		st.add(mkSpan("t1", i, 1, KindStage, time.Millisecond))
	}
	spans, dropped, ok := st.Trace("t1")
	if !ok || len(spans) != 2 || dropped != 2 {
		t.Fatalf("Trace = (%d spans, %d dropped, %v), want (2, 2, true)", len(spans), dropped, ok)
	}
	if st.Stats().SpansDropped != 2 {
		t.Fatalf("stats = %+v, want SpansDropped=2", st.Stats())
	}
}

// TestStoreMaxSpansBudget is the bounded-memory acceptance check: no
// matter how many spans arrive, the live total never exceeds MaxSpans.
func TestStoreMaxSpansBudget(t *testing.T) {
	st := NewStore(StoreOptions{MaxSpans: 8, RecentPerKind: 64})
	id := SpanID(1)
	for i := 0; i < 50; i++ {
		tid := fmt.Sprintf("t%d", i)
		for j := 0; j < 3; j++ {
			st.add(mkSpan(tid, id+1, id, KindRepair, time.Millisecond))
			id += 2
			if live := st.Stats().LiveSpans; live > 8 {
				t.Fatalf("live spans %d exceed the %d budget", live, 8)
			}
		}
	}
	stats := st.Stats()
	if stats.TracesEvicted == 0 {
		t.Fatalf("stats = %+v, want forced evictions under pressure", stats)
	}
}

// TestChainTraces: the per-deployment index keeps the last ChainDepth
// traces, most recent first.
func TestChainTraces(t *testing.T) {
	st := NewStore(StoreOptions{ChainDepth: 2})
	for i := 0; i < 3; i++ {
		sp := mkSpan(fmt.Sprintf("t%d", i), SpanID(10+i), 0, KindProvision, time.Millisecond)
		sp.Dep = 7
		st.add(sp)
	}
	got := st.ChainTraces(7)
	if len(got) != 2 || got[0].ID != "t2" || got[1].ID != "t1" {
		t.Fatalf("ChainTraces = %+v, want [t2 t1]", got)
	}
	if got := st.ChainTraces(99); len(got) != 0 {
		t.Fatalf("unknown deployment returned %+v", got)
	}
}

// TestStoreOrderStaysBounded: the creation-order list is a queue, not a
// log. Whether traces leave by refcount (small rings, a budget that
// never bites) or by forced eviction (the budget alone), over 50k traces
// it stays within a constant factor of the live ones, and forced
// eviction stays oldest-first.
func TestStoreOrderStaysBounded(t *testing.T) {
	for name, opts := range map[string]StoreOptions{
		"refcount-freed": {RecentPerKind: 8, SlowestN: 2, MaxSpans: 1 << 20},
		"force-evicted":  {RecentPerKind: 1 << 20, SlowestN: 2, MaxSpans: 64},
	} {
		t.Run(name, func(t *testing.T) {
			st := NewStore(opts)
			id := SpanID(1)
			for i := 0; i < 50000; i++ {
				tid := fmt.Sprintf("t%d", i)
				st.add(mkSpan(tid, id, 0, KindProvision, time.Millisecond))
				st.add(mkSpan(tid, id+1, id, KindStage, time.Millisecond))
				st.add(mkSpan(tid, id+2, id, KindStage, time.Millisecond))
				id += 3
				if live := len(st.traces); len(st.order) > 4*live+128 || st.head > len(st.order) {
					t.Fatalf("after %d traces: order holds %d IDs (head %d) for %d live traces", i+1, len(st.order), st.head, live)
				}
				if st.total > opts.MaxSpans {
					t.Fatalf("after %d traces: %d live spans exceed the %d budget", i+1, st.total, opts.MaxSpans)
				}
			}
			stats := st.Stats()
			if stats.LiveTraces == 0 || stats.TracesEvicted < 49000 {
				t.Fatalf("stats = %+v, want a few live traces and the rest evicted", stats)
			}
			if _, _, ok := st.Trace("t49999"); !ok {
				t.Fatal("the newest trace is gone")
			}
			for i := 0; i < 50000-stats.LiveTraces; i++ {
				if _, _, ok := st.Trace(fmt.Sprintf("t%d", i)); ok && name == "force-evicted" {
					t.Fatalf("trace t%d outlived %d newer ones: eviction is not oldest-first", i, 49999-i)
				}
			}
		})
	}
}

// TestDeleteSpanDropsChainIndex: a chain's successful delete span takes
// its per-chain index entry away — the traces it pinned are released,
// the delete's own trace stays reachable by ID — while a refused delete
// is indexed like any other span of a live chain.
func TestDeleteSpanDropsChainIndex(t *testing.T) {
	st := NewStore(StoreOptions{RecentPerKind: 2, SlowestN: 1})
	dep := func(sp Span, d int) Span { sp.Dep = d; return sp }
	st.add(dep(mkSpan("prov", 1, 0, KindProvision, time.Millisecond), 7))
	// Push "prov" out of its ring and of the slowest set: only chain 7's
	// index holds it now.
	st.add(mkSpan("p2", 2, 0, KindProvision, 2*time.Millisecond))
	st.add(mkSpan("p3", 3, 0, KindProvision, 3*time.Millisecond))
	refused := dep(mkSpan("busy", 4, 0, KindDelete, time.Millisecond), 7)
	refused.Err = "deployment operation in progress"
	st.add(refused)
	if got := st.ChainTraces(7); len(got) != 2 || got[0].ID != "busy" || got[1].ID != "prov" {
		t.Fatalf("ChainTraces before the delete = %+v, want [busy prov]", got)
	}
	st.add(dep(mkSpan("del", 5, 0, KindDelete, time.Millisecond), 7))
	if got := st.ChainTraces(7); len(got) != 0 {
		t.Fatalf("ChainTraces after the delete = %+v, want none", got)
	}
	if n := st.Stats().IndexedChains; n != 0 {
		t.Fatalf("%d chains indexed after the delete, want 0", n)
	}
	if _, _, ok := st.Trace("del"); !ok {
		t.Fatal("the delete's trace is gone")
	}
	if _, _, ok := st.Trace("prov"); ok {
		t.Fatal("the provision trace outlived the chain index that alone held it")
	}
	if sums := st.Traces(Query{Kind: KindDelete}); len(sums) != 2 || len(sums[0].Deps)+len(sums[1].Deps) != 0 {
		t.Fatalf("delete traces = %+v, want two with no chain reference left", sums)
	}
}
