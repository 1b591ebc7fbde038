package trace

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// add records sp on its own: an insert of one span.
func (s *Store) add(sp Span) {
	s.commit(sp.TraceID, []record{toRecord(&sp)})
}

// streamGen draws random operations over a small pool of trace IDs and
// deployments, so traces continue after their first commit, after being
// freed, and after being force-evicted, and chains are indexed, pushed
// out and deleted.
type streamGen struct {
	rng    *rand.Rand
	base   time.Time
	nextID SpanID
	ids    []string
	deps   []int
}

var (
	genKinds  = []string{KindHTTP, KindProvision, KindDelete, KindRepair, KindBatch, KindOptimizer, KindStage, "custom"}
	genDurs   = []time.Duration{0, time.Microsecond, time.Millisecond, time.Millisecond, 5 * time.Millisecond, time.Second}
	genPaths  = []string{"GET /v1/chains/7", "POST /v1/chains", "DELETE /v1/chains/3", "BREW /pot", "GET /v1/failures/links/2"}
	genStages = []string{"cluster", "slice", "path", "rules"}
)

func (g *streamGen) span(traceID string, parent SpanID, kind string) Span {
	g.nextID++
	start := g.base.Add(time.Duration(g.rng.Intn(5000)) * time.Microsecond)
	sp := Span{TraceID: traceID, SpanID: g.nextID, Parent: parent, Name: kind, Kind: kind,
		Start: start, End: start.Add(genDurs[g.rng.Intn(len(genDurs))])}
	switch kind {
	case KindHTTP:
		sp.Name = genPaths[g.rng.Intn(len(genPaths))]
	case KindStage:
		sp.Name = genStages[g.rng.Intn(len(genStages))]
	case KindProvision, KindRepair, KindOptimizer, KindDelete:
		if g.rng.Intn(3) > 0 {
			sp.Dep = g.deps[g.rng.Intn(len(g.deps))]
		}
	}
	if g.rng.Intn(8) == 0 {
		sp.Err = "boom"
	}
	if g.rng.Intn(10) == 0 {
		sp.Links = []string{g.ids[g.rng.Intn(len(g.ids))]}
	}
	if g.rng.Intn(4) == 0 {
		sp.Attrs = []Attr{{Key: "k", Value: fmt.Sprint(g.rng.Intn(3))}}
	}
	return sp
}

// operation is one commit's spans, in completion order: a tree of
// nested operations with their stages, whose root (parent 0) ends last —
// or, as a continuation of a trace committed before, no root at all —
// and now and then a root first or two roots.
func (g *streamGen) operation() []Span {
	id := g.ids[g.rng.Intn(len(g.ids))]
	g.nextID++
	root := g.nextID
	var out []Span
	for n := g.rng.Intn(3); n > 0; n-- {
		nested := g.span(id, root, genKinds[1+g.rng.Intn(5)])
		for k := g.rng.Intn(4); k > 0; k-- {
			out = append(out, g.span(id, nested.SpanID, KindStage))
		}
		out = append(out, nested)
	}
	rootKind := genKinds[g.rng.Intn(len(genKinds))]
	switch r := g.rng.Intn(10); {
	case r < 6: // the usual: the outermost operation ends last
		sp := g.span(id, 0, rootKind)
		sp.SpanID = root
		out = append(out, sp)
	case r < 7: // a root that completed first
		sp := g.span(id, 0, rootKind)
		sp.SpanID = root
		out = append([]Span{sp}, out...)
	case r < 8: // two roots
		out = append(out, g.span(id, 0, rootKind), g.span(id, 0, KindHTTP))
	default: // a continuation: spans under a span committed before
		if len(out) == 0 {
			out = append(out, g.span(id, root, genKinds[g.rng.Intn(len(genKinds))]))
		}
	}
	return out
}

// records is what an operation's buffer would commit for spans: a
// request span's name split into its method and path the way EndRequest
// keeps it.
func records(spans []Span) []record {
	recs := make([]record, len(spans))
	for i := range spans {
		sp := spans[i]
		if method, path, ok := strings.Cut(sp.Name, " "); ok && sp.Kind == KindHTTP {
			sp.Name = path
			recs[i] = requestRecord(method, &sp)
		} else {
			recs[i] = toRecord(&sp)
		}
	}
	return recs
}

// TestStoreEqualsReferenceModel is the store's differential oracle:
// over 2 000 seeded streams of operations — nested operations, roots
// out of order, continuations after commit, errors, chain deletes,
// per-trace caps and span budgets small enough to bite, a few streams
// long enough to compact the creation order — Store commits
// each operation in one insert, refStore (the store before batching)
// adds its spans one by one, and after every commit Traces, Trace,
// ChainTraces and Stats answer the same (see sameAnswers).
func TestStoreEqualsReferenceModel(t *testing.T) {
	streams := 2000
	if testing.Short() {
		streams = 200
	}
	for seed := int64(0); seed < int64(streams); seed++ {
		rng := rand.New(rand.NewSource(seed))
		opts := StoreOptions{
			RecentPerKind: 1 + rng.Intn(6), SlowestN: 1 + rng.Intn(4), ErroredN: 1 + rng.Intn(4),
			MaxSpansPerTrace: 1 + rng.Intn(10), MaxSpans: 4 + rng.Intn(60), ChainDepth: 1 + rng.Intn(3),
		}
		if seed%10 == 0 {
			opts = StoreOptions{MaxSpansPerTrace: 1 + rng.Intn(20)} // roomy: only the per-trace cap bites
		}
		g := &streamGen{rng: rng, base: time.Unix(1700000000, 0), deps: []int{1, 2, 3, math.MaxInt}} // MaxInt: beyond a record's int32
		for i := 0; i < 4+rng.Intn(10); i++ {
			g.ids = append(g.ids, fmt.Sprintf("t%d", i))
		}
		st, model := NewStore(opts), newRefStore(opts)
		n := 20 + rng.Intn(40)
		if seed%25 == 1 {
			n = 400 // long enough for the creation-order queue to compact
		}
		for step := 0; step < n; step++ {
			op := g.operation()
			st.commit(op[0].TraceID, records(op))
			for _, sp := range op {
				model.add(sp)
			}
			if err := sameAnswers(st, model, g, op[0].TraceID, uint64(step+1)); err != nil {
				t.Fatalf("seed %d, commit %d of %v:\n%v", seed, step, op, err)
			}
		}
	}
}

// sameAnswers compares the two stores after a commit to trace id: the
// counters, the committed trace and one other, every chain's index, the
// full listing (the stores are smaller than its default limit) and one
// filtered one; every trace every eighth commit.
func sameAnswers(st *Store, model *refStore, g *streamGen, id string, commits uint64) error {
	got, want := st.Stats(), model.Stats()
	if got.Commits != commits {
		return fmt.Errorf("%d commits counted, want %d", got.Commits, commits)
	}
	if got.Commits = 0; got != want {
		return fmt.Errorf("Stats = %+v, want %+v", got, want)
	}
	ids := []string{id, g.ids[g.rng.Intn(len(g.ids))]}
	if commits%8 == 0 {
		ids = g.ids
	}
	for _, id := range ids {
		gs, gd, gok := st.Trace(id)
		ws, wd, wok := model.Trace(id)
		if gd != wd || gok != wok || !slices.EqualFunc(gs, ws, sameSpan) {
			return fmt.Errorf("Trace(%s) = %v, %d, %v\nwant %v, %d, %v", id, gs, gd, gok, ws, wd, wok)
		}
	}
	for _, d := range g.deps {
		if gs, ws := st.ChainTraces(d), model.ChainTraces(d); !slices.EqualFunc(gs, ws, sameSummary) {
			return fmt.Errorf("ChainTraces(%d) = %+v\nwant %+v", d, gs, ws)
		}
	}
	filters := []Query{{Errored: true}, {MinDuration: time.Millisecond, Limit: 2}, {Limit: 1}}
	for _, k := range genKinds {
		filters = append(filters, Query{Kind: k})
	}
	for _, q := range []Query{{}, filters[g.rng.Intn(len(filters))]} {
		if gs, ws := st.Traces(q), model.Traces(q); !slices.EqualFunc(gs, ws, sameSummary) {
			return fmt.Errorf("Traces(%+v) = %+v\nwant %+v", q, gs, ws)
		}
	}
	return nil
}

// sameSpan is reflect.DeepEqual for spans, times compared as values
// (the model keeps the times it was given, time.Unix ones here).
func sameSpan(a, b Span) bool {
	return slices.Equal(a.Links, b.Links) && slices.Equal(a.Attrs, b.Attrs) && (a.Links == nil) == (b.Links == nil) &&
		(a.Attrs == nil) == (b.Attrs == nil) && a.TraceID == b.TraceID && a.SpanID == b.SpanID && a.Parent == b.Parent &&
		a.Name == b.Name && a.Kind == b.Kind && a.Start == b.Start && a.End == b.End && a.Err == b.Err && a.Dep == b.Dep
}

func sameSummary(a, b Summary) bool {
	return slices.Equal(a.Deps, b.Deps) && (a.Deps == nil) == (b.Deps == nil) && a.ID == b.ID && a.Kind == b.Kind &&
		a.Name == b.Name && a.Start == b.Start && a.Duration == b.Duration && a.Spans == b.Spans &&
		a.Dropped == b.Dropped && a.Errored == b.Errored
}
