package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// oracleTraces is Traces as it was before the bounded scan: summarise
// every match, sort them all slowest-first with ties by ID, truncate.
func oracleTraces(s *Store, q Query) []Summary {
	limit := q.Limit
	if limit <= 0 {
		limit = 100
	}
	s.mu.Lock()
	out := make([]Summary, 0, len(s.traces))
	for _, e := range s.traces {
		if q.Kind != "" && e.kind != q.Kind {
			continue
		}
		if q.Errored && !e.errored {
			continue
		}
		if q.MinDuration > 0 && e.duration() < q.MinDuration {
			continue
		}
		out = append(out, s.summaryLocked(e))
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Duration != out[j].Duration {
			return out[i].Duration > out[j].Duration
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// TestTracesEqualsSortEverythingThenTruncate: over random stores — root
// and rootless traces of every kind, durations drawn from a handful of
// values so most comparisons are ties broken by ID, errors, chains,
// stores small enough to have evicted and large enough not to — every
// query (each filter alone and together; limit 1, the default 100, a
// few, more than the store holds) answers what the full sort answers.
func TestTracesEqualsSortEverythingThenTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	kinds := []string{KindHTTP, KindProvision, KindRepair, KindOptimizer}
	durations := []time.Duration{0, time.Microsecond, time.Millisecond, time.Millisecond, 5 * time.Millisecond, time.Second}
	base := time.Unix(1700000000, 0)
	for round := 0; round < 40; round++ {
		st := NewStore(StoreOptions{RecentPerKind: 1 + rng.Intn(200), SlowestN: 1 + rng.Intn(8), MaxSpans: 50 + rng.Intn(2000)})
		var next SpanID
		for i, n := 0, rng.Intn(600); i < n; i++ {
			id := fmt.Sprintf("t%03d", rng.Intn(400)) // some traces get several spans
			start := base.Add(time.Duration(rng.Intn(1000)) * time.Millisecond)
			next++
			sp := Span{TraceID: id, SpanID: next, Parent: SpanID(rng.Intn(2)), Name: "op", Kind: kinds[rng.Intn(len(kinds))],
				Start: start, End: start.Add(durations[rng.Intn(len(durations))]), Dep: rng.Intn(3) * rng.Intn(50)}
			if rng.Intn(10) == 0 {
				sp.Err = "boom"
			}
			st.add(sp)
		}
		for query := 0; query < 40; query++ {
			q := Query{Limit: []int{0, 1, 3, 100, 100000}[rng.Intn(5)]}
			if rng.Intn(2) == 0 {
				q.Kind = kinds[rng.Intn(len(kinds))]
			}
			if rng.Intn(3) == 0 {
				q.MinDuration = durations[rng.Intn(len(durations))]
			}
			q.Errored = rng.Intn(4) == 0
			got, want := st.Traces(q), oracleTraces(st, q)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d, store of %d traces, query %+v:\n got %d: %v\nwant %d: %v",
					round, st.Stats().LiveTraces, q, len(got), ids(got), len(want), ids(want))
			}
		}
	}
}

func ids(sums []Summary) []string {
	out := make([]string, len(sums))
	for i, s := range sums {
		out[i] = fmt.Sprintf("%s/%v", s.ID, s.Duration)
	}
	return out
}
