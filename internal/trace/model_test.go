package trace

// refStore is the trace store as it was before operations committed
// their spans in one insert: every span is added on its own, under the
// lock, into a Span array grown by append, and every retention set holds
// trace IDs. It is the reference model the differential test holds Store
// to (commit = one add per span, in order), kept as it was but for the
// renames.

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"time"
)

type refEntry struct {
	id           string
	pos          int    // where order holds id
	kind         string // root span's kind once seen, else first span's
	ringKind     string // which recent ring holds this trace ("" = popped)
	spans        []Span
	refs         int
	deps         []int // deployments whose chain index references this trace
	inSlow       bool
	inErr        bool
	rootSeen     bool
	rootDur      time.Duration
	rootName     string
	minStart     time.Time
	maxEnd       time.Time
	errored      bool
	droppedSpans int
}

func (e *refEntry) duration() time.Duration {
	if e.rootSeen {
		return e.rootDur
	}
	return e.maxEnd.Sub(e.minStart)
}

// refStore is the bounded in-memory trace store. Safe for concurrent use.
type refStore struct {
	mu     sync.Mutex
	opts   StoreOptions
	traces map[string]*refEntry
	recent map[string][]string // kind -> trace IDs, oldest first
	slow   []string            // slowest-N pinned traces (unordered)
	errs   []string            // errored pinned traces, oldest first
	byDep  map[int][]string    // deployment -> trace IDs, oldest first
	order  []string            // trace creation order from head on (may hold stale IDs)
	head   int                 // order[:head] is consumed
	total  int                 // live spans across all traces
	// spare holds freed traces' entries, span arrays attached, for the
	// next new trace: a full store frees one trace for every one it
	// admits.
	spare []*refEntry

	recorded uint64
	dropped  uint64
	evicted  uint64
}

// newRefStore returns an empty store bounded by opts.
func newRefStore(opts StoreOptions) *refStore {
	return &refStore{
		opts:   opts.withDefaults(),
		traces: make(map[string]*refEntry),
		recent: make(map[string][]string),
		byDep:  make(map[int][]string),
	}
}

// Options returns the store's effective (defaulted) bounds.
func (s *refStore) Options() StoreOptions { return s.opts }

func (s *refStore) add(sp Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.traces[sp.TraceID]
	if ok && len(e.spans) >= s.opts.MaxSpansPerTrace {
		e.droppedSpans++
		s.dropped++
		return
	}
	s.makeRoom(sp.TraceID)
	if s.total >= s.opts.MaxSpans {
		// Budget exhausted and nothing evictable besides this trace.
		if ok {
			e.droppedSpans++
		}
		s.dropped++
		return
	}
	if !ok {
		if n := len(s.spare); n > 0 {
			e, s.spare = s.spare[n-1], s.spare[:n-1]
		} else {
			e = new(refEntry)
		}
		e.id, e.kind, e.minStart, e.maxEnd = sp.TraceID, sp.Kind, sp.Start, sp.End
		s.traces[sp.TraceID] = e
		e.pos = len(s.order)
		s.order = append(s.order, sp.TraceID)
		s.compactOrder()
		s.pushRecent(e)
	}
	e.spans = append(e.spans, sp)
	s.total++
	s.recorded++
	if e.minStart.IsZero() || sp.Start.Before(e.minStart) {
		e.minStart = sp.Start
	}
	if sp.End.After(e.maxEnd) {
		e.maxEnd = sp.End
	}
	if sp.Err != "" && !e.errored {
		e.errored = true
		s.pushErrored(e)
	}
	switch {
	case sp.Dep == 0:
	case sp.Kind == KindDelete && sp.Err == "":
		// The chain is gone: its index entry goes with it, and this
		// span does not start a new one. The delete's own trace stays
		// reachable by ID (the orchestrator's tombstone carries it)
		// while a ring or pinned set holds it.
		s.dropDep(sp.Dep)
		if e.refs <= 0 {
			return // the index held the last reference to this trace too
		}
	default:
		s.indexDep(e, sp.Dep)
	}
	if sp.Parent == 0 && !e.rootSeen {
		e.rootSeen = true
		e.rootDur = sp.End.Sub(sp.Start)
		e.rootName = sp.Name
		if sp.Kind != e.kind {
			e.kind = sp.Kind
			s.moveRing(e, sp.Kind)
		}
		s.considerSlowest(e)
	}
}

// makeRoom force-evicts oldest traces (except exclude, the one being
// written) until one more span fits under MaxSpans. The victim is found
// from head, which moves past it and past every stale ID on the way, so
// an eviction is amortized O(1).
func (s *refStore) makeRoom(exclude string) {
	for s.total+1 > s.opts.MaxSpans {
		victim := -1
		for i := s.head; i < len(s.order); i++ {
			id := s.order[i]
			if _, ok := s.traces[id]; !ok {
				if i == s.head {
					s.head++
				}
				continue
			}
			if id != exclude {
				victim = i
				break
			}
		}
		if victim < 0 {
			return
		}
		s.forceEvict(s.traces[s.order[victim]])
	}
}

// compactOrder rewrites order to its live IDs once the consumed and
// stale ones outnumber them — traces freed by refcount leave their IDs
// behind, and nothing else collects those. Run on every new trace, it
// keeps len(order) within a constant factor of the live traces at
// amortized O(1).
func (s *refStore) compactOrder() {
	if len(s.order) < 2*len(s.traces)+64 {
		return
	}
	live := s.order[:0]
	for _, id := range s.order[s.head:] {
		if e, ok := s.traces[id]; ok {
			e.pos = len(live)
			live = append(live, id)
		}
	}
	clear(s.order[len(live):])
	s.order, s.head = live, 0
}

// forceEvict removes e from every retention set and frees it.
func (s *refStore) forceEvict(e *refEntry) {
	if e.ringKind != "" {
		s.recent[e.ringKind] = refRemoveID(s.recent[e.ringKind], e.id)
		e.ringKind = ""
	}
	if e.inSlow {
		s.slow = refRemoveID(s.slow, e.id)
		e.inSlow = false
	}
	if e.inErr {
		s.errs = refRemoveID(s.errs, e.id)
		e.inErr = false
	}
	for _, d := range e.deps {
		s.byDep[d] = refRemoveID(s.byDep[d], e.id)
		if len(s.byDep[d]) == 0 {
			delete(s.byDep, d)
		}
	}
	e.deps = nil
	s.free(e)
}

// The bounds of the spare list: how many freed entries it keeps, and how
// long a span array a kept entry may hold on to. Most traces are one
// request's few spans; a storm batch's hundred go to the collector.
const (
	refMaxSpareEntries = 16
	refMaxSpareSpans   = 8
)

// free forgets the trace. Nothing may use e afterwards: it is reset and
// kept for the next new trace. Readers were handed copies (Trace,
// summaryLocked), so reusing the span array aliases nothing.
func (s *refStore) free(e *refEntry) {
	delete(s.traces, e.id)
	s.order[e.pos] = "" // stale from here on, and no longer holding the ID's bytes
	s.total -= len(e.spans)
	s.evicted++
	if len(s.spare) < refMaxSpareEntries && cap(e.spans) <= refMaxSpareSpans {
		clear(e.spans) // the spans' strings and attributes go now, not at reuse
		*e = refEntry{spans: e.spans[:0], deps: e.deps[:0]}
		s.spare = append(s.spare, e)
	}
}

func (s *refStore) unref(e *refEntry) {
	e.refs--
	if e.refs <= 0 {
		s.free(e)
	}
}

func (s *refStore) pushRecent(e *refEntry) {
	k := e.kind
	e.ringKind = k
	e.refs++
	s.recent[k] = append(s.recent[k], e.id)
	s.trimRecent(k)
}

func (s *refStore) trimRecent(k string) {
	for len(s.recent[k]) > s.opts.RecentPerKind {
		old := s.recent[k][0]
		s.recent[k][0] = "" // the array outlives the slot: it must not keep the ID's bytes
		s.recent[k] = s.recent[k][1:]
		if v, ok := s.traces[old]; ok && v.ringKind == k {
			v.ringKind = ""
			s.unref(v)
		}
	}
}

// moveRing re-files a trace whose root span revealed its real kind
// (e.g. a trace created by a child repair span whose root turns out
// to be an http request).
func (s *refStore) moveRing(e *refEntry, k string) {
	if e.ringKind == "" || e.ringKind == k {
		// Already popped from its ring (don't resurrect) or already
		// filed under k.
		return
	}
	s.recent[e.ringKind] = refRemoveID(s.recent[e.ringKind], e.id)
	e.ringKind = k
	s.recent[k] = append(s.recent[k], e.id)
	s.trimRecent(k)
}

func (s *refStore) pushErrored(e *refEntry) {
	e.inErr = true
	e.refs++
	s.errs = append(s.errs, e.id)
	for len(s.errs) > s.opts.ErroredN {
		old := s.errs[0]
		s.errs = s.errs[1:]
		if v, ok := s.traces[old]; ok && v.inErr {
			v.inErr = false
			s.unref(v)
		}
	}
}

func (s *refStore) considerSlowest(e *refEntry) {
	if len(s.slow) < s.opts.SlowestN {
		s.slow = append(s.slow, e.id)
		e.inSlow = true
		e.refs++
		return
	}
	// Replace the current minimum if this root is slower.
	minIdx, minDur := -1, time.Duration(-1)
	for i, id := range s.slow {
		v, ok := s.traces[id]
		if !ok {
			minIdx, minDur = i, -1
			break
		}
		if minDur < 0 || v.rootDur < minDur {
			minIdx, minDur = i, v.rootDur
		}
	}
	if minIdx < 0 || e.rootDur <= minDur {
		return
	}
	if v, ok := s.traces[s.slow[minIdx]]; ok && v.inSlow {
		v.inSlow = false
		defer s.unref(v)
	}
	s.slow[minIdx] = e.id
	e.inSlow = true
	e.refs++
}

func (s *refStore) indexDep(e *refEntry, d int) {
	for _, have := range e.deps {
		if have == d {
			return
		}
	}
	e.deps = append(e.deps, d)
	e.refs++
	s.byDep[d] = append(s.byDep[d], e.id)
	for len(s.byDep[d]) > s.opts.ChainDepth {
		old := s.byDep[d][0]
		s.byDep[d] = s.byDep[d][1:]
		if v, ok := s.traces[old]; ok {
			v.deps = refRemoveDep(v.deps, d)
			s.unref(v)
		}
	}
}

// dropDep forgets deployment d's chain index, releasing the reference it
// held on each indexed trace.
func (s *refStore) dropDep(d int) {
	for _, id := range s.byDep[d] {
		if v, ok := s.traces[id]; ok {
			v.deps = refRemoveDep(v.deps, d)
			s.unref(v)
		}
	}
	delete(s.byDep, d)
}

func refRemoveID(ids []string, id string) []string {
	for i, have := range ids {
		if have == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

func refRemoveDep(deps []int, d int) []int {
	for i, have := range deps {
		if have == d {
			return append(deps[:i], deps[i+1:]...)
		}
	}
	return deps
}

func (s *refStore) summaryLocked(e *refEntry) Summary {
	name := e.rootName
	if name == "" && len(e.spans) > 0 {
		name = e.spans[0].Name
	}
	return Summary{
		ID:       e.id,
		Kind:     e.kind,
		Name:     name,
		Start:    e.minStart,
		Duration: e.duration(),
		Spans:    len(e.spans),
		Dropped:  e.droppedSpans,
		Errored:  e.errored,
		Deps:     append([]int(nil), e.deps...),
	}
}

// refSlowerFirst orders traces for a listing: by duration descending, ties
// by ID. IDs are unique, so it never answers 0 for two traces.
func refSlowerFirst(a, b *refEntry) int {
	if c := cmp.Compare(b.duration(), a.duration()); c != 0 {
		return c
	}
	return strings.Compare(a.id, b.id)
}

// Traces lists retained traces matching q, slowest-first. The scan
// keeps the limit slowest matches seen so far, in order, and only the
// ones left at the end are summarised: a query costs the store's size in
// comparisons and the limit in copies.
func (s *refStore) Traces(q Query) []Summary {
	limit := q.Limit
	if limit <= 0 {
		limit = 100
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	top := make([]*refEntry, 0, min(limit, len(s.traces)))
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
		if len(top) == limit {
			if refSlowerFirst(e, top[limit-1]) > 0 {
				continue
			}
			top = top[:limit-1]
		}
		i, _ := slices.BinarySearchFunc(top, e, refSlowerFirst)
		top = slices.Insert(top, i, e)
	}
	out := make([]Summary, len(top))
	for i, e := range top {
		out[i] = s.summaryLocked(e)
	}
	return out
}

// Trace returns all retained spans of one trace (copied), the number
// of spans dropped by the per-trace cap, and whether the trace exists.
func (s *refStore) Trace(id string) ([]Span, int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.traces[id]
	if !ok {
		return nil, 0, false
	}
	return append([]Span(nil), e.spans...), e.droppedSpans, true
}

// ChainTraces returns the retained lifecycle traces of one
// deployment, most recent first.
func (s *refStore) ChainTraces(dep int) []Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := s.byDep[dep]
	out := make([]Summary, 0, len(ids))
	for i := len(ids) - 1; i >= 0; i-- {
		if e, ok := s.traces[ids[i]]; ok {
			out = append(out, s.summaryLocked(e))
		}
	}
	return out
}

// Stats returns the store's counters.
func (s *refStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		SpansRecorded: s.recorded,
		SpansDropped:  s.dropped,
		TracesEvicted: s.evicted,
		LiveSpans:     s.total,
		LiveTraces:    len(s.traces),
		IndexedChains: len(s.byDep),
	}
}
