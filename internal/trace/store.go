package trace

// The bounded span store. Retention is interest-based rather than
// purely FIFO: every trace enters a per-kind recent ring, and a trace
// that turns out to be interesting — among the slowest N roots, or
// errored — is pinned in a side set so it survives ring churn. A
// per-deployment index keeps the last few lifecycle traces of each
// chain reachable for GET /v1/chains/{id}/traces, until the chain's
// successful delete span drops its entry. A trace is freed
// only when no retention set references it (refcounted), and a hard
// MaxSpans budget force-evicts oldest-first so the store can never
// grow past its configured size no matter the workload.
//
// Spans arrive one operation at a time (commit): a request's or a
// repair's whole tree in one locked insert, each span admitted exactly
// as if it had been added alone, in order. A trace is an exactly sized
// array of compact records — one per insert, so usually one — and the
// retention sets hold entries: a fixed ring per kind and for the
// errored, a heap for the slowest.

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/alvc/alvc/internal/ring"
)

// StoreOptions bound the store. Zero values take the defaults noted
// per field.
type StoreOptions struct {
	RecentPerKind    int // recent traces retained per kind (default 128)
	SlowestN         int // slowest root spans pinned (default 32)
	ErroredN         int // errored traces pinned (default 32)
	MaxSpansPerTrace int // spans kept per trace before dropping (default 256)
	MaxSpans         int // hard total span budget (default 32768)
	ChainDepth       int // traces indexed per deployment (default 8)
}

func (o StoreOptions) withDefaults() StoreOptions {
	if o.RecentPerKind <= 0 {
		o.RecentPerKind = 128
	}
	if o.SlowestN <= 0 {
		o.SlowestN = 32
	}
	if o.ErroredN <= 0 {
		o.ErroredN = 32
	}
	if o.MaxSpansPerTrace <= 0 {
		o.MaxSpansPerTrace = 256
	}
	if o.MaxSpans <= 0 {
		o.MaxSpans = 32768
	}
	if o.ChainDepth <= 0 {
		o.ChainDepth = 8
	}
	return o
}

// Stats are the store's lifetime and live counters.
type Stats struct {
	// Commits counts inserts: one per outermost traced operation, and
	// one per span recorded outside any.
	Commits       uint64
	SpansRecorded uint64
	SpansDropped  uint64
	TracesEvicted uint64
	LiveSpans     int
	LiveTraces    int
	// IndexedChains counts deployments with a per-chain index entry.
	IndexedChains int
}

// Summary is the list-view of one trace.
type Summary struct {
	ID       string
	Kind     string
	Name     string
	Start    time.Time
	Duration time.Duration
	Spans    int
	Dropped  int
	Errored  bool
	Deps     []int
}

// Query filters GET /v1/traces. Zero values mean "no constraint".
type Query struct {
	Kind        string
	MinDuration time.Duration
	Errored     bool
	Limit       int // default 100
}

type entry struct {
	id string
	// recs holds the spans of the insert that created the trace and more
	// those of each later insert (a continuation), every array sized to
	// its insert: a continuation appends an array rather than copying
	// the trace into a longer one.
	recs     []record
	more     [][]record
	n        int     // spans held
	root     *record // the root span, once seen
	deps     []int   // deployments whose chain index references this trace
	kind     string  // root span's kind once seen, else first span's
	name     string  // the summary's name, once built (named)
	pos      int     // where order holds the entry
	refs     int
	minStart int64
	maxEnd   int64
	dropped  int
	slowKey  uint64 // tie order among equally slow roots (see considerSlowest)
	slowAt   int    // index in the slowest heap while inSlow
	inRing   bool   // in the recent ring of its kind (false once popped)
	inSlow   bool
	inErr    bool
	errored  bool
	named    bool
}

func (e *entry) duration() time.Duration {
	if e.root != nil {
		return time.Duration(e.root.dur)
	}
	return time.Duration(e.maxEnd - e.minStart)
}

// Store is the bounded in-memory trace store. Safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	opts   StoreOptions
	traces map[string]*entry
	recent map[string]*ring.Ring[*entry] // kind -> traces, oldest first
	errs   ring.Ring[*entry]             // errored pinned traces, oldest first
	// slow is a min-heap of the slowest-N pinned roots by (root
	// duration, slowKey).
	slow    []*entry
	slowSeq uint64
	byDep   map[int]ring.Ring[*entry] // deployment -> traces, oldest first
	order   []*entry                  // trace creation order from head on (nil = freed)
	head    int                       // order[:head] is consumed
	total   int                       // live spans across all traces
	// spare holds freed traces' entries, small record arrays attached,
	// for the next new trace: a full store frees one trace for every
	// one it admits.
	spare []*entry

	commits  uint64
	recorded uint64
	dropped  uint64
	evicted  uint64
}

// NewStore returns an empty store bounded by opts.
func NewStore(opts StoreOptions) *Store {
	opts = opts.withDefaults()
	return &Store{
		opts:   opts,
		traces: make(map[string]*entry),
		recent: make(map[string]*ring.Ring[*entry]),
		errs:   ring.New[*entry](opts.ErroredN),
		byDep:  make(map[int]ring.Ring[*entry]),
	}
}

// Options returns the store's effective (defaulted) bounds.
func (s *Store) Options() StoreOptions { return s.opts }

// commit inserts the spans of one trace under one lock, in order. Each
// is admitted exactly as if it had been added on its own: the per-trace
// cap, the budget, retention and the chain index see the same sequence.
func (s *Store) commit(traceID string, recs []record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commits++
	e := s.traces[traceID]
	for i := range recs {
		if e != nil && e.n >= s.opts.MaxSpansPerTrace {
			e.dropped++
			s.dropped++
			continue
		}
		s.makeRoom(e)
		if s.total >= s.opts.MaxSpans {
			// Budget exhausted and nothing evictable besides this trace.
			if e != nil {
				e.dropped++
			}
			s.dropped++
			continue
		}
		left := len(recs) - i
		if e == nil {
			e = s.newEntry(traceID, &recs[i], min(left, s.opts.MaxSpansPerTrace))
		} else if t := e.tail(); len(*t) == cap(*t) {
			// A continuation: an array sized to what the rest of this
			// insert can add.
			e.more = append(e.more, make([]record, 0, min(left, s.opts.MaxSpansPerTrace-e.n)))
		}
		if !s.admit(e, &recs[i]) {
			e = nil // its own delete span freed the trace
		}
	}
}

// newEntry files a new trace whose first span is r, with room for n
// spans.
func (s *Store) newEntry(traceID string, r *record, n int) *entry {
	var e *entry
	if k := len(s.spare); k > 0 {
		// Prefer a spare whose array fits exactly.
		j := k - 1
		for i, sp := range s.spare {
			if cap(sp.recs) == n {
				j = i
				break
			}
		}
		e = s.spare[j]
		s.spare[j] = s.spare[k-1]
		s.spare[k-1] = nil
		s.spare = s.spare[:k-1]
	} else {
		e = new(entry)
	}
	if cap(e.recs) != n {
		e.recs = make([]record, 0, n)
	}
	e.id, e.kind = traceID, r.kindName()
	e.minStart, e.maxEnd = r.start, r.start+r.dur
	s.traces[traceID] = e
	e.pos = len(s.order)
	s.order = append(s.order, e)
	s.compactOrder()
	s.pushRecent(e)
	return e
}

// tail is the array e's next span goes to.
func (e *entry) tail() *[]record {
	if len(e.more) > 0 {
		return &e.more[len(e.more)-1]
	}
	return &e.recs
}

// admit adds r to e and files e where r makes it belong. It reports
// false when r, a delete, released the chain index that held the last
// reference to e: e is freed.
func (s *Store) admit(e *entry, r *record) bool {
	t := e.tail()
	*t = append(*t, *r)
	e.n++
	s.total++
	s.recorded++
	e.minStart = min(e.minStart, r.start)
	e.maxEnd = max(e.maxEnd, r.start+r.dur)
	if r.err() != "" && !e.errored {
		e.errored = true
		s.pushErrored(e)
	}
	switch d := r.depID(); {
	case d == 0:
	case r.kind == kindDelete && r.err() == "":
		// The chain is gone: its index entry goes with it, and this
		// span does not start a new one. The delete's own trace stays
		// reachable by ID (the orchestrator's tombstone carries it)
		// while a ring or pinned set holds it.
		s.dropDep(d)
		if e.refs <= 0 {
			return false // the index held the last reference to this trace too
		}
	default:
		s.indexDep(e, d)
	}
	if r.parent == 0 && e.root == nil {
		e.root = &(*t)[len(*t)-1]
		e.named = false
		if k := r.kindName(); k != e.kind {
			from := e.kind
			e.kind = k
			s.moveRing(e, from)
		}
		s.considerSlowest(e)
	}
	return true
}

// makeRoom force-evicts oldest traces (except exclude, the one being
// written) until one more span fits under MaxSpans. The victim is found
// from head, which moves past it and past every freed slot on the way,
// so an eviction is amortized O(1).
func (s *Store) makeRoom(exclude *entry) {
	for s.total+1 > s.opts.MaxSpans {
		var victim *entry
		for i := s.head; i < len(s.order); i++ {
			v := s.order[i]
			if v == nil {
				if i == s.head {
					s.head++
				}
				continue
			}
			if v != exclude {
				victim = v
				break
			}
		}
		if victim == nil {
			return
		}
		s.forceEvict(victim)
	}
}

// compactOrder rewrites order to its live entries once the consumed and
// freed slots outnumber them — traces freed by refcount leave their
// slots behind, and nothing else collects those. Run on every new
// trace, it keeps len(order) within a constant factor of the live
// traces at amortized O(1).
func (s *Store) compactOrder() {
	if len(s.order) < 2*len(s.traces)+64 {
		return
	}
	live := s.order[:0]
	for _, e := range s.order[s.head:] {
		if e != nil {
			e.pos = len(live)
			live = append(live, e)
		}
	}
	clear(s.order[len(live):])
	s.order, s.head = live, 0
}

// forceEvict removes e from every retention set and frees it.
func (s *Store) forceEvict(e *entry) {
	if e.inRing {
		removeEntry(s.recent[e.kind], e)
		e.inRing = false
	}
	if e.inSlow {
		s.slowRemove(e.slowAt)
		e.inSlow = false
	}
	if e.inErr {
		removeEntry(&s.errs, e)
		e.inErr = false
	}
	for _, d := range e.deps {
		r := s.byDep[d]
		removeEntry(&r, e)
		if r.Len() == 0 {
			delete(s.byDep, d)
		} else {
			s.byDep[d] = r
		}
	}
	e.deps = e.deps[:0]
	s.free(e)
}

// removeEntry takes e out of r. An evicted trace is among the oldest of
// its sets, so the scan runs from the front.
func removeEntry(r *ring.Ring[*entry], e *entry) {
	for i := 0; i < r.Len(); i++ {
		if r.At(i) == e {
			r.Remove(i)
			return
		}
	}
}

// The bounds of the spare list: how many freed entries it keeps, and how
// long a record array a kept entry may hold on to. Most traces are one
// request's few spans; a storm batch's hundred go to the collector.
const (
	maxSpareEntries = 16
	maxSpareSpans   = 8
)

// free forgets the trace. Nothing may use e afterwards: it is reset and
// kept for the next new trace. Readers were handed copies (Trace,
// summaryLocked), so reusing the record array aliases nothing.
func (s *Store) free(e *entry) {
	delete(s.traces, e.id)
	s.order[e.pos] = nil
	s.total -= e.n
	s.evicted++
	if len(s.spare) < maxSpareEntries {
		recs := e.recs[:0]
		if cap(recs) > maxSpareSpans {
			recs = nil
		}
		clear(e.recs) // the spans' strings and attributes go now, not at reuse
		*e = entry{recs: recs, deps: e.deps[:0]}
		s.spare = append(s.spare, e)
	}
}

func (s *Store) unref(e *entry) {
	e.refs--
	if e.refs <= 0 {
		s.free(e)
	}
}

func (s *Store) pushRecent(e *entry) {
	e.refs++
	s.fileRecent(e)
}

// fileRecent appends e to its kind's ring, releasing the reference the
// ring held on the trace it pushes out. A trace sits in no ring but its
// kind's: moveRing re-files it when its kind changes.
func (s *Store) fileRecent(e *entry) {
	e.inRing = true
	r := s.recent[e.kind]
	if r == nil {
		nr := ring.New[*entry](s.opts.RecentPerKind)
		r = &nr
		s.recent[e.kind] = r
	}
	if old, ok := r.Push(e); ok && old.inRing {
		old.inRing = false
		s.unref(old)
	}
}

// moveRing re-files a trace whose root span revealed its real kind
// (e.g. a trace created by a child repair span whose root turns out
// to be an http request) from the ring of kind from. A trace whose
// root arrives in the insert that created it is its ring's newest, so
// the scan runs from the back.
func (s *Store) moveRing(e *entry, from string) {
	if !e.inRing {
		return // already popped from its ring: don't resurrect
	}
	r := s.recent[from]
	for i := r.Len() - 1; i >= 0; i-- {
		if r.At(i) == e {
			r.Remove(i)
			break
		}
	}
	s.fileRecent(e)
}

func (s *Store) pushErrored(e *entry) {
	e.inErr = true
	e.refs++
	if old, ok := s.errs.Push(e); ok && old.inErr {
		old.inErr = false
		s.unref(old)
	}
}

// considerSlowest pins e among the slowest N roots if it is slower than
// the fastest pinned one, which it replaces. Among equally fast pinned
// roots the one pinned in the earliest slot goes: a newcomer takes its
// victim's slowKey, a new slot a key above all, so the heap's
// (root duration, slowKey) minimum is the first minimum of the slots in
// order.
func (s *Store) considerSlowest(e *entry) {
	if len(s.slow) < s.opts.SlowestN {
		e.inSlow = true
		e.refs++
		e.slowKey = s.slowSeq
		s.slowSeq++
		e.slowAt = len(s.slow)
		s.slow = append(s.slow, e)
		s.slowUp(e.slowAt)
		return
	}
	v := s.slow[0]
	if e.root.dur <= v.root.dur {
		return
	}
	v.inSlow = false
	e.inSlow = true
	e.refs++
	e.slowKey, e.slowAt = v.slowKey, 0
	s.slow[0] = e
	s.slowDown(0)
	s.unref(v)
}

func slowLess(a, b *entry) bool {
	return a.root.dur < b.root.dur || a.root.dur == b.root.dur && a.slowKey < b.slowKey
}

func (s *Store) slowSwap(i, j int) {
	s.slow[i], s.slow[j] = s.slow[j], s.slow[i]
	s.slow[i].slowAt, s.slow[j].slowAt = i, j
}

func (s *Store) slowUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !slowLess(s.slow[i], s.slow[p]) {
			return
		}
		s.slowSwap(i, p)
		i = p
	}
}

func (s *Store) slowDown(i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(s.slow) && slowLess(s.slow[l], s.slow[m]) {
			m = l
		}
		if r := 2*i + 2; r < len(s.slow) && slowLess(s.slow[r], s.slow[m]) {
			m = r
		}
		if m == i {
			return
		}
		s.slowSwap(i, m)
		i = m
	}
}

func (s *Store) slowRemove(i int) {
	last := len(s.slow) - 1
	if i != last {
		s.slowSwap(i, last)
	}
	s.slow[last] = nil
	s.slow = s.slow[:last]
	if i < last {
		s.slowDown(i)
		s.slowUp(i)
	}
}

func (s *Store) indexDep(e *entry, d int) {
	for _, have := range e.deps {
		if have == d {
			return
		}
	}
	e.deps = append(e.deps, d)
	e.refs++
	r, ok := s.byDep[d]
	if !ok {
		r = ring.New[*entry](s.opts.ChainDepth)
	}
	old, evicted := r.Push(e)
	s.byDep[d] = r
	if evicted {
		old.deps = removeDep(old.deps, d)
		s.unref(old)
	}
}

// dropDep forgets deployment d's chain index, releasing the reference it
// held on each indexed trace.
func (s *Store) dropDep(d int) {
	r := s.byDep[d]
	delete(s.byDep, d)
	for i := 0; i < r.Len(); i++ {
		v := r.At(i)
		v.deps = removeDep(v.deps, d)
		s.unref(v)
	}
}

func removeDep(deps []int, d int) []int {
	for i, have := range deps {
		if have == d {
			return append(deps[:i], deps[i+1:]...)
		}
	}
	return deps
}

func (s *Store) summaryLocked(e *entry) Summary {
	if !e.named {
		// The root's name, else the first span's; a request's is built
		// from its parts here, once per trace.
		if e.root != nil {
			e.name = e.root.fullName()
		}
		if e.name == "" && len(e.recs) > 0 {
			e.name = e.recs[0].fullName()
		}
		e.named = true
	}
	return Summary{
		ID:       e.id,
		Kind:     e.kind,
		Name:     e.name,
		Start:    time.Unix(0, e.minStart),
		Duration: e.duration(),
		Spans:    e.n,
		Dropped:  e.dropped,
		Errored:  e.errored,
		Deps:     append([]int(nil), e.deps...),
	}
}

// slowerFirst orders traces for a listing: by duration descending, ties
// by ID. IDs are unique, so it never answers 0 for two traces.
func slowerFirst(a, b *entry) int {
	if c := cmp.Compare(b.duration(), a.duration()); c != 0 {
		return c
	}
	return strings.Compare(a.id, b.id)
}

// Traces lists retained traces matching q, slowest-first. The scan
// keeps the limit slowest matches seen so far, in order, and only the
// ones left at the end are summarised: a query costs the store's size in
// comparisons and the limit in copies.
func (s *Store) Traces(q Query) []Summary {
	limit := q.Limit
	if limit <= 0 {
		limit = 100
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	top := make([]*entry, 0, min(limit, len(s.traces)))
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
			if slowerFirst(e, top[limit-1]) > 0 {
				continue
			}
			top = top[:limit-1]
		}
		i, _ := slices.BinarySearchFunc(top, e, slowerFirst)
		top = slices.Insert(top, i, e)
	}
	out := make([]Summary, len(top))
	for i, e := range top {
		out[i] = s.summaryLocked(e)
	}
	return out
}

// Trace returns all retained spans of one trace (expanded from the
// store's records), the number of spans dropped by the per-trace cap,
// and whether the trace exists.
func (s *Store) Trace(id string) ([]Span, int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.traces[id]
	if !ok {
		return nil, 0, false
	}
	out := make([]Span, 0, e.n)
	for i := range e.recs {
		out = append(out, e.recs[i].span(e.id))
	}
	for _, recs := range e.more {
		for i := range recs {
			out = append(out, recs[i].span(e.id))
		}
	}
	return out, e.dropped, true
}

// ChainTraces returns the retained lifecycle traces of one
// deployment, most recent first.
func (s *Store) ChainTraces(dep int) []Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.byDep[dep]
	out := make([]Summary, 0, r.Len())
	for i := r.Len() - 1; i >= 0; i-- {
		out = append(out, s.summaryLocked(r.At(i)))
	}
	return out
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Commits:       s.commits,
		SpansRecorded: s.recorded,
		SpansDropped:  s.dropped,
		TracesEvicted: s.evicted,
		LiveSpans:     s.total,
		LiveTraces:    len(s.traces),
		IndexedChains: len(s.byDep),
	}
}
