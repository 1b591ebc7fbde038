// Package trace is a dependency-free request-scoped tracing kernel
// for the AL-VC control plane. It deliberately mirrors the shape of
// OpenTelemetry's span model — trace ID, span ID, parent, name,
// start/end, attributes, status — without importing anything: spans
// are plain values recorded *after* they complete, and the only shared
// state is a bounded in-memory Store that keeps the recent, the slow,
// and the broken. A span recorded inside an operation (a request, a
// provision, a repair) goes to that operation's buffer, not to the
// store: the outermost operation commits its whole tree in one insert
// when it ends.
//
// The tracer is nil-safe end to end: every method on a nil *Tracer is
// a no-op that allocates nothing, so call sites in hot paths gate on
// the pointer alone and pay nothing when tracing is disabled.
//
// Causality across async boundaries (the debouncer's flush timer, the
// optimizer's task queue) is carried two ways: a child span continues
// its parent's trace ID, and a span that merges several upstream
// traces (a coalesced failure batch, a storm-group task) records the
// other trace IDs in Links.
package trace

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span categories. A trace as a whole is categorized by its root
// span's kind; the per-kind recent rings in the Store use the same
// names, as does the ?kind= filter on GET /v1/traces.
const (
	KindHTTP      = "http"      // one server request
	KindProvision = "provision" // chain provisioning pipeline
	KindDelete    = "delete"    // chain teardown
	KindRepair    = "repair"    // one deployment's failure reconciliation
	KindBatch     = "batch"     // a coalesced debounce flush
	KindOptimizer = "optimizer" // a background-engine task
	KindStage     = "stage"     // one pipeline stage (always a child)
)

// SpanID identifies a span within the process. IDs are allocated from
// one atomic counter, so 0 is never a real span and doubles as the
// "no parent" (root) marker.
type SpanID uint64

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one completed operation. Spans are recorded whole — there
// is no mutable in-flight handle — which keeps the hot path to one
// buffered append after the work finishes.
type Span struct {
	TraceID string
	SpanID  SpanID
	Parent  SpanID // 0 = root of its trace
	Name    string
	Kind    string
	Start   time.Time
	End     time.Time
	Err     string   // empty = ok
	Dep     int      // deployment ID this span touched (0 = none)
	Links   []string // other trace IDs causally merged into this span
	Attrs   []Attr
}

// Duration is the span's wall time.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// SetError stamps err onto the span (no-op for nil).
func (s *Span) SetError(err error) {
	if err != nil {
		s.Err = err.Error()
	}
}

// SpanContext is the propagation handle: just enough identity to
// parent a child span, cheap to copy through context.Context and
// across goroutines. Inside an operation opened with Tracer.Begin it
// also points at the span buffer of that operation's tree, where spans
// recorded under it collect until the outermost operation ends.
type SpanContext struct {
	TraceID string
	SpanID  SpanID
	buf     *buffer
}

// Valid reports whether the context identifies a live trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" }

// Detached returns sc without its operation's span buffer: the form to
// keep past the operation (a report waiting in the debouncer), whose
// spans then continue the trace as their own commit.
func (sc SpanContext) Detached() SpanContext {
	sc.buf = nil
	return sc
}

type ctxKey struct{}

// Carrier is a context that carries a span context in itself: its Value
// answers this package's key with a pointer to SC, so neither wrapping
// the parent nor reading the span back boxes a value. It also holds the
// span buffer of an operation Tracer.Begin opens on it. ContextWith
// returns one; a caller that already allocates per operation (the
// server's request frame, a provision) embeds one or allocates it and
// hands out its address. SC must not change once the carrier is in use.
type Carrier struct {
	context.Context
	SC  SpanContext
	buf buffer
}

// Value serves the span context, and the parent's values otherwise.
func (c *Carrier) Value(key any) any {
	if _, ok := key.(ctxKey); ok {
		return &c.SC
	}
	return c.Context.Value(key)
}

// ContextWith returns ctx carrying sc.
func ContextWith(ctx context.Context, sc SpanContext) context.Context {
	return &Carrier{Context: ctx, SC: sc}
}

// FromContext extracts the span context threaded through ctx, if any:
// the nearest Carrier's, whatever contexts were derived from it since.
func FromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(ctxKey{}).(*SpanContext)
	if !ok {
		return SpanContext{}, false
	}
	return *sc, sc.Valid()
}

// ValidTraceID reports whether id is acceptable as an externally
// supplied trace ID (the inbound X-Trace-Id case): non-empty, at most
// 64 bytes, alphanumeric plus "-", "_", ".".
func ValidTraceID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// Tracer mints trace/span identities and records completed spans into
// its Store. All methods are safe (and free) on a nil receiver.
type Tracer struct {
	store  *Store
	prefix string
	traceN atomic.Uint64
	spanN  atomic.Uint64
}

// NewTracer returns a tracer recording into store (which must not be
// nil). Trace IDs carry a per-process prefix so IDs from restarts
// don't collide in downstream log aggregation.
func NewTracer(store *Store) *Tracer {
	return &Tracer{
		store:  store,
		prefix: strconv.FormatUint(uint64(time.Now().UnixNano())&0xfffffff, 36),
	}
}

// Store returns the tracer's span store (nil for a nil tracer).
func (t *Tracer) Store() *Store {
	if t == nil {
		return nil
	}
	return t.store
}

// NewTraceID mints a fresh trace ID.
func (t *Tracer) NewTraceID() string {
	if t == nil {
		return ""
	}
	var buf [32]byte // the prefix is at most six digits, the count sixteen
	b := append(append(buf[:0], t.prefix...), '-')
	return string(strconv.AppendUint(b, t.traceN.Add(1), 16))
}

// Start allocates a span identity under parent: same trace when
// parent is valid, a fresh trace otherwise. The identity belongs to
// parent's operation: a span recorded under it joins that operation's
// buffer. Nothing is recorded until the caller finishes the work and
// calls Record.
func (t *Tracer) Start(parent SpanContext) SpanContext {
	if t == nil {
		return SpanContext{}
	}
	if parent.TraceID == "" {
		return SpanContext{TraceID: t.NewTraceID(), SpanID: t.newSpanID()}
	}
	return SpanContext{TraceID: parent.TraceID, SpanID: t.newSpanID(), buf: parent.buf}
}

func (t *Tracer) newSpanID() SpanID { return SpanID(t.spanN.Add(1)) }

// StartTrace opens a root span identity on an explicit trace ID —
// the inbound X-Trace-Id case. An empty or malformed id gets a fresh
// one instead.
func (t *Tracer) StartTrace(traceID string) SpanContext {
	if t == nil {
		return SpanContext{}
	}
	if !ValidTraceID(traceID) {
		traceID = t.NewTraceID()
	}
	return SpanContext{TraceID: traceID, SpanID: t.newSpanID()}
}

// Begin opens an operation on c under parent: c carries ctx and the
// operation's span identity from Start(parent). Spans recorded under the
// operation — its stages, the operations nested in it — are buffered,
// not stored: in parent's operation's buffer when parent has one, so a
// nested operation's spans go up with its parent's, and otherwise in
// c's own, which End commits to the store in one insert.
func (t *Tracer) Begin(c *Carrier, ctx context.Context, parent SpanContext) {
	c.Context = ctx
	c.SC = t.Start(parent)
	if t != nil && c.SC.buf == nil {
		c.buf.recs, c.buf.done = nil, false
		c.SC.buf = &c.buf
	}
}

// End records sp as the span of the operation Begin opened on c (sp's
// trace and span IDs are c.SC's). When c's operation is the outermost,
// its buffered spans and sp go to the store in one insert.
func (t *Tracer) End(c *Carrier, sp Span) {
	if t == nil || t.store == nil || !c.SC.Valid() {
		return
	}
	sp.TraceID, sp.SpanID = c.SC.TraceID, c.SC.SpanID
	r := toRecord(&sp)
	t.end(c, &r)
}

// EndRequest is End for a server request: the span's name is method,
// a space and sp.Name (the request path), kept in its two parts and
// joined when the span is read.
func (t *Tracer) EndRequest(c *Carrier, method string, sp Span) {
	if t == nil || t.store == nil || !c.SC.Valid() {
		return
	}
	sp.TraceID, sp.SpanID = c.SC.TraceID, c.SC.SpanID
	r := requestRecord(method, &sp)
	t.end(c, &r)
}

// requestRecord is the record of a request span named method and
// sp.Name: the parts are kept when the method is a standard one, and
// joined now otherwise.
func requestRecord(method string, sp *Span) record {
	r := toRecord(sp)
	if r.method = methodOf(method); r.method == 0 {
		r.name = method + " " + sp.Name
	}
	return r
}

func (t *Tracer) end(c *Carrier, r *record) {
	if c.SC.buf == &c.buf {
		c.buf.commit(t.store, c.SC.TraceID, r)
		return
	}
	t.put(c.SC, r)
}

// Record stores sp, the completed span sc identifies (sp's trace and
// span IDs are sc's): into the buffer of the operation sc belongs to, or
// straight into the store when sc has none.
func (t *Tracer) Record(sc SpanContext, sp Span) {
	if t == nil || t.store == nil || !sc.Valid() {
		return
	}
	sp.TraceID, sp.SpanID = sc.TraceID, sc.SpanID
	r := toRecord(&sp)
	t.put(sc, &r)
}

// RecordChild records a completed leaf span under parent in one call:
// the per-stage fast path. No-op when parent is invalid, so stage
// spans only exist inside an enclosing traced operation.
func (t *Tracer) RecordChild(parent SpanContext, name, kind string, start time.Time, d time.Duration, err error) {
	if t == nil || t.store == nil || !parent.Valid() {
		return
	}
	var msg string
	if err != nil {
		msg = err.Error()
	}
	r := newRecord(t.newSpanID(), parent.SpanID, name, kind, start, d, msg)
	t.put(parent, &r)
}

// put files a record of sc's trace: into sc's operation buffer, or as
// an insert of its own.
func (t *Tracer) put(sc SpanContext, r *record) {
	if sc.buf != nil {
		sc.buf.add(t.store, sc.TraceID, r)
		return
	}
	t.store.commit(sc.TraceID, []record{*r})
}

// buffer collects the spans recorded inside one outermost operation —
// its own stages and every operation nested in it — until the operation
// ends and commits them, in the order they completed, in one insert.
// Its array comes from a pool at the first span and goes back after
// the commit, so a buffer costs no allocation of its own. Operations
// nested on several goroutines (a failure report's repairs) share it,
// hence the lock.
type buffer struct {
	mu   sync.Mutex
	recs *[]record // nil until the first span
	done bool      // committed: a span arriving later is an insert of its own
}

// recordPool recycles buffer arrays; one that grew past maxPooledSpans,
// the default per-trace cap, goes to the collector instead.
var recordPool = sync.Pool{New: func() any { return new([]record) }}

const maxPooledSpans = 256

func (b *buffer) add(st *Store, traceID string, r *record) {
	b.mu.Lock()
	if b.done {
		b.mu.Unlock()
		st.commit(traceID, []record{*r})
		return
	}
	if b.recs == nil {
		b.recs = recordPool.Get().(*[]record)
	}
	*b.recs = append(*b.recs, *r)
	b.mu.Unlock()
}

// commit inserts the buffered spans and last, the outermost operation's
// own span, into st.
func (b *buffer) commit(st *Store, traceID string, last *record) {
	b.mu.Lock()
	recs := b.recs
	b.recs, b.done = nil, true
	b.mu.Unlock()
	if recs == nil {
		st.commit(traceID, []record{*last})
		return
	}
	*recs = append(*recs, *last)
	st.commit(traceID, *recs)
	clear(*recs) // the pool must not keep the spans' strings alive
	if *recs = (*recs)[:0]; cap(*recs) <= maxPooledSpans {
		recordPool.Put(recs)
	}
}
