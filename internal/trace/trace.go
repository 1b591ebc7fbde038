// Package trace is a dependency-free request-scoped tracing kernel
// for the AL-VC control plane. It deliberately mirrors the shape of
// OpenTelemetry's span model — trace ID, span ID, parent, name,
// start/end, attributes, status — without importing anything: spans
// are plain values recorded *after* they complete, and the only shared
// state is a bounded in-memory Store that keeps the recent, the slow,
// and the broken.
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
// is no mutable in-flight handle — which keeps the hot path to a
// single store insert after the work finishes.
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
// across goroutines.
type SpanContext struct {
	TraceID string
	SpanID  SpanID
}

// Valid reports whether the context identifies a live trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" }

type ctxKey struct{}

// Carrier is a context that carries a span context in itself: its Value
// answers this package's key with a pointer to SC, so neither wrapping
// the parent nor reading the span back boxes a value. ContextWith
// returns one; a caller that already allocates per request (the server's
// request frame) embeds one and hands out its address. SC must not
// change once the carrier is in use.
type Carrier struct {
	context.Context
	SC SpanContext
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
// parent is valid, a fresh trace otherwise. Nothing is recorded until
// the caller finishes the work and calls Record.
func (t *Tracer) Start(parent SpanContext) SpanContext {
	if t == nil {
		return SpanContext{}
	}
	id := parent.TraceID
	if id == "" {
		id = t.NewTraceID()
	}
	return SpanContext{TraceID: id, SpanID: SpanID(t.spanN.Add(1))}
}

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
	return SpanContext{TraceID: traceID, SpanID: SpanID(t.spanN.Add(1))}
}

// Record stores a completed span. A zero SpanID is filled in (for
// callers that never needed the identity mid-flight).
func (t *Tracer) Record(sp Span) {
	if t == nil || t.store == nil || sp.TraceID == "" {
		return
	}
	if sp.SpanID == 0 {
		sp.SpanID = SpanID(t.spanN.Add(1))
	}
	t.store.add(sp)
}

// RecordChild records a completed leaf span under parent in one call:
// the per-stage fast path. No-op when parent is invalid, so stage
// spans only exist inside an enclosing traced operation.
func (t *Tracer) RecordChild(parent SpanContext, name, kind string, start time.Time, d time.Duration, err error) {
	if t == nil || t.store == nil || !parent.Valid() {
		return
	}
	sp := Span{
		TraceID: parent.TraceID,
		SpanID:  SpanID(t.spanN.Add(1)),
		Parent:  parent.SpanID,
		Name:    name,
		Kind:    kind,
		Start:   start,
		End:     start.Add(d),
	}
	sp.SetError(err)
	t.store.add(sp)
}
