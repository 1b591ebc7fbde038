// Failure-event debouncing: a failure storm — a tray cut, a rack PDU
// trip, a melted conduit — arrives at the control plane as a burst of
// per-resource notifications spread over milliseconds. Handling each
// one alone repairs the same chains repeatedly (swap on the first dead
// link, re-path on the second) and pays one reconciliation fan-out per
// event. The FailureDebouncer coalesces the burst: reports within one
// window merge into a union failure set and dispatch as a single
// HandleFailures batch, so every affected chain is classified against
// the whole storm at once and repaired exactly once.
package orch

import (
	"context"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/alvc/alvc/internal/topology"
	"github.com/alvc/alvc/internal/trace"
)

// FailureHandler is the set the debouncer drives, *Sharded: its one
// reconciliation entry point, HandleFailures, whose context carries the
// batch span the debouncer opens, so it reaches the repair spans; and its
// Hooks, whose Tracer and Flush are the debouncer's tracer and flush
// observer.
type FailureHandler interface {
	HandleFailures(ctx context.Context, f topology.Failures) ([]RepairReport, error)
	Hooks() *Hooks
}

// maxBatchParents bounds how many distinct originating spans one batch
// remembers; a storm beyond it still repairs everything, the batch span
// just stops linking further parents.
const maxBatchParents = 64

// DebounceStats counts the debouncer's coalescing work.
type DebounceStats struct {
	// Events is the number of Report calls received.
	Events uint64 `json:"events"`
	// Batches is the number of HandleFailures dispatches — flushes
	// that actually carried a non-empty union.
	Batches uint64 `json:"batches"`
	// Coalesced is the number of reports that merged into an
	// already-armed window instead of opening a new one: the repairs
	// the debounce saved.
	Coalesced uint64 `json:"coalesced"`
}

// FailureDebouncer coalesces failure reports into batched
// HandleFailures calls. Reports arriving within one window merge into
// a pending union of dead nodes and links — two ascending lists, so the
// union dispatches as it stands — and when the window expires (or Flush
// is called) the union dispatches as one batch. Safe for concurrent
// use.
type FailureDebouncer struct {
	h      FailureHandler
	window time.Duration
	clock  Clock

	mu    sync.Mutex
	nodes []topology.NodeID
	links []topology.LinkID
	// stop cancels the armed window's expiry (nil when none is armed);
	// gen numbers the windows, so a late expiry spares a newer one.
	stop  func() bool
	gen   uint64
	stats DebounceStats
	// parents are the spans of the coalesced reports (one per distinct
	// trace), accumulated by Report and drained at flush: the batch
	// span continues the first parent's trace and links the others, so
	// the async window does not sever causality.
	parents []trace.SpanContext
}

// NewFailureDebouncer wraps a failure handler with a coalescing window.
// A non-positive window disables coalescing: every Report dispatches
// synchronously (still through the batch path, still counted).
func NewFailureDebouncer(h FailureHandler, window time.Duration) *FailureDebouncer {
	return &FailureDebouncer{h: h, window: window, clock: WallClock}
}

// Report merges a failure notification into the pending window. The
// first report of a quiet period arms the window timer; later reports
// within the window coalesce into it. With a non-positive window the
// union (just this report) dispatches before Report returns. When ctx
// holds a span (the failure report's HTTP request) and a tracer is
// attached, the span is remembered as a parent of the batch that
// eventually flushes this report, preserving causality across the
// debounce window. With a tracer attached, every flush records a batch
// span whose trace continues the first coalesced report's trace and
// links the others'.
func (d *FailureDebouncer) Report(ctx context.Context, f topology.Failures) {
	if f.Empty() {
		return
	}
	d.mu.Lock()
	d.stats.Events++
	d.nodes = merge(d.nodes, f.Nodes())
	d.links = merge(d.links, f.Links())
	if sc, ok := trace.FromContext(ctx); ok && d.h.Hooks().Tracer != nil && len(d.parents) < maxBatchParents &&
		!slices.ContainsFunc(d.parents, func(p trace.SpanContext) bool { return p.TraceID == sc.TraceID }) {
		d.parents = append(d.parents, sc.Detached()) // the report's request ends before the flush
	}
	if d.window <= 0 {
		d.mu.Unlock()
		d.Flush()
		return
	}
	if d.stop == nil {
		d.gen++
		gen := d.gen
		d.stop = d.clock.AfterFunc(d.window, func() { d.flush(gen) })
	} else {
		d.stats.Coalesced++
	}
	d.mu.Unlock()
}

// Flush dispatches the pending union immediately as one HandleFailures
// batch, cancelling the armed window, and returns the batch outcome. A
// flush with nothing pending is a no-op returning (nil, nil).
func (d *FailureDebouncer) Flush() ([]RepairReport, error) { return d.flush(0) }

// flush is Flush, or with gen > 0 the expiry of window gen: a no-op once
// that window is flushed, so an expiry racing a Flush spares the next.
func (d *FailureDebouncer) flush(gen uint64) ([]RepairReport, error) {
	d.mu.Lock()
	stale := gen > 0 && (gen != d.gen || d.stop == nil)
	if !stale && d.stop != nil {
		d.stop()
		d.stop = nil
	}
	if stale || len(d.nodes) == 0 && len(d.links) == 0 {
		d.mu.Unlock()
		return nil, nil
	}
	f := topology.NewFailures(d.nodes, d.links)
	d.nodes, d.links = nil, nil
	d.stats.Batches++
	parents := d.parents
	d.parents = nil
	d.mu.Unlock()

	// The batch span continues the first coalesced report's trace — so
	// a failure report's trace contains the whole downstream repair —
	// and links the other reports' traces (they merged into this batch
	// too). With no traced parents the batch starts a fresh trace.
	// The batch span and the repairs under it commit onto that trace as
	// one insert.
	hk := d.h.Hooks()
	tr := hk.Tracer
	ctx := context.Background()
	var c *trace.Carrier
	if tr != nil {
		var first trace.SpanContext
		if len(parents) > 0 {
			first = parents[0]
		}
		c = new(trace.Carrier)
		tr.Begin(c, ctx, first)
		ctx = c
	}

	start := time.Now()
	reports, err := d.h.HandleFailures(ctx, f)
	elapsed := time.Since(start)
	if tr != nil {
		sp := trace.Span{
			Name: "debounce.flush", Kind: trace.KindBatch, Start: start, End: start.Add(elapsed),
			Attrs: []trace.Attr{
				{Key: "nodes", Value: strconv.Itoa(len(f.Nodes()))},
				{Key: "links", Value: strconv.Itoa(len(f.Links()))},
				{Key: "reports", Value: strconv.Itoa(len(reports))},
			}}
		if len(parents) > 0 {
			sp.Parent = parents[0].SpanID
			for _, p := range parents[1:] {
				if p.TraceID != c.SC.TraceID {
					sp.Links = append(sp.Links, p.TraceID)
				}
			}
		}
		sp.SetError(err)
		tr.End(c, sp)
	}
	if hk.Flush != nil {
		hk.Flush(elapsed, len(reports))
	}
	return reports, err
}

// Pending returns the sizes of the pending union (nodes, links).
func (d *FailureDebouncer) Pending() (int, int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.nodes), len(d.links)
}

// Stats returns a snapshot of the coalescing counters.
func (d *FailureDebouncer) Stats() DebounceStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// merge folds the ascending list ids into the ascending pending list,
// each ID once: a report of one resource costs one binary search and at
// most one insert.
func merge[T ~int](pending, ids []T) []T {
	for _, id := range ids {
		if i, found := slices.BinarySearch(pending, id); !found {
			pending = slices.Insert(pending, i, id)
		}
	}
	return pending
}
