// Failure-event debouncing: a failure storm — a tray cut, a rack PDU
// trip, a melted conduit — arrives at the control plane as a burst of
// per-resource notifications spread over milliseconds. Handling each
// one alone repairs the same chains repeatedly (swap on the first dead
// link, re-path on the second) and pays one reconciliation pass over the
// shards per event. The FailureDebouncer coalesces the burst: reports within one
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
// observer. HandleFailures keeps nothing of f's lists past its return:
// the debouncer fills their arrays with the next window.
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
	expire func() // an armed window's expiry, bound once

	mu    sync.Mutex
	stats DebounceStats
	// pending is the open window; spare, a flushed one's arrays, emptied
	// once its HandleFailures returned, for the next window to fill.
	pending, spare window
	timer          Timer // the armed window's expiry; nil when none is armed
	stale          int   // expiries that fired after a Flush took their window
}

// window is one debounce window: its union, its reports' spans (one per
// distinct trace), which the batch span continues and links across the
// wait, and the batch span's carrier, kept from an earlier flush.
type window struct {
	nodes   []topology.NodeID
	links   []topology.LinkID
	parents []trace.SpanContext
	carrier *trace.Carrier
}

// NewFailureDebouncer wraps a failure handler with a coalescing window.
// A non-positive window disables coalescing: every Report dispatches
// synchronously (still through the batch path, still counted).
func NewFailureDebouncer(h FailureHandler, window time.Duration) *FailureDebouncer {
	d := &FailureDebouncer{h: h, window: window, clock: WallClock}
	d.expire = func() { d.flush(true) }
	return d
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
	w := &d.pending
	w.nodes = merge(w.nodes, f.Nodes())
	w.links = merge(w.links, f.Links())
	if sc, ok := trace.FromContext(ctx); ok && d.h.Hooks().Tracer != nil && len(w.parents) < maxBatchParents &&
		!slices.ContainsFunc(w.parents, func(p trace.SpanContext) bool { return p.TraceID == sc.TraceID }) {
		w.parents = append(w.parents, sc.Detached()) // the report's request ends before the flush
	}
	if d.window <= 0 {
		d.mu.Unlock()
		d.Flush()
		return
	}
	if d.timer == nil {
		d.timer = d.clock.AfterFunc(d.window, d.expire)
	} else {
		d.stats.Coalesced++
	}
	d.mu.Unlock()
}

// Flush dispatches the pending union immediately as one HandleFailures
// batch, cancelling the armed window, and returns the batch outcome. A
// flush with nothing pending is a no-op returning (nil, nil).
func (d *FailureDebouncer) Flush() ([]RepairReport, error) { return d.flush(false) }

// flush is Flush, or with expiry the armed window's expiry: a no-op when
// a Flush took that window after its timer fired, sparing the next one.
func (d *FailureDebouncer) flush(expiry bool) ([]RepairReport, error) {
	d.mu.Lock()
	switch {
	case expiry && d.stale > 0:
		d.stale--
		d.mu.Unlock()
		return nil, nil
	case !expiry && d.timer != nil && !d.timer.Stop():
		d.stale++ // the expiry is on its way
	}
	d.timer = nil
	if len(d.pending.nodes) == 0 && len(d.pending.links) == 0 {
		d.mu.Unlock()
		return nil, nil
	}
	w := d.pending
	d.pending, d.spare = d.spare, window{}
	d.stats.Batches++
	d.mu.Unlock()
	f := topology.NewFailures(w.nodes, w.links)

	// The batch span continues the first coalesced report's trace — so
	// a failure report's trace contains the whole downstream repair —
	// and links the other reports' traces (they merged into this batch
	// too). With no traced parents the batch starts a fresh trace.
	// The batch span and the repairs under it commit onto that trace as
	// one insert.
	hk := d.h.Hooks()
	tr := hk.Tracer
	ctx := context.Background()
	if tr != nil {
		var first trace.SpanContext
		if len(w.parents) > 0 {
			first = w.parents[0]
		}
		if w.carrier == nil {
			w.carrier = new(trace.Carrier)
		}
		tr.Begin(w.carrier, ctx, first)
		ctx = w.carrier
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
		if len(w.parents) > 0 {
			sp.Parent = w.parents[0].SpanID
			for _, p := range w.parents[1:] {
				if p.TraceID != w.carrier.SC.TraceID {
					if sp.Links == nil {
						sp.Links = make([]string, 0, len(w.parents)-1)
					}
					sp.Links = append(sp.Links, p.TraceID)
				}
			}
		}
		sp.SetError(err)
		tr.End(w.carrier, sp)
	}
	if hk.Flush != nil {
		hk.Flush(elapsed, len(reports))
	}
	clear(w.parents)
	d.mu.Lock()
	d.spare = window{w.nodes[:0], w.links[:0], w.parents[:0], w.carrier}
	d.mu.Unlock()
	return reports, err
}

// Pending returns the sizes of the pending union (nodes, links).
func (d *FailureDebouncer) Pending() (int, int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pending.nodes), len(d.pending.links)
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
