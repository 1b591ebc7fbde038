package orch

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/alvc/alvc/internal/topology"
)

// fakeHandler records every HandleFailures batch it receives.
type fakeHandler struct {
	mu      sync.Mutex
	batches [][2][]int // [nodes, links] as ints for easy comparison
}

func (f *fakeHandler) HandleFailures(_ context.Context, dead topology.Failures) ([]RepairReport, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var ns, ls []int
	for _, n := range dead.Nodes() {
		ns = append(ns, int(n))
	}
	for _, l := range dead.Links() {
		ls = append(ls, int(l))
	}
	f.batches = append(f.batches, [2][]int{ns, ls})
	return nil, nil
}

func (f *fakeHandler) Hooks() *Hooks { return &Hooks{} }

func (f *fakeHandler) batchCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.batches)
}

// TestDebouncerCoalescesWindow: a burst of reports within one window
// dispatches as exactly one union batch, with duplicates deduplicated,
// when the window expires and not before.
func TestDebouncerCoalescesWindow(t *testing.T) {
	h := &fakeHandler{}
	clock := &manualClock{}
	d := NewFailureDebouncer(h, 20*time.Millisecond)
	d.clock = clock

	d.Report(bg, topology.NewFailures([]topology.NodeID{1}, nil))
	d.Report(bg, topology.NewFailures([]topology.NodeID{2}, []topology.LinkID{10}))
	d.Report(bg, topology.NewFailures(nil, []topology.LinkID{10, 11})) // duplicate link 10
	d.Report(bg, topology.NewFailures([]topology.NodeID{1}, nil))      // duplicate node 1

	clock.advance(20*time.Millisecond - 1)
	if got := h.batchCount(); got != 0 {
		t.Fatalf("batches = %d before the window expired, want 0", got)
	}
	clock.advance(1)
	if got := h.batchCount(); got != 1 {
		t.Fatalf("batches = %d, want 1", got)
	}
	h.mu.Lock()
	batch := h.batches[0]
	h.mu.Unlock()
	if len(batch[0]) != 2 || len(batch[1]) != 2 {
		t.Fatalf("union batch = %v, want 2 nodes + 2 links", batch)
	}
	st := d.Stats()
	if st.Events != 4 || st.Batches != 1 || st.Coalesced != 3 {
		t.Fatalf("stats = %+v, want Events=4 Batches=1 Coalesced=3", st)
	}
	if n := clock.armed(); n != 0 {
		t.Fatalf("%d windows still armed after the flush", n)
	}
}

// TestDebouncerStaleExpiryKeepsNextWindow: a window's expiry that fires
// while an explicit Flush holds the debouncer runs only after that Flush
// and a new report armed the next window. It must leave the next window
// alone: the new report stays pending, later reports still coalesce into
// it, and it flushes when its own expiry comes.
func TestDebouncerStaleExpiryKeepsNextWindow(t *testing.T) {
	h := &fakeHandler{}
	clock := &manualClock{}
	d := NewFailureDebouncer(h, 20*time.Millisecond)
	d.clock = clock

	d.Report(bg, topology.NewFailures([]topology.NodeID{1}, nil))
	// The first window's timer fires, and an explicit Flush dispatches its
	// union before the expiry runs; then the next window opens, and only
	// then the first expiry runs.
	stale := clock.take()
	if _, err := d.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	d.Report(bg, topology.NewFailures([]topology.NodeID{2}, nil))
	stale()
	if got := h.batchCount(); got != 1 {
		t.Fatalf("batches = %d after the stale expiry, want the explicit flush's 1", got)
	}
	if n, l := d.Pending(); n != 1 || l != 0 {
		t.Fatalf("pending = (%d,%d) after the stale expiry, want the new report's (1,0)", n, l)
	}
	d.Report(bg, topology.NewFailures(nil, []topology.LinkID{7}))
	if st := d.Stats(); st.Events != 3 || st.Batches != 1 || st.Coalesced != 1 {
		t.Fatalf("stats = %+v, want Events=3 Batches=1 Coalesced=1", st)
	}
	clock.advance(20 * time.Millisecond)
	if got := h.batchCount(); got != 2 {
		t.Fatalf("batches = %d after the second window expired, want 2", got)
	}
	h.mu.Lock()
	batch := h.batches[1]
	h.mu.Unlock()
	if len(batch[0]) != 1 || len(batch[1]) != 1 {
		t.Fatalf("second batch = %v, want node 2 and link 7", batch)
	}
}

// TestDebouncerFlushSynchronous: an explicit Flush dispatches the
// pending union immediately, cancels the window, and a second Flush
// with nothing pending is a no-op.
func TestDebouncerFlushSynchronous(t *testing.T) {
	h := &fakeHandler{}
	d := NewFailureDebouncer(h, time.Hour) // never expires on its own
	d.Report(bg, topology.NewFailures([]topology.NodeID{5}, []topology.LinkID{7}))
	d.Report(bg, topology.NewFailures([]topology.NodeID{6}, nil))
	if n, l := d.Pending(); n != 2 || l != 1 {
		t.Fatalf("pending = (%d,%d), want (2,1)", n, l)
	}
	if _, err := d.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := h.batchCount(); got != 1 {
		t.Fatalf("batches = %d, want 1", got)
	}
	if n, l := d.Pending(); n != 0 || l != 0 {
		t.Fatalf("pending after flush = (%d,%d), want (0,0)", n, l)
	}
	// Nothing pending: no dispatch, no batch counted.
	if reports, err := d.Flush(); reports != nil || err != nil {
		t.Fatalf("empty Flush = (%v,%v), want (nil,nil)", reports, err)
	}
	if st := d.Stats(); st.Batches != 1 {
		t.Fatalf("empty flush counted a batch: %+v", st)
	}
}

// TestDebouncerZeroWindowPassThrough: a non-positive window disables
// coalescing — every report dispatches before Report returns.
func TestDebouncerZeroWindowPassThrough(t *testing.T) {
	h := &fakeHandler{}
	d := NewFailureDebouncer(h, 0)
	d.Report(bg, topology.NewFailures([]topology.NodeID{1}, nil))
	d.Report(bg, topology.NewFailures([]topology.NodeID{2}, nil))
	if got := h.batchCount(); got != 2 {
		t.Fatalf("batches = %d, want 2 (pass-through)", got)
	}
	if st := d.Stats(); st.Events != 2 || st.Batches != 2 || st.Coalesced != 0 {
		t.Fatalf("stats = %+v, want Events=2 Batches=2 Coalesced=0", st)
	}
}

// TestDebouncedStormRepairsOnce: two failure events — the chain's
// primary link and its standby link, the classic storm pattern that
// per-event handling repairs twice (swap, then re-path, asserted on a
// second fleet) — coalesce into one batch that classifies the chain
// against the union and repairs it exactly once.
func TestDebouncedStormRepairsOnce(t *testing.T) {
	s, _, ids := triOrch(t, Config{})
	dep, err := s.Provision(bg, triSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if dep.Standby == nil {
		t.Fatal("no standby planned")
	}
	d := NewFailureDebouncer(s, time.Hour)
	// Event 1: the primary's transit link. Event 2: the standby's.
	d.Report(bg, topology.NewFailures(nil, []topology.LinkID{ids.torOpsLinks[0][0]}))
	d.Report(bg, topology.NewFailures(nil, []topology.LinkID{ids.torOpsLinks[0][1]}))
	reports, err := d.Flush()
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if len(reports) != 1 || reports[0].ID != dep.ID {
		t.Fatalf("reports = %+v, want exactly one for deployment %d", reports, dep.ID)
	}
	// Against the union the standby is dead too, so the one repair must
	// be a cold re-path (route 2), not a swap onto the dead standby.
	if reports[0].Action != ActionRepathed {
		t.Fatalf("action = %s, want %s", reports[0].Action, ActionRepathed)
	}
	got := s.Deployment(dep.ID)
	if !pathContains(got.Path, ids.opss[2]) {
		t.Fatalf("repaired path %v does not use the spare route", got.Path)
	}
	if st := d.Stats(); st.Events != 2 || st.Batches != 1 || st.Coalesced != 1 {
		t.Fatalf("stats = %+v, want Events=2 Batches=1 Coalesced=1", st)
	}

	// The same two events, one at a time, on an identical fleet: the
	// chain reconciles twice — a swap, then a re-path off the standby.
	s, _, ids = triOrch(t, Config{})
	if _, err := s.Provision(bg, triSpec(t, "chain-1")); err != nil {
		t.Fatalf("Provision: %v", err)
	}
	for route, want := range []RepairAction{ActionSwapped, ActionRepathed} {
		reports, err := failLink(s, ids.torOpsLinks[0][route])
		if err != nil || len(reports) != 1 || reports[0].Action != want {
			t.Fatalf("per-event failure %d: reports=%+v err=%v, want one %s", route, reports, err, want)
		}
	}
}

// TestRepairEventsCarryFailureDomain: repair-completed events stamp the
// batch's shared failure domain — the dead links' SRLGs when any are
// grouped, a unique batch tag otherwise.
func TestRepairEventsCarryFailureDomain(t *testing.T) {
	s, o, ids := triOrch(t, Config{})
	if _, err := s.Provision(bg, triSpec(t, "chain-1")); err != nil {
		t.Fatalf("Provision: %v", err)
	}
	sink := &recordingSink{}
	s.UpdateHooks(func(h *Hooks) { h.Events = []EventSink{sink} })

	// Both route-0 transit links ride tray 42.
	if err := o.topo.SetLinkSRLG(ids.torOpsLinks[0][0], 42); err != nil {
		t.Fatalf("SetLinkSRLG: %v", err)
	}
	if err := o.topo.SetLinkSRLG(ids.torOpsLinks[1][0], 42); err != nil {
		t.Fatalf("SetLinkSRLG: %v", err)
	}
	if _, err := s.HandleFailures(bg, topology.NewFailures(nil, []topology.LinkID{ids.torOpsLinks[0][0], ids.torOpsLinks[1][0]})); err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	sink.mu.Lock()
	var domains []string
	for _, ev := range sink.events {
		if ev.Kind == EventRepairCompleted {
			domains = append(domains, ev.Domain.String())
		}
	}
	sink.mu.Unlock()
	if len(domains) == 0 {
		t.Fatal("no repair-completed events")
	}
	for _, dom := range domains {
		if dom != "srlg:42" {
			t.Fatalf("domain = %q, want srlg:42", dom)
		}
	}

	// An ungrouped failure gets a unique batch tag.
	sink.mu.Lock()
	sink.events = nil
	sink.mu.Unlock()
	if _, err := s.HandleFailures(bg, topology.NewFailures(nil, []topology.LinkID{ids.torOpsLinks[0][1]})); err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for _, ev := range sink.events {
		if ev.Kind == EventRepairCompleted && (ev.Domain.SRLGs != nil || !strings.HasPrefix(ev.Domain.String(), "batch:")) {
			t.Fatalf("ungrouped failure domain = %+v, want batch:N", ev.Domain)
		}
	}
}

// TestDebouncerConcurrentFlushesKeepTheirWindows: reporters, explicit
// Flushes and window expiries at once, under the race detector in CI. A
// flush hands its window's arrays back only after its HandleFailures
// returned, so every reported node reaches exactly one batch, and the
// detector sees no report writing into a window a flush still reads.
func TestDebouncerConcurrentFlushesKeepTheirWindows(t *testing.T) {
	h := &fakeHandler{}
	clock := &manualClock{}
	d := NewFailureDebouncer(h, time.Millisecond)
	d.clock = clock
	const reporters, reports = 4, 200
	var wg sync.WaitGroup
	for g := range reporters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range reports {
				d.Report(bg, topology.NewFailures([]topology.NodeID{topology.NodeID(1 + g*reports + i)}, nil))
				switch i % 3 {
				case 0:
					d.Flush()
				case 1: // a window's timer fires: its expiry runs now
					if expire := clock.take(); expire != nil {
						expire()
					}
				}
			}
		}()
	}
	wg.Wait()
	d.Flush()
	clock.advance(time.Millisecond) // an expiry a Flush overtook finds nothing
	seen := make(map[int]int)
	for _, batch := range h.batches {
		for _, n := range batch[0] {
			seen[n]++
		}
	}
	for n := 1; n <= reporters*reports; n++ {
		if seen[n] != 1 {
			t.Fatalf("node %d reached %d batches, want 1", n, seen[n])
		}
	}
}
