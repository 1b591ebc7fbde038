package optimizer

import (
	"fmt"
	"testing"

	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/trace"
)

// TestStormGroupSpanLinksParents: trace continuity through storm mode.
// Repair events below the storm threshold queue per-deployment tasks
// that each record an optimizer span in their originating trace; once
// the storm engages, the coalesced group task records a single span
// that continues the first member's trace and links every other
// member's, so no originating failure trace dead-ends.
func TestStormGroupSpanLinksParents(t *testing.T) {
	o, eng := engineOver(t, wideTopo(t, 10), Options{StormThreshold: 2})
	tr := trace.NewTracer(trace.NewStore(trace.StoreOptions{}))
	eng.SetTracer(tr)

	var deps []*orch.Deployment
	for i := 0; i < 6; i++ {
		deps = append(deps, provision(t, o, fmt.Sprintf("chain-%d", i)))
	}
	// A domain-stamped burst, each event from its own repair trace.
	for i, dep := range deps {
		eng.OrchEvent(orch.Event{
			Kind:       orch.EventRepairCompleted,
			Deployment: dep.ID,
			Action:     orch.ActionSwapped,
			Domain:     orch.FailureDomain{SRLGs: []int{7}},
			TraceID:    fmt.Sprintf("evt-%d", i+1),
			SpanID:     trace.SpanID(100 + i),
		})
	}
	if st := eng.Status(); !st.Storm.Active {
		t.Fatalf("storm = %+v, want active after the burst", st.Storm)
	}
	eng.Drain()

	// Events 1 and 2 ran below the threshold as individual tasks: each
	// continues its own trace with a per-task optimizer span.
	for i := 1; i <= 2; i++ {
		id := fmt.Sprintf("evt-%d", i)
		spans, _, ok := tr.Store().Trace(id)
		if !ok {
			t.Fatalf("individual task trace %s not in store", id)
		}
		found := false
		for _, sp := range spans {
			if sp.Kind == trace.KindOptimizer && sp.Name == "optimizer.re-protect" {
				if sp.Parent != trace.SpanID(100+i-1) {
					t.Fatalf("task span parent = %d, want the event's span %d", sp.Parent, 100+i-1)
				}
				found = true
			}
		}
		if !found {
			t.Fatalf("no optimizer span in trace %s: %+v", id, spans)
		}
	}

	// Events 3-6 folded into one group task: one span in evt-3's trace
	// linking evt-4..evt-6.
	spans, _, ok := tr.Store().Trace("evt-3")
	if !ok {
		t.Fatal("group trace evt-3 not in store")
	}
	var group *trace.Span
	for i := range spans {
		if spans[i].Name == "optimizer.storm-group" {
			group = &spans[i]
		}
	}
	if group == nil {
		t.Fatalf("no storm-group span in %+v", spans)
	}
	if group.Parent != 102 {
		t.Fatalf("group span parent = %d, want the opening event's span 102", group.Parent)
	}
	wantLinks := map[string]bool{"evt-4": false, "evt-5": false, "evt-6": false}
	if len(group.Links) != len(wantLinks) {
		t.Fatalf("group links = %v, want all other members", group.Links)
	}
	for _, l := range group.Links {
		if _, want := wantLinks[l]; !want {
			t.Fatalf("unexpected link %q in %v", l, group.Links)
		}
		wantLinks[l] = true
	}
	for id, seen := range wantLinks {
		if !seen {
			t.Fatalf("member trace %s not linked by the group span", id)
		}
	}
}

// TestUntracedTasksRecordNoSpans: tick- and sweep-queued tasks carry
// no trace and stay span-free even with a tracer attached.
func TestUntracedTasksRecordNoSpans(t *testing.T) {
	o, eng := engineOver(t, wideTopo(t, 6), Options{})
	tr := trace.NewTracer(trace.NewStore(trace.StoreOptions{}))
	eng.SetTracer(tr)
	dep := provision(t, o, "chain-1")
	eng.Enqueue(dep.ID, KindReProtect)
	eng.Drain()
	if stats := tr.Store().Stats(); stats.SpansRecorded != 0 {
		t.Fatalf("stats = %+v, want no spans from untraced tasks", stats)
	}
}
