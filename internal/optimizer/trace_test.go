package optimizer

import (
	"fmt"
	"testing"

	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/trace"
)

// TestStormGroupSpanLinksParents: trace continuity through the group
// lane. A domain-stamped burst's group task records a single span that
// continues the first member's trace and links every other member's, so
// no originating failure trace dead-ends; a repair with no domain is a
// group of one whose span is filed under its chain in its own trace.
func TestStormGroupSpanLinksParents(t *testing.T) {
	o, eng := engineOver(t, wideTopo(t, 10), Options{})
	tr := trace.NewTracer(trace.NewStore(trace.StoreOptions{}))
	o.UpdateHooks(func(h *orch.Hooks) { h.Tracer = tr })

	var deps []*orch.Deployment
	for i := 0; i < 6; i++ {
		deps = append(deps, provision(t, o, fmt.Sprintf("chain-%d", i)))
	}
	// A domain-stamped burst over the first five chains, each event from
	// its own repair trace; the sixth chain's repair carries no domain.
	for i, dep := range deps {
		ev := orch.Event{
			Kind:       orch.EventRepairCompleted,
			Deployment: dep.ID,
			Action:     orch.ActionSwapped,
			Domain:     orch.FailureDomain{SRLGs: []int{7}},
			TraceID:    fmt.Sprintf("evt-%d", i+1),
			SpanID:     trace.SpanID(100 + i),
		}
		if i == 5 {
			ev.Domain = orch.FailureDomain{}
		}
		eng.OrchEvent(ev)
	}
	eng.Drain()

	// Events 1-5 folded into one group task: one span in evt-1's trace
	// linking evt-2..evt-5.
	spans, _, ok := tr.Store().Trace("evt-1")
	if !ok {
		t.Fatal("group trace evt-1 not in store")
	}
	var group *trace.Span
	for i := range spans {
		if spans[i].Kind == trace.KindOptimizer {
			group = &spans[i]
		}
	}
	if group == nil || group.Name != "optimizer.re-protect" || group.Dep != 0 {
		t.Fatalf("no unfiled optimizer.re-protect group span in %+v", spans)
	}
	if group.Parent != 100 {
		t.Fatalf("group span parent = %d, want the opening event's span 100", group.Parent)
	}
	wantLinks := map[string]bool{"evt-2": false, "evt-3": false, "evt-4": false, "evt-5": false}
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

	// Event 6 ran as a group of one: its span continues its own trace and
	// is filed under its chain, as a per-chain task's always was.
	spans, _, ok = tr.Store().Trace("evt-6")
	if !ok {
		t.Fatal("group-of-one trace evt-6 not in store")
	}
	found := false
	for _, sp := range spans {
		if sp.Kind == trace.KindOptimizer {
			if sp.Name != "optimizer.re-protect" || sp.Parent != 105 || sp.Dep != int(deps[5].ID) || len(sp.Links) != 0 {
				t.Fatalf("group-of-one span = %+v, want optimizer.re-protect under span 105 filed under chain %d", sp, deps[5].ID)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no optimizer span in trace evt-6: %+v", spans)
	}
}

// TestUntracedTasksRecordNoSpans: tick- and sweep-queued tasks carry
// no trace and stay span-free even with a tracer attached.
func TestUntracedTasksRecordNoSpans(t *testing.T) {
	o, eng := engineOver(t, wideTopo(t, 6), Options{})
	tr := trace.NewTracer(trace.NewStore(trace.StoreOptions{}))
	dep := provision(t, o, "chain-1")
	o.UpdateHooks(func(h *orch.Hooks) { h.Tracer = tr })
	eng.Enqueue(dep.ID, KindReProtect)
	eng.Drain()
	if stats := tr.Store().Stats(); stats.SpansRecorded != 0 {
		t.Fatalf("stats = %+v, want no spans from untraced tasks", stats)
	}
}
