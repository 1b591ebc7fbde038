package telemetry

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/orch"
)

// newTestArch stands up a small architecture with every optional
// subsystem the plane instruments: WDM, optimizer, failure debouncer.
func newTestArch(t *testing.T) *alvc.Architecture {
	t.Helper()
	cfg := alvc.DefaultTopology()
	cfg.Racks = 8
	cfg.OPSCount = 24
	cfg.ToRUplinks = 16
	cfg.OPSChords = 2
	arch, err := alvc.New(cfg,
		alvc.WithWavelengths(4),
		alvc.WithOptimizer(alvc.OptimizerOptions{}),
		alvc.WithFailureDebounce(time.Hour))
	if err != nil {
		t.Fatalf("alvc.New: %v", err)
	}
	return arch
}

func mustDeploy(t *testing.T, arch *alvc.Architecture, name string) *alvc.Deployment {
	t.Helper()
	spec, err := chain.Linear(name, "t1", "web", 2, 1<<20, "firewall", "lb")
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	dep, err := arch.Sharded().Provision(context.Background(), spec)
	if err != nil {
		t.Fatalf("deploy %s: %v", name, err)
	}
	return dep
}

func scrape(t *testing.T, p *Plane) string {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Registry().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return buf.String()
}

// TestPlaneFamilySurface checks the acceptance gate: the exposition
// covers at least 20 families spanning every layer, all under the
// alvc_ prefix, each announced exactly once.
func TestPlaneFamilySurface(t *testing.T) {
	arch := newTestArch(t)
	p := NewPlane(arch, 0)
	defer p.Close()

	names := p.Registry().FamilyNames()
	if len(names) < 20 {
		t.Fatalf("only %d metric families, want >= 20: %v", len(names), names)
	}
	for _, n := range names {
		if !strings.HasPrefix(n, "alvc_") {
			t.Errorf("family %q lacks the alvc_ prefix", n)
		}
	}

	out := scrape(t, p)
	seenType := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		fam := strings.Fields(line)[2]
		if seenType[fam] {
			t.Errorf("family %q announced twice", fam)
		}
		seenType[fam] = true
	}
	// One family per layer proves the span.
	for _, fam := range []string{
		"alvc_orch_provisions_total",
		"alvc_optimizer_queue_depth",
		"alvc_sdn_path_computations_total",
		"alvc_topology_graph_builds_total",
		"alvc_resilience_standby_chains",
		"alvc_optical_lambda_occupancy_ratio",
		"alvc_watch_subscribers",
	} {
		if !seenType[fam] {
			t.Errorf("family %q missing from exposition", fam)
		}
	}
}

// TestPlaneObservesLifecycle drives provision → failure → repair and
// checks the push-side instrumentation: stage latencies, event and
// repair counters, the watch hub, and the debounce flush histogram.
func TestPlaneObservesLifecycle(t *testing.T) {
	arch := newTestArch(t)
	p := NewPlane(arch, 0)
	defer p.Close()

	ch, cancel := p.hub.Subscribe(0, 64)
	defer cancel()

	dep := mustDeploy(t, arch, "c1")

	// Failure goes through the debounced one-code-path entry point and
	// is flushed explicitly (the test window is an hour).
	arch.Debouncer().Report(context.Background(), alvc.NewFailures(nil, nil)) // no-op report must not flush anything
	arch.Debouncer().Report(context.Background(), alvc.NewFailures([]alvc.NodeID{dep.Slice.OPSs[0]}, nil))
	if reports, err := arch.FlushFailures(); err != nil || len(reports) == 0 {
		t.Fatalf("flush: reports=%d err=%v", len(reports), err)
	}

	select {
	case se := <-ch:
		if se.Kind != "repair-completed" || se.Deployment != dep.ID {
			t.Fatalf("unexpected watch event: %+v", se)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no repair event reached the watch hub")
	}

	out := scrape(t, p)
	for _, want := range []string{
		`alvc_orch_provisions_total{shard="0",outcome="ok"} 1`,
		`alvc_orch_events_total{kind="repair-completed"} 1`,
		`alvc_orch_debounce_batches_total 1`,
		`alvc_orch_debounce_flush_seconds_count 1`,
		`alvc_watch_events_total 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing series %q in exposition:\n%s", want, out)
		}
	}
	// At least one pipeline stage was timed during provisioning.
	if !strings.Contains(out, "alvc_orch_pipeline_stage_seconds_count") {
		t.Error("pipeline stage histogram missing")
	}
	if strings.Contains(out, "alvc_orch_pipeline_stage_seconds_count 0\n") &&
		!strings.Contains(out, `alvc_orch_pipeline_stage_seconds_count{`) {
		t.Error("no pipeline stage observations recorded")
	}
}

// pushedSeries returns the exposition lines the plane's hooks write —
// stage, flush and drain histogram counts, the event counter — as
// opposed to what a scrape reads from the architecture.
func pushedSeries(t *testing.T, p *Plane) (out []string) {
	t.Helper()
	for _, line := range strings.Split(scrape(t, p), "\n") {
		for _, prefix := range []string{
			"alvc_orch_pipeline_stage_seconds_count",
			"alvc_orch_debounce_flush_seconds_count",
			"alvc_optimizer_drain_seconds_count",
			"alvc_orch_events_total",
		} {
			if strings.HasPrefix(line, prefix) {
				out = append(out, line)
			}
		}
	}
	return out
}

// Close detaches everything NewPlane attached — its two event sinks and
// the four observers — in one UpdateHooks edit, so a closed plane's
// registry is written no more. A plane opened after this one must be
// closed after it, or it loses its observers to this call.
func (p *Plane) Close() {
	p.arch.Sharded().UpdateHooks(func(h *orch.Hooks) {
		h.Stage, h.Rehome, h.Flush, h.Drain = nil, nil, nil, nil
		h.Events = slices.DeleteFunc(slices.Clone(h.Events), func(s orch.EventSink) bool {
			return s == eventCounterSink{p} || s == p.hub
		})
	})
}

// TestClosedPlaneStopsObserving: Close detaches every hook NewPlane
// attached, so work done afterwards — a provision, a flushed failure, an
// optimizer drain — leaves the closed plane's histograms and counters
// where they were.
func TestClosedPlaneStopsObserving(t *testing.T) {
	arch := newTestArch(t)
	p := NewPlane(arch, 0)
	dep := mustDeploy(t, arch, "c1")
	before := pushedSeries(t, p)
	if len(before) == 0 || !strings.Contains(strings.Join(before, "\n"), `alvc_orch_pipeline_stage_seconds_count{stage="path"} 1`) {
		t.Fatalf("open plane did not observe the provision: %v", before)
	}
	p.Close()

	mustDeploy(t, arch, "c2")
	arch.Debouncer().Report(context.Background(), alvc.NewFailures([]alvc.NodeID{dep.Slice.OPSs[0]}, nil))
	if reports, err := arch.FlushFailures(); err != nil || len(reports) == 0 {
		t.Fatalf("flush: reports=%d err=%v", len(reports), err)
	}
	arch.Optimizer().Drain()
	if after := pushedSeries(t, p); strings.Join(after, "\n") != strings.Join(before, "\n") {
		t.Fatalf("closed plane kept observing:\nbefore %v\nafter  %v", before, after)
	}
}
