package telemetry

// Plane wires the whole metric catalog over a running Architecture:
// every layer of the stack — orchestration, background optimizer,
// SDN/topology fast path, resilience posture, optical occupancy — gets
// families on one registry, plus the /v1/watch hub. Most families are
// scrape-time reads of state the architecture already tracks; the push
// side is limited to what only exists as it happens (per-stage
// latencies, event counts, re-home churn, flush/drain latencies),
// delivered through record-only observer hooks and an event-mux
// subscription.

import (
	"net/http"
	"strconv"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/orch"
)

// Histogram bucket bound sets, in seconds unless noted.
var (
	// stageBounds covers in-memory pipeline stages: microseconds at the
	// fast end (cluster lookup on a warm snapshot) to the rare
	// second-scale Yen search under contention.
	stageBounds = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1}
	// batchBounds covers whole-batch operations (debounce flushes,
	// optimizer drains): milliseconds to tens of seconds.
	batchBounds = []float64{1e-3, 1e-2, 0.1, 0.5, 1, 5, 30}
	// occupancyBounds buckets per-link λ occupancy ratios; the 0.75 and
	// 0.9 edges are the congestion early-warning thresholds.
	occupancyBounds = []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1}
)

// congestedOccupancy is the λ occupancy ratio at or above which a link
// counts as congested (alvc_optical_links_congested).
const congestedOccupancy = 0.75

// PlaneOptions tunes a Plane.
type PlaneOptions struct {
	// WatchRing is the /v1/watch Last-Event-ID replay horizon in
	// events (default 256); see HubOptions.RingSize.
	WatchRing int
}

// Plane is the telemetry plane over one Architecture: a Registry
// serving GET /metrics and a Hub serving GET /v1/watch, with every
// instrumentation hook wired. Construct one per architecture.
type Plane struct {
	arch *alvc.Architecture
	reg  *Registry
	hub  *Hub

	// Push-updated families (fed by observer hooks and events).
	repairsTotal *CounterVec // by repair action
	eventsTotal  *CounterVec // by event kind
	stageSeconds *HistogramVec
	flushSeconds *HistogramVec
	drainSeconds *HistogramVec
	rehomeChurn  *CounterVec // by rack, direction

	cancelEvents func()
	cancelHub    func()
}

// NewPlane builds the telemetry plane over the architecture and wires
// every hook: the stage and re-home observers on all shards, the
// debouncer's flush observer and the optimizer's drain observer when
// attached, and two event-mux subscriptions (the counter sink and the
// watch hub).
func NewPlane(arch *alvc.Architecture) *Plane {
	return NewPlaneWith(arch, PlaneOptions{})
}

// NewPlaneWith is NewPlane with explicit options.
func NewPlaneWith(arch *alvc.Architecture, opts PlaneOptions) *Plane {
	p := &Plane{arch: arch, reg: NewRegistry(),
		hub: NewHubWith(HubOptions{RingSize: opts.WatchRing})}
	p.registerOrch()
	p.registerOptimizer()
	p.registerRouting()
	p.registerResilience()
	p.registerOptical()
	p.registerWatch()
	p.registerTrace()
	p.registerRuntime()

	sh := arch.Sharded()
	sh.SetStageObserver(func(stage string, d time.Duration) {
		p.stageSeconds.WithLabelValues(stage).Observe(d.Seconds())
	})
	sh.SetRehomeObserver(func(fromRack, toRack int) {
		p.rehomeChurn.WithLabelValues(strconv.Itoa(fromRack), "from").Inc()
		p.rehomeChurn.WithLabelValues(strconv.Itoa(toRack), "to").Inc()
	})
	if d := arch.Debouncer(); d != nil {
		d.SetFlushObserver(func(d time.Duration, reports int) {
			p.flushSeconds.WithLabelValues().Observe(d.Seconds())
		})
	}
	if opt := arch.Optimizer(); opt != nil {
		opt.SetDrainObserver(func(d time.Duration, tasks int) {
			p.drainSeconds.WithLabelValues().Observe(d.Seconds())
		})
	}
	p.cancelEvents, _ = arch.SubscribeEvents(eventCounterSink{p})
	p.cancelHub, _ = arch.SubscribeEvents(p.hub)
	return p
}

// Registry returns the plane's metric registry.
func (p *Plane) Registry() *Registry { return p.reg }

// Hub returns the plane's watch hub.
func (p *Plane) Hub() *Hub { return p.hub }

// MetricsHandler returns the GET /metrics handler.
func (p *Plane) MetricsHandler() http.Handler { return p.reg.Handler() }

// WatchHandler returns the GET /v1/watch SSE handler.
func (p *Plane) WatchHandler() http.Handler { return p.hub }

// Close unsubscribes the plane from the architecture's event mux.
// Observer hooks stay attached (they are cheap and overwritten by the
// next plane, if any).
func (p *Plane) Close() {
	if p.cancelEvents != nil {
		p.cancelEvents()
	}
	if p.cancelHub != nil {
		p.cancelHub()
	}
}

// eventCounterSink feeds the push counters from the event mux. A named
// type (rather than subscribing the Plane itself) keeps the Plane from
// double-subscribing with the hub.
type eventCounterSink struct{ p *Plane }

func (s eventCounterSink) OrchEvent(ev orch.Event) {
	s.p.eventsTotal.WithLabelValues(ev.Kind.String()).Inc()
	if ev.Kind == orch.EventRepairCompleted {
		s.p.repairsTotal.WithLabelValues(string(ev.Action)).Inc()
	}
}

// registerOrch wires the orchestration-layer families.
func (p *Plane) registerOrch() {
	arch := p.arch
	p.reg.CounterFunc("alvc_orch_provisions_total",
		"Chain provisioning attempts by shard and outcome.",
		[]string{"shard", "outcome"}, func() []Sample {
			var out []Sample
			for _, st := range arch.ShardStats() {
				shard := strconv.Itoa(st.Shard)
				out = append(out,
					Sample{Labels: []string{shard, "ok"}, Value: float64(st.ProvisionOK)},
					Sample{Labels: []string{shard, "failed"}, Value: float64(st.ProvisionFailed)})
			}
			return out
		})
	p.reg.GaugeFunc("alvc_orch_deployments",
		"Deployments by shard and lifecycle state (deleted: deletes since start).",
		[]string{"shard", "state"}, func() []Sample {
			var out []Sample
			for _, st := range arch.ShardStats() {
				shard := strconv.Itoa(st.Shard)
				out = append(out,
					Sample{Labels: []string{shard, "active"}, Value: float64(st.Active)},
					Sample{Labels: []string{shard, "deleted"}, Value: float64(st.Deleted)},
					Sample{Labels: []string{shard, "failed"}, Value: float64(st.Failed)})
			}
			return out
		})
	p.reg.CounterFunc("alvc_orch_shard_repairs_total",
		"Successful repairs per shard since start (repairs of chains deleted since stay counted).",
		[]string{"shard"}, func() []Sample {
			var out []Sample
			for _, st := range arch.ShardStats() {
				out = append(out, Sample{Labels: []string{strconv.Itoa(st.Shard)}, Value: float64(st.Repairs)})
			}
			return out
		})
	p.reg.GaugeFunc("alvc_orch_shard_busy_ops",
		"Exclusive operations in flight per shard (repairs, moves, deletes).",
		[]string{"shard"}, func() []Sample {
			var out []Sample
			for _, st := range arch.ShardStats() {
				out = append(out, Sample{Labels: []string{strconv.Itoa(st.Shard)}, Value: float64(st.BusyOps)})
			}
			return out
		})
	p.repairsTotal = p.reg.NewCounterVec("alvc_orch_repairs_total",
		"Completed repairs by reconciliation action.", "action")
	p.eventsTotal = p.reg.NewCounterVec("alvc_orch_events_total",
		"Orchestrator lifecycle events by kind.", "kind")
	p.stageSeconds = p.reg.NewHistogramVec("alvc_orch_pipeline_stage_seconds",
		"Provisioning-pipeline latency per stage.", stageBounds, "stage")

	// Debounce families are always registered (zeros without a
	// debouncer) so the exposition surface is configuration-independent.
	p.reg.CounterFunc("alvc_orch_debounce_events_total",
		"Failure reports received by the debouncer.",
		nil, func() []Sample {
			st, _ := arch.FailureDebounceStats()
			return []Sample{{Value: float64(st.Events)}}
		})
	p.reg.CounterFunc("alvc_orch_debounce_batches_total",
		"Coalesced failure batches dispatched by the debouncer.",
		nil, func() []Sample {
			st, _ := arch.FailureDebounceStats()
			return []Sample{{Value: float64(st.Batches)}}
		})
	p.reg.CounterFunc("alvc_orch_debounce_coalesced_total",
		"Failure reports merged into an already-armed debounce window.",
		nil, func() []Sample {
			st, _ := arch.FailureDebounceStats()
			return []Sample{{Value: float64(st.Coalesced)}}
		})
	p.reg.GaugeFunc("alvc_orch_debounce_pending",
		"Failed resources awaiting the next debounce flush.",
		[]string{"resource"}, func() []Sample {
			var nodes, links int
			if d := arch.Debouncer(); d != nil {
				nodes, links = d.Pending()
			}
			return []Sample{
				{Labels: []string{"links"}, Value: float64(links)},
				{Labels: []string{"nodes"}, Value: float64(nodes)},
			}
		})
	p.flushSeconds = p.reg.NewHistogramVec("alvc_orch_debounce_flush_seconds",
		"Reconciliation latency of dispatched debounce batches.", batchBounds)
	p.flushSeconds.WithLabelValues() // pre-create: the family renders even before the first flush
}

// registerOptimizer wires the background-engine families; all emit
// zeros when no optimizer is attached.
func (p *Plane) registerOptimizer() {
	arch := p.arch
	p.reg.GaugeFunc("alvc_optimizer_queue_depth",
		"Queued maintenance tasks per optimizer shard queue.",
		[]string{"shard"}, func() []Sample {
			st, ok := arch.OptimizerStatus()
			if !ok {
				return []Sample{{Labels: []string{"0"}, Value: 0}}
			}
			var out []Sample
			for i, d := range st.ShardDepths {
				out = append(out, Sample{Labels: []string{strconv.Itoa(i)}, Value: float64(d)})
			}
			return out
		})
	p.reg.GaugeFunc("alvc_optimizer_queue_high_water",
		"Per-shard optimizer queue high-water mark since start.",
		[]string{"shard"}, func() []Sample {
			st, ok := arch.OptimizerStatus()
			if !ok {
				return []Sample{{Labels: []string{"0"}, Value: 0}}
			}
			var out []Sample
			for i, d := range st.ShardHighWater {
				out = append(out, Sample{Labels: []string{strconv.Itoa(i)}, Value: float64(d)})
			}
			return out
		})
	p.reg.CounterFunc("alvc_optimizer_tasks_total",
		"Optimizer task lifecycle counts by kind and outcome.",
		[]string{"kind", "outcome"}, func() []Sample {
			st, ok := arch.OptimizerStatus()
			if !ok {
				return nil
			}
			var out []Sample
			for kind, ks := range st.Kinds {
				out = append(out,
					Sample{Labels: []string{kind, "enqueued"}, Value: float64(ks.Enqueued)},
					Sample{Labels: []string{kind, "deduped"}, Value: float64(ks.Deduped)},
					Sample{Labels: []string{kind, "completed"}, Value: float64(ks.Completed)},
					Sample{Labels: []string{kind, "requeued"}, Value: float64(ks.Requeued)},
					Sample{Labels: []string{kind, "skipped"}, Value: float64(ks.Skipped)},
					Sample{Labels: []string{kind, "cancelled"}, Value: float64(ks.Cancelled)},
					Sample{Labels: []string{kind, "failed"}, Value: float64(ks.Failed)})
			}
			return out
		})
	p.reg.GaugeFunc("alvc_optimizer_running",
		"Optimizer tasks executing right now.",
		nil, func() []Sample {
			st, _ := arch.OptimizerStatus()
			return []Sample{{Value: float64(st.Running)}}
		})
	p.reg.GaugeFunc("alvc_optimizer_storm_active",
		"1 while storm-mode coalescing is engaged.",
		nil, func() []Sample {
			st, _ := arch.OptimizerStatus()
			v := 0.0
			if st.Storm.Active {
				v = 1
			}
			return []Sample{{Value: v}}
		})
	p.reg.CounterFunc("alvc_optimizer_storm_activations_total",
		"Quiet-to-storm transitions of the optimizer queue.",
		nil, func() []Sample {
			st, _ := arch.OptimizerStatus()
			return []Sample{{Value: float64(st.Storm.Activations)}}
		})
	p.reg.CounterFunc("alvc_optimizer_storm_coalesced_total",
		"Re-protect tasks folded into storm-mode domain groups.",
		nil, func() []Sample {
			st, _ := arch.OptimizerStatus()
			return []Sample{{Value: float64(st.Storm.CoalescedTasks)}}
		})
	p.reg.CounterFunc("alvc_optimizer_queue_shed_total",
		"Tasks dropped by the optimizer queue-depth bound.",
		nil, func() []Sample {
			st, _ := arch.OptimizerStatus()
			return []Sample{{Value: float64(st.Shed)}}
		})
	p.reg.CounterFunc("alvc_groupplan_plans_total",
		"Chains planned through storm-group re-protection.",
		nil, func() []Sample {
			st, _ := arch.OptimizerStatus()
			return []Sample{{Value: float64(st.GroupPlans.Planned)}}
		})
	p.reg.CounterFunc("alvc_groupplan_fallbacks_total",
		"Group plans that fell back from a restricted OPS pool to the full pool.",
		nil, func() []Sample {
			st, _ := arch.OptimizerStatus()
			return []Sample{{Value: float64(st.GroupPlans.Fallbacks)}}
		})
	p.drainSeconds = p.reg.NewHistogramVec("alvc_optimizer_drain_seconds",
		"Wall time of optimizer drain passes.", batchBounds)
	p.drainSeconds.WithLabelValues()
}

// registerRouting wires the SDN and topology fast-path families.
func (p *Plane) registerRouting() {
	arch := p.arch
	p.reg.CounterFunc("alvc_sdn_path_computations_total",
		"Shortest-path computations per shard controller.",
		[]string{"shard"}, func() []Sample {
			var out []Sample
			for _, st := range arch.ShardStats() {
				out = append(out, Sample{Labels: []string{strconv.Itoa(st.Shard)}, Value: float64(st.PathComputations)})
			}
			return out
		})
	p.reg.CounterFunc("alvc_sdn_yen_runs_total",
		"Yen k-shortest-path invocations per shard controller (PathAlternatives callers; standby planning runs none).",
		[]string{"shard"}, func() []Sample {
			var out []Sample
			for _, st := range arch.ShardStats() {
				out = append(out, Sample{Labels: []string{strconv.Itoa(st.Shard)}, Value: float64(st.YenRuns)})
			}
			return out
		})
	p.reg.CounterFunc("alvc_sdn_candidate_cache_hits_total",
		"Standby segment searches served from the memo, per shard controller.",
		[]string{"shard"}, func() []Sample {
			var out []Sample
			for _, st := range arch.ShardStats() {
				out = append(out, Sample{Labels: []string{strconv.Itoa(st.Shard)}, Value: float64(st.CandidateCacheHits)})
			}
			return out
		})
	p.reg.CounterFunc("alvc_sdn_candidate_cache_misses_total",
		"Standby segment searches that ran (memo misses), per shard controller.",
		[]string{"shard"}, func() []Sample {
			var out []Sample
			for _, st := range arch.ShardStats() {
				out = append(out, Sample{Labels: []string{strconv.Itoa(st.Shard)}, Value: float64(st.CandidateCacheMisses)})
			}
			return out
		})
	p.reg.GaugeFunc("alvc_sdn_installed_rules",
		"Installed flow rules per shard controller.",
		[]string{"shard"}, func() []Sample {
			var out []Sample
			for _, st := range arch.ShardStats() {
				out = append(out, Sample{Labels: []string{strconv.Itoa(st.Shard)}, Value: float64(st.InstalledRules)})
			}
			return out
		})
	p.reg.CounterFunc("alvc_topology_graph_builds_total",
		"Full routing-graph (CSR) rebuilds.",
		nil, func() []Sample {
			return []Sample{{Value: float64(arch.Topology().GraphBuilds())}}
		})
	p.reg.CounterFunc("alvc_topology_snapshot_hits_total",
		"Warm routing-snapshot fetches (epoch cache hits).",
		nil, func() []Sample {
			return []Sample{{Value: float64(arch.Topology().SnapshotHits())}}
		})
	p.reg.CounterFunc("alvc_topology_liveness_patches_total",
		"In-place liveness-overlay patches on the routing snapshot.",
		nil, func() []Sample {
			return []Sample{{Value: float64(arch.Topology().LivenessPatches())}}
		})
}

// registerResilience wires the protection-posture families.
func (p *Plane) registerResilience() {
	arch := p.arch
	standbyCounts := func() (disjoint, nonDisjoint, unprotected int) {
		for _, st := range arch.ShardStats() {
			disjoint += st.StandbyDisjoint
			nonDisjoint += st.StandbyNonDisjoint
			unprotected += st.Unprotected
		}
		return
	}
	p.reg.GaugeFunc("alvc_resilience_standby_chains",
		"Active chains by standby protection status.",
		[]string{"status"}, func() []Sample {
			d, nd, u := standbyCounts()
			return []Sample{
				{Labels: []string{"disjoint"}, Value: float64(d)},
				{Labels: []string{"non_disjoint"}, Value: float64(nd)},
				{Labels: []string{"unprotected"}, Value: float64(u)},
			}
		})
	p.reg.GaugeFunc("alvc_resilience_protection_gap",
		"Active chains lacking a disjoint standby (non-disjoint plus unprotected).",
		nil, func() []Sample {
			_, nd, u := standbyCounts()
			return []Sample{{Value: float64(nd + u)}}
		})
	p.reg.CounterFunc("alvc_resilience_standby_fallbacks_total",
		"Per-chain standby plans that tried the whole fabric after the shard's OPS pool offered no disjoint route.",
		nil, func() []Sample {
			return []Sample{{Value: float64(arch.Sharded().StandbyFallbacks())}}
		})
	p.rehomeChurn = p.reg.NewCounterVec("alvc_capacity_rehome_churn_total",
		"VNF re-home migrations by rack and direction (from = vacated, to = filled).",
		"rack", "direction")
}

// registerOptical wires the λ-occupancy early-warning families; all
// read zero when WDM assignment is disabled.
func (p *Plane) registerOptical() {
	arch := p.arch
	occupancies := func() []float64 {
		wdm := arch.Orchestrator().WDM()
		if wdm == nil {
			return nil
		}
		cap := float64(wdm.Capacity())
		var out []float64
		for _, used := range wdm.Utilizations() {
			out = append(out, float64(used)/cap)
		}
		return out
	}
	p.reg.HistogramFunc("alvc_optical_lambda_occupancy_ratio",
		"Per-link wavelength occupancy ratio across lit optical links.",
		occupancyBounds, occupancies)
	p.reg.GaugeFunc("alvc_optical_links_congested",
		"Optical links at or above the congestion occupancy threshold (0.75).",
		nil, func() []Sample {
			n := 0
			for _, r := range occupancies() {
				if r >= congestedOccupancy {
					n++
				}
			}
			return []Sample{{Value: float64(n)}}
		})
	p.reg.GaugeFunc("alvc_optical_links_lit",
		"Optical links with at least one wavelength in use.",
		nil, func() []Sample {
			return []Sample{{Value: float64(len(occupancies()))}}
		})
}

// registerTrace wires the trace-store self-observability families; all
// read zero when tracing is disabled (WithTracing(nil)).
func (p *Plane) registerTrace() {
	arch := p.arch
	p.reg.CounterFunc("alvc_trace_spans_total",
		"Spans recorded into the trace store.",
		nil, func() []Sample {
			if st := arch.TraceStore(); st != nil {
				return []Sample{{Value: float64(st.Stats().SpansRecorded)}}
			}
			return []Sample{{Value: 0}}
		})
	p.reg.CounterFunc("alvc_trace_spans_dropped_total",
		"Spans dropped by the per-trace cap or the store span budget.",
		nil, func() []Sample {
			if st := arch.TraceStore(); st != nil {
				return []Sample{{Value: float64(st.Stats().SpansDropped)}}
			}
			return []Sample{{Value: 0}}
		})
	p.reg.CounterFunc("alvc_trace_traces_evicted_total",
		"Whole traces force-evicted to stay under the span budget.",
		nil, func() []Sample {
			if st := arch.TraceStore(); st != nil {
				return []Sample{{Value: float64(st.Stats().TracesEvicted)}}
			}
			return []Sample{{Value: 0}}
		})
	p.reg.GaugeFunc("alvc_trace_store_spans",
		"Spans currently retained by the trace store.",
		nil, func() []Sample {
			if st := arch.TraceStore(); st != nil {
				return []Sample{{Value: float64(st.Stats().LiveSpans)}}
			}
			return []Sample{{Value: 0}}
		})
	p.reg.GaugeFunc("alvc_trace_store_traces",
		"Traces currently retained by the trace store.",
		nil, func() []Sample {
			if st := arch.TraceStore(); st != nil {
				return []Sample{{Value: float64(st.Stats().LiveTraces)}}
			}
			return []Sample{{Value: 0}}
		})
}

// registerWatch wires the hub's self-observability families.
func (p *Plane) registerWatch() {
	p.reg.GaugeFunc("alvc_watch_subscribers",
		"Active /v1/watch subscribers.",
		nil, func() []Sample {
			return []Sample{{Value: float64(p.hub.Subscribers())}}
		})
	p.reg.CounterFunc("alvc_watch_events_total",
		"Lifecycle events ingested by the watch hub.",
		nil, func() []Sample {
			return []Sample{{Value: float64(p.hub.Events())}}
		})
	p.reg.CounterFunc("alvc_watch_dropped_subscribers_total",
		"Watch subscribers dropped for not keeping up.",
		nil, func() []Sample {
			return []Sample{{Value: float64(p.hub.Dropped())}}
		})
}
