package telemetry

// Plane wires the whole metric catalog over a running Architecture:
// every layer of the stack — orchestration, background optimizer,
// SDN/topology fast path, resilience posture, optical occupancy — gets
// families on one registry, plus the /v1/watch hub. Most families are
// scrape-time reads of state the architecture already tracks; the push
// side is limited to what only exists as it happens (per-stage
// latencies, event counts, re-home churn, flush/drain latencies),
// delivered through the orchestrator's record-only hooks and event
// sinks (orch.Hooks).

import (
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/topology"
	"github.com/alvc/alvc/internal/trace"
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

	scrape scrapeState
}

// NewPlane builds the telemetry plane over the architecture and wires
// every hook in one orch.Hooks edit: the stage, re-home, flush and drain
// observers, and two event sinks after those already attached (the
// counter sink and the watch hub, whose Last-Event-ID replay ring holds
// watchRing events; 256 when watchRing ≤ 0).
func NewPlane(arch *alvc.Architecture, watchRing int) *Plane {
	p := &Plane{arch: arch, reg: NewRegistry(), hub: NewHub(watchRing)}
	p.reg.BeforeScrape(p.refresh)
	p.registerOrch()
	p.registerOptimizer()
	p.registerRouting()
	p.registerResilience()
	p.registerOptical()
	p.registerFleet()
	p.registerWatch()
	p.registerTrace()
	p.registerRuntime()

	arch.Sharded().UpdateHooks(func(h *orch.Hooks) {
		h.Stage = func(stage string, d time.Duration) {
			p.stageSeconds.WithLabelValues(stage).Observe(d.Seconds())
		}
		h.Rehome = func(fromRack, toRack int) {
			p.rehomeChurn.WithLabelValues(strconv.Itoa(fromRack), "from").Inc()
			p.rehomeChurn.WithLabelValues(strconv.Itoa(toRack), "to").Inc()
		}
		h.Flush = func(d time.Duration, reports int) {
			p.flushSeconds.WithLabelValues().Observe(d.Seconds())
		}
		h.Drain = func(d time.Duration, tasks int) {
			p.drainSeconds.WithLabelValues().Observe(d.Seconds())
		}
		h.Events = append(slices.Clip(h.Events), eventCounterSink{p}, p.hub)
	})
	return p
}

// Registry returns the plane's metric registry.
func (p *Plane) Registry() *Registry { return p.reg }

// MetricsHandler returns the GET /metrics handler.
func (p *Plane) MetricsHandler() http.Handler { return p.reg.Handler() }

// WatchHandler returns the GET /v1/watch SSE handler.
func (p *Plane) WatchHandler() http.Handler { return p.hub }

// eventCounterSink feeds the push counters from the orchestrator's
// events; the plane attaches it beside the hub, its other sink.
type eventCounterSink struct{ p *Plane }

func (s eventCounterSink) OrchEvent(ev orch.Event) {
	s.p.eventsTotal.WithLabelValues(ev.Kind.String()).Inc()
	if ev.Kind == orch.EventRepairCompleted {
		s.p.repairsTotal.WithLabelValues(string(ev.Action)).Inc()
	}
}

// scrapeState is what one scrape reads of the architecture: every
// source once, in refresh, before the families render from it. Scrapes
// take turns (Registry.BeforeScrape), so the closures read it unlocked.
type scrapeState struct {
	shards    []alvc.ShardStat
	optimizer alvc.OptimizerStatus // zero without an optimizer
	debounce  alvc.DebounceStats   // zero without a debouncer
	trace     trace.Stats          // zero with tracing disabled
	occupancy []float64            // λ occupancy ratio per lit optical link
	cpuUsed   [2]float64           // VNF-hosting CPU cores allocated, per hostingDomains entry
	cpuTotal  [2]float64           // and installed
	mem       runtime.MemStats     // as of memRead: see refreshMem
	memRead   time.Time
	gcPauses  []float64 // the GC-pause histogram's observation buffer
}

func (p *Plane) refresh() {
	s, arch := &p.scrape, p.arch
	s.shards = arch.Sharded().ShardStats()
	if opt := arch.Optimizer(); opt != nil {
		s.optimizer = opt.Status()
	}
	if d := arch.Debouncer(); d != nil {
		s.debounce = d.Stats()
	}
	s.trace = trace.Stats{}
	if st := arch.TraceStore(); st != nil {
		s.trace = st.Stats()
	}
	ledger := arch.Sharded().Manager().Ledger()
	for i, d := range hostingDomains {
		used, capacity := ledger.DomainTotals(d)
		s.cpuUsed[i], s.cpuTotal[i] = used.CPUCores, capacity.CPUCores
	}
	s.occupancy = s.occupancy[:0]
	if wdm := arch.Sharded().WDM(); wdm != nil {
		capacity := float64(wdm.Capacity())
		for _, used := range wdm.Utilizations() {
			s.occupancy = append(s.occupancy, float64(used)/capacity)
		}
	}
	s.refreshMem()
}

// one wraps a single unlabeled value as a scrape-time family's closure.
func one(value func() float64) func(Sink) {
	return func(s Sink) { s.Add(value()) }
}

// perShard wraps one value per shard, labeled with the shard's index.
func (p *Plane) perShard(value func(st *alvc.ShardStat) float64) func(Sink) {
	return func(s Sink) {
		for i := range p.scrape.shards {
			st := &p.scrape.shards[i]
			s.Add(value(st), strconv.Itoa(st.Shard))
		}
	}
}

// registerOrch wires the orchestration-layer families.
func (p *Plane) registerOrch() {
	sc := &p.scrape
	p.reg.CounterSink("alvc_orch_provisions_total",
		"Chain provisioning attempts by shard and outcome.",
		[]string{"shard", "outcome"}, func(s Sink) {
			for _, st := range sc.shards {
				shard := strconv.Itoa(st.Shard)
				s.Add(float64(st.ProvisionOK), shard, "ok")
				s.Add(float64(st.ProvisionFailed), shard, "failed")
			}
		})
	p.reg.GaugeSink("alvc_orch_deployments",
		"Deployment records by shard and lifecycle state.",
		[]string{"shard", "state"}, func(s Sink) {
			for _, st := range sc.shards {
				shard := strconv.Itoa(st.Shard)
				s.Add(float64(st.Active), shard, "active")
				s.Add(float64(st.Failed), shard, "failed")
			}
		})
	p.reg.CounterSink("alvc_orch_deletes_total",
		"Chains deleted per shard since start (a deleted chain leaves the shard's records).",
		[]string{"shard"}, p.perShard(func(st *alvc.ShardStat) float64 { return float64(st.Deleted) }))
	p.reg.GaugeSink("alvc_orch_drifted_chains",
		"Active chains per shard moved under duress by a repair and not re-homed since.",
		[]string{"shard"}, p.perShard(func(st *alvc.ShardStat) float64 { return float64(st.Drifted) }))
	p.reg.CounterSink("alvc_orch_shard_repairs_total",
		"Successful repairs per shard since start (repairs of chains deleted since stay counted).",
		[]string{"shard"}, p.perShard(func(st *alvc.ShardStat) float64 { return float64(st.Repairs) }))
	p.reg.GaugeSink("alvc_orch_shard_busy_ops",
		"Exclusive operations in flight per shard (repairs, moves, deletes).",
		[]string{"shard"}, p.perShard(func(st *alvc.ShardStat) float64 { return float64(st.BusyOps) }))
	p.repairsTotal = p.reg.NewCounterVec("alvc_orch_repairs_total",
		"Completed repairs by reconciliation action.", "action")
	p.eventsTotal = p.reg.NewCounterVec("alvc_orch_events_total",
		"Orchestrator lifecycle events by kind.", "kind")
	p.stageSeconds = p.reg.NewHistogramVec("alvc_orch_pipeline_stage_seconds",
		"Provisioning-pipeline latency per stage.", stageBounds, "stage")

	// Debounce families are always registered (zeros without a
	// debouncer) so the exposition surface is configuration-independent.
	p.reg.CounterSink("alvc_orch_debounce_events_total",
		"Failure reports received by the debouncer.",
		nil, one(func() float64 { return float64(sc.debounce.Events) }))
	p.reg.CounterSink("alvc_orch_debounce_batches_total",
		"Coalesced failure batches dispatched by the debouncer.",
		nil, one(func() float64 { return float64(sc.debounce.Batches) }))
	p.reg.CounterSink("alvc_orch_debounce_coalesced_total",
		"Failure reports merged into an already-armed debounce window.",
		nil, one(func() float64 { return float64(sc.debounce.Coalesced) }))
	p.reg.GaugeSink("alvc_orch_debounce_pending",
		"Failed resources awaiting the next debounce flush.",
		[]string{"resource"}, func(s Sink) {
			var nodes, links int
			if d := p.arch.Debouncer(); d != nil {
				nodes, links = d.Pending()
			}
			s.Add(float64(links), "links")
			s.Add(float64(nodes), "nodes")
		})
	p.flushSeconds = p.reg.NewHistogramVec("alvc_orch_debounce_flush_seconds",
		"Reconciliation latency of dispatched debounce batches.", batchBounds)
	p.flushSeconds.WithLabelValues() // pre-create: the family renders even before the first flush
}

// registerOptimizer wires the background-engine families; all emit
// zeros when no optimizer is attached.
func (p *Plane) registerOptimizer() {
	sc := &p.scrape
	p.reg.GaugeSink("alvc_optimizer_queue_depth",
		"Queued optimizer maintenance tasks.",
		nil, one(func() float64 { return float64(sc.optimizer.QueueDepth) }))
	p.reg.GaugeSink("alvc_optimizer_queue_high_water",
		"Optimizer queue high-water mark since start.",
		nil, one(func() float64 { return float64(sc.optimizer.HighWater) }))
	p.reg.CounterSink("alvc_optimizer_tasks_total",
		"Optimizer task lifecycle counts by kind and outcome.",
		[]string{"kind", "outcome"}, func(s Sink) {
			for kind, ks := range sc.optimizer.Kinds {
				s.Add(float64(ks.Enqueued), kind, "enqueued")
				s.Add(float64(ks.Deduped), kind, "deduped")
				s.Add(float64(ks.Completed), kind, "completed")
				s.Add(float64(ks.Requeued), kind, "requeued")
				s.Add(float64(ks.Skipped), kind, "skipped")
				s.Add(float64(ks.Cancelled), kind, "cancelled")
				s.Add(float64(ks.Failed), kind, "failed")
			}
		})
	p.reg.GaugeSink("alvc_optimizer_running",
		"Optimizer tasks executing right now.",
		nil, one(func() float64 { return float64(sc.optimizer.Running) }))
	p.reg.CounterSink("alvc_optimizer_queue_shed_total",
		"Tasks dropped by the optimizer queue-depth bound.",
		nil, one(func() float64 { return float64(sc.optimizer.Shed) }))
	p.reg.CounterSink("alvc_groupplan_coalesced_total",
		"Re-protect and refresh members that joined an open failure-domain group.",
		nil, one(func() float64 { return float64(sc.optimizer.GroupPlans.Coalesced) }))
	p.reg.CounterSink("alvc_groupplan_plans_total",
		"Re-protect and refresh group members whose standby was re-planned.",
		nil, one(func() float64 { return float64(sc.optimizer.GroupPlans.Planned) }))
	p.reg.CounterSink("alvc_groupplan_fallbacks_total",
		"Re-protect and refresh group members whose standby plan fell back from the shard's OPS pool to the whole fabric.",
		nil, one(func() float64 { return float64(sc.optimizer.GroupPlans.Fallbacks) }))
	p.drainSeconds = p.reg.NewHistogramVec("alvc_optimizer_drain_seconds",
		"Wall time of optimizer drain passes.", batchBounds)
	p.drainSeconds.WithLabelValues()
}

// registerRouting wires the SDN and topology fast-path families.
func (p *Plane) registerRouting() {
	topo := p.arch.Topology()
	p.reg.CounterSink("alvc_sdn_path_computations_total",
		"Shortest-path computations per shard controller.",
		[]string{"shard"}, p.perShard(func(st *alvc.ShardStat) float64 { return float64(st.PathComputations) }))
	p.reg.CounterSink("alvc_sdn_yen_runs_total",
		"Yen k-shortest-path invocations per shard controller (PathAlternatives callers; standby planning runs none).",
		[]string{"shard"}, p.perShard(func(st *alvc.ShardStat) float64 { return float64(st.YenRuns) }))
	p.reg.CounterSink("alvc_sdn_candidate_cache_hits_total",
		"Standby segment searches served from the memo, per shard controller.",
		[]string{"shard"}, p.perShard(func(st *alvc.ShardStat) float64 { return float64(st.CandidateCacheHits) }))
	p.reg.CounterSink("alvc_sdn_candidate_cache_misses_total",
		"Standby segment searches that ran (memo misses), per shard controller.",
		[]string{"shard"}, p.perShard(func(st *alvc.ShardStat) float64 { return float64(st.CandidateCacheMisses) }))
	p.reg.GaugeSink("alvc_sdn_installed_rules",
		"Installed flow rules per shard controller.",
		[]string{"shard"}, p.perShard(func(st *alvc.ShardStat) float64 { return float64(st.InstalledRules) }))
	p.reg.CounterSink("alvc_sdn_rule_installs_total",
		"Flow rules installed per shard controller since start (removals do not subtract).",
		[]string{"shard"}, p.perShard(func(st *alvc.ShardStat) float64 { return float64(st.RuleInstalls) }))
	p.reg.CounterSink("alvc_topology_graph_builds_total",
		"Full routing-graph (CSR) rebuilds.",
		nil, one(func() float64 { return float64(topo.GraphBuilds()) }))
	p.reg.CounterSink("alvc_topology_snapshot_hits_total",
		"Warm routing-snapshot fetches (epoch cache hits).",
		nil, one(func() float64 { return float64(topo.SnapshotHits()) }))
	p.reg.CounterSink("alvc_topology_liveness_patches_total",
		"In-place liveness-overlay patches on the routing snapshot.",
		nil, one(func() float64 { return float64(topo.LivenessPatches()) }))
}

// registerResilience wires the protection-posture families.
func (p *Plane) registerResilience() {
	sc := &p.scrape
	standbyCounts := func() (disjoint, nonDisjoint, unprotected int) {
		for _, st := range sc.shards {
			disjoint += st.StandbyDisjoint
			nonDisjoint += st.StandbyNonDisjoint
			unprotected += st.Unprotected
		}
		return
	}
	p.reg.GaugeSink("alvc_resilience_standby_chains",
		"Active chains by standby protection status.",
		[]string{"status"}, func(s Sink) {
			d, nd, u := standbyCounts()
			s.Add(float64(d), "disjoint")
			s.Add(float64(nd), "non_disjoint")
			s.Add(float64(u), "unprotected")
		})
	p.reg.GaugeSink("alvc_resilience_protection_gap",
		"Active chains lacking a disjoint standby (non-disjoint plus unprotected).",
		nil, one(func() float64 {
			_, nd, u := standbyCounts()
			return float64(nd + u)
		}))
	p.reg.CounterSink("alvc_resilience_standby_fallbacks_total",
		"Standby plans that tried the whole fabric after the shard's OPS pool offered no disjoint route, provisions, repairs and group re-protects alike.",
		nil, one(func() float64 {
			var n int64
			for _, st := range sc.shards {
				n += st.StandbyFallbacks
			}
			return float64(n)
		}))
	p.rehomeChurn = p.reg.NewCounterVec("alvc_capacity_rehome_churn_total",
		"VNF re-home migrations by rack and direction (from = vacated, to = filled).",
		"rack", "direction")
}

// registerOptical wires the λ-occupancy early-warning families; all
// read zero when WDM assignment is disabled.
func (p *Plane) registerOptical() {
	sc := &p.scrape
	p.reg.HistogramFunc("alvc_optical_lambda_occupancy_ratio",
		"Per-link wavelength occupancy ratio across lit optical links.",
		occupancyBounds, func() []float64 { return sc.occupancy })
	p.reg.GaugeSink("alvc_optical_links_congested",
		"Optical links at or above the congestion occupancy threshold (0.75).",
		nil, one(func() float64 {
			n := 0
			for _, r := range sc.occupancy {
				if r >= congestedOccupancy {
					n++
				}
			}
			return float64(n)
		}))
	p.reg.GaugeSink("alvc_optical_links_lit",
		"Optical links with at least one wavelength in use.",
		nil, one(func() float64 { return float64(len(sc.occupancy)) }))
}

// hostingDomains are the domains VNFs are hosted in: electronic PMs
// and optical optoelectronic routers.
var hostingDomains = [2]topology.Domain{topology.DomainElectronic, topology.DomainOptical}

// registerFleet wires the paper's per-fleet counts: ALs and the OPS
// pool they claim from (§III), O/E/O conversions and their energy
// (§IV-D), and VNF-hosting CPU by domain.
func (p *Plane) registerFleet() {
	sc := &p.scrape
	p.reg.GaugeSink("alvc_cluster_ops_pool",
		"OPSs in each shard's partition of the optical core.",
		[]string{"shard"}, p.perShard(func(st *alvc.ShardStat) float64 { return float64(st.OPSPool) }))
	p.reg.GaugeSink("alvc_cluster_vcs",
		"Virtual clusters (ALs) built on each shard's OPS pool.",
		[]string{"shard"}, p.perShard(func(st *alvc.ShardStat) float64 { return float64(st.VCs) }))
	p.reg.GaugeSink("alvc_oeo_conversions",
		"O/E/O conversions per flow, summed over each shard's active chains.",
		[]string{"shard"}, p.perShard(func(st *alvc.ShardStat) float64 { return float64(st.Conversions) }))
	p.reg.GaugeSink("alvc_oeo_energy_joules",
		"O/E/O conversion energy per flow in joules, summed over each shard's active chains.",
		[]string{"shard"}, p.perShard(func(st *alvc.ShardStat) float64 { return st.EnergyJoules }))
	p.reg.GaugeSink("alvc_nfv_cpu_cores",
		"VNF-hosting CPU cores by domain: allocated (used) and installed (capacity).",
		[]string{"domain", "kind"}, func(s Sink) {
			for i, d := range hostingDomains {
				s.Add(sc.cpuUsed[i], d.String(), "used")
				s.Add(sc.cpuTotal[i], d.String(), "capacity")
			}
		})
}

// registerTrace wires the trace-store self-observability families; all
// read zero when tracing is disabled (WithTracing(nil)).
func (p *Plane) registerTrace() {
	sc := &p.scrape
	p.reg.CounterSink("alvc_trace_spans_total",
		"Spans recorded into the trace store.",
		nil, one(func() float64 { return float64(sc.trace.SpansRecorded) }))
	p.reg.CounterSink("alvc_trace_spans_dropped_total",
		"Spans dropped by the per-trace cap or the store span budget.",
		nil, one(func() float64 { return float64(sc.trace.SpansDropped) }))
	p.reg.CounterSink("alvc_trace_traces_evicted_total",
		"Whole traces force-evicted to stay under the span budget.",
		nil, one(func() float64 { return float64(sc.trace.TracesEvicted) }))
	p.reg.GaugeSink("alvc_trace_store_spans",
		"Spans currently retained by the trace store.",
		nil, one(func() float64 { return float64(sc.trace.LiveSpans) }))
	p.reg.GaugeSink("alvc_trace_store_traces",
		"Traces currently retained by the trace store.",
		nil, one(func() float64 { return float64(sc.trace.LiveTraces) }))
}

// registerWatch wires the hub's self-observability families.
func (p *Plane) registerWatch() {
	p.reg.GaugeSink("alvc_watch_subscribers",
		"Active /v1/watch subscribers.",
		nil, one(func() float64 { return float64(p.hub.Subscribers()) }))
	p.reg.CounterSink("alvc_watch_events_total",
		"Lifecycle events ingested by the watch hub.",
		nil, one(func() float64 { return float64(p.hub.Events()) }))
	p.reg.CounterSink("alvc_watch_dropped_subscribers_total",
		"Watch subscribers dropped for not keeping up.",
		nil, one(func() float64 { return float64(p.hub.Dropped()) }))
}
