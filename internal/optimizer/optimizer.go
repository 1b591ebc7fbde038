// Package optimizer is the background maintenance engine of the AL-VC
// management stack: an event-driven control loop that consumes
// orchestrator lifecycle events (repair completed, node/link
// recovered, deployment deleted, plus an idle tick) and continuously
// restores the fleet to its best achievable state off the request and
// recovery hot paths.
//
// The paper's orchestrator (Fig. 6) provisions and repairs at runtime;
// related SFC work (Bhamare et al., arXiv:1903.11550; Mehraghdam et
// al., arXiv:1406.1058) shows chain placements degrade as context
// shifts and treats placement as an ongoing optimization. This package
// operationalizes that: four task kinds, in strict priority order —
//
//	re-protect  replan a consumed or dead standby (repairs no longer
//	            plan standbys inline; they enqueue here instead)
//	refresh     replan standbys whose Disjoint flag is false now that
//	            a recovery improved the topology
//	re-home     undo rebuild-induced placement drift via transactional
//	            VNF migration when a fresh placement beats the current
//	            one by a hysteresis margin
//	λ-defrag    consolidate fragmented wavelength assignments during
//	            quiet periods with the make-before-break retune
//
// — behind a deduplicating work queue keyed by (deployment, kind): a
// chain hit by ten events is optimized once. Tasks take the
// orchestrator's per-deployment exclusive guard; a busy deployment is
// skipped and requeued, a deleted one cancels its pending work. The
// engine is fully observable (Status) and drainable synchronously
// (Drain) for tests, benches and the POST /v1/optimizer:run endpoint.
package optimizer

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/alvc/alvc/internal/jsonwrite"
	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/ring"
	"github.com/alvc/alvc/internal/trace"
)

// Target is the orchestration surface the engine optimizes against —
// *orch.Sharded; tests that need a fake embed one. Shards and ShardOf
// give the engine one work queue per shard, so enqueues from different
// shards' repair fan-outs never contend on a single queue lock. Both
// sweeps are by value — one orch.ChainHealth per chain, ID-sorted,
// appended to the engine's buffer: the idle tick reads every active
// chain, a recovery event only the chains the orchestrator's
// maintenance-owed index holds, so it costs the chains it can help and
// not a pass over the fleet. ReProtectGroup is the one re-protection
// call: a storm-group task hands it a whole failure domain, steering
// every chain of the domain off the domain's risk groups, and a
// per-chain task a group of one with no domain.
type Target interface {
	Shards() int
	ShardOf(id orch.DeploymentID) int
	AppendChainHealth(buf []orch.ChainHealth) []orch.ChainHealth
	AppendOwedHealth(buf []orch.ChainHealth) []orch.ChainHealth
	ReProtectGroup(buf []orch.GroupOutcome, domain orch.FailureDomain, ids []orch.DeploymentID) []orch.GroupOutcome
	Rehome(id orch.DeploymentID, margin int) (bool, error)
	DefragLambda(id orch.DeploymentID) (from, to int, retuned bool, err error)
}

// TaskKind names one maintenance task type. Smaller is higher
// priority: protection before placement, placement before cosmetics.
type TaskKind int

// Task kinds in priority order.
const (
	KindReProtect TaskKind = iota
	KindRefresh
	KindRehome
	KindDefrag
	numKinds
)

// String returns the task kind name.
func (k TaskKind) String() string {
	switch k {
	case KindReProtect:
		return "re-protect"
	case KindRefresh:
		return "refresh"
	case KindRehome:
		return "re-home"
	case KindDefrag:
		return "lambda-defrag"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Options tunes an Engine.
type Options struct {
	// Workers bounds how many tasks execute concurrently (default 4):
	// the draining goroutine and up to Workers-1 pool workers, which
	// start with the first drain that has work for them and live until
	// Stop.
	Workers int
	// RehomeMargin is the hysteresis: a fresh placement must beat the
	// current one by at least this many O/E/O conversions before a
	// re-home migrates anything (default 1; values below 1 are clamped).
	RehomeMargin int
	// BusyRetries is how many times a task that finds its deployment
	// busy is requeued before it is dropped as skipped (default 20).
	BusyRetries int
	// ResultLog is how many recent task results Status retains
	// (default 32).
	ResultLog int
	// StormThreshold is the queue depth at which storm mode engages
	// (default 64; negative disables). During a storm, repair events
	// carrying a failure domain coalesce their re-protect work into one
	// group task per domain — an SRLG tray cut over a large fleet
	// queues a handful of domain tasks instead of thousands of
	// per-deployment ones. Storm mode disengages when the queue drains.
	StormThreshold int
	// MaxQueueDepth bounds each shard queue's task count (default 4096;
	// negative disables the bound). An enqueue that would push a shard
	// queue past the bound sheds the lowest-priority queued task instead
	// of growing — protection work survives a storm at the expense of
	// cosmetic re-home/defrag passes, and queue memory stays bounded no
	// matter how long the event burst runs. Shed tasks are counted
	// (Status.Shed) and regenerate on the next idle tick.
	MaxQueueDepth int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.RehomeMargin < 1 {
		o.RehomeMargin = 1
	}
	if o.BusyRetries <= 0 {
		o.BusyRetries = 20
	}
	if o.ResultLog <= 0 {
		o.ResultLog = 32
	}
	if o.StormThreshold == 0 {
		o.StormThreshold = 64
	}
	if o.MaxQueueDepth == 0 {
		o.MaxQueueDepth = 4096
	}
	return o
}

// KindStats counts one task kind's lifecycle outcomes.
type KindStats struct {
	// Enqueued counts accepted enqueues (dedup hits excluded).
	Enqueued int `json:"enqueued"`
	// Deduped counts enqueues coalesced into an already-queued task.
	Deduped int `json:"deduped"`
	// Completed counts tasks that ran to completion (including no-ops).
	Completed int `json:"completed"`
	// Requeued counts busy-skip requeues.
	Requeued int `json:"requeued"`
	// Skipped counts tasks dropped after exhausting busy retries.
	Skipped int `json:"skipped"`
	// Cancelled counts tasks whose deployment was deleted or failed.
	Cancelled int `json:"cancelled"`
	// Failed counts tasks that errored.
	Failed int `json:"failed"`
}

// TaskResult is one executed task's outcome, kept in the status ring.
type TaskResult struct {
	Deployment orch.DeploymentID `json:"deployment"`
	Kind       string            `json:"kind"`
	// Outcome is one of: protected, already-protected, unprotected,
	// rehomed, no-improvement, retuned, no-op, cancelled, skipped,
	// failed.
	Outcome string    `json:"outcome"`
	Detail  string    `json:"detail,omitempty"`
	Error   string    `json:"error,omitempty"`
	When    time.Time `json:"when"`
}

// StormStats counts storm-mode activity.
type StormStats struct {
	// Active reports whether storm mode is currently engaged.
	Active bool `json:"active"`
	// Activations counts quiet→storm transitions.
	Activations int `json:"activations"`
	// Domains counts group tasks created (one per failure domain per
	// storm round).
	Domains int `json:"domains"`
	// CoalescedTasks counts re-protects folded into an existing domain
	// group instead of queueing individually — the queue entries the
	// storm saved.
	CoalescedTasks int `json:"coalesced_tasks"`
}

// GroupPlanStats accumulates storm-group planning outcomes across the
// engine's lifetime — the operator's evidence that domain-level
// planning is actually happening in production storms. Per-chain tasks
// are not counted here.
type GroupPlanStats struct {
	// Planned counts storm-group members whose standby was re-planned.
	Planned int `json:"planned"`
	// Fallbacks counts storm-group members whose plan retried on the
	// whole fabric after the shard's pool offered no route, or none that
	// was disjoint.
	Fallbacks int `json:"fallbacks"`
}

// Status is the engine's observable state.
type Status struct {
	Paused     bool `json:"paused"`
	QueueDepth int  `json:"queue_depth"`
	// ShardDepths is the queued task count per shard queue, in shard
	// order.
	ShardDepths []int `json:"shard_depths,omitempty"`
	// ShardHighWater is the per-shard queued-task high-water mark since
	// the engine started — the spike detector's evidence trail.
	ShardHighWater []int                `json:"shard_high_water,omitempty"`
	Running        int                  `json:"running"`
	Kinds          map[string]KindStats `json:"kinds"`
	// Shed counts tasks dropped by the queue-depth bound
	// (Options.MaxQueueDepth) since the engine started.
	Shed int `json:"queue_shed"`
	// Storm reports the storm-mode coalescing counters.
	Storm StormStats `json:"storm"`
	// GroupPlans reports the storm-group planning counters.
	GroupPlans GroupPlanStats `json:"group_plans"`
	// Debounce mirrors the upstream failure debouncer's counters when
	// one is attached (SetDebounceSource).
	Debounce *orch.DebounceStats `json:"debounce,omitempty"`
	// LastResults lists the most recent task outcomes, oldest first.
	LastResults []TaskResult `json:"last_results"`
}

type taskKey struct {
	dep  orch.DeploymentID
	kind TaskKind
	// domain is the failure domain's key (FailureDomain.String) for
	// storm-mode group tasks: one queue entry re-protects every chain the
	// domain hit (dep is 0; the members live in Engine.groups until the
	// task runs).
	domain string
}

type task struct {
	key      taskKey
	attempts int
	// traceID/parent carry the causal chain of the event that queued
	// the task (the repair span) across the queue: the task's span, if
	// any, continues that trace. Empty for tick/sweep work — untraced
	// tasks record no spans. Dedup is first-wins; busy requeues keep
	// the fields.
	traceID string
	parent  trace.SpanID
}

// shardQueue is one shard's deduplicating priority queue. Each queue
// has its own lock so concurrent repair fan-outs on different shards
// enqueue without contending; the engine-wide mutex only covers stats,
// the depth counter and the dispatcher's condition variable.
type shardQueue struct {
	mu     sync.Mutex
	queued map[taskKey]bool
	order  [numKinds][]task
}

// Engine is the background optimization engine over the orchestrator,
// with one queue per shard. It implements orch.EventSink; attach it as
// (or behind) orch.Hooks.Events (the alvc facade's WithOptimizer does
// this). Safe for concurrent use.
type Engine struct {
	o      Target
	opts   Options
	queues []*shardQueue

	mu      sync.Mutex
	cond    *sync.Cond
	depth   int // queued tasks across all shard queues
	paused  bool
	running int
	stats   [numKinds]KindStats
	// results holds the last opts.ResultLog outcomes, each with its wire
	// encoding; kindsView and logView are ViewStatus's, reused under mu.
	results   ring.Ring[loggedResult]
	kindsView map[string]KindStats
	logView   [][]byte
	storm     bool
	stormStat StormStats
	groupPlan GroupPlanStats
	highWater []int // per-shard queued-task high-water marks
	shedTotal int   // tasks dropped by the MaxQueueDepth bound
	drainObs  func(d time.Duration, tasks int)

	// grpMu guards the storm-mode group membership: the groups by domain
	// key, and each grouped member's key. Never held while enqueueing
	// (which takes q.mu then e.mu), so there is no ordering cycle with
	// the queue locks.
	grpMu  sync.Mutex
	groups map[string]*stormGroup
	member map[orch.DeploymentID]string

	// tracer, when set, makes event-driven tasks record optimizer
	// spans continuing the originating repair's trace. Guarded by mu.
	tracer *trace.Tracer

	// sweepMu serializes fleet sweeps (recovery intake, Tick) over the
	// one reused summary buffer. Taken before the queue and engine locks,
	// never under them.
	sweepMu  sync.Mutex
	sweepBuf []orch.ChainHealth

	// debounceSrc, when set, lets Status surface the upstream failure
	// debouncer's coalescing counters next to the engine's own.
	debounceSrc interface{ Stats() orch.DebounceStats }

	// loopMu guards the background loop: stopCh is nil when stopped,
	// stopTick cancels the armed tick, and loopWG counts the dispatcher
	// and a tick in flight.
	loopMu   sync.Mutex
	stopCh   chan struct{}
	stopTick func() bool
	loopWG   sync.WaitGroup

	// pool runs drain rounds Options.Workers wide until Stop; clock
	// times the idle tick and the busy pause.
	pool  *orch.Pool
	clock orch.Clock
}

// stormGroup is one failure domain's storm-mode record: the domain, the
// members whose re-protects coalesced under it, and the repair spans of
// their events (one per distinct trace) — the group task's span
// continues the first and links the rest.
type stormGroup struct {
	domain  orch.FailureDomain
	members []orch.DeploymentID
	parents []trace.SpanContext
}

// New builds an engine over the target. The caller wires it as the
// orchestrator's event sink and, for daemon use, calls Start.
func New(o Target, opts Options) (*Engine, error) {
	if o == nil {
		return nil, fmt.Errorf("optimizer: nil orchestrator")
	}
	shards := o.Shards()
	e := &Engine{
		o:         o,
		opts:      opts.withDefaults(),
		queues:    make([]*shardQueue, shards),
		highWater: make([]int, shards),
		groups:    make(map[string]*stormGroup),
		member:    make(map[orch.DeploymentID]string),
		pool:      orch.NewPool(),
		clock:     orch.WallClock,
	}
	e.results = ring.New[loggedResult](e.opts.ResultLog)
	for i := range e.queues {
		e.queues[i] = &shardQueue{queued: make(map[taskKey]bool)}
	}
	e.cond = sync.NewCond(&e.mu)
	return e, nil
}

// SetDrainObserver registers a telemetry hook receiving each Drain
// pass's wall time and executed task count (busy requeues excluded).
// Record-only: the observer must not call back into the engine.
func (e *Engine) SetDrainObserver(fn func(d time.Duration, tasks int)) {
	e.mu.Lock()
	e.drainObs = fn
	e.mu.Unlock()
}

// SetDebounceSource attaches the upstream failure debouncer's counters
// so Status reports the whole storm pipeline — events coalesced into
// batches upstream, re-protects coalesced into domain groups here.
func (e *Engine) SetDebounceSource(src interface{ Stats() orch.DebounceStats }) {
	e.mu.Lock()
	e.debounceSrc = src
	e.mu.Unlock()
}

// SetTracer attaches (or, with nil, detaches) the tracer. With a
// tracer set, tasks queued by traced events record optimizer spans in
// the originating trace; tick/sweep tasks stay span-free.
func (e *Engine) SetTracer(tr *trace.Tracer) {
	e.mu.Lock()
	e.tracer = tr
	e.mu.Unlock()
}

func (e *Engine) traceFor() *trace.Tracer {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tracer
}

// OrchEvent implements orch.EventSink: it translates lifecycle events
// into queued maintenance work. It only enqueues — execution happens
// in Drain or the Start loop — so it is safe to call from inside
// orchestrator operations.
func (e *Engine) OrchEvent(ev orch.Event) {
	switch ev.Kind {
	case orch.EventRepairCompleted:
		// Any successful repair may have consumed or dropped the
		// standby; the re-protect task is a cheap no-op when not.
		// Under a storm, domain-stamped events coalesce per shared
		// cause instead of queueing per deployment.
		if !e.stormEnqueue(ev) {
			e.enqueue(task{key: taskKey{dep: ev.Deployment, kind: KindReProtect},
				traceID: ev.TraceID, parent: ev.SpanID})
		}
		switch ev.Action {
		case orch.ActionReplaced, orch.ActionPatched, orch.ActionRebuilt:
			// Instances moved under duress: placement may have drifted.
			e.enqueue(task{key: taskKey{dep: ev.Deployment, kind: KindRehome},
				traceID: ev.TraceID, parent: ev.SpanID})
		}
	case orch.EventPlacementChanged:
		// MoveNF / re-home dropped the standby while re-provisioning.
		e.enqueue(task{key: taskKey{dep: ev.Deployment, kind: KindReProtect},
			traceID: ev.TraceID, parent: ev.SpanID})
	case orch.EventNodeRecovered, orch.EventLinkRecovered:
		// Capacity came back: refresh standbys planned around the
		// outage and pull drifted chains home. Only the chains the
		// orchestrator holds as owed are read; Tick covers the rest.
		e.sweepMu.Lock()
		e.sweepBuf = e.o.AppendOwedHealth(e.sweepBuf[:0])
		for _, h := range e.sweepBuf {
			if !h.Disjoint {
				e.Enqueue(h.ID, KindRefresh)
			}
			if h.Drifted {
				e.Enqueue(h.ID, KindRehome)
			}
		}
		e.sweepMu.Unlock()
	case orch.EventDeploymentDeleted:
		e.Cancel(ev.Deployment)
	}
}

// Enqueue queues one task, coalescing with an identical queued task (a
// deployment hit by a burst of events is optimized once). Returns
// whether the task was newly queued.
func (e *Engine) Enqueue(dep orch.DeploymentID, kind TaskKind) bool {
	return e.enqueue(task{key: taskKey{dep: dep, kind: kind}})
}

// stormEnqueue is the storm-mode intake for repair events. It reports
// whether the event's re-protect was absorbed: false means the caller
// should enqueue per-deployment as usual — no failure domain on the
// event, storm mode disabled, or the queue still below the spike
// threshold. Once the depth crosses the threshold, storm mode engages
// and each domain's chains share one group task until the queue drains.
func (e *Engine) stormEnqueue(ev orch.Event) bool {
	key := ev.Domain.String()
	if key == "" || e.opts.StormThreshold < 0 {
		return false
	}
	e.mu.Lock()
	if !e.storm && e.depth >= e.opts.StormThreshold {
		e.storm = true
		e.stormStat.Activations++
	}
	active := e.storm
	e.mu.Unlock()
	if !active {
		return false
	}
	// A chain already grouped, or joining a domain's group, coalesces;
	// the first chain of a domain opens its group task.
	e.grpMu.Lock()
	_, member := e.member[ev.Deployment]
	g, grouped := e.groups[key]
	if !member {
		e.member[ev.Deployment] = key
		if !grouped {
			g = &stormGroup{domain: ev.Domain}
			e.groups[key] = g
		}
		g.members = append(g.members, ev.Deployment)
		if ev.TraceID != "" && !slices.ContainsFunc(g.parents, func(p trace.SpanContext) bool { return p.TraceID == ev.TraceID }) {
			g.parents = append(g.parents, trace.SpanContext{TraceID: ev.TraceID, SpanID: ev.SpanID})
		}
	}
	e.grpMu.Unlock()
	opened := !member && !grouped
	if opened {
		e.enqueue(task{key: taskKey{kind: KindReProtect, domain: key}})
	}
	e.mu.Lock()
	if opened {
		e.stormStat.Domains++
	} else {
		e.stormStat.CoalescedTasks++
	}
	e.mu.Unlock()
	return true
}

func (e *Engine) enqueue(t task) bool {
	if t.key.kind < 0 || t.key.kind >= numKinds {
		return false
	}
	idx := e.o.ShardOf(t.key.dep)
	q := e.queues[idx]
	maxDepth := e.opts.MaxQueueDepth
	q.mu.Lock()
	dup := q.queued[t.key]
	var shed []taskKey
	if !dup {
		q.queued[t.key] = true
		q.order[t.key.kind] = append(q.order[t.key.kind], t)
		// Shed back under the bound before qlen is read, so the recorded
		// high-water mark can never exceed MaxQueueDepth. The victim may
		// be the task just inserted — a full queue of higher-priority
		// work rejects new cosmetic tasks outright.
		if maxDepth > 0 {
			for len(q.queued) > maxDepth {
				victim, ok := q.shedLowestLocked()
				if !ok {
					break
				}
				shed = append(shed, victim)
			}
		}
	}
	qlen := len(q.queued)
	q.mu.Unlock()
	// Stats, the global depth and the dispatcher wake-up live under the
	// engine lock, taken after the queue lock is released — the two are
	// never nested in this direction, so no ordering cycle with the
	// dispatcher (which nests e.mu → q.mu via queue drains).
	e.mu.Lock()
	defer e.mu.Unlock()
	if dup {
		e.stats[t.key.kind].Deduped++
		return false
	}
	e.depth += 1 - len(shed)
	e.shedTotal += len(shed)
	if qlen > e.highWater[idx] {
		e.highWater[idx] = qlen
	}
	selfShed := false
	for _, k := range shed {
		if k == t.key {
			selfShed = true
		}
	}
	if selfShed {
		return false
	}
	if t.attempts == 0 {
		e.stats[t.key.kind].Enqueued++
	}
	e.cond.Broadcast()
	return true
}

// shedLowestLocked evicts the newest task of the lowest-priority
// (highest-kind) non-empty lane — the work whose loss costs least: a
// shed defrag or re-home regenerates on the next idle tick, while
// re-protect lanes are only touched when nothing lower remains.
// Storm-mode group tasks are never shed (their membership lives outside
// the queue and would orphan). Caller holds q.mu.
func (q *shardQueue) shedLowestLocked() (taskKey, bool) {
	for kind := numKinds - 1; kind >= 0; kind-- {
		lane := q.order[kind]
		for i := len(lane) - 1; i >= 0; i-- {
			if lane[i].key.domain != "" {
				continue
			}
			victim := lane[i].key
			q.order[kind] = append(lane[:i], lane[i+1:]...)
			delete(q.queued, victim)
			return victim, true
		}
	}
	return taskKey{}, false
}

// Cancel drops every queued task for the deployment (it was deleted;
// the work is moot). Tasks already executing observe the deletion
// themselves through the orchestrator's state errors.
func (e *Engine) Cancel(dep orch.DeploymentID) int {
	q := e.queues[e.o.ShardOf(dep)]
	var dropped [numKinds]int
	n := 0
	q.mu.Lock()
	for kind := TaskKind(0); kind < numKinds; kind++ {
		kept := q.order[kind][:0]
		for _, t := range q.order[kind] {
			if t.key.dep == dep {
				delete(q.queued, t.key)
				dropped[kind]++
				n++
				continue
			}
			kept = append(kept, t)
		}
		q.order[kind] = kept
	}
	q.mu.Unlock()
	// A deleted deployment also leaves its storm group: the group task
	// stays queued for the surviving members.
	e.grpMu.Lock()
	if key, ok := e.member[dep]; ok {
		delete(e.member, dep)
		g := e.groups[key]
		if g.members = slices.DeleteFunc(g.members, func(id orch.DeploymentID) bool { return id == dep }); len(g.members) == 0 {
			delete(e.groups, key)
		}
	}
	e.grpMu.Unlock()
	if n > 0 {
		e.mu.Lock()
		e.depth -= n
		for kind := TaskKind(0); kind < numKinds; kind++ {
			e.stats[kind].Cancelled += dropped[kind]
		}
		e.mu.Unlock()
	}
	return n
}

// Pause stops the background loop from dispatching further tasks;
// queued work accumulates (deduplicated). Drain is an explicit
// operator action and ignores the pause.
func (e *Engine) Pause() {
	e.mu.Lock()
	e.paused = true
	e.mu.Unlock()
}

// Resume reverses Pause.
func (e *Engine) Resume() {
	e.mu.Lock()
	e.paused = false
	e.mu.Unlock()
	e.cond.Broadcast()
}

// popBatch removes every queued task, highest priority first (kind
// order dominates; within a kind, shard order then FIFO).
func (e *Engine) popBatch() []task {
	var out []task
	for kind := TaskKind(0); kind < numKinds; kind++ {
		for _, q := range e.queues {
			q.mu.Lock()
			for _, t := range q.order[kind] {
				delete(q.queued, t.key)
				out = append(out, t)
			}
			q.order[kind] = nil
			q.mu.Unlock()
		}
	}
	if len(out) > 0 {
		e.mu.Lock()
		e.depth -= len(out)
		e.mu.Unlock()
	}
	return out
}

// Tick is the idle-tick event source: it sweeps the fleet and queues
// the opportunistic work — refresh for unprotected or non-disjoint
// standbys, re-home for every active chain (the hysteresis margin
// makes well-placed chains a cheap no-op), λ-defrag for chains holding
// a non-lowest wavelength. The Start loop fires it on an interval;
// tests and benches call it directly.
func (e *Engine) Tick() {
	e.sweepMu.Lock()
	defer e.sweepMu.Unlock()
	e.sweepBuf = e.o.AppendChainHealth(e.sweepBuf[:0])
	for _, h := range e.sweepBuf {
		if !h.Disjoint {
			e.Enqueue(h.ID, KindRefresh)
		}
		e.Enqueue(h.ID, KindRehome)
		if h.Lambda > 0 {
			e.Enqueue(h.ID, KindDefrag)
		}
	}
}

// Drain executes queued tasks over the worker pool until the queue is
// empty, and returns the results in completion order. Busy
// deployments are requeued (with a short pause between rounds) up to
// the configured retry budget. Drain ignores Pause — it is the
// explicit "run the optimizer now" operation behind
// POST /v1/optimizer:run — and may run concurrently with the
// background loop; both feed from the same queue.
func (e *Engine) Drain() []TaskResult {
	e.mu.Lock()
	obs := e.drainObs
	e.mu.Unlock()
	var start time.Time
	if obs != nil {
		start = time.Now()
	}
	var out []TaskResult
	for {
		batch := e.popBatch()
		if len(batch) == 0 {
			e.endStormIfDrained()
			if obs != nil {
				obs(time.Since(start), len(out))
			}
			return out
		}
		slots := make([]taskSlot, len(batch))
		e.pool.Run(len(batch), e.opts.Workers, func(i int) {
			slots[i].res, slots[i].requeue = e.runTask(batch[i], &slots[i])
		})
		busyOnly := true
		for i := range batch {
			if slots[i].requeue {
				// Requeue the whole task, trace fields included — the
				// retry is the same causal operation.
				rt := batch[i]
				rt.attempts++
				e.enqueue(rt)
				continue
			}
			busyOnly = false
			out = append(out, slots[i].res)
		}
		if busyOnly {
			// Everything still queued is waiting on in-flight exclusive
			// operations; give them a moment before the next round.
			e.clock.Sleep(5 * time.Millisecond)
		}
	}
}

// taskSlot is one task's place in a drain round: its result, whether it
// goes back on the queue, and the member and outcome a per-chain
// re-protect hands ReProtectGroup, so a group of one allocates neither.
type taskSlot struct {
	res     TaskResult
	requeue bool
	ids     [1]orch.DeploymentID
	outs    [1]orch.GroupOutcome
}

// runTask executes one task and classifies its outcome. requeue=true
// means the deployment was busy and the task should go back on the
// queue (unless its retry budget is spent).
func (e *Engine) runTask(t task, slot *taskSlot) (res TaskResult, requeue bool) {
	e.mu.Lock()
	e.running++
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.running--
		if !requeue {
			switch res.Outcome {
			case "cancelled":
				e.stats[t.key.kind].Cancelled++
			case "skipped":
				e.stats[t.key.kind].Skipped++
			case "failed":
				e.stats[t.key.kind].Failed++
			default:
				e.stats[t.key.kind].Completed++
			}
			slot := e.results.Next()
			slot.res, slot.json = res, res.AppendJSON(slot.json[:0])
		} else {
			e.stats[t.key.kind].Requeued++
		}
		e.mu.Unlock()
	}()

	res = TaskResult{Deployment: t.key.dep, Kind: t.key.kind.String(), When: time.Now()}
	if t.key.domain != "" {
		return e.runGroupTask(t), false
	}
	// Event-queued tasks continue the originating repair's trace; a
	// busy requeue records nothing (the retry is the same operation).
	var tr *trace.Tracer
	var sc trace.SpanContext
	var spanStart time.Time
	if t.traceID != "" {
		if tr = e.traceFor(); tr != nil {
			sc = tr.Start(trace.SpanContext{TraceID: t.traceID, SpanID: t.parent})
			spanStart = time.Now()
		}
	}
	var err error
	switch t.key.kind {
	case KindReProtect, KindRefresh:
		slot.ids[0] = t.key.dep
		out := e.o.ReProtectGroup(slot.outs[:0], orch.FailureDomain{}, slot.ids[:])[0]
		err = out.Err
		switch {
		case out.Err != nil:
		case !out.Replanned:
			res.Outcome = "already-protected"
		case out.Standby == nil:
			res.Outcome = "unprotected"
			res.Detail = "standby planning disabled or no alternate route"
		case out.Standby.Disjoint:
			res.Outcome = "protected"
			res.Detail = "disjoint standby planned"
		default:
			res.Outcome = "protected"
			res.Detail = "non-disjoint standby planned (best the topology allows)"
		}
	case KindRehome:
		moved, rErr := e.o.Rehome(t.key.dep, e.opts.RehomeMargin)
		err = rErr
		if rErr == nil {
			if moved {
				res.Outcome = "rehomed"
			} else {
				res.Outcome = "no-improvement"
			}
		}
	case KindDefrag:
		from, to, retuned, rErr := e.o.DefragLambda(t.key.dep)
		err = rErr
		if rErr == nil {
			if retuned {
				res.Outcome = "retuned"
				res.Detail = fmt.Sprintf("lambda %d -> %d", from, to)
			} else {
				res.Outcome = "no-op"
			}
		}
	default:
		err = fmt.Errorf("optimizer: unknown task kind %d", int(t.key.kind))
	}

	switch {
	case err == nil:
	case errors.Is(err, orch.ErrBusy):
		if t.attempts < e.opts.BusyRetries {
			return res, true
		}
		res.Outcome = "skipped"
		res.Error = err.Error()
	case errors.Is(err, orch.ErrUnknownDeployment), errors.Is(err, orch.ErrNotActive):
		res.Outcome = "cancelled"
		res.Error = err.Error()
	default:
		res.Outcome = "failed"
		res.Error = err.Error()
	}
	if tr != nil {
		sp := trace.Span{Parent: t.parent,
			Name: "optimizer." + t.key.kind.String(), Kind: trace.KindOptimizer,
			Start: spanStart, End: time.Now(), Err: res.Error,
			Attrs: []trace.Attr{{Key: "outcome", Value: res.Outcome}}}
		// A cancelled task's chain is gone; filing the span under it
		// would give the chain a trace-index entry again.
		if res.Outcome != "cancelled" {
			sp.Dep = int(t.key.dep)
		}
		tr.Record(sc, sp)
	}
	return res, false
}

// runGroupTask executes one storm-mode group task: it claims the
// domain's accumulated members and re-protects each exactly once — the
// whole domain goes down in one ReProtectGroup call, one avoidance set
// for every member. Busy members requeue as ordinary per-deployment
// tasks (the storm may be over by then); deleted ones are moot. Members
// reported after the claim re-accumulate under the domain and re-create
// the group task.
func (e *Engine) runGroupTask(t task) TaskResult {
	e.grpMu.Lock()
	g := e.groups[t.key.domain]
	if g == nil {
		// Every member was deleted while the task was queued.
		g = &stormGroup{}
	}
	delete(e.groups, t.key.domain)
	for _, id := range g.members {
		delete(e.member, id)
	}
	e.grpMu.Unlock()
	parents := g.parents
	// The group span continues the first coalesced repair's trace and
	// links every other member's, so each originating failure trace
	// reaches the storm-coalesced re-protect that closed it out.
	var tr *trace.Tracer
	var sc trace.SpanContext
	var spanStart time.Time
	if len(parents) > 0 {
		if tr = e.traceFor(); tr != nil {
			sc = tr.Start(parents[0])
			spanStart = time.Now()
		}
	}
	// ReProtectGroup sorts the members, so execution order, traces and
	// bench action counts are stable whatever order the repairs
	// coalesced in.
	var gstats GroupPlanStats
	protected, already, busy, failed := 0, 0, 0, 0
	for _, out := range e.o.ReProtectGroup(nil, g.domain, g.members) {
		if out.Replanned {
			gstats.Planned++
		}
		if out.Fallback {
			gstats.Fallbacks++
		}
		switch {
		case out.Err == nil && out.Replanned:
			protected++
		case out.Err == nil:
			already++
		case errors.Is(out.Err, orch.ErrBusy):
			busy++
			e.enqueue(task{key: taskKey{dep: out.ID, kind: KindReProtect}})
		case errors.Is(out.Err, orch.ErrUnknownDeployment), errors.Is(out.Err, orch.ErrNotActive):
			// Deleted mid-storm: nothing to protect.
		default:
			failed++
		}
	}
	e.mu.Lock()
	e.groupPlan.Planned += gstats.Planned
	e.groupPlan.Fallbacks += gstats.Fallbacks
	e.mu.Unlock()
	res := TaskResult{Kind: t.key.kind.String(), Outcome: "storm-group", When: time.Now()}
	res.Detail = fmt.Sprintf("domain %s: %d chains (%d protected, %d already, %d busy requeued, %d failed); %d group-planned, %d fabric fallbacks",
		t.key.domain, len(g.members), protected, already, busy, failed, gstats.Planned, gstats.Fallbacks)
	if failed > 0 {
		res.Outcome = "failed"
	}
	if tr != nil {
		sp := trace.Span{Parent: parents[0].SpanID,
			Name: "optimizer.storm-group", Kind: trace.KindOptimizer,
			Start: spanStart, End: time.Now(),
			Attrs: []trace.Attr{
				{Key: "domain", Value: t.key.domain},
				{Key: "chains", Value: fmt.Sprintf("%d", len(g.members))},
				{Key: "outcome", Value: res.Outcome},
				{Key: "planned", Value: fmt.Sprintf("%d", gstats.Planned)},
				{Key: "fallbacks", Value: fmt.Sprintf("%d", gstats.Fallbacks)},
			}}
		for _, p := range parents[1:] {
			if p.TraceID != sc.TraceID {
				sp.Links = append(sp.Links, p.TraceID)
			}
		}
		if failed > 0 {
			sp.Err = fmt.Sprintf("%d member re-protects failed", failed)
		}
		tr.Record(sc, sp)
	}
	return res
}

// endStormIfDrained disengages storm mode once the queues and group
// membership are both empty — the spike is over; the next one
// re-activates.
func (e *Engine) endStormIfDrained() {
	e.grpMu.Lock()
	pending := len(e.groups)
	e.grpMu.Unlock()
	e.mu.Lock()
	if e.storm && e.depth == 0 && pending == 0 {
		e.storm = false
	}
	e.mu.Unlock()
}

// Start launches the background dispatcher: queued tasks execute as
// they arrive (bounded by Options.Workers), and when tickEvery is
// positive an idle tick fires Tick on that interval. Stop shuts both
// down. Calling Start twice without Stop is an error.
func (e *Engine) Start(tickEvery time.Duration) error {
	e.loopMu.Lock()
	defer e.loopMu.Unlock()
	if e.stopCh != nil {
		return fmt.Errorf("optimizer: already started")
	}
	stop := make(chan struct{})
	e.stopCh = stop
	e.loopWG.Add(1)
	go func() {
		defer e.loopWG.Done()
		for {
			e.mu.Lock()
			for (e.paused || e.depth == 0) && !stopped(stop) {
				e.cond.Wait()
			}
			e.mu.Unlock()
			if stopped(stop) {
				return
			}
			e.Drain()
		}
	}()
	if tickEvery > 0 {
		e.armTick(stop, tickEvery)
	}
	return nil
}

// armTick schedules the next idle tick of the run stop belongs to; the
// tick sweeps outside loopMu, counted in loopWG so Stop waits for it,
// then arms the one after it. Caller holds loopMu.
func (e *Engine) armTick(stop chan struct{}, every time.Duration) {
	e.stopTick = e.clock.AfterFunc(every, func() {
		e.loopMu.Lock()
		defer e.loopMu.Unlock()
		if e.stopCh != stop {
			return // stopped since this tick was armed
		}
		e.loopWG.Add(1)
		e.loopMu.Unlock()
		e.Tick()
		e.loopWG.Done()
		e.loopMu.Lock()
		if e.stopCh == stop {
			e.armTick(stop, every)
		}
	})
}

func stopped(stop chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// Stop halts the background dispatcher and idle tick started by Start,
// waits for a tick and tasks in flight to finish and ends the task
// pool's workers; a later Drain starts them again. Queued tasks stay
// queued.
func (e *Engine) Stop() {
	defer e.pool.Close()
	e.loopMu.Lock()
	stop := e.stopCh
	e.stopCh = nil
	if e.stopTick != nil {
		e.stopTick() // a stale one, after Start(0), stops nothing
	}
	e.loopMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	// Broadcast under e.mu: the dispatcher checks its wait predicate
	// while holding the lock, so an unlocked broadcast could land in
	// the window between that check and cond.Wait registering — a lost
	// wake-up that would hang loopWG.Wait forever.
	e.mu.Lock()
	e.cond.Broadcast()
	e.mu.Unlock()
	e.loopWG.Wait()
}

// Status snapshots the engine's observable state.
func (e *Engine) Status() Status {
	var st Status
	e.ViewStatus(func(view *Status, _ [][]byte) {
		st = *view
		st.ShardHighWater = slices.Clone(view.ShardHighWater)
		st.Kinds = maps.Clone(view.Kinds)
		if n := e.results.Len(); n > 0 {
			st.LastResults = make([]TaskResult, n)
			for i := range st.LastResults {
				st.LastResults[i] = e.results.At(i).res
			}
		}
	})
	return st
}

// ViewStatus calls fn with the engine's state under the engine's lock:
// st is what Status returns but for LastResults, which it leaves nil,
// and results is the result log, oldest first, each result as its
// TaskResult.AppendJSON made it when it entered the log (nil for an empty
// log). fn must not call into the engine, nor keep st's lists or maps,
// results or the arrays results holds.
func (e *Engine) ViewStatus(fn func(st *Status, results [][]byte)) {
	shardDepths := make([]int, len(e.queues))
	for i, q := range e.queues {
		q.mu.Lock()
		shardDepths[i] = len(q.queued)
		q.mu.Unlock()
	}
	e.mu.Lock()
	src := e.debounceSrc
	e.mu.Unlock()
	var debounce *orch.DebounceStats
	if src != nil {
		ds := src.Stats()
		debounce = &ds
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.kindsView == nil {
		e.kindsView = make(map[string]KindStats, numKinds)
	}
	for kind := TaskKind(0); kind < numKinds; kind++ {
		e.kindsView[kind.String()] = e.stats[kind]
	}
	st := Status{
		Paused:         e.paused,
		QueueDepth:     e.depth,
		ShardDepths:    shardDepths,
		ShardHighWater: e.highWater,
		Running:        e.running,
		Kinds:          e.kindsView,
		Shed:           e.shedTotal,
		Storm:          e.stormStat,
		GroupPlans:     e.groupPlan,
		Debounce:       debounce,
	}
	st.Storm.Active = e.storm
	results := e.logView[:0]
	for i := range e.results.Len() {
		results = append(results, e.results.At(i).json)
	}
	if len(results) == 0 {
		results = nil
	}
	fn(&st, results)
	clear(results)
	e.logView = results
}

// loggedResult is one result in the engine's log with its wire
// encoding, made once, when it entered.
type loggedResult struct {
	res  TaskResult
	json []byte
}

// AppendJSON appends the result's wire form: byte for byte what
// encoding/json makes of it.
func (r *TaskResult) AppendJSON(b []byte) []byte {
	b = strconv.AppendInt(append(b, `{"deployment":`...), int64(r.Deployment), 10)
	b = jsonwrite.String(append(b, `,"kind":`...), r.Kind)
	b = jsonwrite.String(append(b, `,"outcome":`...), r.Outcome)
	if r.Detail != "" {
		b = jsonwrite.String(append(b, `,"detail":`...), r.Detail)
	}
	if r.Error != "" {
		b = jsonwrite.String(append(b, `,"error":`...), r.Error)
	}
	b = jsonwrite.Time(append(b, `,"when":`...), r.When)
	return append(b, '}')
}
