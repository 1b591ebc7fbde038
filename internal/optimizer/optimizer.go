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
// — behind one deduplicating work queue of member groups, whatever the
// orchestrator's shard count, bounded by Options.MaxQueueDepth: a chain
// hit by ten events is optimized once, and the re-protects of one failure
// domain run as one group planned off the domain's risk groups. Tasks
// take the orchestrator's per-deployment exclusive guard; a busy
// deployment is skipped and requeued, a deleted one cancels its pending
// work. The engine is fully observable (Status) and drainable
// synchronously (Drain) for tests, benches and POST /v1/optimizer:run.
package optimizer

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/alvc/alvc/internal/jsonwrite"
	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/ring"
	"github.com/alvc/alvc/internal/spare"
	"github.com/alvc/alvc/internal/trace"
)

// Target is the orchestration surface the engine optimizes against —
// *orch.Sharded; tests that need a fake embed one. Both sweeps are by
// value — one orch.ChainHealth per chain, ID-sorted, appended to the
// engine's buffer: the idle tick reads every active chain, a recovery
// event only the chains the orchestrator's maintenance-owed index holds,
// so it costs the chains it can help and not a pass over the fleet.
// ReProtectGroup is the one re-protection call: every re-protect and
// refresh task hands it one failure-domain group, steering each member
// off the domain's risk groups; a group with no domain is one chain. A
// re-home or λ-defrag task is one chain's Apply (orch.ChangeRehome,
// orch.ChangeDefrag), read back from its orch.Applied. Hooks are the
// engine's observers too: its tasks trace through Hooks.Tracer and each
// Drain reports to Hooks.Drain.
type Target interface {
	AppendChainHealth(buf []orch.ChainHealth, owed bool) []orch.ChainHealth
	ReProtectGroup(buf []orch.GroupOutcome, domain orch.FailureDomain, ids []orch.DeploymentID) []orch.GroupOutcome
	Apply(id orch.DeploymentID, c orch.Change) (orch.Applied, error)
	Hooks() *orch.Hooks
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

// busyRetries is how many times a member that finds its deployment busy
// is requeued before it is dropped as skipped.
const busyRetries = 20

// Options tunes an Engine.
type Options struct {
	// RehomeMargin is the hysteresis: a fresh placement must beat the
	// current one by at least this many O/E/O conversions before a
	// re-home migrates anything (orch.ChangeRehome raises a value below 1
	// to 1).
	RehomeMargin int
	// ResultLog is how many recent task results Status retains
	// (default 32).
	ResultLog int
	// Deprecated: ignored; every re-protect joins its failure domain's group.
	StormThreshold int
	// MaxQueueDepth bounds the engine's queued task count (default 4096;
	// negative disables the bound), whatever the orchestrator's shard
	// count. An enqueue that would push the queue past the bound sheds the
	// lowest-priority queued task, newest first, and its members instead
	// of growing — protection work survives a burst at the expense of
	// cosmetic re-home/defrag passes, and queue memory stays bounded
	// however long the burst runs. Shed tasks are counted (Status.Shed)
	// and regenerate on the next idle tick.
	MaxQueueDepth int
}

func (o Options) withDefaults() Options {
	if o.ResultLog <= 0 {
		o.ResultLog = 32
	}
	if o.MaxQueueDepth == 0 {
		o.MaxQueueDepth = 4096
	}
	return o
}

// KindStats counts one task kind's lifecycle outcomes, per member chain.
type KindStats struct {
	// Enqueued counts accepted enqueues (dedup hits excluded).
	Enqueued int `json:"enqueued"`
	// Deduped counts enqueues coalesced into an already-queued task, and
	// refreshes dropped because the chain's re-protect planned a disjoint
	// standby before they ran.
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

// TaskResult is one member chain's outcome of a task, kept in the ring.
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

// GroupPlanStats accumulates the re-protect lane's outcomes across the
// engine's lifetime: how its work coalesced by failure domain, and how
// the members' standbys were planned.
type GroupPlanStats struct {
	// Groups counts groups opened: a domain's (or a domainless chain's)
	// first member since its last group ran.
	Groups int `json:"groups"`
	// Coalesced counts members that joined an already open group — the
	// queue entries the grouping saved.
	Coalesced int `json:"coalesced"`
	// Planned counts members whose standby was re-planned.
	Planned int `json:"planned"`
	// Fallbacks counts members whose plan retried on the whole fabric
	// after the shard's pool offered no route, or none that was
	// disjoint.
	Fallbacks int `json:"fallbacks"`
}

// Status is the engine's observable state. QueueDepth and HighWater
// count the engine's one queue's tasks (groups), not member chains.
type Status struct {
	Paused     bool `json:"paused"`
	QueueDepth int  `json:"queue_depth"`
	// HighWater is the queued-task high-water mark since the engine
	// started — the spike detector's evidence trail. The bound holds it
	// at or under Options.MaxQueueDepth.
	HighWater int                  `json:"queue_high_water"`
	Running   int                  `json:"running"`
	Kinds     map[string]KindStats `json:"kinds"`
	// Shed counts tasks dropped by the queue-depth bound
	// (Options.MaxQueueDepth) since the engine started.
	Shed int `json:"queue_shed"`
	// GroupPlans reports the re-protect lane's grouping and planning
	// counters.
	GroupPlans GroupPlanStats `json:"group_plans"`
	// LastResults lists the most recent task outcomes, oldest first.
	LastResults []TaskResult `json:"last_results"`
}

// taskKey names one queued task, a group of member chains kept in
// Engine.groups. A re-protect or refresh groups by failure domain:
// domain is the domain's key (FailureDomain.String) and dep is 0. Any
// other task, and a re-protect or refresh with no domain, is a group of
// one keyed by its chain, dep.
type taskKey struct {
	dep    orch.DeploymentID
	kind   TaskKind
	domain string
}

// group is one queued task's record: its key, the failure domain its
// members share, the members, and the spans of the events that queued
// them, one per distinct trace (untraced tick and sweep work has none and
// records no span) — the task's span continues the first and links the
// rest. The other fields are the scratch of the run that claims it;
// records are pooled, so a steady queue allocates none.
type group struct {
	key     taskKey
	domain  orch.FailureDomain
	members []orch.DeploymentID
	parents []trace.SpanContext

	tries   []int // the members' busy retries, members sorted by ID
	outs    []orch.GroupOutcome
	results []TaskResult
	busy    []retry
}

// retry is a busy member on its way back into its group.
type retry struct {
	id       orch.DeploymentID
	attempts int
}

var groupPool spare.Pool[group]

// free returns a group's record to the pool, keeping its buffers.
func (g *group) free() {
	clear(g.parents)
	clear(g.outs)
	clear(g.results)
	*g = group{members: g.members[:0], parents: g.parents[:0], tries: g.tries[:0],
		outs: g.outs[:0], results: g.results[:0], busy: g.busy[:0]}
	groupPool.Put(g)
}

// memberKey names a chain's place in its kind's lane, and membership
// is that place: the group the chain waits in and its busy retries.
type memberKey struct {
	dep  orch.DeploymentID
	kind TaskKind
}

type membership struct {
	key      taskKey
	attempts int
}

// Engine is the background optimization engine over the orchestrator.
// It implements orch.EventSink; attach it to orch.Hooks.Events (the
// alvc facade's WithOptimizer does this). Safe for concurrent use.
type Engine struct {
	o    Target
	opts Options

	// mu guards the queue and the engine's counters. The queue is one
	// table: a FIFO lane of task keys per kind, the queued tasks' groups
	// by key (one per lane entry, so len(groups) is the queue depth), and
	// each queued member's place.
	mu      sync.Mutex
	cond    *sync.Cond
	lanes   [numKinds][]taskKey
	groups  map[taskKey]*group
	member  map[memberKey]membership
	round   map[orch.DeploymentID]bool // popBatch's scratch: the round's chains
	paused  bool
	running int
	stats   [numKinds]KindStats
	// results holds the last opts.ResultLog outcomes, each with its wire
	// encoding; logView and statusView are ViewStatus's.
	results    ring.Ring[loggedResult]
	logView    [][]byte
	statusView Status
	groupPlan  GroupPlanStats
	highWater  int // queued-task high-water mark
	shedTotal  int // tasks dropped by the MaxQueueDepth bound

	// sweepMu serializes fleet sweeps (recovery intake, Tick) over the
	// one reused summary buffer. Taken before mu, never under it.
	sweepMu  sync.Mutex
	sweepBuf []orch.ChainHealth

	// loopMu guards the background loop: stopCh is nil when stopped,
	// stopTick cancels the armed tick, and loopWG counts the dispatcher
	// and a tick in flight.
	loopMu   sync.Mutex
	stopCh   chan struct{}
	stopTick orch.Timer
	loopWG   sync.WaitGroup

	// clock times the idle tick and the busy pause.
	clock orch.Clock
	// drain is Drain's batch between drains (a concurrent drain builds
	// its own).
	drain atomic.Pointer[[]*group]
}

// New builds an engine over the target. The caller wires it as the
// orchestrator's event sink and, for daemon use, calls Start.
func New(o Target, opts Options) (*Engine, error) {
	if o == nil {
		return nil, fmt.Errorf("optimizer: nil orchestrator")
	}
	e := &Engine{
		o:      o,
		opts:   opts.withDefaults(),
		groups: make(map[taskKey]*group),
		member: make(map[memberKey]membership),
		round:  make(map[orch.DeploymentID]bool),
		clock:  orch.WallClock,
	}
	e.results = ring.New[loggedResult](e.opts.ResultLog)
	e.cond = sync.NewCond(&e.mu)
	return e, nil
}

// OrchEvent implements orch.EventSink: it translates lifecycle events
// into queued maintenance work. It only enqueues — execution happens
// in Drain or the Start loop — so it is safe to call from inside
// orchestrator operations.
func (e *Engine) OrchEvent(ev orch.Event) {
	parent := trace.SpanContext{TraceID: ev.TraceID, SpanID: ev.SpanID}
	switch ev.Kind {
	case orch.EventRepairCompleted:
		// Any successful repair may have consumed or dropped the
		// standby; the re-protect is a cheap no-op when not. The chain
		// joins the group of what failed, so it is planned off the
		// failure's risk groups beside every other chain it hit.
		e.join(KindReProtect, ev.Deployment, ev.Domain, 0, parent)
		switch ev.Action {
		case orch.ActionReplaced, orch.ActionPatched, orch.ActionRebuilt:
			// Instances moved under duress: placement may have drifted.
			e.join(KindRehome, ev.Deployment, orch.FailureDomain{}, 0, parent)
		}
	case orch.EventPlacementChanged:
		// A move / re-home dropped the standby while re-provisioning.
		e.join(KindReProtect, ev.Deployment, orch.FailureDomain{}, 0, parent)
	case orch.EventNodeRecovered, orch.EventLinkRecovered:
		// Capacity came back: refresh standbys planned around the
		// outage and pull drifted chains home. Only the chains the
		// orchestrator holds as owed are read; Tick covers the rest.
		e.sweepMu.Lock()
		e.sweepBuf = e.o.AppendChainHealth(e.sweepBuf[:0], true)
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

// Enqueue queues one task for the chain, with no failure domain: a
// group of one, coalescing with the chain's queued task of the kind (a
// deployment hit by a burst of events is optimized once). Returns
// whether the task was newly queued.
func (e *Engine) Enqueue(dep orch.DeploymentID, kind TaskKind) bool {
	return e.join(kind, dep, orch.FailureDomain{}, 0)
}

// join files dep's task of the kind under its failure domain's group —
// the chain's own group when there is no domain, or the kind does not
// group — opening the group and queueing its task when dep is the first
// member. A chain already queued for the kind is deduped. attempts is the
// member's busy retries so far; parents are the spans of the events
// behind it. It reports whether dep was newly queued.
func (e *Engine) join(kind TaskKind, dep orch.DeploymentID, domain orch.FailureDomain, attempts int, parents ...trace.SpanContext) bool {
	if kind < 0 || kind >= numKinds {
		return false
	}
	key := taskKey{kind: kind, domain: domain.String()}
	if key.domain == "" {
		key.dep = dep
	}
	mk := memberKey{dep: dep, kind: kind}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.member[mk]; dup {
		e.stats[kind].Deduped++
		return false
	}
	g, open := e.groups[key]
	if !open {
		g = groupPool.Get()
		g.key, g.domain = key, domain
		e.groups[key] = g
		e.lanes[kind] = append(e.lanes[kind], key)
		// Shed back under the bound before the high-water mark is read,
		// so it never exceeds MaxQueueDepth. The victim may be the task
		// just queued — a full queue of higher-priority work rejects new
		// cosmetic tasks outright.
		if e.opts.MaxQueueDepth > 0 && len(e.groups) > e.opts.MaxQueueDepth && e.shedLowest() == key {
			return false
		}
		e.highWater = max(e.highWater, len(e.groups))
		e.cond.Broadcast()
	}
	g.members = append(g.members, dep)
	e.member[mk] = membership{key: key, attempts: attempts}
	for _, p := range parents {
		if p.TraceID != "" && !slices.ContainsFunc(g.parents, func(q trace.SpanContext) bool { return q.TraceID == p.TraceID }) {
			g.parents = append(g.parents, p)
		}
	}
	if attempts == 0 {
		e.stats[kind].Enqueued++
	}
	switch {
	case kind > KindRefresh: // a re-home or defrag is always a group of one
	case open:
		e.groupPlan.Coalesced++
	default:
		e.groupPlan.Groups++
	}
	return true
}

// claim takes a queued group out of the table: its record leaves, and
// its members leave theirs, so an event arriving from here on opens the
// domain's next group. The members are sorted by ID and their busy
// retries read into tries, in that order. The caller holds mu and takes
// the key out of its lane.
func (e *Engine) claim(key taskKey) *group {
	g := e.groups[key]
	delete(e.groups, key)
	slices.Sort(g.members)
	for _, id := range g.members {
		mk := memberKey{dep: id, kind: key.kind}
		g.tries = append(g.tries, e.member[mk].attempts)
		delete(e.member, mk)
	}
	return g
}

// shedLowest evicts the newest task of the lowest-priority
// (highest-kind) non-empty lane — the work whose loss costs least: a
// shed defrag or re-home regenerates on the next idle tick, and so does
// a shed group's members, through the tick's refresh sweep — and
// returns its key. The caller holds mu and has queued more tasks than
// the bound.
func (e *Engine) shedLowest() taskKey {
	kind := numKinds - 1
	for len(e.lanes[kind]) == 0 {
		kind--
	}
	lane := e.lanes[kind]
	victim := lane[len(lane)-1]
	lane[len(lane)-1] = taskKey{}
	e.lanes[kind] = lane[:len(lane)-1]
	e.claim(victim).free()
	e.shedTotal++
	return victim
}

// Cancel drops the deployment's queued work (it was deleted; the work
// is moot): it leaves every group it waits in, and a group it leaves
// empty leaves the queue. Tasks already claimed observe the deletion
// themselves through the orchestrator's state errors.
func (e *Engine) Cancel(dep orch.DeploymentID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for kind := TaskKind(0); kind < numKinds; kind++ {
		if e.leaveLocked(dep, kind) {
			e.stats[kind].Cancelled++
		}
	}
}

// leaveLocked takes dep out of the group it waits in for the kind, and a
// group it leaves empty out of the queue. It reports whether dep was
// queued for the kind. The caller holds mu.
func (e *Engine) leaveLocked(dep orch.DeploymentID, kind TaskKind) bool {
	mk := memberKey{dep: dep, kind: kind}
	m, ok := e.member[mk]
	if !ok {
		return false
	}
	delete(e.member, mk)
	g := e.groups[m.key]
	if g.members = slices.DeleteFunc(g.members, func(id orch.DeploymentID) bool { return id == dep }); len(g.members) > 0 {
		return true
	}
	delete(e.groups, m.key)
	g.free()
	e.lanes[kind] = slices.DeleteFunc(e.lanes[kind], func(k taskKey) bool { return k == m.key })
	return true
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

// popBatch claims one drain round's tasks, highest priority first (kind
// order dominates; within a kind, FIFO): every queued task none of whose
// members an earlier task of the round holds. So a chain runs in at most
// one task a round, and a task left out keeps its place in its lane for
// the next round.
func (e *Engine) popBatch(out []*group) []*group {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.groups) == 0 {
		return out
	}
	inRound := func(id orch.DeploymentID) bool { return e.round[id] }
	for kind, lane := range e.lanes {
		left := lane[:0]
		for _, key := range lane {
			if slices.ContainsFunc(e.groups[key].members, inRound) {
				left = append(left, key)
				continue
			}
			g := e.claim(key)
			for _, id := range g.members {
				e.round[id] = true
			}
			out = append(out, g)
		}
		clear(lane[len(left):])
		e.lanes[kind] = left
	}
	clear(e.round)
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
	e.sweepBuf = e.o.AppendChainHealth(e.sweepBuf[:0], false)
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

// Drain executes queued tasks on the calling goroutine, a round's tasks
// in the order popBatch claimed them, until the queue is empty, and
// returns the results in completion order. Deployments a concurrent verb
// holds are requeued as busy (with a short pause between rounds) up to
// the configured retry budget. Drain ignores Pause — it is the
// explicit "run the optimizer now" operation behind
// POST /v1/optimizer:run — and may run concurrently with the
// background loop; both feed from the same queue. The pass reports to
// the target's Hooks.Drain when one is attached.
func (e *Engine) Drain() []TaskResult {
	obs := e.o.Hooks().Drain
	var start time.Time
	if obs != nil {
		start = time.Now()
	}
	batch := e.drain.Swap(nil)
	if batch == nil {
		batch = new([]*group)
	}
	var out []TaskResult
	for {
		*batch = e.popBatch((*batch)[:0])
		if len(*batch) == 0 {
			e.drain.Store(batch)
			if obs != nil {
				obs(time.Since(start), len(out))
			}
			return out
		}
		for _, g := range *batch {
			e.run(g)
		}
		busyOnly := true
		for i, g := range *batch {
			busyOnly = busyOnly && len(g.results) == 0
			// Busy members rejoin their domain's group, the group's
			// parents with them: the retry is the same causal operation.
			for _, r := range g.busy {
				e.join(g.key.kind, r.id, g.domain, r.attempts, g.parents...)
			}
			out = append(out, g.results...)
			g.free()
			(*batch)[i] = nil
		}
		if busyOnly {
			// Everything still queued is waiting on in-flight exclusive
			// operations; give them a moment before the next round.
			e.clock.Sleep(5 * time.Millisecond)
		}
	}
}

// run executes one claimed task: it runs its kind on every member — a
// re-protect or refresh in one ReProtectGroup call, each member steered
// off the group's domain — and files one result per member. A busy
// member goes into g.busy for Drain to rejoin, until its retries run out.
// A task queued by traced events records a span in the first event's
// trace, linking the others', through the target's Hooks.Tracer;
// tick and sweep tasks stay span-free.
func (e *Engine) run(g *group) {
	key := g.key
	e.mu.Lock()
	e.running++
	e.mu.Unlock()
	var tr *trace.Tracer
	var sc trace.SpanContext
	var spanStart time.Time
	if len(g.parents) > 0 {
		if tr = e.o.Hooks().Tracer; tr != nil {
			sc = tr.Start(g.parents[0])
			spanStart = time.Now()
		}
	}
	kind, now := key.kind.String(), time.Now()
	planned, fallbacks := 0, 0
	switch key.kind {
	case KindReProtect, KindRefresh:
		// ReProtectGroup answers in ascending ID order, the order claim
		// sorted the members and their tries in.
		g.outs = e.o.ReProtectGroup(g.outs[:0], g.domain, g.members)
		for i, out := range g.outs {
			if out.Replanned {
				planned++
			}
			if out.Fallback {
				fallbacks++
			}
			res := TaskResult{Deployment: out.ID, Kind: kind, When: now}
			switch {
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
			e.settle(g, i, res, out.Err)
		}
	default: // a re-home or a λ-defrag is one chain's Apply
		c := orch.ChangeDefrag()
		if key.kind == KindRehome {
			c = orch.ChangeRehome(e.opts.RehomeMargin)
		}
		for i, id := range g.members {
			a, err := e.o.Apply(id, c)
			res := TaskResult{Deployment: id, Kind: kind, When: now}
			switch {
			case a.Moved:
				res.Outcome = "rehomed"
			case a.LambdaTo != a.LambdaFrom:
				res.Outcome, res.Detail = "retuned", fmt.Sprintf("lambda %d -> %d", a.LambdaFrom, a.LambdaTo)
			case key.kind == KindRehome:
				res.Outcome = "no-improvement"
			default:
				res.Outcome = "no-op"
			}
			e.settle(g, i, res, err)
		}
	}
	failed := 0
	e.mu.Lock()
	e.running--
	e.groupPlan.Planned += planned
	e.groupPlan.Fallbacks += fallbacks
	ks := &e.stats[key.kind]
	ks.Requeued += len(g.busy)
	if key.kind == KindReProtect {
		// A refresh queued behind a re-protect that has just planned a
		// disjoint standby could only answer already-protected: it leaves
		// the queue as an enqueue that met its work done.
		for _, out := range g.outs {
			if out.Replanned && out.Standby != nil && out.Standby.Disjoint && e.leaveLocked(out.ID, KindRefresh) {
				e.stats[KindRefresh].Deduped++
			}
		}
	}
	for i := range g.results {
		res := &g.results[i]
		switch res.Outcome {
		case "cancelled":
			ks.Cancelled++
		case "skipped":
			ks.Skipped++
		case "failed":
			ks.Failed++
			failed++
		default:
			ks.Completed++
		}
		slot := e.results.Next()
		slot.res, slot.json = *res, res.AppendJSON(slot.json[:0])
	}
	e.mu.Unlock()
	// The span continues the first event's trace and links every other
	// member's, so each originating failure trace reaches the task that
	// closed it out; a busy retry records nothing (it is the same
	// operation).
	if tr != nil && len(g.results) > 0 {
		sp := trace.Span{Parent: g.parents[0].SpanID,
			Name: "optimizer." + kind, Kind: trace.KindOptimizer,
			Start: spanStart, End: time.Now()}
		if len(g.members) == 1 {
			// A group of one is filed under its chain — unless the chain is
			// gone, when filing it would give the chain a trace-index entry
			// again.
			res := &g.results[0]
			sp.Err = res.Error
			sp.Attrs = []trace.Attr{{Key: "outcome", Value: res.Outcome}}
			if res.Outcome != "cancelled" {
				sp.Dep = int(res.Deployment)
			}
		} else {
			sp.Attrs = []trace.Attr{
				{Key: "domain", Value: key.domain},
				{Key: "chains", Value: strconv.Itoa(len(g.members))},
				{Key: "planned", Value: strconv.Itoa(planned)},
				{Key: "fallbacks", Value: strconv.Itoa(fallbacks)},
			}
			if failed > 0 {
				sp.Err = fmt.Sprintf("%d member tasks failed", failed)
			}
		}
		for _, p := range g.parents[1:] {
			sp.Links = append(sp.Links, p.TraceID)
		}
		tr.Record(sc, sp)
	}
}

// settle files member i's result, classifying its error: a busy member
// goes into g.busy while its retries last, and is skipped after.
func (e *Engine) settle(g *group, i int, res TaskResult, err error) {
	switch {
	case err == nil:
	case errors.Is(err, orch.ErrBusy) && g.tries[i] < busyRetries:
		g.busy = append(g.busy, retry{id: res.Deployment, attempts: g.tries[i] + 1})
		return
	case errors.Is(err, orch.ErrBusy):
		res.Outcome, res.Detail = "skipped", ""
	case errors.Is(err, orch.ErrUnknownDeployment), errors.Is(err, orch.ErrNotActive):
		res.Outcome, res.Detail = "cancelled", ""
	default:
		res.Outcome, res.Detail = "failed", ""
	}
	if err != nil {
		res.Error = err.Error()
	}
	g.results = append(g.results, res)
}

// Start launches the background dispatcher: queued tasks execute as
// they arrive, on the dispatcher's goroutine, and when tickEvery is
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
			for (e.paused || len(e.groups) == 0) && !stopped(stop) {
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

// Stop halts the background dispatcher and idle tick started by Start
// and waits for a tick and tasks in flight to finish. Queued tasks stay
// queued.
func (e *Engine) Stop() {
	e.loopMu.Lock()
	stop := e.stopCh
	e.stopCh = nil
	if e.stopTick != nil {
		e.stopTick.Stop() // a stale one, after Start(0), stops nothing
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
// log). st and everything it points at are the engine's scratch, reused
// by the next call: fn must not call into the engine, nor keep st, its
// lists or maps, results or the arrays results holds.
func (e *Engine) ViewStatus(fn func(st *Status, results [][]byte)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	kinds := e.statusView.Kinds
	if kinds == nil {
		kinds = make(map[string]KindStats, numKinds)
	}
	for kind := TaskKind(0); kind < numKinds; kind++ {
		kinds[kind.String()] = e.stats[kind]
	}
	e.statusView = Status{
		Paused:     e.paused,
		QueueDepth: len(e.groups),
		HighWater:  e.highWater,
		Running:    e.running,
		Kinds:      kinds,
		Shed:       e.shedTotal,
		GroupPlans: e.groupPlan,
	}
	results := e.logView[:0]
	for i := range e.results.Len() {
		results = append(results, e.results.At(i).json)
	}
	if len(results) == 0 {
		results = nil
	}
	fn(&e.statusView, results)
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
