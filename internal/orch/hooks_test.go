package orch

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/alvc/alvc/internal/topology"
)

// hookSide is one of the two Hooks values TestHooksSwapUnderTraffic
// alternates: what its observers saw.
type hookSide struct {
	stages  atomic.Int64
	rehomes atomic.Int64
	sink    recordingSink
}

func (x *hookSide) hooks() Hooks {
	return Hooks{
		Events: []EventSink{&x.sink},
		Stage:  func(string, time.Duration) { x.stages.Add(1) },
		Rehome: func(int, int) { x.rehomes.Add(1) },
	}
}

// stagesOf is how many pipeline stages a repair action runs: a swap
// re-enters at wdm, the other differential repairs at path, a standby
// replan runs none.
func stagesOf(a RepairAction) (int64, bool) {
	switch a {
	case ActionSwapped:
		return int64(numStages - stageWDM), true
	case ActionRepathed, ActionReplaced, ActionPatched:
		return int64(numStages - stagePath), true
	case ActionRestandby, ActionSkipped:
		return 0, true
	}
	return 0, false // rebuilt / failed: a partial run first, not countable
}

// TestHooksSwapUnderTraffic replaces the Hooks value, over and over,
// while provisions, one failure batch and a re-home run on four shards:
// every executed stage is counted by exactly one of the two stage
// observers and every emitted event reaches exactly one of the two
// sinks, whichever value an operation happened to load. Count-based;
// run it with -race.
func TestHooksSwapUnderTraffic(t *testing.T) {
	topo := benchFleetTopo(t, 64)
	s := newTestSet(t, Config{Topo: topo}, 4)
	var a, b hookSide
	s.UpdateHooks(func(h *Hooks) { *h = a.hooks() })

	var wantStages, wantEvents int64
	residents := make([]*Deployment, 6)
	for i := range residents {
		dep, err := s.Provision(bg, residentSpec(t, i, fmt.Sprintf("res%d", i)))
		if err != nil {
			t.Fatalf("Provision resident %d: %v", i, err)
		}
		residents[i] = dep
		wantStages += int64(numStages)
	}
	// The last resident drifts onto a server, so the re-home below has
	// something to undo: a move re-runs path → rules and emits once.
	drifted := residents[len(residents)-1]
	if _, err := s.Apply(drifted.ID, ChangeHost(0, topo.NodeIDs(topology.KindPhysicalMachine)[0])); err != nil {
		t.Fatalf("move: %v", err)
	}
	wantStages += int64(numStages - stagePath)
	wantEvents++
	// The tray: the first ToR→OPS link of three other residents' primaries.
	var tray []topology.LinkID
	for _, dep := range residents[:3] {
		for i := 0; i+1 < len(dep.Path); i++ {
			if topo.Node(dep.Path[i]).Kind == topology.KindToR && topo.Node(dep.Path[i+1]).Kind == topology.KindOPS {
				tray = append(tray, topo.LinkBetween(dep.Path[i], dep.Path[i+1]).ID)
				break
			}
		}
	}
	if len(tray) != 3 {
		t.Fatalf("tray = %v, want one transit link per victim", tray)
	}

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			side := &a
			if i%2 == 0 {
				side = &b
			}
			s.UpdateHooks(func(h *Hooks) { *h = side.hooks() })
		}
	}()

	var traffic sync.WaitGroup
	var stages, events atomic.Int64
	for g := 0; g < 3; g++ {
		traffic.Add(1)
		go func() {
			defer traffic.Done()
			for i := 0; i < 6; i++ {
				n := 100 + g*10 + i
				if _, err := s.Provision(bg, residentSpec(t, n, fmt.Sprintf("t%d", n))); err != nil {
					t.Errorf("Provision %d: %v", n, err)
					continue
				}
				stages.Add(int64(numStages))
			}
		}()
	}
	traffic.Add(2)
	go func() {
		defer traffic.Done()
		reports, _ := s.HandleFailures(bg, topology.NewFailures(nil, tray)) // a busy skip is an error and no stage
		for _, rep := range reports {
			n, ok := stagesOf(rep.Action)
			if !ok {
				t.Errorf("deployment %d was %s: the tray was meant to cost differential repairs only", rep.ID, rep.Action)
			}
			stages.Add(n)
			if rep.Succeeded() {
				events.Add(1)
			}
		}
	}()
	var moved bool
	go func() {
		defer traffic.Done()
		a, err := s.Apply(drifted.ID, ChangeRehome(1))
		if err != nil {
			t.Errorf("re-home: %v", err)
		}
		moved = a.Moved
		if moved {
			stages.Add(int64(numStages - stagePath))
			events.Add(1)
		}
	}()
	traffic.Wait()
	close(stop)
	swapper.Wait()
	wantStages += stages.Load()
	wantEvents += events.Load()

	if got := a.stages.Load() + b.stages.Load(); got != wantStages {
		t.Fatalf("stage observers counted %d + %d = %d stages, %d ran", a.stages.Load(), b.stages.Load(), got, wantStages)
	}
	if got := a.rehomes.Load() + b.rehomes.Load(); (got > 0) != moved {
		t.Fatalf("re-home observers counted %d migrations, moved = %v", got, moved)
	}
	type evKey struct {
		kind EventKind
		dep  DeploymentID
	}
	seen := make(map[evKey]int)
	for _, side := range []*hookSide{&a, &b} {
		for _, ev := range side.sink.events {
			seen[evKey{ev.Kind, ev.Deployment}]++
		}
	}
	var total int64
	for k, n := range seen {
		// The drifted chain moves twice (MoveNF, then the re-home back).
		if n > 1 && !(k.kind == EventPlacementChanged && k.dep == drifted.ID && n == 2 && moved) {
			t.Errorf("event %s of deployment %d delivered %d times", k.kind, k.dep, n)
		}
		total += int64(n)
	}
	if total != wantEvents {
		t.Fatalf("sinks received %d events, %d were emitted", total, wantEvents)
	}
}

// eventLog is shared by several logSinks: its entries show the order
// deliveries happened in across them.
type eventLog struct {
	mu      sync.Mutex
	entries []string
}

func (l *eventLog) get() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.entries)
}

// logSink logs "name:node" for each event it receives.
type logSink struct {
	name string
	log  *eventLog
}

func (s logSink) OrchEvent(ev Event) {
	s.log.mu.Lock()
	s.log.entries = append(s.log.entries, fmt.Sprintf("%s:%d", s.name, ev.Node))
	s.log.mu.Unlock()
}

// attach appends sinks to the Hooks' event list; detach removes one.
// Neither writes into the list an earlier value holds.
func attach(s *Sharded, sinks ...EventSink) {
	s.UpdateHooks(func(h *Hooks) { h.Events = append(slices.Clip(h.Events), sinks...) })
}

func detach(s *Sharded, sink EventSink) {
	s.UpdateHooks(func(h *Hooks) {
		h.Events = slices.DeleteFunc(slices.Clone(h.Events), func(x EventSink) bool { return x == sink })
	})
}

// TestHookSinksDeliverInOrder: every sink on Hooks.Events receives each
// event, in list order, a detached sink receives no more, and an empty
// list delivers nothing.
func TestHookSinksDeliverInOrder(t *testing.T) {
	s, _ := newOrch(t)
	log := &eventLog{}
	a, b := logSink{"a", log}, logSink{"b", log}
	attach(s, a, b)
	s.core.emit(Event{Kind: EventNodeRecovered, Node: 1})
	s.core.emit(Event{Kind: EventNodeRecovered, Node: 2})
	detach(s, a)
	s.core.emit(Event{Kind: EventNodeRecovered, Node: 3})
	detach(s, b)
	s.core.emit(Event{Kind: EventDeploymentDeleted, Node: 4}) // no sinks
	if got, want := log.get(), []string{"a:1", "b:1", "a:2", "b:2", "b:3"}; !slices.Equal(got, want) {
		t.Fatalf("deliveries %v, want %v", got, want)
	}
}

// editSink makes one Hooks edit from inside its first delivery.
type editSink struct {
	s    *Sharded
	once sync.Once
	edit func(h *Hooks)
}

func (e *editSink) OrchEvent(Event) { e.once.Do(func() { e.s.UpdateHooks(e.edit) }) }

// TestHookSinksChangeMidDelivery: a sink added or removed while an event
// is being delivered takes effect from the next event. The delivery
// under way finishes on the list it loaded: the removed sink had it
// already, the sink after the edit still gets it, the added one does
// not.
func TestHookSinksChangeMidDelivery(t *testing.T) {
	s, _ := newOrch(t)
	log := &eventLog{}
	a, b, c := logSink{"a", log}, logSink{"b", log}, logSink{"c", log}
	editor := &editSink{s: s, edit: func(h *Hooks) {
		h.Events = append(slices.DeleteFunc(slices.Clone(h.Events), func(x EventSink) bool { return x == a }), c)
	}}
	attach(s, a, editor, b)
	s.core.emit(Event{Kind: EventNodeRecovered, Node: 1})
	s.core.emit(Event{Kind: EventNodeRecovered, Node: 2})
	if got, want := log.get(), []string{"a:1", "b:1", "b:2", "c:2"}; !slices.Equal(got, want) {
		t.Fatalf("deliveries %v, want %v", got, want)
	}
}

// TestHookSinksSeeLifecycleEvents: two independent sinks on Hooks.Events
// (a metrics exporter and an optimizer stand-in) both see the
// orchestrator's live lifecycle events, the same ones.
func TestHookSinksSeeLifecycleEvents(t *testing.T) {
	s, _ := newOrch(t)
	metrics, opt := &recordingSink{}, &recordingSink{}
	attach(s, metrics, opt)

	dep, err := s.Provision(bg, webSpec(t, "sink-chain"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	mid := dep.Path[len(dep.Path)/2]
	if _, err := failNode(s, mid); err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	if err := s.Recover(topology.NewFailures([]topology.NodeID{mid}, nil)); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(metrics.kinds()) == 0 || !slices.Equal(metrics.kinds(), opt.kinds()) {
		t.Fatalf("sinks diverged: metrics=%v opt=%v", metrics.kinds(), opt.kinds())
	}
	recovered := false
	for _, ev := range metrics.events {
		if ev.Kind == EventNodeRecovered && ev.Node == mid {
			recovered = true
		}
	}
	if !recovered {
		t.Fatalf("metrics sink missed node-recovered for %d: %+v", mid, metrics.events)
	}
}

// TestHookSinksDeliverWhileSinksChange: deliveries walk the list they
// loaded while other goroutines attach and detach sinks, so a sink
// attached throughout sees every event, and one attached and detached
// over and over sees no more than were sent. Run with -race.
func TestHookSinksDeliverWhileSinksChange(t *testing.T) {
	s, _ := newOrch(t)
	steady := &recordingSink{}
	attach(s, steady)
	const senders, events = 4, 500
	var churned []*recordingSink
	var wg, churn sync.WaitGroup
	stop := make(chan struct{})
	for range 2 {
		rec := &recordingSink{}
		churned = append(churned, rec)
		churn.Add(1)
		go func() {
			defer churn.Done()
			for {
				select {
				case <-stop:
					return
				default:
					attach(s, rec)
					detach(s, rec)
				}
			}
		}()
	}
	for range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range events {
				s.core.emit(Event{Kind: EventRepairCompleted})
			}
		}()
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	if got := len(steady.kinds()); got != senders*events {
		t.Fatalf("steady sink saw %d events, want %d", got, senders*events)
	}
	for i, rec := range churned {
		if got := len(rec.kinds()); got > senders*events {
			t.Fatalf("churned sink %d saw %d events, more than the %d sent", i, got, senders*events)
		}
	}
}
