package optimizer

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/topology"
)

// manualClock is an orch.Clock the test moves by hand: AfterFunc
// callbacks run on the goroutine that calls advance, earliest first, and
// Sleep returns at once.
type manualClock struct {
	mu     sync.Mutex
	now    time.Duration
	timers []*manualTimer
}

type manualTimer struct {
	c  *manualClock
	at time.Duration
	f  func()
}

func (c *manualClock) AfterFunc(d time.Duration, f func()) orch.Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &manualTimer{c: c, at: c.now + d, f: f}
	c.timers = append(c.timers, t)
	return t
}

func (t *manualTimer) Stop() bool {
	c := t.c
	c.mu.Lock()
	defer c.mu.Unlock()
	i := slices.Index(c.timers, t)
	if i >= 0 {
		c.timers = slices.Delete(c.timers, i, i+1)
	}
	return i >= 0
}

func (c *manualClock) Sleep(time.Duration) {}

// advance moves the clock d forward, running every callback that falls
// due on the way, including those the callbacks arm.
func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	end := c.now + d
	for {
		i := slices.IndexFunc(c.timers, func(t *manualTimer) bool { return t.at <= end })
		if i < 0 {
			break
		}
		for j, t := range c.timers {
			if t.at < c.timers[i].at {
				i = j
			}
		}
		t := c.timers[i]
		c.timers = slices.Delete(c.timers, i, i+1)
		c.now = t.at
		c.mu.Unlock()
		t.f()
		c.mu.Lock()
	}
	c.now = end
	c.mu.Unlock()
}

// armed counts the callbacks armed and not yet run or stopped.
func (c *manualClock) armed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}

// loopTarget counts the idle tick's fleet sweeps, can hold a sweep until
// released, and reports every chain a re-protect task reaches.
type loopTarget struct {
	*orch.Sharded
	sweeps    atomic.Int64
	inSweep   chan struct{} // with hold set, a sweep signals here...
	hold      chan struct{} // ...then waits for this to close
	protected chan orch.DeploymentID
}

func (l *loopTarget) AppendChainHealth(buf []orch.ChainHealth, owed bool) []orch.ChainHealth {
	l.sweeps.Add(1)
	if l.hold != nil {
		l.inSweep <- struct{}{}
		<-l.hold
	}
	return l.Sharded.AppendChainHealth(buf, owed)
}

func (l *loopTarget) ReProtectGroup(buf []orch.GroupOutcome, domain orch.FailureDomain, ids []orch.DeploymentID) []orch.GroupOutcome {
	buf = l.Sharded.ReProtectGroup(buf, domain, ids)
	for _, id := range ids {
		l.protected <- id
	}
	return buf
}

// TestStartStopUnderAManualClock: under a clock the test advances, the
// background loop started by Start runs exactly one Tick sweep per
// tickEvery and drains a queued task on its own; Stop waits for a tick
// already in flight, no tick fires once Stop has returned, and the
// goroutine count is back to what it was before Start. The chain has a
// disjoint standby, so no tick queues a re-protect of its own.
func TestStartStopUnderAManualClock(t *testing.T) {
	o, _, _, _ := newRig(t, 2, Options{})
	dep := provision(t, o, "chain-1")
	if dep.Standby == nil || !dep.Standby.Disjoint {
		t.Fatalf("chain standby %+v, want a disjoint one", dep.Standby)
	}
	target := &loopTarget{Sharded: o, protected: make(chan orch.DeploymentID, 64)}
	eng, err := New(target, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	clock := &manualClock{}
	eng.clock = clock
	const every = time.Minute
	before := settle(0)

	if err := eng.Start(every); err != nil {
		t.Fatalf("Start: %v", err)
	}
	for k := int64(1); k <= 5; k++ {
		clock.advance(every)
		if got := target.sweeps.Load(); got != k {
			t.Fatalf("%d advances of the tick interval ran %d sweeps", k, got)
		}
	}
	clock.advance(every / 2)
	if got := target.sweeps.Load(); got != 5 {
		t.Fatalf("half an interval more ran a sweep: %d", got)
	}
	eng.Enqueue(dep.ID, KindReProtect)
	if id := <-target.protected; id != dep.ID {
		t.Fatalf("the loop re-protected chain %d, want %d", id, dep.ID)
	}
	eng.Stop()
	if st := eng.Status(); st.Kinds[KindReProtect.String()].Completed != 1 {
		t.Fatalf("re-protect counters %+v, want the queued task completed", st.Kinds[KindReProtect.String()])
	}
	clock.advance(10 * every)
	if got := target.sweeps.Load(); got != 5 || clock.armed() != 0 {
		t.Fatalf("after Stop: %d sweeps, %d ticks armed; want 5 and none", got, clock.armed())
	}
	if n := settle(before); n != before {
		t.Fatalf("%d goroutines after Stop, %d before Start", n, before)
	}

	// A tick in flight holds Stop until it is done.
	if err := eng.Start(every); err != nil {
		t.Fatalf("Start again: %v", err)
	}
	target.inSweep, target.hold = make(chan struct{}), make(chan struct{})
	ticked := make(chan struct{})
	go func() {
		defer close(ticked)
		clock.advance(every)
	}()
	<-target.inSweep
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		eng.Stop()
	}()
	for i := 0; i < 1000; i++ {
		runtime.Gosched()
	}
	select {
	case <-stopped:
		t.Fatal("Stop returned while a tick was in flight")
	default:
	}
	close(target.hold)
	<-ticked
	<-stopped
	clock.advance(10 * every)
	if got := target.sweeps.Load(); got != 6 || clock.armed() != 0 {
		t.Fatalf("after the second Stop: %d sweeps, %d ticks armed; want 6 and none", got, clock.armed())
	}
	if n := settle(before); n != before {
		t.Fatalf("%d goroutines after the second Stop, %d before Start", n, before)
	}
}

// settle lets goroutines that have finished their work exit, by count:
// it yields until NumGoroutine is at most want, at most 100 000 times.
func settle(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100000 && n > want; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// nestingTarget drains the engine from inside every other re-protect
// task — a drain nested in a drain's task.
type nestingTarget struct {
	*orch.Sharded
	eng   *Engine
	calls atomic.Int64
}

func (n *nestingTarget) ReProtectGroup(buf []orch.GroupOutcome, domain orch.FailureDomain, ids []orch.DeploymentID) []orch.GroupOutcome {
	if n.calls.Add(1)%2 == 0 {
		n.eng.Drain()
	}
	return n.Sharded.ReProtectGroup(buf, domain, ids)
}

// TestConcurrentDrainsProtectEveryChain: link cuts and recoveries,
// drains from two goroutines, drains nested inside group tasks and
// direct ReProtectGroup calls over the whole fleet all run at once; none
// of them deadlocks, and once the cuts stop and a last drain
// runs, every chain is protected. Run under -race.
func TestConcurrentDrainsProtectEveryChain(t *testing.T) {
	s, topo, deps := healthyFleet(t, 2, 12, 4)
	target := &nestingTarget{Sharded: s}
	eng, err := New(target, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer eng.Stop()
	target.eng = eng
	s.UpdateHooks(func(h *orch.Hooks) { h.Events = []orch.EventSink{eng} })
	ids := make([]orch.DeploymentID, len(deps))
	for i, dep := range deps {
		ids[i] = dep.ID
	}
	stop := make(chan struct{})
	var cutters, others sync.WaitGroup
	for w := 0; w < 2; w++ {
		cutters.Add(1)
		go func(w int) {
			defer cutters.Done()
			for round := 0; round < 20; round++ {
				dep := deps[(w+2*round)%len(deps)]
				l, ok := primaryTransit(topo, s.Deployment(dep.ID))
				if !ok {
					continue
				}
				_, _ = s.HandleFailures(bg, topology.NewFailures(nil, []topology.LinkID{l}))
				if err := s.Recover(topology.NewFailures(nil, []topology.LinkID{l})); err != nil {
					t.Errorf("Recover: %v", err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		others.Add(1)
		go func() {
			defer others.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				eng.Drain()
			}
		}()
	}
	others.Add(1)
	go func() {
		defer others.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.ReProtectGroup(nil, orch.FailureDomain{SRLGs: []int{9}}, ids)
		}
	}()
	cutters.Wait()
	close(stop)
	others.Wait()
	eng.Drain()
	for _, id := range ids {
		if dep := s.Deployment(id); dep.Standby == nil {
			t.Errorf("chain %d ends unprotected", id)
		}
	}
}
