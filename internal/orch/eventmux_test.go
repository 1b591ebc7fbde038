package orch

import (
	"sync"
	"testing"

	"github.com/alvc/alvc/internal/topology"
)

type muxRecorder struct {
	mu     sync.Mutex
	events []Event
}

func (r *muxRecorder) OrchEvent(ev Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

func (r *muxRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

func TestEventMuxFanOutAndCancel(t *testing.T) {
	m := NewEventMux()
	a, b := &muxRecorder{}, &muxRecorder{}
	cancelA := m.Subscribe(a)
	cancelB := m.Subscribe(b)

	m.OrchEvent(Event{Kind: EventNodeRecovered, Node: 7})
	if a.count() != 1 || b.count() != 1 {
		t.Fatalf("fan-out missed a sink: a=%d b=%d", a.count(), b.count())
	}
	if a.events[0].Node != 7 {
		t.Fatalf("event payload lost: %+v", a.events[0])
	}

	cancelA()
	cancelA() // double-cancel is a no-op
	m.OrchEvent(Event{Kind: EventLinkRecovered, Link: 3})
	if a.count() != 1 {
		t.Fatalf("cancelled sink still receiving: %d events", a.count())
	}
	if b.count() != 2 {
		t.Fatalf("remaining sink missed event: %d events", b.count())
	}

	cancelB()
	m.OrchEvent(Event{Kind: EventDeploymentDeleted}) // no sinks: no panic
	if a.count() != 1 || b.count() != 2 {
		t.Fatalf("a sink cancelled is still receiving: a=%d b=%d", a.count(), b.count())
	}

	if c := m.Subscribe(nil); c == nil {
		t.Fatal("nil sink must still return a callable cancel")
	} else {
		c()
	}
}

// TestEventMuxAsOrchestratorSink wires a mux between the orchestrator
// and two independent subscribers (a metrics exporter and an optimizer
// stand-in) and asserts both see live lifecycle events.
func TestEventMuxAsOrchestratorSink(t *testing.T) {
	s, _ := newOrch(t)
	m := NewEventMux()
	metrics, opt := &muxRecorder{}, &muxRecorder{}
	m.Subscribe(metrics)
	m.Subscribe(opt)
	s.UpdateHooks(func(h *Hooks) { h.Events = m })

	dep, err := s.Provision(bg, webSpec(t, "mux-chain"))
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
	if metrics.count() == 0 || opt.count() == 0 {
		t.Fatalf("subscribers missed orchestrator events: metrics=%d opt=%d", metrics.count(), opt.count())
	}
	if metrics.count() != opt.count() {
		t.Fatalf("fan-out divergence: metrics=%d opt=%d", metrics.count(), opt.count())
	}
	recovered := false
	for _, ev := range metrics.events {
		if ev.Kind == EventNodeRecovered && ev.Node == mid {
			recovered = true
		}
	}
	if !recovered {
		t.Fatalf("metrics subscriber missed node-recovered for %d: %+v", mid, metrics.events)
	}
}

// TestEventMuxDeliversWhileSubscribersChange: deliveries walk the
// subscriber list they read while other goroutines subscribe and cancel,
// so a sink subscribed throughout sees every event, and one cancelled
// mid-stream sees no more than were sent. Run with -race.
func TestEventMuxDeliversWhileSubscribersChange(t *testing.T) {
	m := NewEventMux()
	steady := &muxRecorder{}
	m.Subscribe(steady)
	const senders, events = 4, 500
	var churned []*muxRecorder
	var wg, churn sync.WaitGroup
	stop := make(chan struct{})
	for range 2 {
		rec := &muxRecorder{}
		churned = append(churned, rec)
		churn.Add(1)
		go func() {
			defer churn.Done()
			for {
				select {
				case <-stop:
					return
				default:
					m.Subscribe(rec)()
				}
			}
		}()
	}
	for range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range events {
				m.OrchEvent(Event{Kind: EventRepairCompleted})
			}
		}()
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	if got := steady.count(); got != senders*events {
		t.Fatalf("steady sink saw %d events, want %d", got, senders*events)
	}
	for i, rec := range churned {
		if got := rec.count(); got > senders*events {
			t.Fatalf("churned sink %d saw %d events, more than the %d sent", i, got, senders*events)
		}
	}
}
