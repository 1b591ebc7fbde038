package orch

import (
	"slices"
	"sync"
)

// EventMux fans orchestrator events out to any number of sinks.
// Hooks.Events is exactly one sink; the mux lets metrics exporters,
// auditers and the optimizer subscribe independently: attach the mux as
// the orchestrator's sink and Subscribe each consumer to the mux.
//
// Delivery is synchronous and in subscription order, with the same
// contract as EventSink itself: sinks run with no orchestrator locks
// held and must return quickly (enqueue, don't execute). A sink added
// or removed during a delivery takes effect from the next event.
type EventMux struct {
	mu sync.RWMutex
	// subs is replaced, never edited in place, so a delivery walks the
	// list it read without copying it.
	subs []muxSub
	next int
}

type muxSub struct {
	id   int
	sink EventSink
}

// NewEventMux returns an empty multiplexer. The zero value is also
// usable.
func NewEventMux() *EventMux { return &EventMux{} }

// Subscribe registers the sink and returns its cancel function.
// Cancelling twice is a no-op; a nil sink is ignored (the cancel is
// still safe to call).
func (m *EventMux) Subscribe(s EventSink) (cancel func()) {
	if s == nil {
		return func() {}
	}
	m.mu.Lock()
	id := m.next
	m.next++
	m.subs = append(slices.Clip(m.subs), muxSub{id: id, sink: s})
	m.mu.Unlock()
	return func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		for i, sub := range m.subs {
			if sub.id == id {
				m.subs = slices.Concat(m.subs[:i], m.subs[i+1:])
				return
			}
		}
	}
}

// OrchEvent delivers the event to every subscriber in subscription
// order. EventMux itself is an EventSink, so it plugs directly into
// Hooks.Events.
func (m *EventMux) OrchEvent(ev Event) {
	m.mu.RLock()
	subs := m.subs
	m.mu.RUnlock()
	for _, sub := range subs {
		sub.sink.OrchEvent(ev)
	}
}
