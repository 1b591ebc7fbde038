package telemetry

// The /v1/watch event stream: a ring-buffered bridge between the
// orchestrator's synchronous EventSink contract and any number of
// HTTP long-poll subscribers. The sink side must never block — it runs
// inline with repairs — so delivery is strictly non-blocking: each
// subscriber owns a buffered channel, and one that stops draining
// (a stalled TCP connection, a wedged client) is dropped by closing
// its channel rather than stalling the mux. The ring retains the most
// recent events so a reconnecting client can resume from its
// Last-Event-ID without a gap, as long as it reconnects within the
// ring's horizon.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/ring"
	"github.com/alvc/alvc/internal/topology"
)

// defaultRingSize is how many recent events the hub retains for
// Last-Event-ID replay when NewHub is given no positive size.
const defaultRingSize = 256

// subscriberBuffer is the per-subscriber channel depth of a /v1/watch
// stream: enough to ride out a scheduling hiccup, small enough that a
// genuinely stalled client is detected within one failure batch.
const subscriberBuffer = 64

// StreamEvent is one orchestrator lifecycle event as streamed to
// /v1/watch clients: the orch.Event payload plus a monotonic sequence
// number (the SSE event id, replayable via Last-Event-ID).
type StreamEvent struct {
	Seq        uint64            `json:"seq"`
	Kind       string            `json:"kind"`
	Deployment orch.DeploymentID `json:"deployment,omitempty"`
	Action     string            `json:"action,omitempty"`
	Node       topology.NodeID   `json:"node,omitempty"`
	Link       topology.LinkID   `json:"link,omitempty"`
	Domain     string            `json:"domain,omitempty"`
	// TraceID is the trace of the span that emitted the event (the
	// repair span for repair-completed) when tracing is enabled — the
	// key into GET /v1/traces/{id} for the full causal tree.
	TraceID string `json:"trace_id,omitempty"`
}

// Hub is the fan-out point: an orch.EventSink that assigns sequence
// numbers, keeps the replay ring, and forwards to subscribers without
// ever blocking the emitting orchestrator. Safe for concurrent use.
type Hub struct {
	horizon int // the replay window's size in events: the ring's capacity

	mu   sync.Mutex
	seq  uint64
	ring ring.Ring[StreamEvent] // the replay window, oldest first
	subs map[*subscriber]struct{}

	events  uint64 // events ingested
	dropped uint64 // subscribers dropped as slow consumers
}

type subscriber struct {
	ch chan StreamEvent
}

// NewHub returns an empty hub retaining the newest size events for
// Last-Event-ID replay (256 when size ≤ 0). Larger rings let clients
// reconnect across longer gaps at the cost of retained memory.
func NewHub(size int) *Hub {
	if size <= 0 {
		size = defaultRingSize
	}
	return &Hub{horizon: size, ring: ring.New[StreamEvent](size), subs: make(map[*subscriber]struct{})}
}

// OrchEvent implements orch.EventSink: stamp, ring, fan out. A
// subscriber whose buffer is full is dropped on the spot — its channel
// is closed (the drop signal its reader sees) and it stops receiving —
// so one stalled client never delays the others or the orchestrator.
func (h *Hub) OrchEvent(ev orch.Event) {
	h.mu.Lock()
	h.seq++
	h.events++
	se := StreamEvent{
		Seq:        h.seq,
		Kind:       ev.Kind.String(),
		Deployment: ev.Deployment,
		Action:     string(ev.Action),
		Node:       ev.Node,
		Link:       ev.Link,
		Domain:     ev.Domain.String(),
		TraceID:    ev.TraceID,
	}
	h.ring.Push(se)
	for sub := range h.subs {
		select {
		case sub.ch <- se:
		default:
			close(sub.ch)
			delete(h.subs, sub)
			h.dropped++
		}
	}
	h.mu.Unlock()
}

// Subscribe registers a subscriber resuming after sequence number
// afterSeq (0 for new-events-only of a fresh client; pass the last id
// seen to replay the ring's tail). Ring events newer than afterSeq are
// pre-loaded into the returned channel ahead of live events, under the
// same lock that orders live delivery, so the sequence numbers a
// subscriber sees are strictly increasing with no gap at the
// replay/live boundary. The channel is closed if the subscriber falls
// behind (the slow-consumer drop); cancel unregisters without closing.
func (h *Hub) Subscribe(afterSeq uint64, buf int) (<-chan StreamEvent, func()) {
	if buf <= 0 {
		buf = subscriberBuffer
	}
	h.mu.Lock()
	var replay []StreamEvent
	for i := range h.ring.Len() {
		if se := h.ring.At(i); se.Seq > afterSeq {
			replay = append(replay, se)
		}
	}
	sub := &subscriber{ch: make(chan StreamEvent, buf+len(replay))}
	for _, se := range replay {
		sub.ch <- se
	}
	h.subs[sub] = struct{}{}
	h.mu.Unlock()
	cancel := func() {
		h.mu.Lock()
		delete(h.subs, sub)
		h.mu.Unlock()
	}
	return sub.ch, cancel
}

// Subscribers returns the current subscriber count.
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Events returns the number of events ingested.
func (h *Hub) Events() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.events
}

// Dropped returns the number of subscribers dropped as slow consumers.
func (h *Hub) Dropped() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dropped
}

// ServeHTTP streams events as Server-Sent Events: one
// id/event/data frame per orchestrator event, flushed immediately. A
// client that reconnects with a Last-Event-ID header resumes from the
// ring. The stream ends when the client disconnects or the hub drops
// the subscriber for not keeping up.
func (h *Hub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "telemetry: streaming unsupported", http.StatusInternalServerError)
		return
	}
	var after uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "telemetry: bad Last-Event-ID", http.StatusBadRequest)
			return
		}
		after = n
	}
	ch, cancel := h.Subscribe(after, subscriberBuffer)
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case se, open := <-ch:
			if !open {
				// Dropped as a slow consumer; the client may reconnect
				// with Last-Event-ID to resume from the ring.
				return
			}
			data, err := json.Marshal(se)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", se.Seq, se.Kind, data)
			fl.Flush()
		}
	}
}
