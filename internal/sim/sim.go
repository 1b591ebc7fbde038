// Package sim is a minimal deterministic discrete-event simulation
// engine. The flow-level simulator (internal/flow) uses it to replay
// per-user traffic through deployed network function chains and to
// measure O/E/O conversions, latency and energy over simulated time.
//
// Events scheduled for the same instant fire in scheduling order
// (FIFO), which keeps runs bit-for-bit reproducible.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Handler is an event callback. It runs with the engine clock set to
// the event's time and may schedule further events.
type Handler func(now time.Duration)

type event struct {
	at      time.Duration
	seq     uint64
	handler Handler
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event scheduler. Not safe for
// concurrent use; all scheduling happens from handlers or between runs.
type Engine struct {
	now   time.Duration
	queue eventQueue
	seq   uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() time.Duration { return e.now }

// At schedules h at absolute time at. Scheduling in the past is an
// error.
func (e *Engine) At(at time.Duration, h Handler) error {
	if h == nil {
		return fmt.Errorf("sim: At: nil handler")
	}
	if at < e.now {
		return fmt.Errorf("sim: At: time %v is before now %v", at, e.now)
	}
	e.seq++
	heap.Push(&e.queue, &event{at: at, seq: e.seq, handler: h})
	return nil
}

// Run executes events until the queue is empty. It returns the number
// of events processed by this call.
func (e *Engine) Run() int {
	n := 0
	for len(e.queue) > 0 {
		next := heap.Pop(&e.queue).(*event)
		e.now = next.at
		next.handler(e.now)
		n++
	}
	return n
}
