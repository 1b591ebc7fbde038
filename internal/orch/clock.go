package orch

import "time"

// Clock is the one seam every wait goes through — the debounce window,
// the optimizer's idle tick, a drain's busy pause, the reconciler's busy
// retry — so tests can advance it by hand. Span timestamps read time.Now.
type Clock interface {
	// AfterFunc calls f on a goroutine of its own once d has elapsed.
	AfterFunc(d time.Duration, f func()) Timer
	Sleep(d time.Duration)
}

// Timer is an armed AfterFunc call: Stop cancels it and reports whether
// it did so before f began. A *time.Timer is one.
type Timer interface {
	Stop() bool
}

// WallClock is the Clock of the time package's timers.
var WallClock Clock = wallClock{}

type wallClock struct{}

func (wallClock) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }
