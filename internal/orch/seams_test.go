package orch

import (
	"slices"
	"sync"
	"time"
)

// manualClock is a Clock the test moves by hand. AfterFunc callbacks run
// on the goroutine that calls advance, earliest first; Sleep returns at
// once.
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

func (c *manualClock) AfterFunc(d time.Duration, f func()) Timer {
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

// take removes the earliest armed callback and returns it unrun, as a
// timer that has fired but whose callback has not yet begun: stopping
// it now reports false. Nil when nothing is armed.
func (c *manualClock) take() func() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.timers) == 0 {
		return nil
	}
	i := 0
	for j, t := range c.timers {
		if t.at < c.timers[i].at {
			i = j
		}
	}
	t := c.timers[i]
	c.timers = slices.Delete(c.timers, i, i+1)
	c.now = max(c.now, t.at)
	return t.f
}

// advance moves the clock d forward, running every callback that falls
// due on the way, including those the callbacks arm.
func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	end := c.now + d
	c.mu.Unlock()
	for {
		c.mu.Lock()
		due := slices.ContainsFunc(c.timers, func(t *manualTimer) bool { return t.at <= end })
		c.mu.Unlock()
		if !due {
			break
		}
		c.take()()
	}
	c.mu.Lock()
	c.now = end
	c.mu.Unlock()
}

// armed counts the callbacks armed and not yet run or stopped.
func (c *manualClock) armed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}
