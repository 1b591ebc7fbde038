package orch

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultBatchWorkers is the fan-out width ProvisionBatch uses when the
// caller passes workers <= 0, and the width of every reconcile and
// shard fan-out.
func DefaultBatchWorkers() int {
	return max(runtime.GOMAXPROCS(0), 2)
}

// executor is what a fan-out runs on: the Pool, or in the package's
// tests a serial runner that orders items from a seed.
type executor interface {
	Run(n, width int, fn func(i int))
	Close()
}

// Pool runs index batches over warm workers: the one executor of batch
// provisioning, the fan-out over shards, each shard's reconcile and the
// optimizer's drain. Workers start when a Run first wants them and serve
// later Runs until Close. Safe for concurrent and nested use.
type Pool struct {
	jobs chan *batch
	// idle counts the workers waiting on jobs, less those a Run has
	// claimed: a Run claims a worker by decrementing it, then sends.
	idle atomic.Int64
	size atomic.Int64 // live workers, added to only under mu
	mu   sync.Mutex
	quit chan struct{}   // closed by the next Close; nil when none runs
	wg   *sync.WaitGroup // the workers started since the last Close
}

// batch is one Run's items, taken index by index by the caller and the
// helpers that joined it.
type batch struct {
	n    int
	fn   func(int)
	next atomic.Int64
	// mu guards joined and closed: a claimed helper joins only while the
	// Run still has items to take (join), and the Run closes the batch
	// once it took the last (close).
	mu     sync.Mutex
	joined int
	closed bool
	// running counts the joined helpers still inside run.
	running sync.WaitGroup
}

func (b *batch) run() {
	for i := int(b.next.Add(1) - 1); i < b.n; i = int(b.next.Add(1) - 1) {
		b.fn(i)
	}
}

// join lets a claimed helper in, reporting false once the Run closed
// the batch.
func (b *batch) join() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false
	}
	b.joined++
	b.running.Add(1)
	return true
}

// close shuts the batch to helpers that have not joined yet and returns
// how many did.
func (b *batch) close() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	return b.joined
}

// NewPool returns a pool with no workers yet.
func NewPool() *Pool { return &Pool{jobs: make(chan *batch)} }

// Run calls fn(i) for every i in [0, n), at most width at a time
// (DefaultBatchWorkers when width <= 0; width 1 runs them in order). The
// caller runs items too, hands the batch to idle workers it claims and
// starts workers on it while the pool has fewer than width-1: it never
// waits for a busy worker, so concurrent and nested Runs cannot deadlock.
// Run returns once every item is done: it waits for the helpers running
// items, not for a claimed helper that has yet to join — that one finds
// the batch closed, and Run hands its idle mark back, so the next Run can
// claim it again.
func (p *Pool) Run(n, width int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if width <= 0 {
		width = DefaultBatchWorkers()
	}
	b := &batch{n: n, fn: fn}
	helpers := 0
	if width > 1 {
		for want := min(width, n) - 1; want > 0 && p.claim(); want-- {
			helpers++
			p.jobs <- b
		}
		helpers += p.grow(b, width-1)
	}
	b.run()
	if helpers > 0 {
		p.idle.Add(int64(helpers - b.close()))
		b.running.Wait()
	}
}

// claim takes one idle worker, reporting false when none is idle.
func (p *Pool) claim() bool {
	for v := p.idle.Load(); v > 0; v = p.idle.Load() {
		if p.idle.CompareAndSwap(v, v-1) {
			return true
		}
	}
	return false
}

// grow starts workers, each beginning on b, until the pool has size,
// and returns how many it started.
func (p *Pool) grow(b *batch, size int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	started := 0
	for ; p.size.Load() < int64(size); p.size.Add(1) {
		if p.quit == nil {
			p.quit, p.wg = make(chan struct{}), new(sync.WaitGroup)
		}
		started++
		p.wg.Add(1)
		go p.work(b, p.quit, p.wg)
	}
	return started
}

// work helps with b, then with each batch a Run hands it. It marks itself
// idle before leaving a batch it joined, so the Run returns to a pool
// whose workers can all be claimed; a batch closed before it joined is
// left alone, its mark already handed back. On quit it leaves once it can
// take an idle mark back: while every mark is claimed, a Run is about to
// send to it.
func (p *Pool) work(b *batch, quit chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		if b.join() {
			b.run()
			p.idle.Add(1)
			b.running.Done()
		}
		for b = nil; b == nil; {
			select {
			case b = <-p.jobs:
			case <-quit:
				if p.claim() {
					p.size.Add(-1)
					return
				}
				runtime.Gosched()
			}
		}
	}
}

// Close ends the running workers once each has finished its batch.
func (p *Pool) Close() {
	p.mu.Lock()
	quit, wg := p.quit, p.wg
	p.quit = nil
	p.mu.Unlock()
	if quit != nil {
		close(quit)
		wg.Wait()
	}
}

// Clock is the one seam every wait goes through — the debounce window,
// the optimizer's idle tick, a drain's busy pause, the reconciler's busy
// retry — so tests can advance it by hand. Span timestamps read time.Now.
type Clock interface {
	// AfterFunc calls f on a goroutine of its own once d has elapsed;
	// stop cancels the call and reports whether it did so before f began.
	AfterFunc(d time.Duration, f func()) (stop func() bool)
	Sleep(d time.Duration)
}

// WallClock is the Clock of the time package's timers.
var WallClock Clock = wallClock{}

type wallClock struct{}

func (wallClock) AfterFunc(d time.Duration, f func()) func() bool {
	return time.AfterFunc(d, f).Stop
}

func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }
