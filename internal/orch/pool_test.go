package orch

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/topology"
)

// settle lets goroutines that have finished their work exit, by count:
// it yields until NumGoroutine is at most want, at most 100 000 times,
// and returns the count.
func settle(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100000 && n > want; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// notOnce returns the first index whose count is not 1, or -1.
func notOnce(runs []atomic.Int32) int {
	for i := range runs {
		if runs[i].Load() != 1 {
			return i
		}
	}
	return -1
}

// TestPoolRunsEveryIndexOnce: on one warm pool, for no work, one item,
// fewer items than workers and many, and for a defaulted width, every
// index runs exactly once and one worker runs them in order; Runs nested
// three deep from inside items run every index once; and Runs from four
// goroutines, nested ones among them, racing a Close loop neither hang
// nor skip an index. Afterwards Close leaves no worker behind.
func TestPoolRunsEveryIndexOnce(t *testing.T) {
	before := settle(0)
	p := NewPool()
	for _, n := range []int{0, 1, 3, 1000} {
		for _, width := range []int{-1, 0, 1, 4, 16} {
			runs := make([]atomic.Int32, n)
			var order []int
			p.Run(n, width, func(i int) {
				runs[i].Add(1)
				if width == 1 {
					order = append(order, i)
				}
			})
			if i := notOnce(runs); i >= 0 {
				t.Fatalf("n=%d width=%d: index %d did not run exactly once", n, width, i)
			}
			for i, got := range order {
				if got != i {
					t.Fatalf("n=%d: one worker ran index %d %d-th, want ascending order", n, got, i)
				}
			}
		}
	}

	nested := func(width int) []atomic.Int32 {
		runs := make([]atomic.Int32, 8*8*8)
		p.Run(8, width, func(i int) {
			p.Run(8, width, func(j int) {
				p.Run(8, width, func(k int) { runs[64*i+8*j+k].Add(1) })
			})
		})
		return runs
	}
	for _, width := range []int{1, 2, 4} {
		if i := notOnce(nested(width)); i >= 0 {
			t.Fatalf("nested width=%d: index %d did not run exactly once", width, i)
		}
	}

	stop := make(chan struct{})
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		for {
			select {
			case <-stop:
				return
			default:
				p.Close()
				runtime.Gosched()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				runs := make([]atomic.Int32, 64)
				if round%5 == g%5 {
					runs = nested(2 + g%3)
				} else {
					p.Run(len(runs), 1+g, func(i int) { runs[i].Add(1) })
				}
				if i := notOnce(runs); i >= 0 {
					t.Errorf("goroutine %d round %d: index %d did not run exactly once", g, round, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-closed
	p.Close()
	if n := settle(before); n != before {
		t.Fatalf("%d goroutines after Close, %d before the pool", n, before)
	}
}

// TestRunReturnsBeforeALateHelper: when the caller finishes every item
// before a claimed helper joins, Run returns without waiting for it, with
// the helper's idle mark handed back, and the helper, once it gets to the
// batch, leaves it alone. The test plays that helper, held at a channel
// until Run has returned — a Run that waited for it would never return.
// On a real warm pool every Run, of any width and size, returns with
// every worker claimable.
func TestRunReturnsBeforeALateHelper(t *testing.T) {
	p := NewPool()
	p.size.Add(1) // one idle worker: the goroutine below
	p.idle.Add(1)
	gate, joined := make(chan struct{}), make(chan bool)
	go func() {
		b := <-p.jobs
		<-gate
		joined <- b.join()
	}()
	var runs atomic.Int32
	p.Run(4, 2, func(int) { runs.Add(1) })
	if n := runs.Load(); n != 4 {
		t.Fatalf("%d items ran, want 4", n)
	}
	if n := p.idle.Load(); n != 1 {
		t.Fatalf("%d idle marks after Run, want the late helper's 1", n)
	}
	close(gate)
	if <-joined {
		t.Fatal("the late helper joined a batch its Run had closed")
	}
	if n := p.idle.Load(); n != 1 {
		t.Fatalf("%d idle marks after the late helper left, want 1", n)
	}
	p.idle.Add(-1)
	p.size.Add(-1)

	warm := NewPool()
	defer warm.Close()
	for round := 0; round < 1000; round++ {
		n, width := 1+round%5, 2+round%3
		runs := make([]atomic.Int32, n)
		warm.Run(n, width, func(i int) { runs[i].Add(1) })
		if i := notOnce(runs); i >= 0 {
			t.Fatalf("round %d: index %d did not run exactly once", round, i)
		}
		if idle, size := warm.idle.Load(), warm.size.Load(); idle != size {
			t.Fatalf("round %d: Run returned with %d of %d workers claimable", round, idle, size)
		}
	}
}

// TestFanOutsStartNoGoroutines: on a four-shard fleet the first batch
// starts the set's pool workers, and 100 more batches and 100 tray cuts
// — each a fan-out over shards with a reconcile fan-out inside — run
// with no goroutine more than that warm pool, sampled from inside every
// pipeline stage they run. Close returns the count to its value before
// the fleet.
func TestFanOutsStartNoGoroutines(t *testing.T) {
	before := settle(0) // earlier tests' closed pools may still be exiting
	topo := benchFleetTopo(t, 64)
	s, err := New(Config{Topo: topo}, 4, ShardByTenant)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	provision := func(round int) (ids []DeploymentID) {
		specs := make([]chain.Spec, 4)
		for i := range specs {
			specs[i] = residentSpec(t, i, fmt.Sprintf("r%d-t%d", round, i))
		}
		for _, res := range s.ProvisionBatch(specs, 0) {
			if res.Err != nil {
				t.Fatalf("round %d: %v", round, res.Err)
			}
			ids = append(ids, res.Deployment.ID)
		}
		return ids
	}
	residents := append(provision(0), provision(1)...)
	want := before + DefaultBatchWorkers() - 1
	warm := settle(want)
	if warm != want {
		t.Fatalf("%d goroutines after the first batches, want %d: the pool's %d workers on top of %d",
			warm, want, DefaultBatchWorkers()-1, before)
	}
	var peak, samples atomic.Int64
	s.UpdateHooks(func(h *Hooks) {
		h.Stage = func(string, time.Duration) {
			samples.Add(1)
			for n := int64(runtime.NumGoroutine()); ; {
				if m := peak.Load(); n <= m || peak.CompareAndSwap(m, n) {
					break
				}
			}
		}
	})
	for round := 2; round < 102; round++ {
		for _, id := range provision(round) {
			if _, err := s.Delete(bg, id); err != nil {
				t.Fatalf("Delete: %v", err)
			}
		}
	}
	provisioned := samples.Load()
	for round := 0; round < 100; round++ {
		// Two chains' primary entry and standby exit: both re-path.
		var tray []topology.LinkID
		for _, id := range []DeploymentID{residents[round%8], residents[(round+3)%8]} {
			s.ViewDeployment(id, func(dep *Deployment) {
				prim, stby := transitLinks(t, topo, dep.Path), transitLinks(t, topo, dep.Standby.Path)
				tray = appendUnseen(tray, []topology.LinkID{prim[0], stby[len(stby)-1]})
			})
		}
		if reports, err := s.HandleFailures(bg, topology.NewFailures(nil, tray)); err != nil || len(reports) < 2 {
			t.Fatalf("round %d: %d reports, %v", round, len(reports), err)
		}
		for _, l := range tray {
			if err := s.Recover(topology.NewFailures(nil, []topology.LinkID{l})); err != nil {
				t.Fatalf("Recover: %v", err)
			}
		}
	}
	if provisioned == 0 || samples.Load() == provisioned {
		t.Fatalf("stage hooks sampled %d times in the batches, %d in the cuts", provisioned, samples.Load()-provisioned)
	}
	if m := peak.Load(); m > int64(warm) {
		t.Fatalf("a stage ran beside %d goroutines, the warm pool has %d: a fan-out started goroutines", m, warm)
	}
	s.Close()
	if n := settle(before); n != before {
		t.Fatalf("%d goroutines after Close, %d before the fleet", n, before)
	}
}
