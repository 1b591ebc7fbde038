package orch

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// BatchResult is the outcome of one spec in a ProvisionBatch call.
// Exactly one of Deployment and Err is set.
type BatchResult struct {
	// Index is the spec's position in the submitted batch.
	Index int
	// Deployment is the provisioned chain on success.
	Deployment *Deployment
	// Err is the provisioning failure, nil on success.
	Err error
}

// DefaultBatchWorkers is the worker-pool size ProvisionBatch uses when
// the caller passes workers <= 0.
func DefaultBatchWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		n = 2
	}
	return n
}

// runPool runs fn(i) for every i in [0, n) over a bounded worker pool
// and blocks until all calls return. It is the pool shape shared by
// batch provisioning and failure reconciliation; workers <= 0 selects
// DefaultBatchWorkers. Workers take the next index off one counter, in
// ascending order: no feeder goroutine hands them out, so none waits on a
// hand-off.
func runPool(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultBatchWorkers()
	}
	workers = min(workers, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
