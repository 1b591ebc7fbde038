package orch

import (
	"runtime"
	"sync"
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
// DefaultBatchWorkers.
func runPool(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultBatchWorkers()
	}
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}
