package telemetry

// Go runtime self-observability: goroutine count, heap gauges and a
// GC-pause histogram, all read at scrape time — no background sampler
// goroutine, no shadow state. runtime.ReadMemStats stops the world
// briefly, so a scrape reads it once for all its families (refreshMem,
// from Plane.refresh), and not again within memStatsMaxAge.

import (
	"runtime"
	"time"
)

// gcPauseBounds buckets GC stop-the-world pauses: sub-10µs (healthy
// concurrent GC) through the 100ms pathological tail.
var gcPauseBounds = []float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1}

// memStatsMaxAge is how stale the runtime families may read.
const memStatsMaxAge = time.Second

// refreshMem re-reads the runtime's memory statistics, unless the last
// reading is younger than memStatsMaxAge.
func (s *scrapeState) refreshMem() {
	if s.memRead.IsZero() || time.Since(s.memRead) > memStatsMaxAge {
		runtime.ReadMemStats(&s.mem)
		s.memRead = time.Now()
	}
}

// registerRuntime wires the Go runtime families.
func (p *Plane) registerRuntime() {
	sc := &p.scrape
	p.reg.GaugeSink("alvc_go_goroutines",
		"Goroutines currently live in the process.",
		nil, one(func() float64 { return float64(runtime.NumGoroutine()) }))
	p.reg.GaugeSink("alvc_go_heap_alloc_bytes",
		"Bytes of allocated heap objects.",
		nil, one(func() float64 { return float64(sc.mem.HeapAlloc) }))
	p.reg.GaugeSink("alvc_go_heap_objects",
		"Number of allocated heap objects.",
		nil, one(func() float64 { return float64(sc.mem.HeapObjects) }))
	p.reg.GaugeSink("alvc_go_heap_sys_bytes",
		"Bytes of heap memory obtained from the OS.",
		nil, one(func() float64 { return float64(sc.mem.HeapSys) }))
	p.reg.CounterSink("alvc_go_alloc_bytes_total",
		"Cumulative bytes allocated for heap objects.",
		nil, one(func() float64 { return float64(sc.mem.TotalAlloc) }))
	p.reg.CounterSink("alvc_go_gc_cycles_total",
		"Completed GC cycles.",
		nil, one(func() float64 { return float64(sc.mem.NumGC) }))
	p.reg.HistogramFunc("alvc_go_gc_pause_seconds",
		"Stop-the-world GC pause durations (most recent pauses).",
		gcPauseBounds, func() []float64 {
			// PauseNs is a circular buffer of the last up-to-256 pauses.
			n := min(int(sc.mem.NumGC), len(sc.mem.PauseNs))
			sc.gcPauses = sc.gcPauses[:0]
			for _, ns := range sc.mem.PauseNs[:n] {
				sc.gcPauses = append(sc.gcPauses, float64(ns)/1e9)
			}
			return sc.gcPauses
		})
}
