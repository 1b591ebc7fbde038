package telemetry

import (
	"io"
	"testing"
)

// TestSeriesLookupAllocatesNothing: finding an existing series — the
// pipeline does it once per stage per provision, a scrape-time family
// once per series per scrape — allocates nothing, the variadic label
// slice included, whatever the number of labels; and neither does a
// scrape of push and scrape-time families: histogram buckets are read
// where they are counted.
func TestSeriesLookupAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	stages := r.NewHistogramVec("stage_seconds", "h", []float64{1, 2}, "stage")
	churn := r.NewCounterVec("churn_total", "c", "rack", "direction")
	r.GaugeSink("live", "g", []string{"shard", "state"}, func(s Sink) {
		s.Add(1, "0", "active")
		s.Add(2, "0", "failed")
	})
	for _, stage := range []string{"cluster", "slice", "placement", "path", "standby", "rules"} {
		stages.WithLabelValues(stage)
	}
	churn.WithLabelValues("3", "from")
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { stages.WithLabelValues("path").Observe(0.5) }); n != 0 {
		t.Errorf("HistogramVec.WithLabelValues + Observe allocates %.0f times", n)
	}
	if n := testing.AllocsPerRun(100, func() { churn.WithLabelValues("3", "from").Inc() }); n != 0 {
		t.Errorf("CounterVec.WithLabelValues of two labels allocates %.0f times", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = r.WritePrometheus(io.Discard) }); n != 0 && !raceEnabled {
		t.Errorf("a scrape of 9 series allocates %.0f times", n)
	}
}
