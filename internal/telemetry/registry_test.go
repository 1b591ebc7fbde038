package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds one family of every collector kind, with
// values chosen to exercise escaping, bucket cumulativity and series
// sorting.
func goldenRegistry() *Registry {
	r := NewRegistry()

	reqs := r.NewCounterVec("test_requests_total",
		"Requests by method and code.", "method", "code")
	reqs.WithLabelValues("POST", "200").Add(7)
	reqs.WithLabelValues("GET", "500").Inc()
	reqs.WithLabelValues("GET", "200").Add(3)

	r.GaugeSink("test_queue_depth",
		`Depth; help with a \ backslash and a`+"\n"+`newline.`, []string{"path"}, func(s Sink) {
			s.Add(4.5, "C:\\tmp\\\"x\"\nrest")
		})

	lat := r.NewHistogramVec("test_latency_seconds",
		"Latency distribution.", []float64{0.1, 1, 10})
	child := lat.WithLabelValues()
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		child.Observe(v)
	}

	r.GaugeSink("test_live_value", "Scrape-time gauge.",
		[]string{"shard"}, func(s Sink) {
			// Deliberately unsorted: the writer must order by label key.
			s.Add(2, "1")
			s.Add(1, "0")
		})

	r.HistogramFunc("test_occupancy_ratio", "Scrape-time distribution.",
		[]float64{0.5, 1}, func() []float64 {
			return []float64{0.25, 0.75, 0.75}
		})

	return r
}

// TestWritePrometheusGolden locks the full exposition byte-for-byte:
// HELP/TYPE lines, label escaping, cumulative buckets, family and
// series ordering. Regenerate with go test -run Golden -update.
func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestDuplicateFamilyPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounterVec("dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate family registration did not panic")
		}
	}()
	r.GaugeSink("dup_total", "second", nil, func(Sink) {})
}

func TestLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("arity_total", "two labels", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	v.WithLabelValues("only-one")
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.GaugeSink("esc_value", "escaping", []string{"p"}, func(s Sink) { s.Add(1, "a\\b\"c\nd") })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `esc_value{p="a\\b\"c\nd"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Errorf("escaped series %q not found in:\n%s", want, buf.String())
	}
}

// TestHistogramCumulative checks the exposition invariants a scraper
// relies on: bucket counts are non-decreasing in le order, the +Inf
// bucket equals _count, and _sum matches the observations.
func TestHistogramCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogramVec("cum_seconds", "cumulative check", []float64{1, 2, 3})
	c := h.WithLabelValues()
	for _, v := range []float64{0.5, 1.5, 1.6, 2.5, 9} {
		c.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`cum_seconds_bucket{le="1"} 1`,
		`cum_seconds_bucket{le="2"} 3`,
		`cum_seconds_bucket{le="3"} 4`,
		`cum_seconds_bucket{le="+Inf"} 5`,
		`cum_seconds_sum 15.1`,
		`cum_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestConcurrentScrape hammers every mutation path while scraping;
// run under -race this is the registry's thread-safety proof.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("conc_total", "c", "k")
	hv := r.NewHistogramVec("conc_seconds", "h", []float64{0.1, 1}, "k")
	r.GaugeSink("conc_live", "f", nil, func(s Sink) { s.Add(1) })

	const writers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := string(rune('a' + w))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				cv.WithLabelValues(k).Inc()
				hv.WithLabelValues(k).Observe(float64(i%3) / 2)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// Add increments the counter by delta; a negative delta is ignored, a
// counter never goes down.
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.n.Add(delta)
	}
}

// FamilyNames returns the registered family names, sorted.
func (r *Registry) FamilyNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.fams))
	for i, c := range r.fams {
		out[i] = c.meta().name
	}
	return out
}

func TestCounter(t *testing.T) {
	c := NewRegistry().NewCounterVec("c_total", "c").WithLabelValues()
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: a counter never goes down
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	v := NewRegistry().NewCounterVec("c_total", "c", "k")
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				v.WithLabelValues("a").Inc()
			}
		}()
	}
	wg.Wait()
	if got := v.WithLabelValues("a").Value(); got != 5000 {
		t.Fatalf("Value = %d, want 5000", got)
	}
}

// bucketCounts copies a histogram series' per-bucket counts, the
// overflow bucket last.
func bucketCounts(c *HistogramChild) []int64 {
	out := make([]int64, len(c.counts))
	for i := range c.counts {
		out[i] = c.counts[i].Load()
	}
	return out
}

func TestHistogram(t *testing.T) {
	bounds := []float64{1, 10, 100}
	h := NewRegistry().NewHistogramVec("h_seconds", "h", bounds)
	bounds[0] = 999 // the family keeps its own copy
	c := h.WithLabelValues()
	for _, v := range []float64{0.5, 1, 5, 50, 500, 5000} {
		c.Observe(v)
	}
	// Buckets: ≤1, ≤10, ≤100, overflow.
	if got, want := bucketCounts(c), []int64{2, 1, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("counts = %v, want %v", got, want)
	}
}

func TestHistogramValidation(t *testing.T) {
	for _, bounds := range [][]float64{nil, {5, 5}, {5, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v accepted", bounds)
				}
			}()
			NewRegistry().NewHistogramVec("h_seconds", "h", bounds)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("scrape-time histogram bounds %v accepted", bounds)
				}
			}()
			NewRegistry().HistogramFunc("h_ratio", "h", bounds, func() []float64 { return nil })
		}()
	}
}

func TestHistogramConcurrent(t *testing.T) {
	c := NewRegistry().NewHistogramVec("h_seconds", "h", []float64{10}).WithLabelValues()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := bucketCounts(c); got[0]+got[1] != 2000 || got[0] != 20*11 {
		t.Fatalf("counts = %v, want 220 at or under 10 of 2000", got)
	}
}
