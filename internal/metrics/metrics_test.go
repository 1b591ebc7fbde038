package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 5000 {
		t.Fatalf("Value = %d, want 5000", c.Value())
	}
}

func TestSummaryStats(t *testing.T) {
	var s Summary
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Observe(v)
	}
	if s.Count() != 5 {
		t.Fatalf("Count = %d", s.Count())
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean = %f, want 3", s.Mean())
	}
	if s.Sum() != 15 {
		t.Fatalf("Sum = %f, want 15", s.Sum())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("Min/Max = %f/%f", s.Min(), s.Max())
	}
	if got := s.Percentile(50); got != 3 {
		t.Fatalf("p50 = %f, want 3", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Fatalf("p100 = %f, want 5", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("p0 = %f, want 1", got)
	}
	wantStd := math.Sqrt(2)
	if math.Abs(s.Stddev()-wantStd) > 1e-9 {
		t.Fatalf("Stddev = %f, want %f", s.Stddev(), wantStd)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Percentile(50) != 0 || s.Stddev() != 0 {
		t.Fatal("empty summary should report zeros")
	}
	if !math.IsInf(s.Min(), 1) || !math.IsInf(s.Max(), -1) {
		t.Fatal("empty Min/Max should be infinities")
	}
}

func TestSummaryObserveAfterPercentile(t *testing.T) {
	var s Summary
	s.Observe(5)
	_ = s.Percentile(50)
	s.Observe(1) // must re-sort lazily
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("p0 after late observe = %f, want 1", got)
	}
}

func TestTableRender(t *testing.T) {
	tbl := NewTable("E4: AL quality", "algo", "mean size", "vs exact")
	tbl.AddRow("paper", "3.2", "1.07x")
	tbl.AddRow("random", "5.9") // short row padded
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := b.String()
	if !strings.Contains(out, "E4: AL quality") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "mean size") {
		t.Fatal("header missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d, want 5:\n%s", len(lines), out)
	}
	if tbl.RowCount() != 2 {
		t.Fatalf("RowCount = %d", tbl.RowCount())
	}
}

func TestTableRowsCopies(t *testing.T) {
	tbl := NewTable("", "a")
	tbl.AddRow("x")
	rows := tbl.Rows()
	rows[0][0] = "mutated"
	if tbl.Rows()[0][0] != "x" {
		t.Fatal("Rows leaked internal storage")
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(1, 10, 100)
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	for _, v := range []float64{0.5, 1, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	counts := h.Counts()
	// Buckets: ≤1, ≤10, ≤100, overflow.
	want := []int64{2, 1, 1, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
	if h.Total() != 6 {
		t.Fatalf("Total = %d, want 6", h.Total())
	}
	bounds := h.Bounds()
	bounds[0] = 999
	if h.Bounds()[0] != 1 {
		t.Fatal("Bounds leaked internal storage")
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(); err == nil {
		t.Fatal("no bounds accepted")
	}
	if _, err := NewHistogram(5, 5); err == nil {
		t.Fatal("non-ascending bounds accepted")
	}
	if _, err := NewHistogram(5, 1); err == nil {
		t.Fatal("descending bounds accepted")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h, err := NewHistogram(10)
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				h.Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	if h.Total() != 2000 {
		t.Fatalf("Total = %d, want 2000", h.Total())
	}
}

func TestFmt(t *testing.T) {
	cases := map[float64]string{
		3:       "3",
		3.14159: "3.142",
		123.456: "123.5",
		1000:    "1000",
	}
	for in, want := range cases {
		if got := Fmt(in); got != want {
			t.Errorf("Fmt(%v) = %q, want %q", in, got, want)
		}
	}
}
