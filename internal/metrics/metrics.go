// Package metrics provides the small statistics toolkit of the
// experiments (internal/experiments) and the alvc CLI: counters,
// summaries with percentiles, and aligned text tables in the row/series
// format the experiments report and `alvc exp` prints.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a concurrency-safe monotonic counter. Lock-free: counters
// sit on hot paths (per-shard provisioning loops, repair fan-outs) where
// a mutex per increment would serialize exactly the work being counted.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by delta (which must be non-negative).
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		return
	}
	c.n.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	return c.n.Load()
}

// Summary accumulates float64 samples and reports order statistics.
// The zero value is ready to use.
type Summary struct {
	mu      sync.Mutex
	samples []float64
	sorted  bool
}

// Observe records one sample.
func (s *Summary) Observe(v float64) {
	s.mu.Lock()
	s.samples = append(s.samples, v)
	s.sorted = false
	s.mu.Unlock()
}

// Count returns the number of samples.
func (s *Summary) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// Mean returns the sample mean (0 for no samples).
func (s *Summary) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0
	}
	total := 0.0
	for _, v := range s.samples {
		total += v
	}
	return total / float64(len(s.samples))
}

// Sum returns the sample sum.
func (s *Summary) Sum() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0.0
	for _, v := range s.samples {
		total += v
	}
	return total
}

// Stddev returns the population standard deviation (0 for <2 samples).
func (s *Summary) Stddev() float64 {
	mean := s.Mean()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) < 2 {
		return 0
	}
	ss := 0.0
	for _, v := range s.samples {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(s.samples)))
}

// Min returns the smallest sample (+Inf for no samples).
func (s *Summary) Min() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return math.Inf(1)
	}
	m := s.samples[0]
	for _, v := range s.samples[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest sample (-Inf for no samples).
func (s *Summary) Max() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return math.Inf(-1)
	}
	m := s.samples[0]
	for _, v := range s.samples[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by
// nearest-rank; 0 for no samples.
func (s *Summary) Percentile(p float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
	if p <= 0 {
		return s.samples[0]
	}
	if p >= 100 {
		return s.samples[len(s.samples)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(s.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s.samples[rank]
}

// Histogram counts samples into fixed, caller-supplied buckets. The
// bucket boundaries are upper bounds; samples above the last bound land
// in the overflow bucket. Safe for concurrent use.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64 // len(bounds)+1, last = overflow
}

// NewHistogram returns a histogram with the given ascending upper
// bounds. At least one bound is required.
func NewHistogram(bounds ...float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("metrics: histogram: at least one bound required")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("metrics: histogram: bounds not ascending at %d", i)
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}, nil
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
}

// Counts returns a copy of the bucket counts; the final entry is the
// overflow bucket.
func (h *Histogram) Counts() []int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int64(nil), h.counts...)
}

// Total returns the number of observed samples.
func (h *Histogram) Total() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var n int64
	for _, c := range h.counts {
		n += c
	}
	return n
}

// Bounds returns a copy of the bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	return append([]float64(nil), h.bounds...)
}

// Table accumulates rows of string cells under a header and renders an
// aligned plain-text table — the output format of every experiment.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: append([]string(nil), headers...)}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := append([]string(nil), cells...)
	for len(row) < len(t.Headers) {
		row = append(row, "")
	}
	t.rows = append(t.rows, row)
}

// Rows returns a copy of the accumulated rows.
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = append([]string(nil), r...)
	}
	return out
}

// RowCount returns the number of rows.
func (t *Table) RowCount() int { return len(t.rows) }

// Render writes the aligned table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Fmt formats a float with adaptive precision for table cells.
func Fmt(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}
