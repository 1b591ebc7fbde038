// Package telemetry is the observability plane of the AL-VC stack and
// its only metric model: a dependency-free registry whose families own
// their series and render the Prometheus text exposition (GET /metrics),
// and a ring-buffered event hub streaming orchestrator lifecycle events
// over SSE (GET /v1/watch).
//
// A family is push-updated (CounterVec, HistogramVec: lock-free
// children a hot path bumps) or read at scrape time (CounterSink,
// GaugeSink, HistogramFunc: closures that report live architecture state
// instead of duplicating it into push-updated shadows). Output is
// deterministic — families sorted by name, series by label values — so
// exposition tests can compare against golden files.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType is the Prometheus family type announced by # TYPE.
type MetricType string

// Family types the registry supports.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// family is what every kind of metric family carries: its name, its
// series' label names and the # HELP / # TYPE lines that open it in an
// exposition, rendered at registration.
type family struct {
	name       string
	labelNames []string
	header     []byte
}

func (f *family) meta() *family { return f }

// collector is one registered metric family.
type collector interface {
	meta() *family
	// appendSeries appends the family's series lines (no HELP/TYPE).
	appendSeries(b []byte) []byte
}

// series is one line of a family as far as it never changes: the key
// the family's series sort by and the line's head, `name{k="v",…} `,
// rendered when the series is first seen. A scrape appends the head and
// the value's digits.
type series struct {
	key  string
	head []byte
}

func (s *series) sortKey() string { return s.key }

// findSeries locates the series with the given label values in a
// key-sorted list: its index, or where it belongs.
func findSeries[S interface{ sortKey() string }](list []S, values []string) (int, bool) {
	// A plain loop, not slices.BinarySearchFunc: through its comparison
	// callback values would escape, and every WithLabelValues and
	// Sink.Add allocate its variadic slice.
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch c := compareKey(list[mid].sortKey(), values); {
		case c == 0:
			return mid, true
		case c < 0:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
}

// newSeries renders the series the label values name.
func (f *family) newSeries(values []string) series {
	return series{key: labelKey(values), head: lineHead(f.name, f.labelNames, values)}
}

// checkArity panics unless there is one label value per label name.
func (f *family) checkArity(values []string) {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: %s: %d label values for %d labels", f.name, len(values), len(f.labelNames)))
	}
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Safe for concurrent registration and scraping.
type Registry struct {
	mu   sync.RWMutex
	fams []collector // sorted by name

	// scrapeMu makes scrapes take turns: what beforeScrape refreshes and
	// the scrape-time families' series slots belong to the one rendering.
	scrapeMu     sync.Mutex
	beforeScrape func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return new(Registry) }

// BeforeScrape sets a hook every scrape runs before it renders: where
// the owner of the scrape-time families reads, once, what they report.
func (r *Registry) BeforeScrape(fn func()) {
	r.scrapeMu.Lock()
	defer r.scrapeMu.Unlock()
	r.beforeScrape = fn
}

// register adds a family, panicking on a duplicate name — families are
// wired once at construction time, so a collision is a programming
// error, and failing loud beats silently exporting garbage.
func (r *Registry) register(c collector, mtype MetricType, help string) {
	f := c.meta()
	if f.name == "" {
		panic("telemetry: empty metric family name")
	}
	f.header = fmt.Appendf(nil, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(help), f.name, mtype)
	r.mu.Lock()
	defer r.mu.Unlock()
	i, dup := slices.BinarySearchFunc(r.fams, f.name, func(c collector, name string) int {
		return strings.Compare(c.meta().name, name)
	})
	if dup {
		panic(fmt.Sprintf("telemetry: duplicate metric family %q", f.name))
	}
	r.fams = slices.Insert(r.fams, i, c)
}

var expositionPool = sync.Pool{New: func() any { return new([]byte) }}

// WritePrometheus renders every family in text exposition format,
// sorted by family name, and writes the exposition in one piece.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bp := expositionPool.Get().(*[]byte)
	b := (*bp)[:0]
	r.scrapeMu.Lock()
	if r.beforeScrape != nil {
		r.beforeScrape()
	}
	r.mu.RLock()
	for _, c := range r.fams {
		b = c.appendSeries(append(b, c.meta().header...))
	}
	r.mu.RUnlock()
	r.scrapeMu.Unlock()
	_, err := w.Write(b)
	*bp = b
	expositionPool.Put(bp)
	return err
}

// Handler returns the GET /metrics scrape handler.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// escapeHelp escapes a HELP line per the exposition format: backslash
// and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value: backslash, double quote, newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// appendValue appends a sample value ("+Inf"/"-Inf"/"NaN" for the
// non-finite cases, shortest round-trip decimal otherwise).
func appendValue(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	case math.IsNaN(v):
		return append(b, "NaN"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// lineHead renders `name{k1="v1",k2="v2"} `, what a series line opens
// with; a series with no labels is the bare name.
func lineHead(name string, labelNames, labelValues []string) []byte {
	b := []byte(name)
	for i, k := range labelNames {
		sep, v := byte(','), ""
		if i == 0 {
			sep = '{'
		}
		if i < len(labelValues) {
			v = labelValues[i]
		}
		b = append(append(append(b, sep), k...), '=', '"')
		b = append(append(b, escapeLabel(v)...), '"')
	}
	if len(labelNames) > 0 {
		b = append(b, '}')
	}
	return append(b, ' ')
}

// labelKey joins label values into the key a family's series sort by.
func labelKey(values []string) string {
	return strings.Join(values, "\x1f")
}

// compareKey compares a series key with labelKey(values) without
// joining the values.
func compareKey(key string, values []string) int {
	for i, v := range values {
		if i > 0 {
			if key == "" {
				return -1
			}
			if key[0] != '\x1f' {
				return int(key[0]) - '\x1f'
			}
			key = key[1:]
		}
		n := min(len(key), len(v))
		if c := strings.Compare(key[:n], v[:n]); c != 0 {
			return c
		}
		if n < len(v) {
			return -1
		}
		key = key[n:]
	}
	return len(key) // what is left of a longer key sorts it after
}

// ---------------------------------------------------------------------------
// Push-updated families

// CounterVec is a labeled counter family, one Counter per label-value
// combination.
type CounterVec struct {
	family
	mu   sync.Mutex
	kids []*Counter // sorted by key
}

// Counter is one series of a CounterVec. Lock-free: counters sit on hot
// paths (per-shard provisioning loops, repair fan-outs) where a mutex
// per increment would serialize exactly the work being counted.
type Counter struct {
	series
	n atomic.Int64
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// NewCounterVec registers a counter family with the given label names
// (none for a single-series counter).
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	v := &CounterVec{family: family{name: name, labelNames: labelNames}}
	r.register(v, TypeCounter, help)
	return v
}

// WithLabelValues returns (creating if needed) the child counter for
// the label values, which must match the family's label arity.
func (v *CounterVec) WithLabelValues(values ...string) *Counter {
	v.checkArity(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	i, ok := findSeries(v.kids, values)
	if !ok {
		v.kids = slices.Insert(v.kids, i, &Counter{series: v.newSeries(values)})
	}
	return v.kids[i]
}

func (v *CounterVec) appendSeries(b []byte) []byte {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, c := range v.kids {
		b = append(strconv.AppendInt(append(b, c.head...), c.Value(), 10), '\n')
	}
	return b
}

// HistogramVec is a labeled histogram family. Exposition renders
// cumulative le-labeled buckets with the implicit +Inf, _sum and _count
// series.
type HistogramVec struct {
	family
	bounds []float64
	mu     sync.Mutex
	kids   []*HistogramChild // sorted by key
}

// HistogramChild is one observable series of a HistogramVec.
type HistogramChild struct {
	series
	buckets
}

// Observe records one sample.
func (c *HistogramChild) Observe(v float64) { c.observe(v) }

// buckets is one histogram series: samples counted into fixed ascending
// upper bounds, the last slot being the overflow bucket, beside the
// samples' sum. Lock-free: a scrape reads the counts where they are,
// without a copy.
type buckets struct {
	bounds  []float64
	heads   [][]byte       // see histogramHeads
	counts  []atomic.Int64 // len(bounds)+1
	sumBits atomic.Uint64
}

func newBuckets(bounds []float64, heads [][]byte) buckets {
	return buckets{bounds: bounds, heads: heads, counts: make([]atomic.Int64, len(bounds)+1)}
}

func (k *buckets) observe(v float64) {
	k.counts[sort.SearchFloat64s(k.bounds, v)].Add(1)
	for {
		old := k.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if k.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// appendTo appends the series: cumulative buckets (the per-bucket
// counts accumulate into each le bound, ending at +Inf), then _sum and
// _count.
func (k *buckets) appendTo(b []byte) []byte {
	var cum int64
	for i := range k.counts {
		cum += k.counts[i].Load()
		b = append(strconv.AppendInt(append(b, k.heads[i]...), cum, 10), '\n')
	}
	n := len(k.counts)
	b = append(appendValue(append(b, k.heads[n]...), math.Float64frombits(k.sumBits.Load())), '\n')
	return append(strconv.AppendInt(append(b, k.heads[n+1]...), cum, 10), '\n')
}

// checkBounds panics unless bounds is a non-empty ascending list — a
// histogram's buckets are wired once at construction, so bad bounds are
// a programming error.
func checkBounds(name string, bounds []float64) {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("telemetry: %s: histogram needs at least one bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: %s: histogram bounds not ascending at %d", name, i))
		}
	}
}

// NewHistogramVec registers a histogram family with the given
// ascending bucket upper bounds (the +Inf bucket is implicit).
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	checkBounds(name, bounds)
	v := &HistogramVec{
		family: family{name: name, labelNames: labelNames},
		bounds: slices.Clone(bounds),
	}
	r.register(v, TypeHistogram, help)
	return v
}

// WithLabelValues returns (creating if needed) the child histogram.
func (v *HistogramVec) WithLabelValues(values ...string) *HistogramChild {
	v.checkArity(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	i, ok := findSeries(v.kids, values)
	if !ok {
		v.kids = slices.Insert(v.kids, i, &HistogramChild{
			series:  v.newSeries(values),
			buckets: newBuckets(v.bounds, histogramHeads(v.name, v.labelNames, values, v.bounds)),
		})
	}
	return v.kids[i]
}

func (v *HistogramVec) appendSeries(b []byte) []byte {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, ch := range v.kids {
		b = ch.appendTo(b)
	}
	return b
}

// histogramHeads renders the line heads of one histogram series: a
// _bucket per bound, the +Inf _bucket, then _sum and _count.
func histogramHeads(name string, labelNames, labelValues []string, bounds []float64) [][]byte {
	leNames := append(slices.Clone(labelNames), "le")
	bucket := func(le string) []byte {
		return lineHead(name+"_bucket", leNames, append(slices.Clone(labelValues), le))
	}
	heads := make([][]byte, 0, len(bounds)+3)
	for _, bound := range bounds {
		heads = append(heads, bucket(string(appendValue(nil, bound))))
	}
	return append(heads, bucket("+Inf"),
		lineHead(name+"_sum", labelNames, labelValues),
		lineHead(name+"_count", labelNames, labelValues))
}

// ---------------------------------------------------------------------------
// Scrape-time families

// Sink is where a scrape-time family reports the series of the scrape
// in progress.
type Sink struct{ c *funcCollector }

// Add reports one series: its value and its label values, aligned with
// the family's label names. Series are rendered sorted by label values
// whatever order they are added in; adding the same labels twice in one
// scrape keeps the last value.
func (s Sink) Add(value float64, labels ...string) {
	c := s.c
	i, ok := findSeries(c.kids, labels)
	if !ok {
		c.kids = slices.Insert(c.kids, i, &funcSeries{series: c.newSeries(labels)})
	}
	c.kids[i].value, c.kids[i].scrape = value, c.scrape
}

// funcCollector reads its series from a closure at scrape time — the
// natural fit for state the architecture already tracks (shard stats,
// optimizer status, topology counters): no shadow copies to keep in
// sync, the scrape sees the live value. Every series it has ever
// reported keeps its rendered head and a value slot; a scrape renders
// the ones its closure added. Touched only under the registry's
// scrapeMu.
type funcCollector struct {
	family
	fn     func(Sink)
	kids   []*funcSeries // sorted by key
	scrape uint64
}

type funcSeries struct {
	series
	value  float64
	scrape uint64 // the scrape that set value
}

func (c *funcCollector) appendSeries(b []byte) []byte {
	c.scrape++
	c.fn(Sink{c})
	for _, k := range c.kids {
		if k.scrape == c.scrape {
			b = append(appendValue(append(b, k.head...), k.value), '\n')
		}
	}
	return b
}

// CounterSink registers a scrape-time counter family: fn is called per
// scrape and adds the current series to its Sink.
func (r *Registry) CounterSink(name, help string, labelNames []string, fn func(Sink)) {
	r.register(&funcCollector{family: family{name: name, labelNames: labelNames}, fn: fn}, TypeCounter, help)
}

// GaugeSink registers a scrape-time gauge family.
func (r *Registry) GaugeSink(name, help string, labelNames []string, fn func(Sink)) {
	r.register(&funcCollector{family: family{name: name, labelNames: labelNames}, fn: fn}, TypeGauge, help)
}

// histogramFunc buckets a scrape-time observation set — e.g. per-link
// λ occupancy ratios — into a fixed bound list on every scrape.
type histogramFunc struct {
	family
	buckets
	fn func() []float64
}

func (c *histogramFunc) appendSeries(b []byte) []byte {
	for i := range c.counts {
		c.counts[i].Store(0)
	}
	c.sumBits.Store(0)
	for _, v := range c.fn() {
		c.observe(v)
	}
	return c.appendTo(b)
}

// HistogramFunc registers a scrape-time histogram: fn returns the full
// observation set each scrape (a distribution snapshot, not a stream).
func (r *Registry) HistogramFunc(name, help string, bounds []float64, fn func() []float64) {
	checkBounds(name, bounds)
	bounds = slices.Clone(bounds)
	r.register(&histogramFunc{
		family:  family{name: name},
		buckets: newBuckets(bounds, histogramHeads(name, nil, nil, bounds)),
		fn:      fn,
	}, TypeHistogram, help)
}
