package telemetry

// The exposition renderer this package had before series heads were
// rendered at registration: a strings.Builder and fmt.Fprintf per label
// per series per scrape, children and families sorted on every scrape.
// It lives on here as the oracle — oracleExposition renders a registry's
// current state the old way, and the tests hold WritePrometheus to it
// byte for byte.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/chain"
)

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func seriesName(name string, labelNames, labelValues []string) string {
	if len(labelNames) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range labelNames {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(labelValues) {
			v = labelValues[i]
		}
		fmt.Fprintf(&b, "%s=\"%s\"", k, escapeLabel(v))
	}
	b.WriteByte('}')
	return b.String()
}

func writeHistogram(w *bufio.Writer, name string, labelNames, labelValues []string, bounds []float64, counts []int64, sum float64) {
	leNames := append(append([]string(nil), labelNames...), "le")
	var cum int64
	for i, b := range bounds {
		cum += counts[i]
		vals := append(append([]string(nil), labelValues...), formatValue(b))
		fmt.Fprintf(w, "%s %d\n", seriesName(name+"_bucket", leNames, vals), cum)
	}
	if len(counts) > len(bounds) {
		cum += counts[len(bounds)]
	}
	vals := append(append([]string(nil), labelValues...), "+Inf")
	fmt.Fprintf(w, "%s %d\n", seriesName(name+"_bucket", leNames, vals), cum)
	fmt.Fprintf(w, "%s %s\n", seriesName(name+"_sum", labelNames, labelValues), formatValue(sum))
	fmt.Fprintf(w, "%s %d\n", seriesName(name+"_count", labelNames, labelValues), cum)
}

// oracleSeries is one series as the old collectors held it: the label
// values, and the value's rendering or, for a histogram, its state.
type oracleSeries struct {
	values []string
	text   string
	counts []int64
	sum    float64
}

// labelsOf recovers a series' label values from its sort key; the
// tests use no label value containing the key's separator.
func labelsOf(f *family, key string) []string {
	if len(f.labelNames) == 0 {
		return nil
	}
	return strings.Split(key, "\x1f")
}

// oracleExposition renders what the registry holds right now — the
// push families' children, the scrape-time families' series as the last
// scrape collected them — the way the old renderer did: families sorted
// by name, children shuffled then sorted by label key, every name and
// value formatted through fmt.
func oracleExposition(r *Registry) []byte {
	rng := rand.New(rand.NewSource(1))
	fams := append([]collector(nil), r.fams...)
	rng.Shuffle(len(fams), func(i, j int) { fams[i], fams[j] = fams[j], fams[i] })
	sort.Slice(fams, func(i, j int) bool { return fams[i].meta().name < fams[j].meta().name })

	var out bytes.Buffer
	bw := bufio.NewWriter(&out)
	for _, c := range fams {
		f := c.meta()
		bw.Write(f.header) // rendered at registration by the old Fprintf verbs; the golden file holds them
		var kids []oracleSeries
		var bounds []float64
		switch c := c.(type) {
		case *CounterVec:
			for _, ch := range c.kids {
				kids = append(kids, oracleSeries{values: labelsOf(f, ch.key), text: fmt.Sprintf("%d", ch.Value())})
			}
		case *funcCollector:
			for _, k := range c.kids {
				if k.scrape == c.scrape {
					kids = append(kids, oracleSeries{values: labelsOf(f, k.key), text: formatValue(k.value)})
				}
			}
		case *HistogramVec:
			bounds = c.bounds
			for _, ch := range c.kids {
				kids = append(kids, oracleSeries{values: labelsOf(f, ch.key), counts: bucketCounts(ch), sum: math.Float64frombits(ch.sumBits.Load())})
			}
		case *histogramFunc:
			bounds = c.bounds
			counts := make([]int64, len(c.bounds)+1)
			sum := 0.0
			for _, v := range c.fn() {
				sum += v
				counts[sort.SearchFloat64s(c.bounds, v)]++
			}
			kids = append(kids, oracleSeries{counts: counts, sum: sum})
		default:
			panic(fmt.Sprintf("oracle: unknown collector %T", c))
		}
		rng.Shuffle(len(kids), func(i, j int) { kids[i], kids[j] = kids[j], kids[i] })
		sort.SliceStable(kids, func(i, j int) bool { return labelKey(kids[i].values) < labelKey(kids[j].values) })
		for _, k := range kids {
			if bounds != nil {
				writeHistogram(bw, f.name, f.labelNames, k.values, bounds, k.counts, k.sum)
			} else {
				fmt.Fprintf(bw, "%s %s\n", seriesName(f.name, f.labelNames, k.values), k.text)
			}
		}
	}
	bw.Flush()
	return out.Bytes()
}

func checkAgainstOracle(t *testing.T, what string, r *Registry) {
	t.Helper()
	var got bytes.Buffer
	if err := r.WritePrometheus(&got); err != nil {
		t.Fatalf("%s: WritePrometheus: %v", what, err)
	}
	if want := oracleExposition(r); !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s: exposition differs from the oracle renderer's\n--- got ---\n%s\n--- want ---\n%s", what, got.Bytes(), want)
	}
}

// TestExpositionEqualsOracle: the golden registry, then random
// registries — families of every kind registered in random order,
// series created in random order under label values with quotes,
// backslashes, newlines and bytes on either side of the key separator,
// values that are integers, fractions, huge, tiny, infinite or NaN.
func TestExpositionEqualsOracle(t *testing.T) {
	checkAgainstOracle(t, "golden registry", goldenRegistry())

	rng := rand.New(rand.NewSource(22))
	atoms := []string{"", "a", "b", "ab", "a\x01", "a\x1e", "a ", "a!", `q"uote`, `back\slash`, "new\nline", "0", "10", "9", "é✓", "\x7f"}
	value := func() float64 {
		return []float64{0, 1, -1, 0.5, 1e21, 1e-7, 123456789, math.Inf(1), math.Inf(-1), math.NaN(), rng.NormFloat64()}[rng.Intn(11)]
	}
	for round := 0; round < 50; round++ {
		r := NewRegistry()
		for fam := 0; fam < 8; fam++ {
			name := fmt.Sprintf("fam_%c%d_%d", 'a'+rng.Intn(26), rng.Intn(10), fam)
			labels := []string{"x", "y", "z"}[:rng.Intn(4)]
			tuple := func() []string {
				vals := make([]string, len(labels))
				for i := range vals {
					vals[i] = atoms[rng.Intn(len(atoms))]
				}
				return vals
			}
			switch fam % 4 {
			case 0:
				v := r.NewCounterVec(name, "help "+atoms[rng.Intn(len(atoms))], labels...)
				for i := 0; i < 12; i++ {
					v.WithLabelValues(tuple()...).Add(rng.Int63n(1 << 40))
				}
			case 2:
				v := r.NewHistogramVec(name, "histogram", []float64{0.001, 0.5, 1e6}, labels...)
				for i := 0; i < 6; i++ {
					v.WithLabelValues(tuple()...).Observe(math.Abs(rng.NormFloat64()))
				}
			case 1, 3:
				type sample struct {
					labels []string
					value  float64
				}
				samples := make(map[string]sample) // one value per label tuple: the scrape keeps the last
				for i := 0; i < 12; i++ {
					vals := tuple()
					samples[labelKey(vals)] = sample{vals, value()}
				}
				register := r.GaugeSink
				if fam%4 == 1 {
					register = r.CounterSink
				}
				register(name, "scrape-time", labels, func(s Sink) {
					for _, sm := range samples { // map order: a different arrival order every scrape
						s.Add(sm.value, sm.labels...)
					}
				})
			}
		}
		checkAgainstOracle(t, fmt.Sprintf("random registry %d", round), r)
		checkAgainstOracle(t, fmt.Sprintf("random registry %d, second scrape", round), r)
	}
}

// TestPlaneExpositionEqualsOracle: the whole catalog over a four-shard
// architecture with WDM, optimizer and debouncer, after provisions, a
// debounced slice failure, a drain, a recovery and a delete.
func TestPlaneExpositionEqualsOracle(t *testing.T) {
	cfg := alvc.DefaultTopology()
	cfg.Racks = 4
	cfg.OPSCount = 64 // every ToR sees every OPS: each shard's quarter of the pool fits its chains
	cfg.ToRUplinks = 64
	cfg.OPSChords = 0
	cfg.DualHomeFrac = 1.0
	arch, err := alvc.New(cfg,
		alvc.WithShards(4),
		alvc.WithWavelengths(4), // a power of two: occupancy ratios sum exactly in any order
		alvc.WithOptimizer(alvc.OptimizerOptions{}),
		alvc.WithFailureDebounce(time.Hour))
	if err != nil {
		t.Fatalf("alvc.New: %v", err)
	}
	p := NewPlane(arch, 0)
	defer p.Close()
	checkAgainstOracle(t, "idle plane", p.Registry())

	var deps []*alvc.Deployment
	for i := 0; i < 8; i++ {
		spec, err := chain.Linear(fmt.Sprintf("c%d", i), fmt.Sprintf("tenant-%d", i), "web", 2, 1<<20, "firewall", "lb")
		if err != nil {
			t.Fatalf("spec: %v", err)
		}
		dep, err := arch.Sharded().Provision(context.Background(), spec)
		if err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
		deps = append(deps, dep)
	}
	victim := deps[3].Slice.OPSs[0]
	arch.Debouncer().Report(context.Background(), alvc.NewFailures([]alvc.NodeID{victim, deps[5].Slice.OPSs[0]}, nil))
	if reports, err := arch.FlushFailures(); err != nil || len(reports) == 0 {
		t.Fatalf("flush: %d reports, %v", len(reports), err)
	}
	arch.Optimizer().Drain()
	if err := arch.Sharded().Recover(alvc.NewFailures([]alvc.NodeID{victim}, nil)); err != nil {
		t.Fatalf("recover: %v", err)
	}
	arch.Optimizer().Drain()
	if _, err := arch.Sharded().Delete(context.Background(), deps[0].ID); err != nil {
		t.Fatalf("delete: %v", err)
	}
	checkAgainstOracle(t, "plane after a lifecycle", p.Registry())

	out := scrape(t, p)
	for _, want := range []string{
		`alvc_orch_provisions_total{shard="`,
		`alvc_orch_deployments{shard="3",state="active"}`,
		`alvc_orch_repairs_total{action="patched"} 2`,
		`alvc_optimizer_tasks_total{kind="re-home",outcome="completed"}`,
		`alvc_optical_lambda_occupancy_ratio_bucket{le="0.25"}`,
		`alvc_orch_debounce_batches_total 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}
