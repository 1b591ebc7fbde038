package server

// The appenders in encode.go against the code they replaced:
// toDeploymentJSON, toTraceSummaryJSON and the batch handler's loop
// filled wire structs that encoding/json then reflected over. They live
// on here as the oracle — every test below holds the appended bytes
// equal to what that path writes.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/optical"
	"github.com/alvc/alvc/internal/optimizer"
	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/resilience"
	"github.com/alvc/alvc/internal/topology"
	"github.com/alvc/alvc/internal/trace"
)

func toDeploymentJSON(d *orch.Deployment) DeploymentJSON {
	out := DeploymentJSON{
		ID:            int(d.ID),
		Name:          d.Spec.Name,
		Tenant:        d.Spec.Tenant,
		Service:       d.Spec.Service,
		State:         d.State.String(),
		Version:       d.Version,
		Repairs:       d.Repairs,
		Drifted:       d.Drifted,
		NFs:           d.Spec.NFNames(),
		BandwidthGbps: d.Spec.BandwidthGbps,
		FlowBytes:     d.Spec.FlowBytes,
		Hosts:         d.Placement.Hosts,
		Path:          d.Path,
		SliceConfined: d.SliceConfined,
		Lambda:        d.Lambda,
		Conversions:   d.Conversions,
		EnergyJoules:  d.EnergyJoules,
	}
	if d.Slice != nil {
		out.SliceOPSs = d.Slice.OPSs
	}
	if d.Standby != nil {
		out.Standby = &StandbyJSON{
			Path:          d.Standby.Path,
			Disjoint:      d.Standby.Disjoint,
			LastReplanned: d.Standby.PlannedAt,
		}
	}
	for _, dom := range d.Placement.Domains {
		out.Domains = append(out.Domains, dom.String())
	}
	return out
}

func toTraceSummaryJSON(sum alvc.TraceSummary) TraceSummaryJSON {
	return TraceSummaryJSON{
		ID:         sum.ID,
		Kind:       sum.Kind,
		Name:       sum.Name,
		Start:      sum.Start.UTC().Format(time.RFC3339Nano),
		DurationMS: float64(sum.Duration) / float64(time.Millisecond),
		Spans:      sum.Spans,
		Dropped:    sum.Dropped,
		Errored:    sum.Errored,
		Chains:     sum.Deps,
	}
}

// oracleBatch is the batch handler's old response loop.
func oracleBatch(results []orch.BatchResult) BatchResponse {
	resp := BatchResponse{Results: make([]BatchItemJSON, len(results))}
	for i, res := range results {
		item := BatchItemJSON{Index: res.Index}
		if res.Err != nil {
			item.Error = res.Err.Error()
			resp.Failed++
		} else {
			dj := toDeploymentJSON(res.Deployment)
			item.Deployment = &dj
			resp.Provisioned++
		}
		resp.Results[i] = item
	}
	return resp
}

// oracleBody is what writeJSON sent for v; ok is false when
// encoding/json refuses the value (a NaN, a year past 9999).
func oracleBody(v any) (body []byte, ok bool) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err == nil
}

func mustOracleBody(t *testing.T, v any) []byte {
	t.Helper()
	body, ok := oracleBody(v)
	if !ok {
		t.Fatalf("oracle cannot encode %+v", v)
	}
	return body
}

// serve runs one request through the full middleware, in process.
func serve(t *testing.T, srv *Server, method, target string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec
}

// checkBody holds a recorded response to a status and exact body, and
// its Content-Length to the body's length.
func checkBody(t *testing.T, what string, rec *httptest.ResponseRecorder, status int, want []byte) {
	t.Helper()
	if rec.Code != status {
		t.Errorf("%s: status %d, want %d (%s)", what, rec.Code, status, rec.Body)
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("%s: body differs from the oracle's\n got: %s\nwant: %s", what, rec.Body, want)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
		t.Errorf("%s: Content-Length %q, body is %d bytes", what, cl, len(want))
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q", what, ct)
	}
}

// craftDeployment builds a record no pipeline would: shape picks, two
// bits a field, between nil, empty and filled slices, a missing slice
// or standby, every flag and state and domain values with no name.
func craftDeployment(name, tenant string, bandwidth, energy float64, shape uint32, plannedAt time.Time) *orch.Deployment {
	d := &orch.Deployment{
		ID:            orch.DeploymentID(shape>>24) - 3, // negative too
		Spec:          chain.Spec{Name: name, Tenant: tenant, Service: "web<&>", BandwidthGbps: bandwidth, FlowBytes: int64(shape) << 20},
		Version:       int(shape >> 7),
		Repairs:       int(shape >> 11 & 63),
		Lambda:        int(shape>>5&7) - 1,
		Conversions:   int(shape >> 9 & 15),
		EnergyJoules:  energy,
		SliceConfined: shape>>23&1 == 1,
		Drifted:       shape>>22&1 == 1,
	}
	pick := func() uint32 { // the next two bits of shape
		v := shape & 3
		shape >>= 2
		return v
	}
	ids := func() []topology.NodeID {
		switch pick() {
		case 0:
			return nil
		case 1:
			return []topology.NodeID{}
		case 2:
			return []topology.NodeID{7}
		}
		return []topology.NodeID{101, 2, 33, 1 << 40}
	}
	d.Path = ids()
	d.Placement.Hosts = ids()
	switch pick() {
	case 1:
		d.Placement.Domains = []topology.Domain{}
	case 2:
		d.Placement.Domains = []topology.Domain{topology.DomainOptical}
	case 3:
		d.Placement.Domains = []topology.Domain{topology.DomainElectronic, 0, 9}
	}
	if pick() != 0 {
		d.Slice = &optical.Slice{OPSs: ids()}
	}
	switch pick() {
	case 1:
		d.Spec.NFs = []chain.NFRef{}
	case 2:
		d.Spec.NFs = []chain.NFRef{{Name: "firewall"}}
	case 3:
		d.Spec.NFs = []chain.NFRef{{Name: name}, {Name: "lb"}, {Name: ""}}
	}
	d.State = orch.DeploymentState(pick()) // 0: a state with no name
	if flags := pick(); flags != 0 {
		d.Standby = &resilience.Standby{Path: ids(), Disjoint: flags&2 != 0, PlannedAt: plannedAt}
	}
	return d
}

// checkDeployment holds appendDeployment to the oracle for one record,
// appended behind bytes already in the buffer.
func checkDeployment(t *testing.T, d *orch.Deployment) {
	t.Helper()
	want, ok := oracleBody(toDeploymentJSON(d))
	if !ok {
		t.Skip("encoding/json refuses this record")
	}
	got := append(appendDeployment([]byte("[x,"), d), '\n')
	if !bytes.Equal(got[3:], want) || string(got[:3]) != "[x," {
		t.Errorf("appendDeployment differs from encoding/json\n got: %s\nwant: %s", got[3:], want)
	}
}

var (
	hardStrings = []string{
		"", "plain-name_0", `<script>alert("x")&amp;</script>`, `back\slash "quoted"`,
		"ctl\x00\x01\x1f\b\f\n\r\t", "sep\u2028\u2029", "bad\xff\xfeutf8\xc0", "del\x7f", "héllo wörld ✓",
	}
	hardFloats = []float64{
		0, math.Copysign(0, -1), 1, -1.5, 2.5, 1e-7, 3e-7, 1e-6, 9.99e-7, 1e20, 1e21, 1.23e26, -1e21, -3e-7,
		123456789.125, 5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1 + 0.2, 1e-10, 1.5e-300,
	}
	hardTimes = []time.Time{
		{}, time.Unix(0, 0).UTC(), time.Unix(1700000000, 0).UTC(), time.Unix(1700000000, 123456789).UTC(),
		time.Unix(1700000000, 120000000).In(time.FixedZone("east", 5*3600+30*60)),
		time.Unix(1700000000, 1).In(time.FixedZone("west", -8*3600)), time.Unix(1700000000, 999999999).Local(),
	}
)

// TestAppendDeploymentEqualsEncodingJSON crosses every string, float
// and timestamp the encoders treat specially with random record shapes.
func TestAppendDeploymentEqualsEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i, s := range hardStrings {
		for j, f := range hardFloats {
			for k, at := range hardTimes {
				tenant, energy := hardStrings[(i+j+k)%len(hardStrings)], hardFloats[(i+j+k)%len(hardFloats)]
				checkDeployment(t, craftDeployment(s, tenant, f, energy, rng.Uint32(), at))
			}
		}
	}
}

// FuzzAppendDeployment lets the fuzzer pick the strings, floats, shape
// and timestamp; tier-1 runs the seed corpus.
func FuzzAppendDeployment(f *testing.F) {
	for i, s := range hardStrings {
		f.Add(s, hardStrings[len(hardStrings)-1-i], hardFloats[i], hardFloats[i+9], uint32(0x9e3779b9*uint32(i+1)), int64(i)*1e17+int64(i), int16(i*97-300))
	}
	f.Fuzz(func(t *testing.T, name, tenant string, bandwidth, energy float64, shape uint32, nanos int64, zoneMinutes int16) {
		at := time.Unix(0, nanos).In(time.FixedZone("", int(zoneMinutes)%(24*60)*60))
		checkDeployment(t, craftDeployment(name, tenant, bandwidth, energy, shape, at))
	})
}

// TestBatchBodyEqualsEncodingJSON: provisioned, failed and
// failed-with-an-empty-message items in one body, and the three statuses.
func TestBatchBodyEqualsEncodingJSON(t *testing.T) {
	ok := func(i int, shape uint32) orch.BatchResult {
		return orch.BatchResult{Index: i, Deployment: craftDeployment("b<"+strconv.Itoa(i), "t&", 2.5, 3e-7, shape, hardTimes[i%len(hardTimes)])}
	}
	bad := func(i int, msg string) orch.BatchResult {
		return orch.BatchResult{Index: i, Err: errors.New(msg)}
	}
	for _, tc := range []struct {
		name    string
		status  int
		results []orch.BatchResult
	}{
		{"all provisioned", http.StatusCreated, []orch.BatchResult{ok(0, 0x3ffff), ok(1, 0x2aaaa), ok(2, 0)}},
		{"mixed", http.StatusMultiStatus, []orch.BatchResult{ok(0, 0x15555), bad(1, `no "capacity" <here> & there`), bad(2, ""), ok(3, 0xfffff)}},
		{"none provisioned", http.StatusConflict, []orch.BatchResult{bad(0, "insufficient OPS\n"), bad(5, "x")}},
	} {
		rec := httptest.NewRecorder()
		writeBatch(rec, tc.results)
		checkBody(t, tc.name, rec, tc.status, mustOracleBody(t, oracleBatch(tc.results)))
	}
}

// TestTraceSummariesEqualEncodingJSON: the trace listing's body, the
// empty list included.
func TestTraceSummariesEqualEncodingJSON(t *testing.T) {
	var sums []alvc.TraceSummary
	for i, at := range hardTimes {
		sum := trace.Summary{
			ID: hardStrings[i], Kind: hardStrings[(i+3)%len(hardStrings)], Name: "GET /v1/chains/" + hardStrings[i+1],
			Start: at, Duration: []time.Duration{0, 1, 100, 999, 1e3, 1234567, 1e9, 1 << 62}[i], Spans: i * 7,
		}
		switch i % 4 {
		case 1:
			sum.Dropped, sum.Deps = 3, []int{}
		case 2:
			sum.Errored, sum.Deps = true, []int{42}
		case 3:
			sum.Dropped, sum.Errored, sum.Deps = 1, true, []int{3, -1, 1 << 40}
		}
		sums = append(sums, sum)
	}
	for _, list := range [][]alvc.TraceSummary{sums, sums[:1], {}, nil} {
		want := make([]TraceSummaryJSON, 0, len(list))
		for _, sum := range list {
			want = append(want, toTraceSummaryJSON(sum))
		}
		rec := httptest.NewRecorder()
		writeTraceSummaries(rec, func(add func(alvc.TraceSummary)) {
			for _, sum := range list {
				add(sum)
			}
		})
		checkBody(t, fmt.Sprintf("%d summaries", len(list)), rec, http.StatusOK, mustOracleBody(t, want))
	}
}

// craftDrain builds a drain no engine would report: shape picks, two bits
// a field, the results' count and outcomes — busy skips, failures with
// and without a message, cancellations, unknown outcomes — and which of the
// status's optional parts, the debouncer's counters among them, are nil,
// empty or filled.
func craftDrain(detail, errMsg string, shape uint32, at time.Time) ([]alvc.OptimizerTaskResult, alvc.OptimizerStatus, *alvc.DebounceStats) {
	pick := func() uint32 { // the next two bits of shape
		v := shape & 3
		shape >>= 2
		return v
	}
	var results []alvc.OptimizerTaskResult
	switch pick() {
	case 1:
		results = []alvc.OptimizerTaskResult{}
	case 2, 3:
		for i, outcome := range []string{"skipped", "failed", "cancelled", "odd<&>", "protected"} {
			r := alvc.OptimizerTaskResult{Deployment: orch.DeploymentID(i*7 - 1), Kind: "re-protect", Outcome: outcome, When: at}
			switch outcome {
			case "skipped":
				r.Detail = "busy: " + detail
			case "failed":
				r.Error = errMsg
			case "odd<&>":
				r.Kind, r.Detail = "kind<&>", detail
			}
			results = append(results, r)
		}
	}
	st := alvc.OptimizerStatus{
		Paused: shape&1 == 1, QueueDepth: int(shape >> 3 & 31), Running: int(shape >> 8 & 3), Shed: int(shape >> 10 & 63),
		GroupPlans: alvc.GroupPlanStats{Groups: int(shape >> 16 & 15), Coalesced: 54, Planned: 55, Fallbacks: int(shape >> 20 & 31)},
	}
	st.HighWater = int(pick()) * 32
	switch pick() {
	case 1:
		st.Kinds = map[string]optimizer.KindStats{}
	case 2, 3:
		st.Kinds = map[string]optimizer.KindStats{
			"refresh": {Enqueued: 3, Completed: 2}, "re-protect": {Enqueued: 40, Deduped: 2, Completed: 35, Requeued: 4, Skipped: 1, Cancelled: 2, Failed: 1},
			"defrag": {}, detail: {Failed: 7},
		}
	}
	var debounce *alvc.DebounceStats
	if pick() != 0 {
		debounce = &alvc.DebounceStats{Events: 32, Batches: 1, Coalesced: 1<<64 - 1}
	}
	switch pick() {
	case 1:
		st.LastResults = []alvc.OptimizerTaskResult{}
	case 2, 3:
		st.LastResults = results
	}
	return results, st, debounce
}

// statusWire is the status body's wire form: the engine's state and the
// debouncer's counters (nil without a debouncer).
func statusWire(st alvc.OptimizerStatus, debounce *alvc.DebounceStats) OptimizerStatusJSON {
	return OptimizerStatusJSON{OptimizerStatus: st, Debounce: debounce, LastResults: st.LastResults}
}

// checkDrain holds both optimizer bodies to encoding/json for one drain
// and the debouncer's counters beside it.
func checkDrain(t *testing.T, what string, results []alvc.OptimizerTaskResult, st alvc.OptimizerStatus, debounce *alvc.DebounceStats) {
	t.Helper()
	oracleResults := results
	if oracleResults == nil {
		oracleResults = []alvc.OptimizerTaskResult{} // what the handler always sent
	}
	want, ok := oracleBody(OptimizerRunResponse{Drained: len(results), Results: oracleResults, Status: statusWire(st, debounce)})
	if !ok {
		t.Skip("encoding/json refuses this drain")
	}
	rec := httptest.NewRecorder()
	writeOptimizerRun(rec, results, (*craftedStatus)(&st), debounce)
	checkBody(t, what+": optimizer:run", rec, http.StatusOK, want)
	rec = httptest.NewRecorder()
	writeOptimizerStatus(rec, (*craftedStatus)(&st), debounce)
	checkBody(t, what+": optimizer/status", rec, http.StatusOK, mustOracleBody(t, statusWire(st, debounce)))
}

// craftedStatus serves a crafted engine state as the engine's own
// ViewStatus does: LastResults as the result log holds them, each
// result's AppendJSON.
type craftedStatus alvc.OptimizerStatus

func (c *craftedStatus) ViewStatus(fn func(st *alvc.OptimizerStatus, results [][]byte)) {
	st := alvc.OptimizerStatus(*c)
	var results [][]byte
	if st.LastResults != nil {
		results = [][]byte{}
		for i := range st.LastResults {
			results = append(results, st.LastResults[i].AppendJSON(nil))
		}
	}
	st.LastResults = nil
	fn(&st, results)
}

// checkEngineView holds the status body a paused engine's own view
// encodes, the result log's encodings included, to encoding/json's of
// its Status and the debouncer's counters.
func checkEngineView(t *testing.T, what string, eng *alvc.Optimizer, debounce *alvc.DebounceStats) {
	t.Helper()
	rec := httptest.NewRecorder()
	writeOptimizerStatus(rec, eng, debounce)
	checkBody(t, what+": engine view", rec, http.StatusOK, mustOracleBody(t, statusWire(eng.Status(), debounce)))
}

// TestOptimizerBodiesEqualEncodingJSON: an engine's empty drain and its
// failure-domain group drain, then crafted drains crossing busy, failed and
// cancelled outcomes with every string and timestamp the encoders treat
// specially.
func TestOptimizerBodiesEqualEncodingJSON(t *testing.T) {
	_, arch := newTestServerWith(t, wideConfig(24),
		alvc.WithOptimizer(alvc.OptimizerOptions{}), alvc.WithFailureDebounce(time.Hour))
	eng := arch.Optimizer()
	eng.Pause()
	results := eng.Drain()
	ds := arch.Debouncer().Stats()
	checkDrain(t, "empty drain", results, eng.Status(), &ds)
	checkEngineView(t, "empty drain", eng, &ds)
	var hosts []alvc.NodeID
	for i := 0; i < 3; i++ {
		spec, err := alvc.LinearChain(fmt.Sprintf("storm-%d", i), "t-storm", "web", 1, 1<<20, "firewall", "nat")
		if err != nil {
			t.Fatalf("LinearChain: %v", err)
		}
		dep, err := arch.Sharded().Provision(context.Background(), spec)
		if err != nil {
			t.Fatalf("Provision: %v", err)
		}
		hosts = append(hosts, dep.Placement.Hosts[0])
	}
	arch.Debouncer().Report(context.Background(), topology.NewFailures(hosts, nil))
	if _, err := arch.FlushFailures(); err != nil {
		t.Fatalf("FlushFailures: %v", err)
	}
	results = eng.Drain()
	if st := eng.Status(); st.GroupPlans.Coalesced == 0 || len(results) < 3 {
		t.Fatalf("drain %+v, group plans %+v: want the three chains in one group", results, st.GroupPlans)
	}
	ds = arch.Debouncer().Stats()
	checkDrain(t, "group drain", results, eng.Status(), &ds)
	checkEngineView(t, "group drain", eng, &ds)

	rng := rand.New(rand.NewSource(28))
	for i, s := range hardStrings {
		for k, at := range hardTimes {
			results, st, debounce := craftDrain(s, hardStrings[(i+k)%len(hardStrings)], rng.Uint32(), at)
			checkDrain(t, fmt.Sprintf("crafted %d/%d", i, k), results, st, debounce)
		}
	}
}

// FuzzAppendOptimizerRun lets the fuzzer pick the drain's strings, shape
// and timestamp; tier-1 runs the seed corpus.
func FuzzAppendOptimizerRun(f *testing.F) {
	for i, s := range hardStrings {
		f.Add(s, hardStrings[len(hardStrings)-1-i], uint32(0x9e3779b9*uint32(i+1)), int64(i)*1e17+int64(i), int16(i*97-300))
	}
	f.Fuzz(func(t *testing.T, detail, errMsg string, shape uint32, nanos int64, zoneMinutes int16) {
		at := time.Unix(0, nanos).In(time.FixedZone("", int(zoneMinutes)%(24*60)*60))
		results, st, debounce := craftDrain(detail, errMsg, shape, at)
		checkDrain(t, "fuzzed", results, st, debounce)
	})
}
