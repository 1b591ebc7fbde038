package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/cluster"
	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/topology"
)

// newTestServer stands a control plane up over the 8-rack/24-OPS
// topology the integration tests use (it fits several concurrent
// chains).
func newTestServer(t *testing.T, opts ...alvc.Option) (*httptest.Server, *alvc.Architecture) {
	t.Helper()
	cfg := alvc.DefaultTopology()
	cfg.Racks = 8
	cfg.OPSCount = 24
	cfg.ToRUplinks = 16
	cfg.OPSChords = 2
	return newTestServerWith(t, cfg, opts...)
}

// wideConfig returns a topology able to host many concurrent chains:
// every ToR sees every OPS, so each AL collapses to a single OPS and
// the pool supports up to OPSCount disjoint chains; PM capacity is
// raised so VNF hosting is not the bottleneck.
func wideConfig(opsCount int) alvc.TopologyConfig {
	cfg := alvc.DefaultTopology()
	cfg.Racks = 4
	cfg.PMsPerRack = 2
	cfg.VMsPerPM = 2
	cfg.OPSCount = opsCount
	cfg.ToRUplinks = opsCount
	cfg.OPSChords = 0
	cfg.Services = []string{"web"}
	cfg.PMCapacity = topology.Resources{CPUCores: 1 << 20, MemoryGB: 1 << 20, StorageGB: 1 << 20}
	return cfg
}

func newTestServerWith(t *testing.T, cfg alvc.TopologyConfig, opts ...alvc.Option) (*httptest.Server, *alvc.Architecture) {
	t.Helper()
	arch, err := alvc.New(cfg, opts...)
	if err != nil {
		t.Fatalf("alvc.New: %v", err)
	}
	srv, err := New(arch)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, arch
}

// do issues one request and returns the status and raw body.
func do(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("NewRequest %s %s: %v", method, url, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, data
}

func specBody(name, tenant, service string, nfs ...string) []byte {
	type nf struct {
		Name string `json:"name"`
	}
	refs := make([]nf, len(nfs))
	for i, n := range nfs {
		refs[i] = nf{Name: n}
	}
	data, _ := json.Marshal(map[string]any{
		"name": name, "tenant": tenant, "service": service,
		"nfs": refs, "bandwidth_gbps": 2.0, "flow_bytes": 1 << 20,
	})
	return data
}

func mustSpec(t *testing.T, data []byte) chain.Spec {
	t.Helper()
	var s chain.Spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("parse spec %s: %v", data, err)
	}
	return s
}

func mustUnmarshal[T any](t *testing.T, data []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("unmarshal %T from %s: %v", v, data, err)
	}
	return v
}

// TestLifecycleOverHTTP drives the acceptance sequence: provision →
// get → modify → upgrade → scale → inject node failure → observe
// repair → recover → move → delete.
func TestLifecycleOverHTTP(t *testing.T) {
	ts, arch := newTestServer(t)

	status, body := do(t, "POST", ts.URL+"/v1/chains", specBody("c1", "t1", "web", "firewall", "lb", "dpi"))
	if status != http.StatusCreated {
		t.Fatalf("provision: got %d, want 201 (%s)", status, body)
	}
	dep := mustUnmarshal[DeploymentJSON](t, body)
	if dep.State != "active" || len(dep.NFs) != 3 || len(dep.SliceOPSs) == 0 {
		t.Fatalf("unexpected deployment: %+v", dep)
	}
	base := fmt.Sprintf("%s/v1/chains/%d", ts.URL, dep.ID)

	status, body = do(t, "GET", base, nil)
	if status != http.StatusOK {
		t.Fatalf("get: got %d (%s)", status, body)
	}

	status, body = do(t, "POST", base+"/modify", []byte(`{"bandwidth_gbps": 5}`))
	if status != http.StatusOK {
		t.Fatalf("modify: got %d (%s)", status, body)
	}
	if got := mustUnmarshal[DeploymentJSON](t, body); got.BandwidthGbps != 5 {
		t.Fatalf("modify: bandwidth %f, want 5", got.BandwidthGbps)
	}

	status, body = do(t, "POST", base+"/upgrade", nil)
	if status != http.StatusOK {
		t.Fatalf("upgrade: got %d (%s)", status, body)
	}
	if got := mustUnmarshal[DeploymentJSON](t, body); got.Version != 2 {
		t.Fatalf("upgrade: version %d, want 2", got.Version)
	}

	status, body = do(t, "POST", base+"/scale", []byte(`{"nf_index": 0, "replicas": 2}`))
	if status != http.StatusOK {
		t.Fatalf("scale: got %d (%s)", status, body)
	}

	// Fail an OPS of the chain's slice; the orchestrator must repair
	// the chain around it.
	victim := dep.SliceOPSs[0]
	status, body = do(t, "POST", fmt.Sprintf("%s/v1/failures/%d", ts.URL, victim), nil)
	if status != http.StatusOK {
		t.Fatalf("fail node: got %d (%s)", status, body)
	}
	fr := mustUnmarshal[FailureResponse](t, body)
	found := false
	for _, id := range fr.Repaired {
		if id == dep.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("failure response does not list deployment %d as repaired: %+v", dep.ID, fr)
	}
	status, body = do(t, "GET", base, nil)
	if status != http.StatusOK {
		t.Fatalf("get after repair: got %d (%s)", status, body)
	}
	repaired := mustUnmarshal[DeploymentJSON](t, body)
	if repaired.Repairs != 1 || repaired.State != "active" {
		t.Fatalf("after repair: %+v", repaired)
	}
	for _, ops := range repaired.SliceOPSs {
		if ops == victim {
			t.Fatalf("repaired slice still contains failed OPS %d", victim)
		}
	}

	status, body = do(t, "DELETE", fmt.Sprintf("%s/v1/failures/%d", ts.URL, victim), nil)
	if status != http.StatusOK {
		t.Fatalf("recover node: got %d (%s)", status, body)
	}

	// Move NF 0 to another live PM.
	var target topology.NodeID
	for _, pm := range arch.Topology().NodeIDs(topology.KindPhysicalMachine) {
		if pm != repaired.Hosts[0] {
			target = pm
			break
		}
	}
	status, body = do(t, "POST", base+"/move", fmt.Appendf(nil, `{"nf_index": 0, "to": %d}`, target))
	if status != http.StatusOK {
		t.Fatalf("move: got %d (%s)", status, body)
	}
	if got := mustUnmarshal[DeploymentJSON](t, body); got.Hosts[0] != target {
		t.Fatalf("move: host %d, want %d", got.Hosts[0], target)
	}

	status, body = do(t, "DELETE", base, nil)
	if status != http.StatusOK {
		t.Fatalf("delete: got %d (%s)", status, body)
	}
	if got := mustUnmarshal[DeploymentJSON](t, body); got.State != "deleted" {
		t.Fatalf("delete: state %s, want deleted", got.State)
	}

	// The listing filter sees it only under state=deleted.
	status, body = do(t, "GET", ts.URL+"/v1/chains?state=active", nil)
	if status != http.StatusOK || string(bytes.TrimSpace(body)) != "[]" {
		t.Fatalf("list active after delete: %d %s", status, body)
	}
	status, body = do(t, "GET", ts.URL+"/v1/chains?state=deleted", nil)
	if status != http.StatusOK {
		t.Fatalf("list deleted: got %d", status)
	}
	if got := mustUnmarshal[[]DeploymentJSON](t, body); len(got) != 1 || got[0].ID != dep.ID {
		t.Fatalf("list deleted: %+v", got)
	}
}

func TestMalformedRequests400(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name, method, path string
		body               []byte
	}{
		{"provision bad json", "POST", "/v1/chains", []byte(`{"name": `)},
		{"provision missing fields", "POST", "/v1/chains", []byte(`{"name":"x"}`)},
		{"provision trailing garbage", "POST", "/v1/chains", append(specBody("c", "t", "web", "nat"), []byte(`{"second":1}`)...)},
		{"batch bad json", "POST", "/v1/chains:batch", []byte(`[not json`)},
		{"batch empty", "POST", "/v1/chains:batch", []byte(`{"specs": []}`)},
		{"modify bad json", "POST", "/v1/chains/1/modify", []byte(`{`)},
		{"modify non-positive", "POST", "/v1/chains/1/modify", []byte(`{"bandwidth_gbps": 0}`)},
		{"scale bad json", "POST", "/v1/chains/1/scale", []byte(`"nope"`)},
		{"move bad json", "POST", "/v1/chains/1/move", []byte(`{]`)},
		{"bad id", "GET", "/v1/chains/abc", nil},
		{"negative id", "DELETE", "/v1/chains/-4", nil},
		{"bad node id", "POST", "/v1/failures/xyz", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := do(t, tc.method, ts.URL+tc.path, tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("got %d, want 400 (%s)", status, body)
			}
			if er := mustUnmarshal[ErrorResponse](t, body); er.Error == "" {
				t.Fatalf("error body missing: %s", body)
			}
		})
	}
}

func TestUnknownDeployment404(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct{ method, path, body, want string }{
		{"GET", "/v1/chains/999", "", `{"error":"unknown deployment 999"}`},
		{"DELETE", "/v1/chains/999", "", `{"error":"delete: orch: delete: unknown deployment: 999"}`},
		{"POST", "/v1/chains/999/modify", `{"bandwidth_gbps": 1}`, `{"error":"modify: orch: modify: unknown deployment: 999"}`},
		{"POST", "/v1/chains/999/upgrade", "", `{"error":"upgrade: orch: upgrade: unknown deployment: 999"}`},
		{"POST", "/v1/chains/999/scale", `{"nf_index": 0, "replicas": 2}`, `{"error":"scale: orch: scale: unknown deployment: 999"}`},
		{"POST", "/v1/chains/999/move", `{"nf_index": 0, "to": 1}`, `{"error":"move: orch: move: unknown deployment: 999"}`},
		{"POST", "/v1/failures/99999", "", `{"error":"unknown node 99999"}`},
	}
	for _, tc := range cases {
		var body []byte
		if tc.body != "" {
			body = []byte(tc.body)
		}
		status, resp := do(t, tc.method, ts.URL+tc.path, body)
		if status != http.StatusNotFound || string(resp) != tc.want+"\n" {
			t.Errorf("%s %s: got %d %s, want 404 %s", tc.method, tc.path, status, resp, tc.want)
		}
	}
}

func TestProvisionOverCapacity409(t *testing.T) {
	ts, _ := newTestServer(t)
	// A per-request demand override no PM can satisfy exhausts the
	// electronic domain: capacity conflict, not a malformed request.
	body := []byte(`{"name":"huge","tenant":"t1","service":"web",
		"nfs":[{"name":"firewall","cpu":1000000}],
		"bandwidth_gbps":1,"flow_bytes":1024}`)
	status, resp := do(t, "POST", ts.URL+"/v1/chains", body)
	if status != http.StatusConflict {
		t.Fatalf("over-capacity provision: got %d, want 409 (%s)", status, resp)
	}
}

func TestProvisionUnknownService422(t *testing.T) {
	ts, _ := newTestServer(t)
	status, resp := do(t, "POST", ts.URL+"/v1/chains", specBody("c1", "t1", "no-such-service", "nat"))
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("unknown service: got %d, want 422 (%s)", status, resp)
	}
}

// TestProvisionRejectsUnknownFields: a field the chain spec or one of
// its NFs does not have is a 400, as it is on the batch envelope — a
// typo ("cpuu") must not provision the chain without the demand it
// meant. The same specs spelled right provision.
func TestProvisionRejectsUnknownFields(t *testing.T) {
	ts, arch := newTestServer(t)
	spec := func(extra, nfExtra string) string {
		return `{"name":"c1","tenant":"t1","service":"web"` + extra + `,
			"nfs":[{"name":"firewall"},{"name":"nat","cpu":1` + nfExtra + `}],
			"bandwidth_gbps":1,"flow_bytes":1024}`
	}
	for _, tc := range []struct{ name, path, body string }{
		{"spec field", "/v1/chains", spec(`,"bogus":1`, "")},
		{"NF field", "/v1/chains", spec("", `,"cpuu":3`)},
		{"batch spec field", "/v1/chains:batch", `{"specs":[` + spec(`,"bogus":1`, "") + `]}`},
		{"batch NF field", "/v1/chains:batch", `{"specs":[` + spec("", `,"cpuu":3`) + `]}`},
	} {
		status, resp := do(t, "POST", ts.URL+tc.path, []byte(tc.body))
		if status != http.StatusBadRequest || !bytes.Contains(resp, []byte("unknown field")) {
			t.Errorf("%s: got %d (%s), want 400 naming the unknown field", tc.name, status, resp)
		}
	}
	if n := arch.Summarize().ActiveDeployments; n != 0 {
		t.Fatalf("%d chains provisioned by rejected requests", n)
	}
	if status, resp := do(t, "POST", ts.URL+"/v1/chains", []byte(spec("", ""))); status != http.StatusCreated {
		t.Fatalf("well-formed spec: got %d (%s), want 201", status, resp)
	}
	if status, resp := do(t, "POST", ts.URL+"/v1/chains:batch", []byte(`{"specs":[`+strings.Replace(spec("", ""), `"c1"`, `"c2"`, 1)+`]}`)); status != http.StatusCreated {
		t.Fatalf("well-formed batch: got %d (%s), want 201", status, resp)
	}
}

func TestDuplicateChain409(t *testing.T) {
	ts, _ := newTestServer(t)
	body := specBody("dup", "t1", "web", "nat")
	if status, resp := do(t, "POST", ts.URL+"/v1/chains", body); status != http.StatusCreated {
		t.Fatalf("first provision: %d (%s)", status, resp)
	}
	status, resp := do(t, "POST", ts.URL+"/v1/chains", body)
	if status != http.StatusConflict {
		t.Fatalf("duplicate provision: got %d, want 409 (%s)", status, resp)
	}
	// After deleting the holder the flow key is free again.
	if status, _ := do(t, "DELETE", ts.URL+"/v1/chains/1", nil); status != http.StatusOK {
		t.Fatalf("delete: %d", status)
	}
	if status, resp := do(t, "POST", ts.URL+"/v1/chains", body); status != http.StatusCreated {
		t.Fatalf("re-provision after delete: got %d, want 201 (%s)", status, resp)
	}
}

// TestTenantWithSlash400: a tenant holding "/" would make the flow key
// Tenant+"/"+Name ambiguous ("a/b" + "c" against "a" + "b/c"), so the
// spec is refused at decode with 400 and nothing is provisioned.
func TestTenantWithSlash400(t *testing.T) {
	ts, arch := newTestServer(t)
	status, resp := do(t, "POST", ts.URL+"/v1/chains", specBody("c", "a/b", "web", "nat"))
	if status != http.StatusBadRequest || !bytes.Contains(resp, []byte(`tenant \"a/b\" contains \"/\"`)) {
		t.Fatalf("tenant a/b: got %d (%s), want 400 naming the tenant", status, resp)
	}
	if n := arch.Summarize().ActiveDeployments; n != 0 {
		t.Fatalf("%d chains provisioned by a rejected request", n)
	}
}

// TestDeleteTwice409: a deleted chain answers 409 on every route that
// needs it live — a second delete and each edit. Before the delete, the
// edit routes refuse a malformed body with 400 and an NF index out of
// range with 422. Every answer carries the error text whole.
func TestDeleteTwice409(t *testing.T) {
	ts, _ := newTestServer(t)
	status, body := do(t, "POST", ts.URL+"/v1/chains", specBody("c1", "t1", "web", "nat"))
	if status != http.StatusCreated {
		t.Fatalf("provision: %d (%s)", status, body)
	}
	dep := mustUnmarshal[DeploymentJSON](t, body)
	url := fmt.Sprintf("%s/v1/chains/%d", ts.URL, dep.ID)
	type edit struct {
		route, body string
		status      int
		want        string
	}
	check := func(cases []edit) {
		t.Helper()
		for _, tc := range cases {
			var body []byte
			if tc.body != "" {
				body = []byte(tc.body)
			}
			status, resp := do(t, "POST", url+"/"+tc.route, body)
			if status != tc.status || string(resp) != tc.want+"\n" {
				t.Errorf("%s %s: got %d %s, want %d %s", tc.route, tc.body, status, resp, tc.status, tc.want)
			}
		}
	}
	check([]edit{
		{"modify", `{`, http.StatusBadRequest, `{"error":"parse modify request: unexpected EOF"}`},
		{"modify", `{"bandwidth_gbps": 0}`, http.StatusBadRequest, `{"error":"bandwidth_gbps must be positive, got 0.000000"}`},
		{"scale", `"nope"`, http.StatusBadRequest, `{"error":"parse scale request: json: cannot unmarshal string into Go value of type server.ScaleRequest"}`},
		{"move", `{]`, http.StatusBadRequest, `{"error":"parse move request: invalid character ']' looking for beginning of object key string"}`},
		{"scale", `{"nf_index": 9, "replicas": 2}`, http.StatusUnprocessableEntity, `{"error":"scale: orch: scale: NF index 9 out of range [0,1)"}`},
		{"move", `{"nf_index": -1, "to": 1}`, http.StatusUnprocessableEntity, `{"error":"move: orch: move: NF index -1 out of range [0,1)"}`},
		{"move", `{"nf_index": 0, "to": 99999}`, http.StatusUnprocessableEntity, `{"error":"move: orch: move deployment 1 NF 0: nfv: migrate: unknown host 99999"}`},
	})
	if status, _ = do(t, "DELETE", url, nil); status != http.StatusOK {
		t.Fatalf("first delete: %d", status)
	}
	status, body = do(t, "DELETE", url, nil)
	if status != http.StatusConflict {
		t.Fatalf("second delete: got %d, want 409 (%s)", status, body)
	}
	check([]edit{
		{"modify", `{"bandwidth_gbps": 1}`, http.StatusConflict, `{"error":"modify: orch: modify: deployment is not active: deployment 1 is deleted"}`},
		{"upgrade", "", http.StatusConflict, `{"error":"upgrade: orch: upgrade: deployment is not active: deployment 1 is deleted"}`},
		{"scale", `{"nf_index": 9, "replicas": 2}`, http.StatusConflict, `{"error":"scale: orch: scale: deployment is not active: deployment 1 is deleted"}`},
		{"move", `{"nf_index": 0, "to": 1}`, http.StatusConflict, `{"error":"move: orch: move: deployment is not active: deployment 1 is deleted"}`},
	})
}

func TestBatchProvision(t *testing.T) {
	ts, _ := newTestServerWith(t, wideConfig(64))
	var req BatchRequest
	for i := 0; i < 20; i++ {
		req.Specs = append(req.Specs, mustSpec(t, specBody(fmt.Sprintf("c%d", i), "t1", "web", "firewall", "nat")))
	}
	body, _ := json.Marshal(req)
	status, resp := do(t, "POST", ts.URL+"/v1/chains:batch", body)
	if status != http.StatusCreated {
		t.Fatalf("batch: got %d, want 201 (%s)", status, resp)
	}
	br := mustUnmarshal[BatchResponse](t, resp)
	if br.Provisioned != 20 || br.Failed != 0 {
		t.Fatalf("batch: provisioned %d failed %d, want 20/0", br.Provisioned, br.Failed)
	}
	status, resp = do(t, "GET", ts.URL+"/v1/chains?state=active", nil)
	if status != http.StatusOK {
		t.Fatalf("list: %d", status)
	}
	if got := mustUnmarshal[[]DeploymentJSON](t, resp); len(got) != 20 {
		t.Fatalf("active after batch: %d, want 20", len(got))
	}
}

func TestBatchDuplicateFlowKeys(t *testing.T) {
	ts, _ := newTestServerWith(t, wideConfig(16))
	var req BatchRequest
	for i := 0; i < 3; i++ {
		req.Specs = append(req.Specs, mustSpec(t, specBody("same", "t1", "web", "nat")))
	}
	body, _ := json.Marshal(req)
	status, resp := do(t, "POST", ts.URL+"/v1/chains:batch", body)
	if status != http.StatusMultiStatus {
		t.Fatalf("duplicate batch: got %d, want 207 (%s)", status, resp)
	}
	br := mustUnmarshal[BatchResponse](t, resp)
	if br.Provisioned != 1 || br.Failed != 2 {
		t.Fatalf("duplicate batch: provisioned %d failed %d, want 1/2", br.Provisioned, br.Failed)
	}
}

// TestConcurrentTraffic hammers the server from many goroutines —
// batch provisions, singleton provisions, reads and failure injection
// all at once. Run under -race this is the control plane's
// thread-safety proof.
func TestConcurrentTraffic(t *testing.T) {
	ts, arch := newTestServerWith(t, wideConfig(96))
	var wg sync.WaitGroup
	// Two batch clients.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var req BatchRequest
			for i := 0; i < 15; i++ {
				req.Specs = append(req.Specs, mustSpec(t, specBody(fmt.Sprintf("b%d-%d", c, i), fmt.Sprintf("tenant%d", c), "web", "firewall")))
			}
			body, _ := json.Marshal(req)
			status, resp := do(t, "POST", ts.URL+"/v1/chains:batch", body)
			if status != http.StatusCreated && status != http.StatusMultiStatus && status != http.StatusConflict {
				t.Errorf("batch client %d: status %d (%s)", c, status, resp)
			}
		}(c)
	}
	// Singleton provision clients.
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			status, resp := do(t, "POST", ts.URL+"/v1/chains", specBody(fmt.Sprintf("s%d", c), "tenant-s", "web", "nat"))
			if status != http.StatusCreated && status != http.StatusConflict && status != http.StatusUnprocessableEntity {
				t.Errorf("singleton %d: status %d (%s)", c, status, resp)
			}
		}(c)
	}
	// Read clients.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if status, _ := do(t, "GET", ts.URL+"/metrics", nil); status != http.StatusOK {
					t.Errorf("metrics: status %d", status)
				}
				if status, _ := do(t, "GET", ts.URL+"/v1/chains", nil); status != http.StatusOK {
					t.Errorf("list: status %d", status)
				}
			}
		}()
	}
	// One failure-injection client flapping a PM.
	wg.Add(1)
	go func() {
		defer wg.Done()
		pm := arch.Topology().NodeIDs(topology.KindPhysicalMachine)[0]
		for i := 0; i < 5; i++ {
			do(t, "POST", fmt.Sprintf("%s/v1/failures/%d", ts.URL, pm), nil)
			do(t, "DELETE", fmt.Sprintf("%s/v1/failures/%d", ts.URL, pm), nil)
		}
	}()
	wg.Wait()

	// Invariants survived the storm: ALs disjoint, state readable.
	if !cluster.Disjoint(arch.Sharded().Clusters()) {
		t.Fatal("ALs are not disjoint after concurrent traffic")
	}
	status, _ := do(t, "GET", ts.URL+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("final metrics: %d", status)
	}
}

// scrapeSeries reads GET /metrics into series → value, each series named
// with its label set exactly as exposed.
func scrapeSeries(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	status, body := do(t, "GET", baseURL+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("GET /metrics: %d", status)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			t.Fatalf("metrics sample %q: %v", line, err)
		}
		out[line[:cut]] = v
	}
	return out
}

func TestTopologyAndMetricsEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	status, body := do(t, "GET", ts.URL+"/v1/topology", nil)
	if status != http.StatusOK {
		t.Fatalf("topology: %d", status)
	}
	topo := mustUnmarshal[struct {
		Nodes []json.RawMessage `json:"nodes"`
		Links []json.RawMessage `json:"links"`
	}](t, body)
	if len(topo.Nodes) == 0 || len(topo.Links) == 0 {
		t.Fatalf("topology empty: %d nodes %d links", len(topo.Nodes), len(topo.Links))
	}

	if status, _ = do(t, "POST", ts.URL+"/v1/chains", specBody("m1", "t1", "web", "firewall")); status != http.StatusCreated {
		t.Fatalf("provision: %d", status)
	}
	m := scrapeSeries(t, ts.URL)
	if m[`alvc_orch_deployments{shard="0",state="active"}`] != 1 || m[`alvc_sdn_installed_rules{shard="0"}`] == 0 ||
		m[`alvc_cluster_ops_pool{shard="0"}`] != 24 || m[`alvc_cluster_vcs{shard="0"}`] != 1 {
		t.Fatalf("metrics: %v", m)
	}
	if used, capacity := m[`alvc_nfv_cpu_cores{domain="electronic",kind="used"}`]+m[`alvc_nfv_cpu_cores{domain="optical",kind="used"}`],
		m[`alvc_nfv_cpu_cores{domain="electronic",kind="capacity"}`]; used != 1 || capacity == 0 {
		t.Fatalf("VNF-hosting CPU: %v cores used of %v electronic, want the firewall's 1", used, capacity)
	}
	// /metrics is the one metric surface: the JSON side door is gone.
	if status, body = do(t, "GET", ts.URL+"/v1/metrics", nil); status != http.StatusNotFound {
		t.Fatalf("GET /v1/metrics: %d (%s), want 404", status, body)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	status, _ := do(t, "GET", ts.URL+"/healthz", nil)
	if status != http.StatusOK {
		t.Fatalf("healthz: %d", status)
	}
}

// TestDeletedChainAnswersFromTombstone: DELETE still returns the full
// final record; from then on the chain's record is gone and a tombstone
// answers for it — 200 "deleted" on GET and under ?state=deleted while
// it is among the newest orch.TombstoneRing deletes, 404 after — and
// alvc_orch_deletes_total counts deletes since start.
func TestDeletedChainAnswersFromTombstone(t *testing.T) {
	ts, _ := newTestServer(t)
	churn := func(traceID string) (DeploymentJSON, string) {
		t.Helper()
		status, body := do(t, "POST", ts.URL+"/v1/chains", specBody("c1", "t1", "web", "firewall", "nat"))
		if status != http.StatusCreated {
			t.Fatalf("provision: %d (%s)", status, body)
		}
		dep := mustUnmarshal[DeploymentJSON](t, body)
		url := fmt.Sprintf("%s/v1/chains/%d", ts.URL, dep.ID)
		status, body, _ = doTraced(t, "DELETE", url, traceID, nil)
		if status != http.StatusOK {
			t.Fatalf("delete: %d (%s)", status, body)
		}
		final := mustUnmarshal[DeploymentJSON](t, body)
		dep.State = "deleted"
		if !reflect.DeepEqual(final, dep) {
			t.Fatalf("DELETE body\n %+v\nwant the provisioned record, deleted\n %+v", final, dep)
		}
		return dep, url
	}

	first, firstURL := churn("del-first")
	status, body := do(t, "GET", firstURL, nil)
	if status != http.StatusOK {
		t.Fatalf("get deleted: %d (%s)", status, body)
	}
	tomb := mustUnmarshal[DeploymentJSON](t, body)
	if tomb.ID != first.ID || tomb.State != "deleted" || tomb.Name != "c1" || tomb.Tenant != "t1" || tomb.Service != "web" ||
		tomb.DeletedAt == nil || tomb.LastTraceID != "del-first" || len(tomb.Path) != 0 {
		t.Fatalf("tombstone = %+v", tomb)
	}
	if status, body = do(t, "GET", ts.URL+"/v1/traces/del-first", nil); status != http.StatusOK {
		t.Fatalf("delete trace through the tombstone: %d (%s)", status, body)
	}
	if status, body = do(t, "GET", firstURL+"/traces", nil); status != http.StatusOK || string(bytes.TrimSpace(body)) != "[]" {
		t.Fatalf("chain traces of a deleted chain: %d %s", status, body)
	}

	var last DeploymentJSON
	var lastURL string
	for i := 0; i < orch.TombstoneRing; i++ {
		last, lastURL = churn("")
	}
	if status, body = do(t, "GET", firstURL, nil); status != http.StatusNotFound {
		t.Fatalf("get after ring overflow: %d (%s), want 404", status, body)
	}
	if status, body = do(t, "DELETE", firstURL, nil); status != http.StatusNotFound {
		t.Fatalf("delete after ring overflow: %d (%s), want 404", status, body)
	}
	status, body = do(t, "GET", lastURL, nil)
	if got := mustUnmarshal[DeploymentJSON](t, body); status != http.StatusOK || got.ID != last.ID || got.State != "deleted" {
		t.Fatalf("get newest deleted: %d %+v", status, got)
	}
	status, body = do(t, "GET", ts.URL+"/v1/chains?state=deleted", nil)
	if got := mustUnmarshal[[]DeploymentJSON](t, body); status != http.StatusOK || len(got) != orch.TombstoneRing || got[len(got)-1].ID != last.ID {
		t.Fatalf("list deleted: %d, %d entries, want the ring's %d ending in %d", status, len(got), orch.TombstoneRing, last.ID)
	}
	if status, body = do(t, "GET", ts.URL+"/v1/chains", nil); status != http.StatusOK || string(bytes.TrimSpace(body)) != "[]" {
		t.Fatalf("list after deleting everything: %d %s", status, body)
	}
	m := scrapeSeries(t, ts.URL)
	if got := m[`alvc_orch_deletes_total{shard="0"}`]; got != orch.TombstoneRing+1 || m[`alvc_orch_deployments{shard="0",state="active"}`] != 0 {
		t.Fatalf("alvc_orch_deletes_total = %v, want %d deletes since start and no active record", got, orch.TombstoneRing+1)
	}
	if _, ok := m[`alvc_orch_deployments{shard="0",state="deleted"}`]; ok {
		t.Fatal(`a since-start count is served on the gauge alvc_orch_deployments{state="deleted"}`)
	}
}
