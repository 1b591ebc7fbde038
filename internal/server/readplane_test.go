package server

// The read plane on a booted fleet: what the handlers send against the
// oracle's encoding of the deep copy (encode_test.go), what they cost in
// allocations, and what happens to them under concurrent writes.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/topology"
)

// bootFleet stands a server up over a wide fabric with every PM
// dual-homed and provisions n chains, one tenant each, so they spread
// over the shards.
func bootFleet(tb testing.TB, n, shards int, opts ...alvc.Option) (*Server, *alvc.Architecture, []alvc.DeploymentID) {
	tb.Helper()
	cfg := wideConfig(2*n + 16*shards) // a tenant-hashed shard may draw well over its share
	cfg.DualHomeFrac = 1.0
	arch, err := alvc.New(cfg, append([]alvc.Option{alvc.WithShards(shards)}, opts...)...)
	if err != nil {
		tb.Fatalf("alvc.New: %v", err)
	}
	srv, err := New(arch)
	if err != nil {
		tb.Fatalf("server.New: %v", err)
	}
	ids := make([]alvc.DeploymentID, n)
	for i := range ids {
		ids[i] = deployOne(tb, arch, i).ID
	}
	return srv, arch, ids
}

func deployOne(tb testing.TB, arch *alvc.Architecture, i int) *alvc.Deployment {
	tb.Helper()
	spec, err := chain.Linear(fmt.Sprintf("chain-%d", i), fmt.Sprintf("tenant-%d", i), "web", 2, 1<<20, "firewall", "lb")
	if err != nil {
		tb.Fatalf("spec %d: %v", i, err)
	}
	dep, err := arch.Sharded().Provision(context.Background(), spec)
	if err != nil {
		tb.Fatalf("deploy %d: %v", i, err)
	}
	return dep
}

// oracleList is the list handler as it was: deep-copy the fleet, fill
// wire structs, reflect.
func oracleList(t *testing.T, arch *alvc.Architecture, state string) []byte {
	t.Helper()
	out := []DeploymentJSON{}
	if state == orch.StateDeleted.String() {
		for _, tomb := range arch.Sharded().Tombstones() {
			out = append(out, tombstoneJSON(tomb))
		}
		return mustOracleBody(t, out)
	}
	for _, dep := range arch.Sharded().Deployments() {
		if state == "" || dep.State.String() == state {
			out = append(out, toDeploymentJSON(dep))
		}
	}
	return mustOracleBody(t, out)
}

// TestReadsEqualOracleOnFleet: on a four-shard fleet that has been
// through slice and path failures, recoveries, optimizer drains, moves
// and deletes, every list filter, every single-chain GET and every
// verb's answer is the oracle's encoding of the deep copy, and the list
// is ID-ordered across the shards' interleaved IDs.
func TestReadsEqualOracleOnFleet(t *testing.T) {
	srv, arch, ids := bootFleet(t, 40, 4, alvc.WithOptimizer(alvc.OptimizerOptions{}), alvc.WithWavelengths(16))
	post := func(target, body string) *httptest.ResponseRecorder {
		t.Helper()
		rec := serve(t, srv, "POST", target, []byte(body))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s: %d (%s)", target, rec.Code, rec.Body)
		}
		return rec
	}
	fail := func(node alvc.NodeID) { t.Helper(); post(fmt.Sprintf("/v1/failures/%d", node), "") }
	recoverNode := func(node alvc.NodeID) {
		t.Helper()
		if rec := serve(t, srv, "DELETE", fmt.Sprintf("/v1/failures/%d", node), nil); rec.Code != http.StatusOK {
			t.Fatalf("recover %d: %d (%s)", node, rec.Code, rec.Body)
		}
	}
	// Two slice OPSs (patched: drifted until re-homed) and the ToR under
	// every primary (swapped onto the standbys: the fleet unprotected),
	// a drain, the ToR and one OPS back, a drain: most chains disjointly
	// protected again. Then one more slice OPS, left down and undrained.
	sliceOPS := func(i int) alvc.NodeID { return arch.Deployment(ids[i]).Slice.OPSs[0] }
	opsA, opsB, tor := sliceOPS(3), sliceOPS(17), arch.Deployment(ids[8]).Path[2]
	fail(opsA)
	fail(opsB)
	fail(tor)
	post("/v1/optimizer:run", "")
	recoverNode(tor)
	recoverNode(opsA)
	post("/v1/optimizer:run", "")
	fail(sliceOPS(29))

	// Every verb that answers with the chain: equal to the oracle's
	// encoding of the record as it stands right after.
	chainURL := fmt.Sprintf("/v1/chains/%d", ids[5])
	pms := arch.Topology().NodeIDs(topology.KindPhysicalMachine)
	for _, verb := range []struct{ path, body string }{
		{"/modify", `{"bandwidth_gbps": 0.0000003}`},
		{"/upgrade", ``},
		{"/scale", `{"nf_index": 0, "replicas": 2}`},
		{"/move", fmt.Sprintf(`{"nf_index": 1, "to": %d}`, pms[len(pms)-1])},
	} {
		rec := post(chainURL+verb.path, verb.body)
		checkBody(t, verb.path, rec, http.StatusOK, mustOracleBody(t, toDeploymentJSON(arch.Deployment(ids[5]))))
	}
	for _, i := range []int{0, 11, 22, 33, 39} {
		before := arch.Deployment(ids[i])
		before.State = orch.StateDeleted
		rec := serve(t, srv, "DELETE", fmt.Sprintf("/v1/chains/%d", ids[i]), nil)
		checkBody(t, "delete", rec, http.StatusOK, mustOracleBody(t, toDeploymentJSON(before)))
	}
	created := serve(t, srv, "POST", "/v1/chains", specBody("late<&>", "tenant-late", "web", "nat", "dpi"))
	late := arch.Sharded().Deployments()
	checkBody(t, "provision", created, http.StatusCreated, mustOracleBody(t, toDeploymentJSON(late[len(late)-1])))

	for _, state := range []string{"", "active", "failed", "deleted", "no-such-state"} {
		rec := serve(t, srv, "GET", "/v1/chains?state="+state, nil)
		want := oracleList(t, arch, state)
		if state == orch.StateDeleted.String() { // tombstones keep the reflecting encoder: no length announced
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("list deleted: %d\n got: %s\nwant: %s", rec.Code, rec.Body, want)
			}
			continue
		}
		checkBody(t, "list state="+state, rec, http.StatusOK, want)
	}
	listed := mustUnmarshal[[]DeploymentJSON](t, serve(t, srv, "GET", "/v1/chains", nil).Body.Bytes())
	shardsSeen := make(map[int]bool)
	for i, dep := range listed {
		if i > 0 && dep.ID <= listed[i-1].ID {
			t.Fatalf("list not ID-ordered: %d after %d", dep.ID, listed[i-1].ID)
		}
		shardsSeen[arch.Sharded().ShardOf(alvc.DeploymentID(dep.ID))] = true
	}
	if len(listed) != 36 || len(shardsSeen) < 2 {
		t.Fatalf("listed %d chains from %d shards, want 36 from several", len(listed), len(shardsSeen))
	}
	drifted, repaired, disjoint := 0, 0, 0
	for _, dep := range listed {
		rec := serve(t, srv, "GET", fmt.Sprintf("/v1/chains/%d", dep.ID), nil)
		checkBody(t, "get", rec, http.StatusOK, mustOracleBody(t, toDeploymentJSON(arch.Deployment(alvc.DeploymentID(dep.ID)))))
		if dep.Drifted {
			drifted++
		}
		if dep.Repairs > 0 {
			repaired++
		}
		if dep.Standby != nil && dep.Standby.Disjoint {
			disjoint++
		}
	}
	if drifted == 0 || repaired < len(listed)/2 || disjoint == 0 || disjoint == len(listed) {
		t.Errorf("of %d chains %d drifted, %d repaired, %d disjointly protected: the failures left too little to encode",
			len(listed), drifted, repaired, disjoint)
	}
}

// TestWriteChainLiveTombstoneUnknown drives the one helper behind
// GET /v1/chains/{id} and the answers of modify, upgrade, scale and
// move: a live chain answers its record, a chain deleted since — the
// race a read-back after the verb's guard can lose — its tombstone, an
// ID never issued a 404; none of them a panic.
func TestWriteChainLiveTombstoneUnknown(t *testing.T) {
	srv, arch, ids := bootFleet(t, 3, 1)
	if _, err := arch.Sharded().Delete(context.Background(), ids[1]); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	tomb, ok := arch.Sharded().Tombstone(ids[1])
	if !ok {
		t.Fatal("no tombstone for the deleted chain")
	}

	rec := httptest.NewRecorder()
	srv.writeChain(rec, ids[0])
	checkBody(t, "live", rec, http.StatusOK, mustOracleBody(t, toDeploymentJSON(arch.Deployment(ids[0]))))

	rec = httptest.NewRecorder()
	srv.writeChain(rec, ids[1])
	if want := mustOracleBody(t, tombstoneJSON(tomb)); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("tombstoned: %d %s, want 200 %s", rec.Code, rec.Body, want)
	}

	rec = httptest.NewRecorder()
	srv.writeChain(rec, 9999)
	if want := mustOracleBody(t, ErrorResponse{Error: "unknown deployment 9999"}); rec.Code != http.StatusNotFound || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("never issued: %d %s, want 404 %s", rec.Code, rec.Body, want)
	}
}

// discardWriter is a reusable http.ResponseWriter, so an allocation
// count is the handler's and not a recorder's.
type discardWriter struct {
	h             http.Header
	status, bytes int
}

func (w *discardWriter) Header() http.Header  { return w.h }
func (w *discardWriter) WriteHeader(code int) { w.status = code }
func (w *discardWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.bytes += len(p)
	return len(p), nil
}

// getter returns a func that serves GET target through the full
// middleware into a discardWriter and reports the body's size.
func getter(tb testing.TB, srv *Server, target string) func() int {
	req := httptest.NewRequest("GET", target, nil)
	w := &discardWriter{h: make(http.Header)}
	return func() int {
		clear(w.h)
		w.status, w.bytes = 0, 0
		srv.Handler().ServeHTTP(w, req)
		if w.status != http.StatusOK || w.bytes == 0 {
			tb.Fatalf("GET %s: status %d, %d bytes", target, w.status, w.bytes)
		}
		return w.bytes
	}
}

// allocsOf counts the allocations of one warm GET.
func allocsOf(t *testing.T, srv *Server, target string) float64 {
	get := getter(t, srv, target)
	get()
	get() // the pooled buffers have their size now
	return testing.AllocsPerRun(20, func() { get() })
}

// TestReadPlaneAllocationCeilings counts, through the full middleware
// on a 200-chain fleet, what each read allocates — the parent's counts
// in the comments — and holds the list's count flat in the fleet size:
// five times the chains may not cost it more than two allocations.
func TestReadPlaneAllocationCeilings(t *testing.T) {
	srv, arch, ids := bootFleet(t, 200, 1)
	dep := arch.Deployment(ids[100])
	counts := make(map[string]float64)
	for _, read := range []struct {
		name, target string
		ceiling      float64
	}{
		{"list", "/v1/chains", 24},                                  // 2 224
		{"get", fmt.Sprintf("/v1/chains/%d", ids[100]), 10},         // 28
		{"scrape", "/metrics", 2},                                   // 1 904
		{"traces", "/v1/traces", 4},                                 // 309
		{"chain traces", fmt.Sprintf("/v1/chains/%d/traces", 7), 4}, // one summary
		// A ToR most of the fleet crosses, and a standby link: each at
		// the count it had when impact took one resource.
		{"node impact", fmt.Sprintf("/v1/nodes/%d/impact", dep.Path[2]), 218},
		{"link impact", fmt.Sprintf("/v1/links/%d/impact", dep.Standby.Links[1]), 11},
	} {
		counts[read.name] = allocsOf(t, srv, read.target)
		t.Logf("%-12s %4.0f allocations a request (ceiling %.0f)", read.name, counts[read.name], read.ceiling)
		if counts[read.name] > read.ceiling && !raceEnabled {
			t.Errorf("%s allocates %.0f times a request, ceiling %.0f", read.name, counts[read.name], read.ceiling)
		}
	}
	big, _, _ := bootFleet(t, 1000, 1)
	atThousand := allocsOf(t, big, "/v1/chains")
	t.Logf("list at 1000 chains: %.0f allocations", atThousand)
	if atThousand > counts["list"]+2 && !raceEnabled {
		t.Errorf("list allocates %.0f times at 1000 chains, %.0f at 200: the count follows the fleet", atThousand, counts["list"])
	}
}

// BenchmarkListChains times GET /v1/chains through the full middleware
// and, beside it, the two things a record can cost its shard's lock:
// "view" is exactly what the handler runs under the lock (the in-place
// encode), "deepcopy" what the parent ran there (Deployments()). Each
// reports ns/record, so lock-hold time per chain is a number in the log.
func BenchmarkListChains(b *testing.B) {
	for _, n := range []int{200, 1000} {
		srv, arch, _ := bootFleet(b, n, 1)
		perRecord := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/record")
		}
		b.Run(fmt.Sprintf("chains=%d/handler", n), func(b *testing.B) {
			get := getter(b, srv, "/v1/chains")
			get()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.SetBytes(int64(get()))
			}
			perRecord(b)
		})
		b.Run(fmt.Sprintf("chains=%d/view", n), func(b *testing.B) {
			var buf []byte
			view := func() {
				buf = buf[:0]
				arch.Sharded().ViewDeployments(func(dep *orch.Deployment) { buf = appendDeployment(buf, dep) })
			}
			view() // the handler's buffer is pooled: time the encode, not the first growth
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				view()
			}
			perRecord(b)
		})
		b.Run(fmt.Sprintf("chains=%d/deepcopy", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(arch.Sharded().Deployments()) != n {
					b.Fatal("fleet changed size")
				}
			}
			perRecord(b)
		})
	}
}

func benchmarkGet(b *testing.B, target string) {
	srv, _, _ := bootFleet(b, 200, 1)
	get := getter(b, srv, target)
	get()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.SetBytes(int64(get()))
	}
}

// BenchmarkGetChain times GET /v1/chains/{id} on a 200-chain fleet.
func BenchmarkGetChain(b *testing.B) { benchmarkGet(b, "/v1/chains/101") }

// BenchmarkScrape times GET /metrics on a 200-chain fleet.
func BenchmarkScrape(b *testing.B) { benchmarkGet(b, "/metrics") }

// BenchmarkTraceQuery times GET /v1/traces (the default query: the 100
// slowest of everything retained) after 200 provisions.
func BenchmarkTraceQuery(b *testing.B) { benchmarkGet(b, "/v1/traces") }

// TestReadPlaneUnderWrites lists, gets, scrapes and queries traces from
// four goroutines while a fifth provisions, batch-provisions, modifies,
// moves and deletes: under -race, the proof for the pooled response
// buffers, the views under the shard locks, the records a batch
// commits while a list encodes its shard's, and the registry's
// series created mid-scrape.
// Every read must be a well-formed answer: 200 (or 404 for a chain the
// writer has deleted past its tombstone), valid JSON, lists ID-ordered.
func TestReadPlaneUnderWrites(t *testing.T) {
	srv, arch, ids := bootFleet(t, 24, 4)
	pms := arch.Topology().NodeIDs(topology.KindPhysicalMachine)
	request := func(method, target string, body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		if rec.Code >= http.StatusInternalServerError {
			t.Errorf("%s %s: %d (%s)", method, target, rec.Code, rec.Body)
		}
		return rec.Code, rec.Body.Bytes()
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				status, body := request("GET", "/v1/chains", nil)
				var listed []DeploymentJSON
				if err := json.Unmarshal(body, &listed); status != http.StatusOK || err != nil {
					t.Errorf("list: %d, %v", status, err)
					return
				}
				for j := 1; j < len(listed); j++ {
					if listed[j].ID <= listed[j-1].ID {
						t.Errorf("list not ID-ordered: %d after %d", listed[j].ID, listed[j-1].ID)
					}
				}
				id := ids[(i*7+r)%len(ids)]
				if status, body = request("GET", fmt.Sprintf("/v1/chains/%d", id), nil); status != http.StatusNotFound {
					var got DeploymentJSON
					if err := json.Unmarshal(body, &got); status != http.StatusOK || err != nil || got.ID != int(id) {
						t.Errorf("get %d: %d, id %d, %v", id, status, got.ID, err)
					}
				}
				if status, body = request("GET", "/metrics", nil); status != http.StatusOK || !bytes.HasSuffix(body, []byte("\n")) {
					t.Errorf("scrape: %d, %d bytes", status, len(body))
				}
				if status, body = request("GET", "/v1/traces?limit=20", nil); status != http.StatusOK || !json.Valid(body) {
					t.Errorf("traces: %d %s", status, body)
				}
			}
		}(r)
	}

	// The writer: every round replaces one of the fleet's chains and
	// changes two others under the readers, who keep asking for the
	// original IDs — live, then tombstoned, then forgotten.
	live := append([]alvc.DeploymentID(nil), ids...)
	for round := 0; round < 40; round++ {
		slot := round % len(live)
		request("POST", fmt.Sprintf("/v1/chains/%d/modify", live[(slot+1)%len(live)]), fmt.Appendf(nil, `{"bandwidth_gbps": %d}`, round+1))
		request("POST", fmt.Sprintf("/v1/chains/%d/move", live[(slot+2)%len(live)]), fmt.Appendf(nil, `{"nf_index": 0, "to": %d}`, pms[round%len(pms)]))
		if status, body := request("DELETE", fmt.Sprintf("/v1/chains/%d", live[slot]), nil); status != http.StatusOK {
			t.Fatalf("delete %d: %d (%s)", live[slot], status, body)
		}
		status, body := request("POST", "/v1/chains", specBody(fmt.Sprintf("again-%d", round), fmt.Sprintf("tenant-%d", slot), "web", "firewall", "lb"))
		if status != http.StatusCreated {
			t.Fatalf("provision round %d: %d (%s)", round, status, body)
		}
		live[slot] = alvc.DeploymentID(mustUnmarshal[DeploymentJSON](t, body).ID)
		batch := fmt.Appendf(nil, `{"specs":[%s,%s,%s],"workers":2}`,
			specBody(fmt.Sprintf("batch-%d", round), "tenant-x", "web", "firewall", "nat"),
			specBody(fmt.Sprintf("batch-%d", round), "tenant-y", "web", "firewall", "lb", "dpi"),
			specBody(fmt.Sprintf("batch-%d", round), "tenant-z", "web", "nat"))
		status, body = request("POST", "/v1/chains:batch", batch)
		if status != http.StatusCreated {
			t.Fatalf("batch round %d: %d (%s)", round, status, body)
		}
		for _, item := range mustUnmarshal[BatchResponse](t, body).Results {
			if status, body := request("DELETE", fmt.Sprintf("/v1/chains/%d", item.Deployment.ID), nil); status != http.StatusOK {
				t.Fatalf("delete batched %d: %d (%s)", item.Deployment.ID, status, body)
			}
		}
	}
	close(stop)
	readers.Wait()
}
