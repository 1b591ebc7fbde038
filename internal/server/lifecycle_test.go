package server

// The lifecycle write plane — provision, batch provision, delete — on a
// booted fleet: what each verb allocates through the full middleware.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// bodyWriter is a reusable http.ResponseWriter that keeps the body in a
// buffer with room for it, so an allocation count is the handler's.
type bodyWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *bodyWriter) Header() http.Header  { return w.h }
func (w *bodyWriter) WriteHeader(code int) { w.status = code }
func (w *bodyWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(p)
}

// replayer serves one request with a fixed body through the full
// middleware into w, as often as asked, without allocating a request of
// its own.
type replayer struct {
	srv  *Server
	req  *http.Request
	body bytes.Reader
	data []byte
	w    *bodyWriter
}

func newReplayer(srv *Server, method, target string, body []byte, w *bodyWriter) *replayer {
	return &replayer{srv: srv, req: httptest.NewRequest(method, target, nil), data: body, w: w}
}

// newBodyWriter returns a bodyWriter with room for any answer here.
func newBodyWriter() *bodyWriter {
	w := &bodyWriter{h: make(http.Header)}
	w.body.Grow(1 << 16)
	return w
}

// serve sends the request once and holds the answer to status.
func (r *replayer) serve(tb testing.TB, status int) {
	r.body.Reset(r.data)
	r.req.Body = readCloser{&r.body}
	r.req.ContentLength = int64(len(r.data))
	clear(r.w.h)
	r.w.status = 0
	r.w.body.Reset()
	r.srv.Handler().ServeHTTP(r.w, r.req)
	if r.w.status != status {
		tb.Fatalf("%s %s: status %d (%s), want %d", r.req.Method, r.req.URL, r.w.status, r.w.body.Bytes(), status)
	}
}

type readCloser struct{ *bytes.Reader }

func (readCloser) Close() error { return nil }

// mallocs counts the heap allocations f makes, with one P so no other
// goroutine's allocations interleave.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestLifecyclePlaneAllocationCeilings counts, through the full
// middleware on a 100-chain fleet, what a provision of a 2-NF chain, a
// batch of 25 such chains and a delete allocate, averaged over warm runs
// and floored as testing.AllocsPerRun does. Each ceiling is the highest
// of 250 runs on a 2-vCPU box (provision 21–22, batch 451–462, median
// 454, delete 7 every run); the batch's 473 (453–473, median 458) before
// a batch ran its specs in order on its caller, 34 and 775 (753–775 over
// 600 runs, median 753) before each layer kept a provisioned chain in
// one block, the
// batch's 780 (754–780 over 192 runs, median 759) before a fan-out
// reused its pool batch, 35 and 873 before a resource one chain holds
// cost only its index slot and an emptied switch table kept its array.
// The counts before the one-pass request reader and the pooled pipeline
// scratch are in the comments.
func TestLifecyclePlaneAllocationCeilings(t *testing.T) {
	srv, _, _ := bootFleet(t, 100, 1)
	spec := func(i int) string {
		return fmt.Sprintf(`{"name":"probe-%d","tenant":"probe","service":"web","nfs":[{"name":"firewall"},{"name":"nat"}],"bandwidth_gbps":1,"flow_bytes":1048576}`, i)
	}
	specs := make([]string, 25)
	for i := range specs {
		specs[i] = spec(i)
	}
	one := newReplayer(srv, "POST", "/v1/chains", []byte(spec(0)), newBodyWriter())
	batch := newReplayer(srv, "POST", "/v1/chains:batch", []byte(`{"specs":[`+strings.Join(specs, ",")+`],"workers":2}`), newBodyWriter())
	// Every delete answers into one writer, as every provision does.
	deleteWriter := newBodyWriter()
	deleters := make(map[int]*replayer)
	deleter := func(id int) *replayer {
		if deleters[id] == nil {
			deleters[id] = newReplayer(srv, "DELETE", fmt.Sprintf("/v1/chains/%d", id), nil, deleteWriter)
		}
		return deleters[id]
	}

	const runs = 20
	var provision, del, batched uint64
	for run := -2; run < runs; run++ { // two warm-up cycles size the pools
		n := mallocs(func() { one.serve(t, http.StatusCreated) })
		var dep DeploymentJSON
		if err := json.Unmarshal(one.w.body.Bytes(), &dep); err != nil {
			t.Fatalf("provision answer %s: %v", one.w.body.Bytes(), err)
		}
		d := deleter(dep.ID)
		m := mallocs(func() { d.serve(t, http.StatusOK) })
		if run >= 0 {
			provision, del = provision+n, del+m
		}
	}
	const batches = 4
	for run := -1; run < batches; run++ {
		n := mallocs(func() { batch.serve(t, http.StatusCreated) })
		var resp BatchResponse
		if err := json.Unmarshal(batch.w.body.Bytes(), &resp); err != nil || resp.Provisioned != len(specs) {
			t.Fatalf("batch answer %s: %v", batch.w.body.Bytes(), err)
		}
		for _, item := range resp.Results {
			deleter(item.Deployment.ID).serve(t, http.StatusOK)
		}
		if run >= 0 {
			batched += n
		}
	}
	for _, verb := range []struct {
		name    string
		got     float64
		ceiling float64
	}{
		{"provision", float64(provision / runs), 22},     // 111
		{"batch of 25", float64(batched / batches), 462}, // 2 479
		{"delete", float64(del / runs), 7},               // 9
	} {
		t.Logf("%-11s %4.0f allocations a request (ceiling %.0f)", verb.name, verb.got, verb.ceiling)
		if verb.got > verb.ceiling && !raceEnabled {
			t.Errorf("%s allocates %.0f times a request, ceiling %.0f", verb.name, verb.got, verb.ceiling)
		}
	}
}
