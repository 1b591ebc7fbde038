package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/cluster"
	"github.com/alvc/alvc/internal/nfv"
	"github.com/alvc/alvc/internal/placement"
	"github.com/alvc/alvc/internal/resilience"
	"github.com/alvc/alvc/internal/sdn"
	"github.com/alvc/alvc/internal/topology"
	"github.com/alvc/alvc/internal/trace"
)

// spanRec is one recorded span. Times are nanoseconds since the timed
// phase began; Trace is the ID of the request span that caused it.
type spanRec struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Trace   uint64 `json:"trace"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Allocs is the heap objects allocated during a layer call.
	Allocs uint64 `json:"allocs,omitempty"`
	// Bytes is the size of what a render call produced.
	Bytes int `json:"bytes,omitempty"`
}

// tracer is the benchmark's own span recorder. It wraps each client
// request of a traced block in a request span and, after every
// replayEvery-th iteration, calls the layers that iteration went
// through once more, directly and read-only on the live fleet, each
// call a child span. The program's own tracing is not touched: these
// are spans around the calls into each layer, taken from outside.
type tracer struct {
	t0    time.Time
	spans []spanRec

	vms      []topology.NodeID // the service's VMs, as the cluster stage sees them
	pms      []topology.NodeID // their hosts: the placement stage's electronic candidates
	cold     *sdn.Controller   // probe controller with the candidate memo off
	memo     *sdn.Controller   // probe controller with it on
	coldTopo *topology.Topology
	coldLink *topology.Link

	replays  int
	mem      runtime.MemStats
	listReq  *http.Request
	pingReq  *http.Request
	rendered bytes.Buffer
}

// serverProbeEvery: the server, telemetry and trace-store probes cost
// time proportional to every deployment ever made, so only every
// serverProbeEvery-th replay runs them.
const serverProbeEvery = 8

// standbyK is the Yen width provisioning plans standbys with
// (orch.DefaultStandbyK).
const standbyK = 4

func newTracer(f *fleet) (*tracer, error) {
	topo := f.arch.Topology()
	t := &tracer{vms: topo.VMsByService()["web"]}
	seen := make(map[topology.NodeID]bool)
	for _, vm := range t.vms {
		if host := topo.Node(vm).Host; !seen[host] {
			seen[host] = true
			t.pms = append(t.pms, host)
		}
	}
	var err error
	if t.cold, err = sdn.NewController(topo); err != nil {
		return nil, err
	}
	t.cold.SetAlternativesCache(false)
	if t.memo, err = sdn.NewController(topo); err != nil {
		return nil, err
	}
	// Cold snapshot builds run on a private copy of the topology: a
	// structural edit there costs the live fleet nothing and leaves its
	// graph_builds counter alone.
	if t.coldTopo, err = topology.Generate(f.cfg); err != nil {
		return nil, err
	}
	t.coldLink = t.coldTopo.Links()[0]
	t.listReq = httptest.NewRequest("GET", "/v1/chains?state=active", nil)
	t.pingReq = httptest.NewRequest("GET", "/healthz", nil)
	return t, nil
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a request span and returns its ID.
func (t *tracer) begin(op string) uint64 {
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, spanRec{ID: id, Trace: id, Name: "request:" + op, StartNs: t.now()})
	return id
}

func (t *tracer) end(id uint64) { t.spans[id-1].EndNs = t.now() }

// heapObjects is the count of heap objects allocated so far. It stops
// the world to flush every P's allocation cache — runtime/metrics reads
// the same counter without the flush and so misses what a short call
// allocated.
func (t *tracer) heapObjects() uint64 {
	runtime.ReadMemStats(&t.mem)
	return t.mem.Mallocs
}

// call records one layer call as a child span of parent.
func (t *tracer) call(parent uint64, name string, fn func() error) error {
	objs, start := t.heapObjects(), t.now()
	err := fn()
	end := t.now()
	t.spans = append(t.spans, spanRec{
		ID: uint64(len(t.spans) + 1), Parent: parent, Trace: t.spans[parent-1].Trace,
		Name: name, StartNs: start, EndNs: end, Allocs: t.heapObjects() - objs,
	})
	if err != nil {
		return fmt.Errorf("replay %s: %w", name, err)
	}
	return nil
}

// replay re-runs, for the chain the step just touched, the read-only
// layer calls a provision (or a repair) makes, each a child span of a
// replay span under the request's. The first failing probe ends it: the
// ledger must be as checked as the run.
func (t *tracer) replay(r *runner, st *step, request uint64) error {
	f := r.f
	s := st.Slot
	if st.Op == opStorm {
		s = st.Slots[0]
	}
	sh, topo := f.arch.Sharded(), f.arch.Topology()
	id := alvc.DeploymentID(r.slots[s].id)
	dep := sh.Deployment(id)
	if dep == nil || len(dep.Path) < 2 {
		return fmt.Errorf("replay: chain %d is gone", id)
	}
	alloc := sh.Shard(sh.ShardOf(id)).Allocator()
	allow, pool, slice := alloc.AvailableOPS(), alloc.Pool(), dep.Slice.OPSSet()
	src, dst, hosts := dep.Path[0], dep.Path[len(dep.Path)-1], dep.Placement.Hosts
	// The standby's mandatory stops, as the pipeline lists them, and the
	// first segment between two distinct machines: one Yen search.
	stops := []topology.NodeID{src, topo.Node(src).Host}
	stops = append(stops, hosts...)
	stops = append(stops, topo.Node(dst).Host, dst)
	a, b := stops[1], stops[2]
	for i := 2; a == b && i+1 < len(stops); i++ {
		a, b = stops[i], stops[i+1]
	}

	parent := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, spanRec{ID: parent, Parent: request, Trace: request, Name: "replay", StartNs: t.now()})
	defer func() { t.end(parent) }()
	// Steps run in order until one fails.
	var err error
	call := func(name string, fn func() error) {
		if err == nil {
			err = t.call(parent, name, fn)
		}
	}
	served := func(req *http.Request) func() error {
		return func() error {
			rec := httptest.NewRecorder()
			f.srv.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("status %d", rec.Code)
			}
			return nil
		}
	}

	var al cluster.AL
	call("cluster.build", func() (err error) {
		al, err = cluster.PaperBuilder{}.Build(topo, t.vms, allow)
		return err
	})
	call("topology.bipartite", func() error {
		_, err := topo.ToROPSBipartite(al.ToRs, allow)
		return err
	})
	call("placement.place", func() error {
		profiles, err := nfv.ResolveChain(dep.Spec.NFNames())
		if err != nil {
			return err
		}
		var optical []topology.NodeID
		for _, o := range dep.Slice.OPSs {
			if n := topo.Node(o); n.Optoelectronic && !n.Down {
				optical = append(optical, o)
			}
		}
		ctx, err := placement.NewContext(topo, sh.Shard(0).Manager().Ledger(), optical, t.pms, profiles, placement.AccountPerVNF)
		if err != nil {
			return err
		}
		_, err = placement.OpticalFirst{}.Place(ctx)
		return err
	})
	call("sdn.compute_path", func() error {
		// Slice-confined first, the whole fabric second: the path stage's order.
		_, err := t.cold.ComputePathVia(src, hosts, dst, slice)
		if err != nil {
			_, err = t.cold.ComputePathVia(src, hosts, dst, nil)
		}
		return err
	})
	call("sdn.yen_cold", func() error {
		_, err := t.cold.PathAlternatives(a, b, standbyK, pool)
		return err
	})
	if err == nil {
		_, err = t.memo.PathAlternatives(a, b, standbyK, pool) // fills the memo; the next call hits it
	}
	call("sdn.yen_memo_hit", func() error {
		_, err := t.memo.PathAlternatives(a, b, standbyK, pool)
		return err
	})
	call("resilience.plan_standby", func() error {
		_, err := resilience.PlanStandby(t.cold, topo, dep.Path, stops, slice, standbyK, pool)
		return err
	})
	if err == nil {
		// A structural edit that changes nothing: the next snapshot is cold.
		err = t.coldTopo.SetLinkLatency(t.coldLink.ID, t.coldLink.LatencyMicros)
	}
	call("topology.snapshot_cold_build", func() error {
		t.coldTopo.RoutingSnapshot(topology.GraphOptions{IncludeVMs: true})
		return nil
	})

	t.replays++
	if t.replays%serverProbeEvery != 1 {
		return err
	}
	call("server.list_handler", served(t.listReq))
	call("server.ping_handler", served(t.pingReq))
	call("server.ping_socket", func() error {
		_, err := f.do("GET", "/healthz", nil, nil)
		return err
	})
	call("telemetry.render", func() error {
		t.rendered.Reset()
		return f.srv.Telemetry().Registry().WritePrometheus(&t.rendered)
	})
	if err == nil {
		t.spans[len(t.spans)-1].Bytes = t.rendered.Len()
	}
	call("trace.query", func() error {
		f.arch.TraceStore().Traces(trace.Query{})
		return nil
	})
	return err
}

// spanStats is the median duration, allocation count and size of the
// spans of one name.
type spanStats struct {
	ns, allocs, bytes float64
}

func (t *tracer) stats() map[string]spanStats {
	type acc struct{ ns, allocs, bytes []float64 }
	by := make(map[string]*acc)
	for i := range t.spans {
		sp := &t.spans[i]
		a := by[sp.Name]
		if a == nil {
			a = &acc{}
			by[sp.Name] = a
		}
		a.ns = append(a.ns, float64(sp.EndNs-sp.StartNs))
		a.allocs = append(a.allocs, float64(sp.Allocs))
		a.bytes = append(a.bytes, float64(sp.Bytes))
	}
	out := make(map[string]spanStats, len(by))
	for name, a := range by {
		out[name] = spanStats{
			ns:     quantile(a.ns, 0.5),
			allocs: quantile(a.allocs, 0.5),
			bytes:  quantile(a.bytes, 0.5),
		}
	}
	return out
}

// layerMetrics are the per-layer metrics read from the spans: medians
// per call.
func (t *tracer) layerMetrics() map[string]float64 {
	st := t.stats()
	return map[string]float64{
		"topology.bipartite_ns":           st["topology.bipartite"].ns,
		"topology.bipartite_allocs":       st["topology.bipartite"].allocs,
		"cluster.build_ns":                st["cluster.build"].ns,
		"cluster.build_allocs":            st["cluster.build"].allocs,
		"cluster.cover_self_ns":           st["cluster.build"].ns - st["topology.bipartite"].ns,
		"placement.place_ns":              st["placement.place"].ns,
		"sdn.compute_path_ns":             st["sdn.compute_path"].ns,
		"sdn.yen_cold_ns":                 st["sdn.yen_cold"].ns,
		"sdn.yen_cold_allocs":             st["sdn.yen_cold"].allocs,
		"sdn.yen_memo_hit_ns":             st["sdn.yen_memo_hit"].ns,
		"resilience.plan_standby_ns":      st["resilience.plan_standby"].ns,
		"topology.snapshot_cold_build_ns": st["topology.snapshot_cold_build"].ns,
		"server.list_handler_ns":          st["server.list_handler"].ns,
		"server.socket_overhead_ns":       st["server.ping_socket"].ns - st["server.ping_handler"].ns,
		"telemetry.render_ns":             st["telemetry.render"].ns,
		"telemetry.render_bytes":          st["telemetry.render"].bytes,
		"trace.query_ns":                  st["trace.query"].ns,
	}
}

// write stores the spans as <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(struct {
		Workload string    `json:"workload"`
		Spans    []spanRec `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
