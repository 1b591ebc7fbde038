package main

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/server"
	"github.com/alvc/alvc/internal/topology"
)

// slot is what the runner remembers about the chain a script slot
// currently holds: enough to address it and its slice over HTTP.
type slot struct {
	id       int
	sliceOPS topology.NodeID
}

// timing is one measured duration, the kernel that calibrates it and
// the position, among the run's samples of that kernel, of the sample
// taken next after it; that position is what the duration is later
// calibrated by.
type timing struct {
	ns   int64
	kern int32
	kind kernelKind
}

// samples holds the timed phase's measurements. Every slice is sized
// before the phase starts so recording never allocates.
type samples struct {
	// steps[i] times script step i; ns stays -1 when the step failed.
	steps []timing
	// iterBad marks iterations with a failed step; they yield no sample.
	iterBad []bool
	// primary and secondary are the workload's two named request
	// latencies (see workload.primary / workload.secondary).
	primary, secondary []timing
	// The traced run splits the operation steps into alternating traced
	// and untraced blocks; these sums compare the two.
	tracedNs, untracedNs   int64
	tracedOps, untracedOps int
}

func newSamples(steps []step) *samples {
	iters := 0
	for i := range steps {
		iters = max(iters, steps[i].Iter+1)
	}
	return &samples{
		steps:     make([]timing, len(steps)),
		iterBad:   make([]bool, iters),
		primary:   make([]timing, 0, len(steps)),
		secondary: make([]timing, 0, len(steps)),
	}
}

// runner executes script steps against one fleet.
type runner struct {
	f     *fleet
	w     *workload
	slots []slot
	// resident is how many chains the fleet keeps throughout.
	resident int
	kern     *refKernel
	// s is nil during set-up: steps run, nothing is recorded.
	s *samples
	// tr is nil in an untraced run.
	tr *tracer

	attempted, failed int
	// stepNs sums the latencies of the steps run so far: with the boot it
	// is what a set-up cost the program, the harness's own time left out.
	stepNs int64
	// opSteps counts the steps that completed operations; the traced
	// run's blocks and replays are paced by it.
	opSteps int
	// errs keeps the first few failures for the report.
	errs []string
}

// tracing reports whether the step about to run falls in a traced
// block: a traced run alternates blocks of traceBlock operation steps,
// traced and untraced, so the two are compared under the same load.
func (r *runner) tracing() bool {
	return r.tr != nil && r.s != nil && (r.opSteps/r.w.traceBlock)%2 == 0
}

func (r *runner) fail(st *step, err error) {
	r.failed += max(st.Ops, 1)
	if r.s != nil {
		r.s.iterBad[st.Iter] = true
	}
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf("%s iter %d: %v", st.Op, st.Iter, err))
	}
}

// timed stamps a duration of an operation with its kernel and the
// sample of it that comes next.
func (r *runner) timed(ns int64, op string) timing {
	kind := kernelOf(op)
	return timing{ns: ns, kern: int32(len(r.kern.samples[kind])), kind: kind}
}

// exec runs the steps in order. After every step the kernel that
// calibrates it is sampled once, so the samples interleave with the
// work they calibrate.
func (r *runner) exec(steps []step) {
	for i := range steps {
		st := &steps[i]
		r.attempted += st.Ops
		traced := r.tracing()
		var span uint64
		if traced {
			span = r.tr.begin(st.Op)
		}
		ns, err := r.step(st)
		if traced {
			r.tr.end(span)
		}
		if r.s != nil {
			r.s.steps[i] = r.timed(-1, st.Op)
		}
		if err != nil {
			r.fail(st, err)
		} else {
			r.stepNs += ns
			if r.s != nil {
				r.s.steps[i].ns = ns
				switch st.Op {
				case r.w.primary:
					r.s.primary = append(r.s.primary, r.timed(ns, st.Op))
				case r.w.secondary:
					r.s.secondary = append(r.s.secondary, r.timed(ns, st.Op))
				}
			}
		}
		if err == nil && st.Verify {
			if err := r.verifyProvision(st); err != nil {
				r.fail(st, err)
			}
		}
		if st.Ops > 0 && r.s != nil && r.tr != nil {
			if traced {
				if r.opSteps%r.w.replayEvery == 0 {
					start := time.Now()
					if err := r.tr.replay(r, st, span); err != nil {
						r.fail(st, err)
					}
					ns += int64(time.Since(start))
				}
				r.s.tracedNs += ns
				r.s.tracedOps += st.Ops
			} else {
				r.s.untracedNs += ns
				r.s.untracedOps += st.Ops
			}
		}
		if st.Ops > 0 {
			r.opSteps++
		}
		r.kern.sample(kernelOf(st.Op))
	}
}

// step performs one script step and returns the time its requests took.
func (r *runner) step(st *step) (int64, error) {
	f := r.f
	chainPath := func(suffix string) string {
		return "/v1/chains/" + strconv.Itoa(r.slots[st.Slot].id) + suffix
	}
	start := time.Now()
	switch st.Op {
	case opProvision:
		var dep server.DeploymentJSON
		status, err := f.do("POST", "/v1/chains", st.Specs[0], &dep)
		ns := int64(time.Since(start))
		if err != nil {
			return 0, err
		}
		if status != http.StatusCreated {
			return 0, fmt.Errorf("provision: status %d, want 201", status)
		}
		return ns, r.adopt(st.Slot, &dep)
	case opBatch:
		var resp server.BatchResponse
		status, err := f.do("POST", "/v1/chains:batch", server.BatchRequest{Specs: st.Specs, Workers: batchWorkers}, &resp)
		ns := int64(time.Since(start))
		if err != nil {
			return 0, err
		}
		if status != http.StatusCreated || resp.Provisioned != len(st.Specs) {
			return 0, fmt.Errorf("batch: status %d, %d of %d provisioned", status, resp.Provisioned, len(st.Specs))
		}
		for _, item := range resp.Results {
			if err := r.adopt(st.Slot+item.Index, item.Deployment); err != nil {
				return 0, err
			}
		}
		return ns, nil
	case opDelete:
		var dep server.DeploymentJSON
		_, err := f.do("DELETE", chainPath(""), nil, &dep)
		ns := int64(time.Since(start))
		if err == nil && dep.State != "deleted" {
			err = fmt.Errorf("delete: chain %d is %q", dep.ID, dep.State)
		}
		return ns, err
	case opGet:
		var dep server.DeploymentJSON
		_, err := f.do("GET", chainPath(""), nil, &dep)
		ns := int64(time.Since(start))
		if err == nil && (dep.ID != r.slots[st.Slot].id || dep.State != "active") {
			err = fmt.Errorf("get: chain %d came back as %d %q", r.slots[st.Slot].id, dep.ID, dep.State)
		}
		return ns, err
	case opList:
		var deps []server.DeploymentJSON
		_, err := f.do("GET", "/v1/chains", nil, &deps)
		ns := int64(time.Since(start))
		if err == nil && len(deps) < r.resident {
			err = fmt.Errorf("list: %d chains, want at least %d", len(deps), r.resident)
		}
		return ns, err
	case opMetrics:
		_, err := f.do("GET", "/metrics", nil, nil)
		ns := int64(time.Since(start))
		if err == nil && f.body.Len() == 0 {
			err = fmt.Errorf("metrics: empty exposition")
		}
		return ns, err
	case opTraces:
		var sums []server.TraceSummaryJSON
		_, err := f.do("GET", "/v1/traces", nil, &sums)
		return int64(time.Since(start)), err
	case opImpact:
		node := r.slots[st.Slot].sliceOPS
		var imp server.ImpactResponse
		_, err := f.do("GET", "/v1/nodes/"+strconv.Itoa(int(node))+"/impact", nil, &imp)
		ns := int64(time.Since(start))
		if err == nil && imp.Count < 1 {
			err = fmt.Errorf("impact: slice OPS %d of chain %d serves no chain", node, r.slots[st.Slot].id)
		}
		return ns, err
	case opModify:
		var dep server.DeploymentJSON
		_, err := f.do("POST", chainPath("/modify"), server.ModifyRequest{BandwidthGbps: float64(st.Arg)}, &dep)
		ns := int64(time.Since(start))
		if err == nil && dep.BandwidthGbps != float64(st.Arg) {
			err = fmt.Errorf("modify: bandwidth %v, want %d", dep.BandwidthGbps, st.Arg)
		}
		return ns, err
	case opScale:
		_, err := f.do("POST", chainPath("/scale"), server.ScaleRequest{NFIndex: 0, Replicas: st.Arg}, nil)
		return int64(time.Since(start)), err
	case opUpgrade:
		_, err := f.do("POST", chainPath("/upgrade"), nil, nil)
		return int64(time.Since(start)), err
	case opMove:
		to := f.moveHosts[st.Arg]
		var dep server.DeploymentJSON
		_, err := f.do("POST", chainPath("/move"), server.MoveRequest{NFIndex: 0, To: to}, &dep)
		ns := int64(time.Since(start))
		if err == nil && (len(dep.Hosts) == 0 || dep.Hosts[0] != to) {
			err = fmt.Errorf("move: NF 0 of chain %d on %v, want %d", dep.ID, dep.Hosts, to)
		}
		return ns, err
	case opStorm:
		return r.storm(st)
	}
	return 0, fmt.Errorf("unknown op %q", st.Op)
}

// adopt checks a freshly provisioned chain and files it under its slot.
func (r *runner) adopt(i int, dep *server.DeploymentJSON) error {
	if dep == nil {
		return fmt.Errorf("provision: no deployment in the response")
	}
	if dep.State != "active" || len(dep.Path) < 2 || len(dep.SliceOPSs) == 0 {
		return fmt.Errorf("provision: chain %d is %q with path %v, slice %v", dep.ID, dep.State, dep.Path, dep.SliceOPSs)
	}
	r.slots[i] = slot{id: dep.ID, sliceOPS: dep.SliceOPSs[0]}
	return nil
}

// verifyProvision is the untimed read-back: the chain GETs as active
// with a path, and its flow rules are installed.
func (r *runner) verifyProvision(st *step) error {
	if _, err := r.step(&step{Op: opGet, Slot: st.Slot}); err != nil {
		return err
	}
	id := alvc.DeploymentID(r.slots[st.Slot].id)
	sh := r.f.arch.Sharded()
	dep := sh.Deployment(id)
	if len(sh.ControllerOf(id).RulesForFlow(dep.FlowKey())) == 0 {
		return fmt.Errorf("provision: chain %d has no flow rules", id)
	}
	return nil
}

// transitLinks returns the links of a path between two transit nodes
// (ToR or OPS): the ones a tray cut can take out without killing an
// endpoint.
func transitLinks(topo *topology.Topology, path []topology.NodeID) []topology.LinkID {
	transit := func(id topology.NodeID) bool {
		n := topo.Node(id)
		return n != nil && (n.Kind == topology.KindToR || n.Kind == topology.KindOPS)
	}
	var out []topology.LinkID
	for i := 0; i+1 < len(path); i++ {
		if transit(path[i]) && transit(path[i+1]) {
			if l := topo.LinkBetween(path[i], path[i+1]); l != nil {
				out = append(out, l.ID)
			}
		}
	}
	return out
}

// storm is one failure-storm round. The tray takes, from each of its
// chains, the primary path's entry link and the standby's exit link, so
// the swap target dies with the primary and every victim needs a real
// re-path; the standby's entry and the primary's exit survive as that
// route. The links go in one by one over HTTP (202 each), the
// debouncer is flushed in process — the server has no flush verb — and
// the optimizer drained; then every link recovers and a second drain
// refreshes the standbys.
func (r *runner) storm(st *step) (int64, error) {
	f := r.f
	topo := f.arch.Topology()
	var links []topology.LinkID
	claimed := make(map[topology.LinkID]bool)
	victims := make(map[alvc.DeploymentID]int, len(st.Slots))
	for _, s := range st.Slots {
		id := alvc.DeploymentID(r.slots[s].id)
		dep := f.arch.Deployment(id)
		if dep == nil || dep.Standby == nil {
			return 0, fmt.Errorf("storm: chain %d entered the round unprotected", id)
		}
		prim, stby := transitLinks(topo, dep.Path), transitLinks(topo, dep.Standby.Path)
		if len(prim) < 2 || len(stby) < 2 {
			return 0, fmt.Errorf("storm: chain %d has no two transit links on both paths", id)
		}
		// Standbys leave the slice and may share a spare OPS, so two
		// victims can name the same link; the tray holds it once.
		for _, l := range []topology.LinkID{prim[0], stby[len(stby)-1]} {
			if !claimed[l] {
				claimed[l] = true
				links = append(links, l)
			}
		}
		victims[id] = 0
	}
	builds := topo.GraphBuilds()

	start := time.Now()
	for _, l := range links {
		status, err := f.do("POST", "/v1/failures/links/"+strconv.Itoa(int(l)), nil, nil)
		if err != nil {
			return 0, err
		}
		if status != http.StatusAccepted {
			return 0, fmt.Errorf("storm: link report answered %d, want 202", status)
		}
	}
	reports, err := f.arch.FlushFailures()
	restored := time.Now()
	if err != nil {
		return 0, fmt.Errorf("storm: flush: %w", err)
	}
	if _, err := f.do("POST", "/v1/optimizer:run", nil, nil); err != nil {
		return 0, err
	}
	drained := time.Now()
	for _, l := range links {
		if _, err := f.do("DELETE", "/v1/failures/links/"+strconv.Itoa(int(l)), nil, nil); err != nil {
			return 0, err
		}
	}
	if _, err := f.do("POST", "/v1/optimizer:run", nil, nil); err != nil {
		return 0, err
	}
	total := int64(time.Since(start))

	for _, rep := range reports {
		if !rep.Succeeded() {
			return 0, fmt.Errorf("storm: chain %d repair %q failed: %v", rep.ID, rep.Action, rep.Err)
		}
		if _, ok := victims[rep.ID]; ok {
			victims[rep.ID]++
		}
	}
	for id, n := range victims {
		if n != 1 {
			return 0, fmt.Errorf("storm: victim %d repaired %d times, want exactly once", id, n)
		}
		if dep := f.arch.Deployment(id); dep.State.String() != "active" || dep.Standby == nil {
			return 0, fmt.Errorf("storm: victim %d left the round %s, standby %v", id, dep.State, dep.Standby != nil)
		}
	}
	if d := topo.GraphBuilds() - builds; d != 0 {
		return 0, fmt.Errorf("storm: %d routing-graph rebuilds, want 0", d)
	}
	if r.s != nil {
		r.s.primary = append(r.s.primary, r.timed(int64(restored.Sub(start)), opStorm))
		r.s.secondary = append(r.s.secondary, r.timed(int64(drained.Sub(restored)), opStorm))
	}
	return total, nil
}
