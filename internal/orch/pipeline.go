package orch

import (
	"context"
	"fmt"
	"time"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/cluster"
	"github.com/alvc/alvc/internal/nfv"
	"github.com/alvc/alvc/internal/optical"
	"github.com/alvc/alvc/internal/placement"
	"github.com/alvc/alvc/internal/resilience"
	"github.com/alvc/alvc/internal/sdn"
	"github.com/alvc/alvc/internal/spare"
	"github.com/alvc/alvc/internal/topology"
	"github.com/alvc/alvc/internal/trace"
)

// stageID names one stage of the provisioning pipeline. Stages run in
// declaration order; each registers an undo for what it created, so a
// failed run unwinds only its own side effects. Repair re-enters the
// pipeline at the first stage a failure invalidated (runFrom) instead
// of always rebuilding from stageCluster.
type stageID int

// Pipeline stages, in execution order.
const (
	// stageCluster builds the virtual cluster: one VC per NFC (§IV-C),
	// its AL disjoint from all other chains' ALs.
	stageCluster stageID = iota
	// stageSlice allocates the optical slice — the AL itself (§IV-C).
	stageSlice
	// stagePlacement decides the hosting domain of every VNF.
	stagePlacement
	// stageInstantiate creates and activates the VNF instances.
	stageInstantiate
	// stagePath computes the route src VM → VNF hosts → dst VM,
	// preferring a slice-confined route.
	stagePath
	// stageStandby precomputes a disjoint alternate route (best-effort;
	// never fails the build), so a later data-path failure is repaired
	// by a pure rule swap with no shortest-path run.
	stageStandby
	// stageWDM assigns a wavelength on the path's optical segments
	// (skipped when WDM is disabled). On re-entry the move is
	// make-before-break: the flow holds a second wavelength until the
	// new rules are live (two-λ grace).
	stageWDM
	// stageRules swaps the flow rules along the path in make-before-
	// break order.
	stageRules
	numStages
)

// stages holds each stage's name and body, in execution order.
var stages = [numStages]struct {
	name string
	run  func(*pipeline) error
}{
	{"cluster", (*pipeline).runCluster},
	{"slice", (*pipeline).runSlice},
	{"placement", (*pipeline).runPlacement},
	{"instantiate", (*pipeline).runInstantiate},
	{"path", (*pipeline).runPath},
	{"standby", (*pipeline).runStandby},
	{"wdm", (*pipeline).runWDM},
	{"rules", (*pipeline).runRules},
}

// String returns the stage name.
func (s stageID) String() string { return stages[s].name }

// pipeline carries one chain build (or partial rebuild) through the
// staged provisioning sequence. A fresh pipeline (newPipeline) starts
// empty and runs every stage; a seeded pipeline (pipelineFrom) starts
// from a live deployment's surviving state so repair can re-run only
// the invalidated suffix. Callers must hold topoMu (read side).
// Pipelines are pooled with their scratch: whoever gets one releases it
// once the outcome is committed or rolled back.
type pipeline struct {
	o       *shard
	spec    chain.Spec
	flowKey string

	// vms are the live VMs offering the spec's service (full builds
	// only; seeded pipelines keep the deployment's endpoints instead).
	vms      []topology.NodeID
	profiles []nfv.NFProfile
	src, dst topology.NodeID

	vc        *cluster.VC
	slice     *optical.Slice
	place     placement.Result
	instances []nfv.InstanceID
	path      []topology.NodeID
	// primaryLinks are path's links when the record holds them (a seeded
	// pipeline whose path stage has not re-run); nil has the standby
	// planner enumerate them.
	primaryLinks []topology.LinkID
	confined     bool
	lambda       int
	// conversions is what the installed path pays (sdn.Excursions).
	conversions int
	standby     *resilience.Standby
	// drifted is the deployment's Drifted flag as the commit will leave it.
	drifted bool

	// reentry marks a pipeline seeded from a live deployment: its
	// connectivity stages must swap the previous generation of
	// wavelength and rules instead of plainly installing.
	reentry bool
	// graced marks an in-flight two-λ wavelength move; the old channel
	// is released by commitWDM after the caller commits the pipeline
	// outcome, or restored by the undo chain on rollback.
	graced bool

	// tr/sctx, when set (attachTrace), make runFrom record one child
	// span per executed stage under sctx — the enclosing provision,
	// repair or delete span.
	tr   *trace.Tracer
	sctx trace.SpanContext

	undo []undoEntry
	// scratch is the stages' working space, kept with the pooled
	// pipeline from one build to the next: the commit copies what the
	// record keeps of it (recordLocked, commitLocked).
	scratch pipelineScratch
}

// pipelineScratch holds what a build works in: the placement's candidate
// hosts, capacity tables and result, the standby's stops, and the lists
// the stages hand the commit — the instances, the path and its links,
// and the hosts and domains a migration edits (ownPlacement).
type pipelineScratch struct {
	opticals, pms, stops, path, hosts []topology.NodeID
	domains                           []topology.Domain
	instances                         []nfv.InstanceID
	links                             []topology.LinkID
	place                             placement.Scratch
}

// maxScratchLen bounds the lists a pooled pipeline keeps.
const maxScratchLen = 1 << 10

// pipelines pools pipelines with their scratch (getPipeline, release).
var pipelines spare.Pool[pipeline]

// getPipeline returns an empty pipeline for o.
func (o *shard) getPipeline() *pipeline {
	p := pipelines.Get()
	p.o, p.lambda = o, -1
	return p
}

// release resets the pipeline and returns it to the pool. The record
// keeps copies of the scratch lists (commitLocked), and every other
// field it took was built for it alone; the pipeline only drops its
// references to them. The caller must not touch p again.
func (p *pipeline) release() {
	sc := &p.scratch
	for _, l := range []*[]topology.NodeID{&sc.opticals, &sc.pms, &sc.stops, &sc.path, &sc.hosts} {
		if cap(*l) > maxScratchLen {
			*l = nil
		}
		*l = (*l)[:0]
	}
	sc.domains, sc.instances, sc.links = sc.domains[:0], sc.instances[:0], sc.links[:0]
	clear(p.profiles)
	*p = pipeline{undo: p.undo[:0], profiles: p.profiles[:0], scratch: *sc}
	pipelines.Put(p)
}

// undoKind names what an undo entry takes back.
type undoKind uint8

const (
	undoCluster    undoKind = iota // release the VC
	undoSlice                      // release the slice
	undoInstance                   // terminate the VNF instance
	undoRetune                     // abort the two-λ wavelength move
	undoWavelength                 // release the flow's wavelength
	undoRules                      // remove the flow's rules
)

// undoEntry is one registered undo: its kind and the ID it acts on
// (the flow's undos act on the pipeline's flow key).
type undoEntry struct {
	kind undoKind
	id   int
}

// attachTrace arms the pipeline to emit stage spans under the span
// carried by ctx. Without a tracer on the orchestrator, or without a
// span in ctx (an untraced entry point), the pipeline stays span-free:
// stage spans only ever exist inside an enclosing traced operation.
func (p *pipeline) attachTrace(ctx context.Context) {
	if tr := p.o.hooks.Load().Tracer; tr != nil {
		if sc, ok := trace.FromContext(ctx); ok {
			p.tr, p.sctx = tr, sc
		}
	}
}

// newPipeline resolves the spec (live VMs, NF profiles with demand
// overrides) and returns a pipeline ready to run from stageCluster.
func (o *shard) newPipeline(spec chain.Spec, flowKey string) (*pipeline, error) {
	vms := o.topo.LiveVMs(spec.Service)
	if len(vms) == 0 {
		return nil, fmt.Errorf("no live VMs offer service %q", spec.Service)
	}
	p := o.getPipeline()
	var err error
	if p.profiles, err = appendProfiles(p.profiles, spec.NFs); err != nil {
		p.release()
		return nil, err
	}
	p.spec, p.flowKey = spec, flowKey
	p.vms, p.src, p.dst = vms, vms[0], vms[len(vms)-1]
	return p, nil
}

// appendProfiles appends to buf the catalog profile of every NF, in
// order, with the NF's demand override when it has one.
func appendProfiles(buf []nfv.NFProfile, nfs []chain.NFRef) ([]nfv.NFProfile, error) {
	for _, ref := range nfs {
		prof, err := nfv.ProfileByName(ref.Name)
		if err != nil {
			return buf, fmt.Errorf("nfv: resolve chain: %w", err)
		}
		if !ref.Demand.IsZero() {
			prof.Demand = ref.Demand
		}
		buf = append(buf, prof)
	}
	return buf, nil
}

// pipelineFrom seeds a pipeline with a deployment's surviving state
// and arms stage-span emission under the span carried by ctx, if any.
// The fields are immutable records or replaced wholesale by the stages
// that recompute them, but for the placement's hosts and domains, which
// snapshot readers share: a caller that migrates an instance works on a
// copy (ownPlacement). The caller must hold the deployment's
// exclusive-operation claim.
func (o *shard) pipelineFrom(ctx context.Context, dep *Deployment) *pipeline {
	p := o.getPipeline()
	p.spec, p.flowKey = dep.Spec, dep.FlowKey()
	p.src, p.dst = dep.Path[0], dep.Path[len(dep.Path)-1]
	p.vc, p.slice, p.place = dep.VC, dep.Slice, dep.Placement
	p.instances, p.path, p.confined = dep.Instances, dep.Path, dep.SliceConfined
	p.primaryLinks = dep.primaryLinks
	p.lambda, p.standby, p.drifted = dep.Lambda, dep.Standby, dep.Drifted
	p.reentry = true
	p.attachTrace(ctx)
	return p
}

// ownPlacement copies the seeded placement's hosts and domains into the
// scratch, so an instance migration edits the pipeline's arrays and not
// the record's.
func (p *pipeline) ownPlacement() {
	sc := &p.scratch
	sc.hosts, sc.domains = append(sc.hosts[:0], p.place.Hosts...), append(sc.domains[:0], p.place.Domains...)
	p.place.Hosts, p.place.Domains = sc.hosts, sc.domains
}

func (p *pipeline) pushUndo(kind undoKind, id int) {
	p.undo = append(p.undo, undoEntry{kind: kind, id: id})
}

// rollback unwinds, in reverse order, everything the stages run so far
// created.
func (p *pipeline) rollback() {
	for i := len(p.undo) - 1; i >= 0; i-- {
		switch u := p.undo[i]; u.kind {
		case undoCluster:
			_ = p.o.alloc.Release(cluster.VCID(u.id))
		case undoSlice:
			_ = p.o.slices.Release(optical.SliceID(u.id))
		case undoInstance:
			_ = p.o.mgr.Terminate(nfv.InstanceID(u.id))
		case undoRetune:
			_ = p.o.wdm.RetuneAbort(p.flowKey)
			p.graced = false
		case undoWavelength:
			_ = p.o.wdm.Release(p.flowKey)
		case undoRules:
			p.o.ctrl.RemoveFlow(p.flowKey)
		}
	}
	p.undo = p.undo[:0]
}

// runFrom executes the pipeline from the given stage to the end. On
// error every undo registered by this pipeline is unwound and the
// error is returned annotated with the failing stage. When a stage
// observer is installed (telemetry), each executed stage reports its
// wall-clock duration — including the failing one.
func (p *pipeline) runFrom(first stageID) error {
	obs := p.o.hooks.Load().Stage
	for s := first; s < numStages; s++ {
		var err error
		if obs != nil || p.tr != nil {
			start := time.Now()
			err = stages[s].run(p)
			d := time.Since(start)
			if obs != nil {
				obs(s.String(), d)
			}
			p.tr.RecordChild(p.sctx, s.String(), trace.KindStage, start, d, err)
		} else {
			err = stages[s].run(p)
		}
		if err != nil {
			p.rollback()
			return err
		}
	}
	return nil
}

func (p *pipeline) runCluster() error {
	vc, err := p.o.alloc.BuildVC(p.spec.Service, p.vms)
	if err != nil {
		return err
	}
	p.vc = vc
	p.pushUndo(undoCluster, int(vc.ID))
	return nil
}

func (p *pipeline) runSlice() error {
	slice, err := p.o.slices.Allocate(p.spec.Tenant, p.vc.AL.OPSs, p.spec.BandwidthGbps)
	if err != nil {
		return fmt.Errorf("slice: %w", err)
	}
	p.slice = slice
	p.pushUndo(undoSlice, int(slice.ID))
	return nil
}

func (p *pipeline) runPlacement() error {
	// Optical candidates are the AL's optoelectronic routers;
	// electronic candidates the PMs hosting the service VMs.
	sc := &p.scratch
	sc.opticals = p.o.appendOptoelectronic(sc.opticals[:0], p.vc.AL.OPSs)
	sc.pms = p.o.appendPMs(sc.pms[:0], p.vms)
	ctx, err := sc.place.Context(p.o.topo, p.o.mgr.Ledger(), sc.opticals, sc.pms, p.profiles, p.o.mode)
	if err != nil {
		return err
	}
	place, err := p.o.policy.Place(ctx)
	if err != nil {
		return fmt.Errorf("placement: %w", err)
	}
	p.place = place
	return nil
}

func (p *pipeline) runInstantiate() error {
	sc := &p.scratch
	sc.instances = sc.instances[:0]
	for i, prof := range p.profiles {
		inst, err := p.o.mgr.Create(prof.Type, p.place.Hosts[i])
		if err != nil {
			return fmt.Errorf("create VNF %d: %w", i, err)
		}
		p.pushUndo(undoInstance, int(inst.ID))
		if err := p.o.mgr.Activate(inst.ID); err != nil {
			return fmt.Errorf("activate VNF %d: %w", i, err)
		}
		sc.instances = append(sc.instances, inst.ID)
	}
	p.instances = sc.instances
	return nil
}

// runPath routes the chain in the scratch list.
func (p *pipeline) runPath() error {
	p.confined = true
	path, err := p.o.ctrl.AppendPathVia(p.scratch.path[:0], p.src, p.place.Hosts, p.dst, p.slice.OPSSet())
	if err != nil {
		p.confined = false
		path, err = p.o.ctrl.AppendPathVia(path, p.src, p.place.Hosts, p.dst, nil)
	}
	p.scratch.path = path
	if err != nil {
		return fmt.Errorf("path: %w", err)
	}
	p.path, p.primaryLinks = path, nil
	return nil
}

// planStandby plans the chain's alternate route
// (resilience.PlanStandbyWithin — one avoiding search per segment, off
// the primary and the failure domain's risk groups srlgs, nil outside a
// storm group) and stores it on the pipeline. The error reports why no
// standby exists (planning disabled counts as no error); callers decide
// whether that is fatal.
//
// A sharded orchestrator plans protection inside its own OPS partition:
// the slice came from the shard's pool, so the standby staying there
// keeps repairs shard-local. When the pool cannot protect this chain —
// no route at all, or none disjoint from the primary (e.g. an NF was
// moved onto an out-of-pool host) — the whole fabric is tried too and
// the better plan kept: protection beats partition purity. The retry is
// counted here, for every plan, so operators can see when partition
// purity lost; fellBack reports it to the caller.
func (p *pipeline) planStandby(srlgs []int) (fellBack bool, err error) {
	p.standby = nil
	if p.o.noStandby {
		return false, nil
	}
	p.scratch.stops = p.appendStandbyStops(p.scratch.stops[:0])
	primary := resilience.Primary{Path: p.path, Links: p.primaryLinks, Stops: p.scratch.stops, Slice: p.slice.OPSs}
	p.standby, fellBack, err = resilience.PlanStandbyWithin(p.o.ctrl, p.o.topo, primary, p.o.alloc.Pool(), true, srlgs)
	if fellBack {
		p.o.standbyFallbacks.Add(1)
	}
	return fellBack, err
}

// appendStandbyStops appends to buf the chain's mandatory standby
// waypoints: the endpoint VMs' host PMs are waypoints of any route (a VM
// is reachable only through its host), so they join the VNF hosts as
// stops — otherwise no standby could ever count as disjoint.
func (p *pipeline) appendStandbyStops(buf []topology.NodeID) []topology.NodeID {
	src, dst := p.path[0], p.path[len(p.path)-1]
	buf = append(buf, src)
	if n := p.o.topo.Node(src); n != nil && n.Kind == topology.KindVM {
		buf = append(buf, n.Host)
	}
	buf = append(buf, p.place.Hosts...)
	if n := p.o.topo.Node(dst); n != nil && n.Kind == topology.KindVM {
		buf = append(buf, n.Host)
	}
	return append(buf, dst)
}

// runStandby is planStandby as a pipeline stage: best-effort by
// design — a chain without a standby is merely unprotected, so
// planning failure never fails the build, and the stage registers no
// undo (the record is pure data).
//
// With a background optimizer attached, only a provision plans its
// standby inline: repair re-runs (reentry) and rebuilds (a fresh
// pipeline that is drifted, which a provision never is) skip planning
// entirely, so the chain is reported repaired-but-unprotected and the
// optimizer's re-protect task plans off the recovery hot path. A fresh
// chain is still born protected.
func (p *pipeline) runStandby() error {
	if p.o.deferReprotect && (p.reentry || p.drifted) {
		p.standby = nil
		return nil
	}
	_, _ = p.planStandby(nil)
	return nil
}

func (p *pipeline) runWDM() error {
	p.lambda = -1
	if p.o.wdm == nil {
		return nil
	}
	links, err := optical.OpticalSegmentLinks(p.o.topo, p.path)
	if err != nil {
		return fmt.Errorf("wdm: %w", err)
	}
	// A stage re-run during repair may find the flow still holding its
	// previous wavelength. Prefer a make-before-break move: park the old
	// channel in a grace slot (it stays lit until commitWDM) and take a
	// second wavelength on the new links. Only when no second channel is
	// free fall back to the old release-then-assign.
	if p.reentry {
		if _, ok := p.o.wdm.AssignmentOf(p.flowKey); ok {
			if len(links) > 0 {
				if lambda, err := p.o.wdm.RetuneBegin(p.flowKey, links); err == nil {
					p.lambda = lambda
					p.graced = true
					p.pushUndo(undoRetune, 0)
					return nil
				}
			}
			if err := p.o.wdm.Release(p.flowKey); err != nil {
				return fmt.Errorf("wdm: %w", err)
			}
		}
	}
	if len(links) == 0 {
		return nil
	}
	lambda, err := p.o.wdm.AssignPath(p.flowKey, links)
	if err != nil {
		return fmt.Errorf("wdm: %w", err)
	}
	p.lambda = lambda
	p.pushUndo(undoWavelength, 0)
	return nil
}

// commitWDM ends the two-λ grace window: once the caller has committed
// the pipeline outcome (new rules live, deployment record swapped), the
// previous-generation wavelength is released. Must be called after a
// successful re-entrant run; a no-op otherwise.
func (p *pipeline) commitWDM() {
	if !p.graced {
		return
	}
	_ = p.o.wdm.RetuneCommit(p.flowKey)
	p.graced = false
}

func (p *pipeline) runRules() error {
	// Make-before-break: a repair re-run writes the new generation of
	// rules before the previous generation disappears, over the previous
	// one's block when the path's length is unchanged. A fresh build has
	// no previous generation, which costs Reroute one map miss.
	m := sdn.Match{FlowKey: p.flowKey, Src: p.src, Dst: p.dst}
	oe, eo, err := p.o.ctrl.Reroute(m, p.path, 100)
	if err != nil {
		return fmt.Errorf("install: %w", err)
	}
	p.conversions = sdn.Excursions(oe, eo)
	p.pushUndo(undoRules, 0)
	return nil
}

// recordLocked makes the record of the chain the pipeline provisioned,
// with ID id, and files it in the reverse indexes: one allocation, the
// record and its lists in a block, when they fit one (newRecord). The
// caller must hold o.mu.
func (p *pipeline) recordLocked(id DeploymentID) *Deployment {
	d := Deployment{ID: id, Spec: p.spec, State: StateActive, Version: 1, flowKey: p.flowKey}
	p.setFields(&d)
	sc := &p.scratch
	// The path was just computed: its hops are adjacent.
	sc.links, _ = p.o.topo.AppendPathLinks(sc.links[:0], d.Path)
	d.primaryLinks = sc.links
	var nodes [64]topology.NodeID // a footprint is a few dozen entries: built on the stack
	var links [64]topology.LinkID
	fn, fl := d.appendFootprint(nodes[:0]), d.appendLinkFootprint(links[:0], d.primaryLinks)
	dep := newRecord(&d, len(fn), len(fl))
	p.o.retargetLocked(dep, fn, fl)
	return dep
}

// commitLocked copies the pipeline's outcome onto the live record and
// moves the reverse-index entries from the old footprint to the new one,
// atomically with the fields. A list a stage re-made gets an array of
// its own, the record's block keeping the one it replaces for the
// snapshots that share it; the rest stay the record's. The caller must
// hold o.mu (and the deployment's exclusive claim).
func (p *pipeline) commitLocked(dep *Deployment) {
	old := *dep
	p.setFields(dep)
	dep.Instances, dep.Path = kept(dep.Instances, old.Instances), kept(dep.Path, old.Path)
	dep.Placement.Hosts = kept(dep.Placement.Hosts, old.Placement.Hosts)
	dep.Placement.Domains = kept(dep.Placement.Domains, old.Placement.Domains)
	p.o.indexLocked(dep)
}

// setFields copies the pipeline's outcome onto d, its lists as the
// pipeline holds them.
func (p *pipeline) setFields(d *Deployment) {
	d.VC, d.Slice, d.Instances, d.Placement, d.Path = p.vc, p.slice, p.instances, p.place, p.path
	d.SliceConfined, d.Lambda, d.Standby, d.Drifted = p.confined, p.lambda, p.standby, p.drifted
	d.Conversions = p.conversions
	d.EnergyJoules = p.o.costModel.TotalEnergy(p.conversions, d.Spec.FlowBytes)
}

// kept is list as the record keeps it: old itself when list is old, a
// clipped copy when a stage re-made it.
func kept[T any](list, old []T) []T {
	if len(list) == len(old) && (len(list) == 0 || &list[0] == &old[0]) {
		return old
	}
	return resilience.CopyInto(nil, list)
}
