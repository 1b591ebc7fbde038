package topology

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Topology is a mutable data-center network. It is not safe for
// concurrent mutation; the orchestration layers treat it as read-only
// after construction.
type Topology struct {
	// nodes, links and adj are dense tables indexed by ID: IDs come from
	// the nextNode/nextLink counters, so entry 0 is unused and a removed
	// VM leaves a nil entry. A lookup is a slice load, and a walk in
	// index order is a walk in ID order. adj lists a node's links in
	// ascending ID order (they are appended as they are created).
	nodes    []*Node
	links    []*Link
	adj      [][]LinkID
	live     int // non-nil entries of nodes
	nextNode NodeID
	nextLink LinkID

	// gen is the total mutation epoch (see Generation) and structGen
	// the structural one (see StructuralGeneration) — liveness
	// transitions and VM churn bump only the former, so the cached
	// routing snapshot survives failure storms and VM churn. builds counts from-scratch routing-snapshot
	// constructions (see GraphBuilds). All are accessed atomically so
	// snapshot-cache reads never race with mutators even outside the
	// orchestrator's topology lock.
	gen       uint64
	structGen uint64
	builds    uint64

	// snapHits counts warm RoutingSnapshot fetches (cache hits) and
	// livePatches counts in-place liveness overlay patches — the two
	// counters that, against builds, tell an operator whether the
	// routing fast path is actually being hit (see SnapshotHits,
	// LivenessPatches).
	snapHits    uint64
	livePatches uint64

	// snap is the epoch-keyed routing-snapshot cache: one snapshot, at
	// the structural generation it was built for. A warm fetch is one
	// atomic load; snapMu serializes what writes the slot or patches the
	// overlay — builds and liveness batches. A snapshot is immutable once
	// published, but for its liveness overlay.
	snapMu sync.Mutex
	snap   atomic.Pointer[Snapshot]
	// The overlay patches' scratch (buildSnapshot, applyLiveness), under
	// snapMu.
	patchVertex map[int32]bool
	patchArcs   []int32

	// derivedMu guards the per-generation derived adjacency caches:
	// kind-filtered neighbor lists, a pure function of the topology at
	// one generation, discarded wholesale when the generation moves. They
	// exist because AL construction asks the same "OPSs of this ToR"
	// question thousands of times per provisioning batch, and each cold
	// answer walks a ToR's full uplink list.
	derivedMu  sync.Mutex
	derivedGen uint64
	kindAdj    map[kindAdjKey][]NodeID
	// opsByDegree holds OPSsOfToRByDegree's answers by ToR ID (nil where
	// none is held): each an OPSsOfToR list re-sorted, so it is refilled
	// from that cache per generation.
	opsByDegree [][]NodeID
	// liveVMs is LiveVMs' index, service → live VMs, filled once per
	// generation: VM churn and liveness transitions move the generation,
	// so nothing invalidates it by hand.
	liveVMs map[string][]NodeID

	// optDeg is the optical-mesh degree of every node, by node ID (see
	// OpticalDegrees). It counts links up or down, so it is keyed on the
	// structural generation alone and survives failure storms.
	optDeg    []int32
	optDegGen uint64

	// srlgLinks lists the links of every shared-risk group (see
	// SRLGLinks), nil when no link carries one. Group membership is a
	// structural property, so like optDeg it survives failure storms.
	srlgLinks    map[int][]LinkID
	srlgLinksGen uint64
}

// kindAdjKey keys one cached neighborsOfKind answer.
type kindAdjKey struct {
	id   NodeID
	kind NodeKind
}

// resetDerivedLocked clears the derived caches if the topology mutated
// since they were filled. Caller holds derivedMu.
func (t *Topology) resetDerivedLocked() {
	gen := t.Generation()
	if t.kindAdj == nil || t.derivedGen != gen {
		t.kindAdj = make(map[kindAdjKey][]NodeID)
		// Cleared, not remade: a liveness batch that builds no AL must not
		// pay for it.
		clear(t.opsByDegree)
		t.liveVMs = nil
		t.derivedGen = gen
	}
}

// New returns an empty topology.
func New() *Topology {
	// Entry 0 of each table stands for no ID.
	return &Topology{nodes: []*Node{nil}, links: []*Link{nil}, adj: [][]LinkID{nil}, patchVertex: make(map[int32]bool)}
}

func (t *Topology) addNode(n Node) NodeID {
	t.nextNode++
	n.ID = t.nextNode
	if n.Name == "" {
		n.Name = fmt.Sprintf("%s-%d", n.Kind, n.ID)
	}
	t.nodes = append(t.nodes, &n)
	t.adj = append(t.adj, nil)
	t.live++
	if n.Kind == KindVM {
		t.bumpGeneration() // a VM is no vertex of the routing graph
	} else {
		t.bumpStructural()
	}
	return n.ID
}

// AddPM adds a physical machine in the given rack with the given
// capacity.
func (t *Topology) AddPM(rack int, capacity Resources) NodeID {
	return t.addNode(Node{Kind: KindPhysicalMachine, Rack: rack, Capacity: capacity})
}

// AddVM adds a virtual machine hosted on pm offering the given service.
// It returns an error if pm is not a physical machine.
func (t *Topology) AddVM(pm NodeID, service string) (NodeID, error) {
	host := t.Node(pm)
	if host == nil || host.Kind != KindPhysicalMachine {
		return 0, fmt.Errorf("topology: AddVM: node %d is not a physical machine", pm)
	}
	id := t.addNode(Node{Kind: KindVM, Host: pm, Service: service, Rack: host.Rack})
	return id, nil
}

// AddToR adds a Top-of-Rack switch for the given rack.
func (t *Topology) AddToR(rack int) NodeID {
	return t.addNode(Node{Kind: KindToR, Rack: rack})
}

// AddOPS adds an optical packet switch. If optoelectronic is true the
// switch can host VNFs with the given (limited) capacity.
func (t *Topology) AddOPS(optoelectronic bool, capacity Resources) NodeID {
	if !optoelectronic {
		capacity = Resources{}
	}
	return t.addNode(Node{Kind: KindOPS, Rack: -1, Optoelectronic: optoelectronic, Capacity: capacity})
}

// AddLink connects two existing nodes. The link kind must be consistent
// with the endpoint kinds (electronic: both electronic-domain nodes;
// boundary: exactly one OPS; optical: both OPSs).
func (t *Topology) AddLink(from, to NodeID, kind LinkKind, bandwidthGbps, latencyMicros float64) (LinkID, error) {
	nf := t.Node(from)
	if nf == nil {
		return 0, fmt.Errorf("topology: AddLink: unknown node %d", from)
	}
	nt := t.Node(to)
	if nt == nil {
		return 0, fmt.Errorf("topology: AddLink: unknown node %d", to)
	}
	if from == to {
		return 0, fmt.Errorf("topology: AddLink: self link on %d", from)
	}
	opsEnds := 0
	if nf.Kind == KindOPS {
		opsEnds++
	}
	if nt.Kind == KindOPS {
		opsEnds++
	}
	switch kind {
	case LinkElectronic:
		if opsEnds != 0 {
			return 0, fmt.Errorf("topology: AddLink: electronic link %d-%d touches the optical domain", from, to)
		}
	case LinkBoundary:
		if opsEnds != 1 {
			return 0, fmt.Errorf("topology: AddLink: boundary link %d-%d must have exactly one OPS end", from, to)
		}
	case LinkOptical:
		if opsEnds != 2 {
			return 0, fmt.Errorf("topology: AddLink: optical link %d-%d must connect two OPSs", from, to)
		}
	default:
		return 0, fmt.Errorf("topology: AddLink: unknown link kind %d", kind)
	}
	t.nextLink++
	l := &Link{ID: t.nextLink, From: from, To: to, Kind: kind,
		BandwidthGbps: bandwidthGbps, LatencyMicros: latencyMicros}
	t.links = append(t.links, l)
	t.adj[from] = append(t.adj[from], l.ID)
	t.adj[to] = append(t.adj[to], l.ID)
	t.bumpStructural()
	return l.ID, nil
}

// RemoveVM deletes a VM from the topology (churn: VM departure). Only
// VMs can be removed; switches and PMs are fixed plant.
func (t *Topology) RemoveVM(vm NodeID) error {
	n := t.Node(vm)
	if n == nil || n.Kind != KindVM {
		return fmt.Errorf("topology: RemoveVM: node %d is not a VM", vm)
	}
	t.nodes[vm] = nil
	t.live--
	t.bumpGeneration()
	return nil
}

// MigrateVM moves a VM to another physical machine (churn: VM
// migration). The VM keeps its ID and service label.
func (t *Topology) MigrateVM(vm, toPM NodeID) error {
	n := t.Node(vm)
	if n == nil || n.Kind != KindVM {
		return fmt.Errorf("topology: MigrateVM: node %d is not a VM", vm)
	}
	host := t.Node(toPM)
	if host == nil || host.Kind != KindPhysicalMachine {
		return fmt.Errorf("topology: MigrateVM: node %d is not a physical machine", toPM)
	}
	n.Host = toPM
	n.Rack = host.Rack
	t.bumpGeneration()
	return nil
}

// Node returns the node with the given ID, or nil.
func (t *Topology) Node(id NodeID) *Node {
	if uint(id) < uint(len(t.nodes)) {
		return t.nodes[id]
	}
	return nil
}

// Link returns the link with the given ID, or nil.
func (t *Topology) Link(id LinkID) *Link {
	if uint(id) < uint(len(t.links)) {
		return t.links[id]
	}
	return nil
}

// Nodes returns all nodes of the given kinds (all nodes if none given),
// sorted by ID.
func (t *Topology) Nodes(kinds ...NodeKind) []*Node {
	var out []*Node
	for _, n := range t.nodes {
		if n != nil && (len(kinds) == 0 || slices.Contains(kinds, n.Kind)) {
			out = append(out, n)
		}
	}
	return out
}

// NodeIDs returns the IDs of all nodes of the given kinds, sorted.
func (t *Topology) NodeIDs(kinds ...NodeKind) []NodeID {
	ns := t.Nodes(kinds...)
	ids := make([]NodeID, len(ns))
	for i, n := range ns {
		ids[i] = n.ID
	}
	return ids
}

// Links returns all links sorted by ID.
func (t *Topology) Links() []*Link { return slices.Clone(t.links[1:]) }

// linkIDsOf returns the IDs of the links incident to id, ascending; the
// caller must not modify the slice.
func (t *Topology) linkIDsOf(id NodeID) []LinkID {
	if uint(id) < uint(len(t.adj)) {
		return t.adj[id]
	}
	return nil
}

// neighborsOfKind returns sorted adjacent live nodes of the given kind,
// reachable over live links. Answers are cached per topology generation
// because AL construction asks the same question for the same ToRs on
// every build; the returned slice is shared with the cache and must be
// treated as read-only by callers (all of them only iterate or count).
func (t *Topology) neighborsOfKind(id NodeID, kind NodeKind) []NodeID {
	t.derivedMu.Lock()
	defer t.derivedMu.Unlock()
	t.resetDerivedLocked()
	return t.neighborsOfKindLocked(id, kind)
}

// neighborsOfKindLocked is neighborsOfKind under derivedMu, the derived
// caches already reset for the current generation.
func (t *Topology) neighborsOfKindLocked(id NodeID, kind NodeKind) []NodeID {
	key := kindAdjKey{id: id, kind: kind}
	if out, ok := t.kindAdj[key]; ok {
		return out
	}
	var out []NodeID
	for _, lid := range t.linkIDsOf(id) {
		l := t.links[lid]
		if l.Down {
			continue
		}
		other := l.From
		if other == id {
			other = l.To
		}
		n := t.nodes[other]
		if n == nil || n.Kind != kind || n.Down {
			continue
		}
		out = append(out, other)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	out = out[:w]
	t.kindAdj[key] = out
	return out
}

// SetDown marks every node and link of f failed (down) or live again
// as one liveness transition: every ID is validated before anything
// mutates (an unknown one rejects the whole set), the generation bumps
// once, and every cached routing snapshot absorbs the set in one
// in-place patch — zero graph rebuilds, only the derived caches
// invalidate. Down nodes and links disappear from connectivity queries
// and routing searches. An empty set is a no-op.
func (t *Topology) SetDown(f Failures, down bool) error {
	if f.Empty() {
		return nil
	}
	for _, id := range f.nodes {
		if t.Node(id) == nil {
			return fmt.Errorf("topology: SetDown: unknown node %d", id)
		}
	}
	for _, id := range f.links {
		if t.Link(id) == nil {
			return fmt.Errorf("topology: SetDown: unknown link %d", id)
		}
	}
	for _, id := range f.nodes {
		t.nodes[id].Down = down
	}
	for _, id := range f.links {
		t.links[id].Down = down
	}
	t.bumpGeneration()
	t.applyLiveness(f, down)
	return nil
}

// SetLinkLatency updates a link's latency (e.g. re-calibrated
// measurements), invalidating cached routing snapshots.
func (t *Topology) SetLinkLatency(id LinkID, latencyMicros float64) error {
	l := t.Link(id)
	if l == nil {
		return fmt.Errorf("topology: SetLinkLatency: unknown link %d", id)
	}
	if latencyMicros < 0 {
		return fmt.Errorf("topology: SetLinkLatency: negative latency %f on link %d", latencyMicros, id)
	}
	l.LatencyMicros = latencyMicros
	t.bumpStructural()
	return nil
}

// SetLinkSRLG assigns the link's shared-risk group IDs (replacing any
// previous assignment). Groups model co-located physical risk — links
// in one cable tray or on one power feed fail together — and are
// consumed by standby planning (shared group counts as overlap) and
// failure classification (same-group links become suspect). Call at
// topology-build time; the assignment is read lock-free afterwards.
func (t *Topology) SetLinkSRLG(id LinkID, groups ...int) error {
	l := t.Link(id)
	if l == nil {
		return fmt.Errorf("topology: SetLinkSRLG: unknown link %d", id)
	}
	l.SRLG = append([]int(nil), groups...)
	t.bumpStructural()
	return nil
}

// SRLGLinks returns the links that belong to a shared-risk group, in
// ascending ID order — what fails, or is suspect, together. The index
// behind it is built once per structural generation; the caller must
// not modify the returned slice.
func (t *Topology) SRLGLinks(group int) []LinkID {
	return t.srlgIndex()[group]
}

// HasSRLGs reports whether any link carries a shared-risk group, so
// callers can skip risk-group work on topologies that model none.
func (t *Topology) HasSRLGs() bool { return len(t.srlgIndex()) > 0 }

func (t *Topology) srlgIndex() map[int][]LinkID {
	t.derivedMu.Lock()
	defer t.derivedMu.Unlock()
	if sg := t.StructuralGeneration(); t.srlgLinksGen != sg {
		var idx map[int][]LinkID
		for _, l := range t.links[1:] {
			for _, g := range l.SRLG {
				if idx == nil {
					idx = make(map[int][]LinkID)
				}
				idx[g] = append(idx[g], l.ID)
			}
		}
		t.srlgLinks, t.srlgLinksGen = idx, sg
	}
	return t.srlgLinks
}

// LinkBetween returns a live link connecting a and b, or nil. With
// parallel links the lowest link ID wins (matching LinksOf order).
// Standby planning and swap checks call this per hop, so it takes no
// lock and keeps no cache: it scans the shorter of the two adjacency
// lists — a ToR↔OPS hop reads the OPS's handful of links, never the
// ToR's hundreds of uplinks.
func (t *Topology) LinkBetween(a, b NodeID) *Link { return t.linkBetween(a, b, true) }

// AnyLinkBetween is LinkBetween without the liveness filter: the
// lowest-ID link joining a and b, up or down. Failure classification
// walks paths hop by hop asking "did the dead link sit here" after the
// link was already marked down, so it needs the dead ones too.
func (t *Topology) AnyLinkBetween(a, b NodeID) *Link { return t.linkBetween(a, b, false) }

// HopLink returns the link a route's hop from a to b crosses, as a
// route's links are counted: none (0) for the hop between a VM and its
// host, which has no Link record, else the lowest-ID link joining them,
// up or down. ok is false when a or b is unknown or no link joins them.
func (t *Topology) HopLink(a, b NodeID) (id LinkID, ok bool) {
	na, nb := t.Node(a), t.Node(b)
	switch {
	case na == nil || nb == nil:
		return 0, false
	case na.Kind == KindVM && na.Host == b || nb.Kind == KindVM && nb.Host == a:
		return 0, true
	}
	if l := t.linkBetween(a, b, false); l != nil {
		return l.ID, true
	}
	return 0, false
}

// AppendPathLinks appends to out, in order, the links a node path
// crosses (HopLink: a VM's hop to its host crosses none; a dead link is
// still reported, because the caller is usually asking whether it sat on
// the path). ok is false, and out comes back as it was, at the first hop
// HopLink cannot resolve. A nil out gets an array sized for the path.
func (t *Topology) AppendPathLinks(out []LinkID, path []NodeID) (_ []LinkID, ok bool) {
	start := len(out)
	for i := 0; i+1 < len(path); i++ {
		l, ok := t.HopLink(path[i], path[i+1])
		if !ok {
			return out[:start], false
		}
		if l == 0 {
			continue
		}
		if out == nil {
			out = make([]LinkID, 0, len(path)-1-i)
		}
		out = append(out, l)
	}
	return out, true
}

// linkBetween is the lowest-ID link joining a and b, live ones only if
// live is set. The scanned list is ascending, so the first match wins.
func (t *Topology) linkBetween(a, b NodeID, live bool) *Link {
	ids := t.linkIDsOf(a)
	if other := t.linkIDsOf(b); len(other) < len(ids) {
		ids, b = other, a
	}
	for _, lid := range ids {
		if l := t.links[lid]; (l.From == b || l.To == b) && !(live && l.Down) {
			return l
		}
	}
	return nil
}

// ToRsOfPM returns the ToR switches the physical machine is wired to.
// Racks may be multi-homed, so there can be more than one (Fig. 4 shows
// machines reachable through several ToRs).
func (t *Topology) ToRsOfPM(pm NodeID) []NodeID {
	return t.neighborsOfKind(pm, KindToR)
}

// ToRsOfVM returns the ToRs of the VM's hosting PM.
func (t *Topology) ToRsOfVM(vm NodeID) []NodeID {
	n := t.Node(vm)
	if n == nil || n.Kind != KindVM {
		return nil
	}
	return t.ToRsOfPM(n.Host)
}

// OPSsOfToR returns the OPSs the ToR uplinks to.
func (t *Topology) OPSsOfToR(tor NodeID) []NodeID {
	return t.neighborsOfKind(tor, KindOPS)
}

// OpticalDegrees returns the number of optical-mesh links at every node,
// indexed by node ID: an OPS's "outgoing connections", the tie-break of
// the AL cover's second phase (§III-C). Failed links count, as they do
// in LinksOf. The slice is built once per structural generation and
// shared with the cache; callers must treat it as read-only. It covers
// every switch and PM, but VM churn moves no structural generation, so a
// VM added since may lie past its end: index it by switch ID.
func (t *Topology) OpticalDegrees() []int32 {
	t.derivedMu.Lock()
	defer t.derivedMu.Unlock()
	return t.opticalDegreesLocked()
}

// OPSsOfToRByDegree returns OPSsOfToR(tor) in the AL cover's phase-2
// tie order: optical degree (OpticalDegrees) descending, then node ID
// ascending. It is re-sorted from the OPSsOfToR cache entry of the same
// generation, so it lists exactly the live uplinks; callers must treat
// it as read-only.
func (t *Topology) OPSsOfToRByDegree(tor NodeID) []NodeID {
	t.derivedMu.Lock()
	defer t.derivedMu.Unlock()
	t.resetDerivedLocked()
	if int(tor) < len(t.opsByDegree) && t.opsByDegree[tor] != nil {
		return t.opsByDegree[tor]
	}
	if tor < 0 || int(tor) > int(t.nextNode) {
		return nil
	}
	t.opsByDegree = Widen(t.opsByDegree, tor)
	deg := t.opticalDegreesLocked()
	out := slices.Clone(t.neighborsOfKindLocked(tor, KindOPS))
	// Stable: the list is ascending by ID, which settles equal degrees.
	slices.SortStableFunc(out, func(a, b NodeID) int { return cmp.Compare(deg[b], deg[a]) })
	t.opsByDegree[tor] = out
	return out
}

func (t *Topology) opticalDegreesLocked() []int32 {
	if sg := t.StructuralGeneration(); t.optDeg == nil || t.optDegGen != sg {
		deg := make([]int32, t.nextNode+1)
		for _, l := range t.links[1:] {
			if l.Kind == LinkOptical {
				deg[l.From]++
				deg[l.To]++
			}
		}
		t.optDeg, t.optDegGen = deg, sg
	}
	return t.optDeg
}

// LiveVMs returns the live VMs offering service, in ID order: VM up,
// host PM up, and at least one live ToR uplink — a rack event that
// strands a machine makes its VMs unusable for clustering and routing
// alike. The index behind it is a derived cache of the current
// generation, so VM churn and liveness transitions refresh it; callers
// must treat the slice as read-only.
func (t *Topology) LiveVMs(service string) []NodeID {
	t.derivedMu.Lock()
	defer t.derivedMu.Unlock()
	t.resetDerivedLocked()
	if t.liveVMs == nil {
		t.liveVMs = make(map[string][]NodeID)
		for _, n := range t.nodes {
			if n == nil || n.Kind != KindVM || n.Down {
				continue
			}
			if host := t.Node(n.Host); host != nil && !host.Down && len(t.neighborsOfKindLocked(n.Host, KindToR)) > 0 {
				t.liveVMs[n.Service] = append(t.liveVMs[n.Service], n.ID)
			}
		}
	}
	return t.liveVMs[service]
}

// VMsByService groups all VM IDs by their service label. This is the
// paper's service-based clustering input (§III-A).
func (t *Topology) VMsByService() map[string][]NodeID {
	out := make(map[string][]NodeID)
	for _, n := range t.Nodes(KindVM) {
		out[n.Service] = append(out[n.Service], n.ID)
	}
	return out
}

// ToROPSBipartite returns, for each of the given ToRs, its live OPS
// uplinks in ascending order — the adjacency lists the second phase of AL
// construction covers (§III-C). If allow is non-nil only OPSs in allow
// appear, honoring the one-OPS-one-AL constraint; with a nil allow the
// lists are the cached OPSsOfToR entries and must be treated as
// read-only.
func (t *Topology) ToROPSBipartite(tors []NodeID, allow NodeSet) ([][]NodeID, error) {
	lefts := make([][]NodeID, len(tors))
	for i, tor := range tors {
		n := t.Node(tor)
		if n == nil || n.Kind != KindToR {
			return nil, fmt.Errorf("topology: ToROPSBipartite: node %d is not a ToR", tor)
		}
		lefts[i] = t.OPSsOfToR(tor)
		if allow != nil {
			lefts[i] = slices.DeleteFunc(slices.Clone(lefts[i]), func(ops NodeID) bool { return !allow.Has(ops) })
		}
	}
	return lefts, nil
}

// GraphOptions is ignored by RoutingSnapshot: there is one routing
// graph, without VMs. The type remains so existing callers compile.
type GraphOptions struct {
	// Deprecated: ignored; a route reaches a VM by its host's local hop.
	IncludeVMs bool
}

// Stats summarizes a topology.
type Stats struct {
	PMs, VMs, ToRs, OPSs int
	OptoelectronicOPSs   int
	ElectronicLinks      int
	BoundaryLinks        int
	OpticalLinks         int
	Services             int
	AvgToRUplinks        float64
	AvgVMsPerPM          float64
}

// ComputeStats returns summary statistics.
func (t *Topology) ComputeStats() Stats {
	var s Stats
	services := make(map[string]bool)
	for _, n := range t.Nodes() {
		switch n.Kind {
		case KindPhysicalMachine:
			s.PMs++
		case KindVM:
			s.VMs++
			services[n.Service] = true
		case KindToR:
			s.ToRs++
		case KindOPS:
			s.OPSs++
			if n.Optoelectronic {
				s.OptoelectronicOPSs++
			}
		}
	}
	for _, l := range t.links[1:] {
		switch l.Kind {
		case LinkElectronic:
			s.ElectronicLinks++
		case LinkBoundary:
			s.BoundaryLinks++
		case LinkOptical:
			s.OpticalLinks++
		}
	}
	s.Services = len(services)
	if s.ToRs > 0 {
		total := 0
		for _, tor := range t.NodeIDs(KindToR) {
			total += len(t.OPSsOfToR(tor))
		}
		s.AvgToRUplinks = float64(total) / float64(s.ToRs)
	}
	if s.PMs > 0 {
		s.AvgVMsPerPM = float64(s.VMs) / float64(s.PMs)
	}
	return s
}
