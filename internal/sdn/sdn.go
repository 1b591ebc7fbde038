// Package sdn implements the SDN controller of the AL-VC functional
// architecture (Fig. 6): it "provisions, controls, and manages the
// optical network and provides virtual connectivity services to users
// between VMs hosting VNFs". The controller computes paths over the
// topology (optionally restricted to one slice's OPSs), installs
// OpenFlow-style match/action rules on every switch along the path, and
// keeps per-switch flow tables with statistics, indexed by flow as well
// so that changing one chain costs its path and not the fleet's rules.
package sdn

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/alvc/alvc/internal/topology"
)

// RuleID identifies an installed flow rule.
type RuleID int

// Match selects the packets of one provisioned connection. FlowKey is
// the tenant/chain tag (slice isolation); Src/Dst are the endpoint
// nodes.
type Match struct {
	FlowKey string
	Src     topology.NodeID
	Dst     topology.NodeID
}

// ActionType enumerates forwarding actions.
type ActionType int

// Actions a rule can take.
const (
	// ActionForward sends the packet to NextHop.
	ActionForward ActionType = iota + 1
	// ActionConvertOE marks an optical→electronic conversion (leaving
	// the optical domain at a boundary link).
	ActionConvertOE
	// ActionConvertEO marks an electronic→optical conversion.
	ActionConvertEO
	// ActionDeliver terminates the path at the destination.
	ActionDeliver
)

// String returns the action name.
func (a ActionType) String() string {
	switch a {
	case ActionForward:
		return "forward"
	case ActionConvertOE:
		return "convert-oe"
	case ActionConvertEO:
		return "convert-eo"
	case ActionDeliver:
		return "deliver"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Action is one step a switch applies to matching packets.
type Action struct {
	Type    ActionType
	NextHop topology.NodeID
}

// FlowRule is an entry in a switch's flow table.
type FlowRule struct {
	ID       RuleID
	Switch   topology.NodeID
	Priority int
	Match    Match
	Actions  []Action
	// Hits counts packets/flows accounted against this rule via
	// RecordHits (OpenFlow-style counters).
	Hits int64
	// slot is the rule's index in its switch's table, what lets one rule
	// leave a table without a pass over it. Zero in every copy handed out.
	slot int
}

// Controller is the in-process SDN controller. Safe for concurrent use.
type Controller struct {
	mu   sync.Mutex
	topo *topology.Topology
	// The rule plane is indexed twice, and c.mu keeps the two in step:
	// tables is what a switch holds (in no particular order — a removal
	// moves the table's last rule into the gap), flows is what a flow
	// owns, in rule-ID order, and what tables' pointers point into. Every
	// verb but RulesAt goes through flows and costs O(the flow's rules),
	// whatever else the controller holds.
	tables    map[topology.NodeID][]*FlowRule
	flows     map[string][]FlowRule
	ruleCount int
	nextRule  RuleID

	pathsProvisioned int
	rulesInstalled   int
	// pathComputations counts graph searches (shortest-path, avoiding
	// and Yen's runs). The resilience contract — a standby swap performs zero
	// shortest-path work at recovery time — is asserted against this
	// counter. Atomic: path computation is the read-heavy hot path and
	// must not serialize on c.mu (which guards the flow tables) — with
	// sharded orchestrators many controllers count concurrently while
	// metrics aggregation reads them all.
	pathComputations atomic.Int64
	// yenRuns counts only the Yen's k-shortest searches
	// (PathAlternatives), which no production path runs any more. Atomic
	// for the same reason as pathComputations.
	yenRuns atomic.Int64

	// alts memoizes AppendRouteAvoiding and PathAlternatives results
	// under the fabric state they were searched in; altCacheOff disables
	// it (cold measurements). See altcache.go.
	alts        altCache
	altCacheOff atomic.Bool
}

// NewController returns a controller over the topology.
func NewController(topo *topology.Topology) (*Controller, error) {
	if topo == nil {
		return nil, fmt.Errorf("sdn: controller: nil topology")
	}
	return &Controller{
		topo:   topo,
		tables: make(map[topology.NodeID][]*FlowRule),
		flows:  make(map[string][]FlowRule),
	}, nil
}

// snapshot returns the epoch-cached routing view the controller
// computes over. Rebuilds happen only when the topology mutated since
// the last fetch, and a warm fetch takes no lock; slice restrictions
// are applied at search time, so every restriction set shares the same
// cache entry.
func (c *Controller) snapshot() *topology.Snapshot {
	return c.topo.RoutingSnapshot(topology.GraphOptions{IncludeVMs: true})
}

// ComputePath returns the lowest-latency path between two nodes. When
// restrictOPS is non-nil only those OPSs may be traversed (routing
// inside a slice). VMs are routed via their host PM.
func (c *Controller) ComputePath(src, dst topology.NodeID, restrictOPS map[topology.NodeID]bool) ([]topology.NodeID, error) {
	c.countPathComputations(1)
	path, _, err := c.snapshot().ShortestPath(src, dst, restrictOPS)
	if err != nil {
		return nil, fmt.Errorf("sdn: compute path %d->%d: %w", src, dst, err)
	}
	return path, nil
}

// ComputePathVia returns a path from src to dst that visits every
// waypoint in order (the chain's VNF hosts): AppendPathVia into a slice
// of its own.
func (c *Controller) ComputePathVia(src topology.NodeID, via []topology.NodeID, dst topology.NodeID, restrictOPS map[topology.NodeID]bool) ([]topology.NodeID, error) {
	path, err := c.AppendPathVia(nil, src, via, dst, restrictOPS)
	if err != nil {
		return nil, err
	}
	return path, nil
}

// AppendPathVia appends to buf a path from src to dst that visits every
// waypoint in order. Segments are shortest paths over one snapshot
// fetched once per call, each written over the joint the last one ended
// on; consecutive duplicate stops are merged. On error buf comes back as
// it was.
func (c *Controller) AppendPathVia(buf []topology.NodeID, src topology.NodeID, via []topology.NodeID, dst topology.NodeID, restrictOPS map[topology.NodeID]bool) ([]topology.NodeID, error) {
	snap := c.snapshot()
	// One dense restriction for all segments: densifying per segment cost
	// more than the searches on a wide fabric.
	restriction := snap.Restrict(restrictOPS)
	defer snap.Release(restriction)
	start, segments := len(buf), 0
	from := src
	for i := 0; i <= len(via); i++ {
		to := dst
		if i < len(via) {
			to = via[i]
		}
		if from == to {
			continue
		}
		segments++
		joint := len(buf)
		if joint > start {
			joint-- // the segment starts where the last one ended
		}
		var err error
		if buf, _, err = snap.AppendShortestPathIn(buf[:joint], from, to, restriction); err != nil {
			c.countPathComputations(segments)
			return buf[:start], fmt.Errorf("sdn: via segment %d: sdn: compute path %d->%d: %w", i, from, to, err)
		}
		from = to
	}
	c.countPathComputations(segments)
	if len(buf) == start {
		buf = append(buf, src)
	}
	return buf, nil
}

// AppendRouteAvoiding appends to buf the route that visits stops in
// order, each leg the path to the next stop that crosses the fewest of
// avoid's nodes and links and, among those, has the lowest latency —
// the standby planner's question, asked once per leg
// (topology.Snapshot.AppendPathAvoiding) — and to links the links the
// route crosses, as topology.AppendPathLinks lists them. Consecutive
// equal stops make no leg, and a leg between a VM and its host needs no
// search: it is the VM's one edge (topology.Snapshot.AppendHostHop),
// errors included, and crosses no link. Every other leg's answer is
// memoized under the fabric state it was searched in — (structural
// generation, live digest, src, dst, pool digest, avoided nodes, avoided
// links, spread), see altcache.go — so the same question asked again in
// that state, now or when the state recurs, is a lookup, which reads the
// leg's nodes and links off the same stored hops. A hit is copied into
// buf and links, so what comes back is always the caller's own.
//
// Everything that is the same for every leg is worked out once per
// route — the snapshot (one atomic load when warm), the question's
// digests, and, when some leg has to be searched, the dense form of the
// pool. The pool's digest came with it (topology.NewPool), so a route
// answered from the memo never walks the pool.
func (c *Controller) AppendRouteAvoiding(buf []topology.NodeID, links []topology.LinkID, stops []topology.NodeID, pool topology.Pool, avoid topology.Avoid) ([]topology.NodeID, []topology.LinkID, error) {
	snap := c.snapshot()
	var q *altQuestion // nil: memo off
	if !c.altCacheOff.Load() {
		question := newAltQuestion(0, pool, avoid)
		q = &question
	}
	var restriction *topology.Restriction
	laid := false
	defer func() {
		if laid {
			snap.Release(restriction)
		}
	}()
	first := len(buf)
	for i := 0; i+1 < len(stops); i++ {
		src, dst := stops[i], stops[i+1]
		if src == dst {
			continue
		}
		if len(buf) > first {
			buf = buf[:len(buf)-1] // the leg starts with the joint again
		}
		out, hop, err := snap.AppendHostHop(buf, src, dst)
		if err != nil {
			return buf, links, fmt.Errorf("sdn: route avoiding: leg %d->%d: %w", src, dst, err)
		}
		if hop {
			buf = out
			continue
		}
		if q != nil {
			if out, outLinks, ok := c.alts.appendLeg(buf, links, c.topo, snap.Generation(), q, src, dst, snap.LiveDigest()); ok {
				c.alts.hits.Add(1)
				buf, links = out, outLinks
				continue
			}
			c.alts.misses.Add(1)
		}
		c.pathComputations.Add(1)
		if !laid {
			restriction, laid = snap.Restrict(pool.OPS), true
		}
		start := len(buf)
		var live uint64
		if buf, live, err = snap.AppendPathAvoiding(buf, src, dst, restriction, avoid); err != nil {
			return buf, links, fmt.Errorf("sdn: route avoiding: leg %d->%d: %w", src, dst, err)
		}
		leg := buf[start:]
		var ok bool
		if links, ok = c.topo.AppendPathLinks(links, leg); !ok {
			return buf, links, fmt.Errorf("sdn: route avoiding: leg %d->%d: a hop joins no link", src, dst)
		}
		if q != nil {
			c.alts.put(c.topo, snap.Generation(), q, src, dst, live, leg)
		}
	}
	return buf, links, nil
}

// PathAlternatives returns up to k loopless paths between two nodes in
// nondecreasing latency order (Yen's algorithm over the routing
// snapshot). Standby planning no longer calls it — AppendRouteAvoiding
// asks for the one path it wants directly — so it is an API for
// callers that want to see the k shortest routes, and the oracle the
// tests hold the direct search against. Results are memoized like
// AppendRouteAvoiding's legs, per (structural generation, live digest,
// src, dst, k, pool digest), and a hit is a fresh copy.
func (c *Controller) PathAlternatives(src, dst topology.NodeID, k int, pool topology.Pool) ([][]topology.NodeID, error) {
	if k <= 0 {
		return nil, fmt.Errorf("sdn: path alternatives: k must be positive, got %d", k)
	}
	snap := c.snapshot()
	cached := !c.altCacheOff.Load()
	var q altQuestion
	if cached {
		q = newAltQuestion(k, pool, topology.Avoid{})
		if out, ok := c.alts.paths(c.topo, snap.Generation(), &q, src, dst, snap.LiveDigest()); ok {
			c.alts.hits.Add(1)
			return out, nil
		}
		c.alts.misses.Add(1)
	}
	c.yenRuns.Add(1)
	c.pathComputations.Add(1)
	out, _, live, err := snap.KShortestPaths(src, dst, k, pool.OPS)
	if err != nil {
		return nil, fmt.Errorf("sdn: path alternatives %d->%d: %w", src, dst, err)
	}
	if cached {
		c.alts.put(c.topo, snap.Generation(), &q, src, dst, live, out...)
	}
	return out, nil
}

// validatePath checks an install/reroute request before any rule is
// touched.
func (c *Controller) validatePath(m Match, path []topology.NodeID) error {
	if len(path) < 1 {
		return fmt.Errorf("sdn: install: empty path")
	}
	if m.FlowKey == "" {
		return fmt.Errorf("sdn: install: empty flow key")
	}
	for _, n := range path {
		if c.topo.Node(n) == nil {
			return fmt.Errorf("sdn: install: unknown node %d in path", n)
		}
	}
	return nil
}

// InstallPath installs one rule per hop of the path: each switch
// forwards matching packets to the next hop; boundary crossings get
// explicit conversion actions; the final node delivers. It returns the
// installed rule IDs in path order. Rules already installed under the
// flow key stay, as an older generation beside the new one.
func (c *Controller) InstallPath(m Match, path []topology.NodeID, priority int) ([]RuleID, error) {
	if err := c.validatePath(m, path); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.installPathLocked(m, path, priority, c.flows[m.FlowKey]), nil
}

// installPathLocked installs the path's rules as one block — one
// []FlowRule, one []Action backing array shared by its rules, one
// []RuleID — and makes the block, behind the rules of keep (the flow's
// older generations the caller wants to stay installed, moved into the
// new block), the flow's entry in c.flows.
func (c *Controller) installPathLocked(m Match, path []topology.NodeID, priority int, keep []FlowRule) []RuleID {
	block := make([]FlowRule, len(keep)+len(path))
	for i := range keep {
		block[i] = keep[i]
		c.tables[keep[i].Switch][keep[i].slot] = &block[i]
	}
	oe, eo, _ := c.CountConversionsOnPath(path) // nodes validated by the caller
	actions := make([]Action, 0, len(path)+oe+eo)
	ids := make([]RuleID, len(path))
	for i, node := range path {
		first := len(actions)
		if i+1 < len(path) {
			cur, next := c.topo.Node(node), c.topo.Node(path[i+1])
			if cur.Domain() != next.Domain() {
				if cur.Domain() == topology.DomainOptical {
					actions = append(actions, Action{Type: ActionConvertOE})
				} else {
					actions = append(actions, Action{Type: ActionConvertEO})
				}
			}
			actions = append(actions, Action{Type: ActionForward, NextHop: path[i+1]})
		} else {
			actions = append(actions, Action{Type: ActionDeliver})
		}
		c.nextRule++
		rule := &block[len(keep)+i]
		*rule = FlowRule{
			ID:       c.nextRule,
			Switch:   node,
			Priority: priority,
			Match:    m,
			Actions:  actions[first:len(actions):len(actions)],
			slot:     len(c.tables[node]),
		}
		c.tables[node] = append(c.tables[node], rule)
		ids[i] = rule.ID
	}
	c.flows[m.FlowKey] = block
	c.ruleCount += len(path)
	c.rulesInstalled += len(path)
	c.pathsProvisioned++
	return ids
}

// uninstallLocked takes the rules out of their switches' tables, each by
// moving the table's last rule into the freed slot. The caller has
// already taken them out of c.flows.
func (c *Controller) uninstallLocked(rules []FlowRule) {
	for i := range rules {
		r := &rules[i]
		table := c.tables[r.Switch]
		last := len(table) - 1
		table[r.slot] = table[last]
		table[r.slot].slot = r.slot
		table[last] = nil
		if last == 0 {
			delete(c.tables, r.Switch)
		} else {
			c.tables[r.Switch] = table[:last]
		}
	}
	c.ruleCount -= len(rules)
}

// Reroute replaces the flow's rules with rules along the new path in
// make-before-break order: the new generation is installed before the
// old one is removed, and both steps happen under one controller lock,
// so a concurrent reader never observes the flow without rules. It
// returns the new rule IDs in path order. With no pre-existing rules it
// is InstallPath plus one map miss.
func (c *Controller) Reroute(m Match, path []topology.NodeID, priority int) ([]RuleID, error) {
	if err := c.validatePath(m, path); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.flows[m.FlowKey]
	ids := c.installPathLocked(m, path, priority, nil)
	c.uninstallLocked(old)
	return ids, nil
}

// RemoveFlow deletes every rule matching the flow key and returns the
// number removed.
func (c *Controller) RemoveFlow(flowKey string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	rules := c.flows[flowKey]
	delete(c.flows, flowKey)
	c.uninstallLocked(rules)
	return len(rules)
}

// copyRule returns the rule as callers see it: its own Actions, none of
// the controller's bookkeeping.
func copyRule(r *FlowRule) FlowRule {
	cp := *r
	cp.Actions = append([]Action(nil), r.Actions...)
	cp.slot = 0
	return cp
}

// RulesAt returns copies of the rules installed on the given switch,
// sorted by rule ID.
func (c *Controller) RulesAt(sw topology.NodeID) []FlowRule {
	c.mu.Lock()
	defer c.mu.Unlock()
	rules := c.tables[sw]
	out := make([]FlowRule, 0, len(rules))
	for _, r := range rules {
		out = append(out, copyRule(r))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RulesForFlow returns copies of every rule matching the flow key,
// sorted by rule ID — the order c.flows keeps them in: path order within
// a generation, older generations first.
func (c *Controller) RulesForFlow(flowKey string) []FlowRule {
	c.mu.Lock()
	defer c.mu.Unlock()
	rules := c.flows[flowKey]
	if len(rules) == 0 {
		return nil
	}
	out := make([]FlowRule, len(rules))
	for i := range rules {
		out[i] = copyRule(&rules[i])
	}
	return out
}

// RecordHits adds n to the hit counter of every rule matching the flow
// key (a flow traversal touches each of its per-hop rules once) and
// returns the number of rules credited.
func (c *Controller) RecordHits(flowKey string, n int64) int {
	if n <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rules := c.flows[flowKey]
	for i := range rules {
		rules[i].Hits += n
	}
	return len(rules)
}

// FlowHits returns the total hits across the flow's rules.
func (c *Controller) FlowHits(flowKey string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	rules := c.flows[flowKey]
	for i := range rules {
		total += rules[i].Hits
	}
	return total
}

// RuleCount returns the number of installed rules.
func (c *Controller) RuleCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ruleCount
}

// Stats returns (paths provisioned, rules installed) since creation.
// Counters are cumulative; RemoveFlow does not decrement them.
func (c *Controller) Stats() (paths, rules int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pathsProvisioned, c.rulesInstalled
}

func (c *Controller) countPathComputations(n int) {
	if n == 0 {
		return
	}
	c.pathComputations.Add(int64(n))
}

// PathComputations returns the cumulative number of graph searches the
// controller has run (ComputePath segments, avoiding searches that
// missed the memo, and Yen's k-shortest runs).
// Recovery code paths that promise "no shortest-path work" are asserted
// against the delta of this counter.
func (c *Controller) PathComputations() int {
	return int(c.pathComputations.Load())
}

// YenRuns returns the cumulative number of Yen's k-shortest searches
// (PathAlternatives calls that missed the memo). Standby planning runs
// none; AlternativesCacheStats counts its searches.
func (c *Controller) YenRuns() int {
	return int(c.yenRuns.Load())
}

// CountConversionsOnPath counts the domain boundary crossings along a
// node path, in each direction. A full O/E/O conversion corresponds to
// one OE followed by one EO while transiting the optical core.
func (c *Controller) CountConversionsOnPath(path []topology.NodeID) (oe, eo int, err error) {
	for i := 0; i+1 < len(path); i++ {
		cur, next := c.topo.Node(path[i]), c.topo.Node(path[i+1])
		if cur == nil || next == nil {
			return 0, 0, fmt.Errorf("sdn: conversions: unknown node in path")
		}
		if cur.Domain() == next.Domain() {
			continue
		}
		if cur.Domain() == topology.DomainOptical {
			oe++
		} else {
			eo++
		}
	}
	return oe, eo, nil
}
