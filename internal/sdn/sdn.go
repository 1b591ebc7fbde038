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
	"errors"
	"fmt"
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
	// Hop is the rule's position on the flow's path, the label a packet
	// carries when it reaches the switch: the ingress rule matches hop 0
	// and each forward moves the packet to the next, as a label-switched
	// path swaps labels. It tells apart the visits of a chain that passes
	// one switch more than once — out to a VNF host and back through its
	// ToR — which the flow's Match alone cannot.
	Hop int32
	// slot is the rule's index in its switch's table, what lets one rule
	// leave a table without a pass over it. Zero in every copy handed out.
	slot int32
}

// Controller is the in-process SDN controller. Safe for concurrent use.
type Controller struct {
	mu   sync.Mutex
	topo *topology.Topology
	// The rule plane is indexed twice, and c.mu keeps the two in step:
	// tables is what a switch holds, by node ID (in no particular order —
	// a removal moves the table's last rule into the gap, and an emptied
	// table keeps its array for the switch's next rule), flows is what a flow
	// owns, its rules in path order, and what tables' pointers point
	// into. A flow's rules share one action array, each rule's Actions a
	// window of it; the first rule's window keeps the whole array as its
	// capacity, which is how a reroute finds it. Every verb goes through
	// flows and costs O(the flow's rules), whatever else the controller
	// holds — except Walk, the tables' one production reader, which asks
	// each switch's table what to do with a packet, as the switch would.
	tables    [][]*FlowRule
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
		topo:  topo,
		flows: make(map[string][]FlowRule),
	}, nil
}

// snapshot returns the epoch-cached routing view the controller
// computes over. Rebuilds happen only when the topology structurally
// mutated since the last fetch, and a warm fetch takes no lock; slice
// restrictions are applied at search time, so every restriction set
// shares the same cache entry.
func (c *Controller) snapshot() *topology.Snapshot {
	return c.topo.RoutingSnapshot()
}

// ComputePathVia returns a path from src to dst that visits every
// waypoint in order (the chain's VNF hosts): AppendPathVia into a slice
// of its own.
func (c *Controller) ComputePathVia(src topology.NodeID, via []topology.NodeID, dst topology.NodeID, restrictOPS topology.NodeSet) ([]topology.NodeID, error) {
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
func (c *Controller) AppendPathVia(buf []topology.NodeID, src topology.NodeID, via []topology.NodeID, dst topology.NodeID, restrictOPS topology.NodeSet) ([]topology.NodeID, error) {
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
// search: it is the VM's local hop (topology.Snapshot.AppendHostHop),
// errors included, and crosses no link. Every other leg's answer is
// memoized under the fabric state it was searched in — (structural
// generation, live digest, src, dst, pool digest, avoided nodes, avoided
// links, spread), see altcache.go — so the same question asked again in
// that state, now or when the state recurs, is a lookup, which reads the
// leg's nodes and links off the same stored hops. A hit is copied into
// buf and links, so what comes back is always the caller's own. A leg
// with a VM end is never stored: where a VM sits is not part of that
// state.
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

// installPathLocked makes path the flow's one generation of rules: one
// rule per hop, each with a fresh ID (ascending in path order), its hop's
// actions and no hits. When the flow's block has the path's length and
// its action array room for the path's actions, the block is rewritten
// in place, allocating nothing: a rule moves tables only if its switch
// changed. Otherwise (a fresh install, another length, more domain
// crossings) the path does not fit, and a new block — one []FlowRule, one
// []Action of exactly hops + crossings — replaces the old, which leaves
// its tables. Either way each hop counts as one rule installed and the
// old rules as removed. It is the one place node domains become
// conversion actions: a hop between domains converts before it
// forwards, and it answers the path's conversions. The caller holds c.mu
// and validated the path.
func (c *Controller) installPathLocked(m Match, path []topology.NodeID, priority int) (oe, eo int) {
	for i := 0; i+1 < len(path); i++ {
		switch c.conversion(path[i], path[i+1]) {
		case ActionConvertOE:
			oe++
		case ActionConvertEO:
			eo++
		}
	}
	crossings := oe + eo
	block := c.flows[m.FlowKey]
	old := block
	var actions []Action
	fits := len(old) == len(path) && cap(old[0].Actions) >= len(path)+crossings
	if fits {
		actions = old[0].Actions[:0]
	} else {
		block, actions = make([]FlowRule, len(path)), make([]Action, 0, len(path)+crossings)
	}
	for i, node := range path {
		first := len(actions)
		if i+1 < len(path) {
			if conv := c.conversion(node, path[i+1]); conv != 0 {
				actions = append(actions, Action{Type: conv})
			}
			actions = append(actions, Action{Type: ActionForward, NextHop: path[i+1]})
		} else {
			actions = append(actions, Action{Type: ActionDeliver})
		}
		window := actions[first:len(actions):len(actions)]
		if i == 0 {
			window = actions // the whole array, as capacity
		}
		rule := &block[i]
		moved := !fits || rule.Switch != node
		if fits && moved {
			c.uninstallLocked(block[i : i+1])
		}
		c.nextRule++
		*rule = FlowRule{
			ID:       c.nextRule,
			Switch:   node,
			Priority: priority,
			Match:    m,
			Actions:  window,
			Hop:      int32(i),
			slot:     rule.slot,
		}
		if moved {
			c.tables = topology.Widen(c.tables, node)
			rule.slot = int32(len(c.tables[node]))
			c.tables[node] = append(c.tables[node], rule)
			c.ruleCount++
		}
	}
	c.rulesInstalled += len(path)
	c.pathsProvisioned++
	if !fits {
		c.flows[m.FlowKey] = block
		c.uninstallLocked(old)
	}
	return oe, eo
}

// uninstallLocked takes the rules out of their switches' tables, each by
// moving the table's last rule into the freed slot. The caller has
// already taken them out of c.flows, or is about to rewrite them.
func (c *Controller) uninstallLocked(rules []FlowRule) {
	for i := range rules {
		r := &rules[i]
		table := c.tables[r.Switch]
		last := len(table) - 1
		table[r.slot] = table[last]
		table[r.slot].slot = r.slot
		table[last] = nil
		c.tables[r.Switch] = table[:last]
	}
	c.ruleCount -= len(rules)
}

// Reroute makes path the flow's rules, make-before-break: the new rules
// and the old ones' removal land in one controller lock hold, so no
// reader sees the flow without rules. With no rules under the flow key it
// is a fresh install; a path of the old one's length allocates nothing.
// It answers the new rules' conversions, what a walk of the flow meets.
func (c *Controller) Reroute(m Match, path []topology.NodeID, priority int) (oe, eo int, err error) {
	if err := c.validatePath(m, path); err != nil {
		return 0, 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	oe, eo = c.installPathLocked(m, path, priority)
	return oe, eo, nil
}

// Excursions counts a route's O/E/O excursions (§IV-D) from its oe and eo
// conversions: a pair is one round trip out of the optical core, less
// the ingress/egress pair of a route that enters it.
func Excursions(oe, eo int) int {
	if eo > 0 && oe+eo >= 2 {
		return (oe+eo)/2 - 1
	}
	return 0
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

// RulesForFlow returns copies of the flow's rules in path order, which
// is rule-ID order: a flow holds one generation, its IDs handed out
// ascending along the path.
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

// Walk errors: what a packet of the flow meets instead of its egress.
var (
	// ErrBlackhole: a switch on the way holds no rule for the packet's
	// visit, or delivers it short of its egress.
	ErrBlackhole = errors.New("sdn: walk: blackhole")
	// ErrAmbiguous: two rules claim one visit at the top priority, so the
	// tables do not say which way the packet goes.
	ErrAmbiguous = errors.New("sdn: walk: ambiguous match")
	// ErrNoLink: a rule forwards to a node no live link reaches.
	ErrNoLink = errors.New("sdn: walk: no live link")
)

// Walk is what the switches do with one packet of a flow.
type Walk struct {
	// Route is the switches the packet visits, ingress to egress.
	Route []topology.NodeID
	// Links holds each hop's link, 0 for a VM's hop to its host
	// (topology.HopLink).
	Links []topology.LinkID
	// OE and EO count the conversion actions the packet met.
	OE, EO int
	// Rules is the rule each switch applied, in route order.
	Rules []RuleID
}

// table returns the rules the switch holds. Caller holds c.mu.
func (c *Controller) table(sw topology.NodeID) []*FlowRule {
	if sw < 0 || int(sw) >= len(c.tables) {
		return nil
	}
	return c.tables[sw]
}

// Walk follows a packet of the flow through the switches' own tables,
// not the flow index: from the ingress the flow was installed for
// (Match.Src), each switch applies its highest-priority rule that matches
// the flow and the packet's hop, counting the rule's conversions and
// forwarding to its next hop, until a rule delivers at Match.Dst. A miss
// or a delivery anywhere else is ErrBlackhole, a tie is ErrAmbiguous, and
// a hop HopLink cannot resolve or whose link is down is ErrNoLink. Each
// hop moves the packet's label on, so a walk ends within as many hops as
// the flow has rules.
func (c *Controller) Walk(flowKey string) (Walk, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var w Walk
	block := c.flows[flowKey]
	if len(block) == 0 {
		return Walk{}, fmt.Errorf("%w: flow %q has no rules", ErrBlackhole, flowKey)
	}
	m := block[0].Match
	for at := m.Src; ; {
		hop := int32(len(w.Route))
		w.Route = append(w.Route, at)
		var rule *FlowRule
		tied := false
		for _, r := range c.table(at) {
			switch {
			case r.Match != m || r.Hop != hop:
			case rule == nil || r.Priority > rule.Priority:
				rule, tied = r, false
			case r.Priority == rule.Priority:
				tied = true
			}
		}
		if rule == nil {
			return Walk{}, fmt.Errorf("%w: flow %q has no rule at switch %d for hop %d", ErrBlackhole, flowKey, at, hop)
		}
		if tied {
			return Walk{}, fmt.Errorf("%w: flow %q has two rules at switch %d for hop %d", ErrAmbiguous, flowKey, at, hop)
		}
		w.Rules = append(w.Rules, rule.ID)
		var next topology.NodeID
		for _, a := range rule.Actions {
			switch a.Type {
			case ActionConvertOE:
				w.OE++
			case ActionConvertEO:
				w.EO++
			case ActionForward:
				next = a.NextHop
			case ActionDeliver:
				if at != m.Dst {
					return Walk{}, fmt.Errorf("%w: flow %q delivered at switch %d, not %d", ErrBlackhole, flowKey, at, m.Dst)
				}
				return w, nil
			}
		}
		l, ok := c.topo.HopLink(at, next)
		if !ok || l != 0 && c.topo.Link(l).Down {
			return Walk{}, fmt.Errorf("%w: flow %q forwards %d->%d", ErrNoLink, flowKey, at, next)
		}
		w.Links = append(w.Links, l)
		at = next
	}
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

// conversion is the action a hop from a to b takes on leaving a's
// domain — optical→electronic or electronic→optical — or 0 when both
// ends share one.
func (c *Controller) conversion(a, b topology.NodeID) ActionType {
	from, to := c.topo.Node(a).Domain(), c.topo.Node(b).Domain()
	switch {
	case from == to:
		return 0
	case from == topology.DomainOptical:
		return ActionConvertOE
	default:
		return ActionConvertEO
	}
}
