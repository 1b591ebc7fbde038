package sdn

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/alvc/alvc/internal/topology"
)

// scanTables is the rule plane as it was before the flow index: rules
// kept per switch only, every verb a pass over every rule of every
// switch comparing flow keys. It is the oracle the indexed Controller is
// held against; visited counts the rules its passes looked at.
type scanTables struct {
	topo     *topology.Topology
	tables   map[topology.NodeID][]*FlowRule
	nextRule RuleID

	pathsProvisioned, rulesInstalled int
	visited                          int
}

func newScanTables(topo *topology.Topology) *scanTables {
	return &scanTables{topo: topo, tables: make(map[topology.NodeID][]*FlowRule)}
}

func (c *scanTables) installPath(m Match, path []topology.NodeID, priority int) {
	for i, node := range path {
		var actions []Action
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
		rule := &FlowRule{ID: c.nextRule, Switch: node, Priority: priority, Match: m, Actions: actions, Hop: int32(i)}
		c.tables[node] = append(c.tables[node], rule)
		c.rulesInstalled++
	}
	c.pathsProvisioned++
}

// reroute installs the new generation, then removes every older rule of
// the flow: the make-before-break order, with no block to reuse.
func (c *scanTables) reroute(m Match, path []topology.NodeID, priority int) {
	old := make(map[RuleID]bool)
	for _, rules := range c.tables {
		for _, r := range rules {
			if r.Match.FlowKey == m.FlowKey {
				old[r.ID] = true
			}
		}
	}
	c.installPath(m, path, priority)
	if len(old) > 0 {
		c.remove(func(r *FlowRule) bool { return old[r.ID] })
	}
}

func (c *scanTables) removeFlow(flowKey string) int {
	return c.remove(func(r *FlowRule) bool { return r.Match.FlowKey == flowKey })
}

func (c *scanTables) remove(drop func(*FlowRule) bool) int {
	removed := 0
	for sw, rules := range c.tables {
		kept := rules[:0]
		for _, r := range rules {
			c.visited++
			if drop(r) {
				removed++
				continue
			}
			kept = append(kept, r)
		}
		if len(kept) == 0 {
			delete(c.tables, sw)
		} else {
			c.tables[sw] = kept
		}
	}
	return removed
}

func (c *scanTables) rulesAt(sw topology.NodeID) []FlowRule {
	rules := c.tables[sw]
	out := make([]FlowRule, 0, len(rules))
	for _, r := range rules {
		cp := *r
		cp.Actions = append([]Action(nil), r.Actions...)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (c *scanTables) rulesForFlow(flowKey string) []FlowRule {
	var out []FlowRule
	for _, rules := range c.tables {
		for _, r := range rules {
			if r.Match.FlowKey == flowKey {
				cp := *r
				cp.Actions = append([]Action(nil), r.Actions...)
				out = append(out, cp)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (c *scanTables) recordHits(flowKey string, n int64) int {
	if n <= 0 {
		return 0
	}
	credited := 0
	for _, rules := range c.tables {
		for _, r := range rules {
			if r.Match.FlowKey == flowKey {
				r.Hits += n
				credited++
			}
		}
	}
	return credited
}

func (c *scanTables) flowHits(flowKey string) int64 {
	var total int64
	for _, rules := range c.tables {
		for _, r := range rules {
			if r.Match.FlowKey == flowKey {
				total += r.Hits
			}
		}
	}
	return total
}

func (c *scanTables) ruleCount() int {
	n := 0
	for _, rules := range c.tables {
		n += len(rules)
	}
	return n
}

// fabric is a generated topology with its nodes by kind: the tests only
// need nodes that exist (Reroute does not ask for adjacency) and sit
// in both domains.
type fabric struct {
	topo                 *topology.Topology
	vms, pms, tors, opss []topology.NodeID
}

func newFabric(tb testing.TB) fabric {
	tb.Helper()
	topo, err := topology.Generate(topology.DefaultGenConfig())
	if err != nil {
		tb.Fatalf("Generate: %v", err)
	}
	return fabric{
		topo: topo,
		vms:  topo.NodeIDs(topology.KindVM),
		pms:  topo.NodeIDs(topology.KindPhysicalMachine),
		tors: topo.NodeIDs(topology.KindToR),
		opss: topo.NodeIDs(topology.KindOPS),
	}
}

func (f fabric) controller(tb testing.TB) *Controller {
	tb.Helper()
	c, err := NewController(f.topo)
	if err != nil {
		tb.Fatalf("NewController: %v", err)
	}
	return c
}

// path returns the i-th 8-hop VM-to-VM path: its ends differ from flow
// to flow, its core — two ToRs and two OPSs of a handful — is shared by
// many.
func (f fabric) path(i int) []topology.NodeID {
	pick := func(ids []topology.NodeID, k int) topology.NodeID { return ids[k%len(ids)] }
	return []topology.NodeID{
		pick(f.vms, i), pick(f.pms, i), pick(f.tors, i), pick(f.opss, i),
		pick(f.opss, i+1), pick(f.tors, i+3), pick(f.pms, i+7), pick(f.vms, i+31),
	}
}

// checkIndexes asserts the controller's two indexes and its counter
// agree: every table entry sits at the slot it remembers, on the switch
// it names, and is the rule its flow's entry holds; nothing is in one
// index and not the other; no flow entry is left empty; and a
// flow's rules, in path order, hold their actions end to end in the
// front of the action array its first rule's capacity spans.
func checkIndexes(t *testing.T, c *Controller) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	inTables := 0
	for i, table := range c.tables {
		sw := topology.NodeID(i)
		inTables += len(table)
		for slot, r := range table {
			if int(r.slot) != slot || r.Switch != sw {
				t.Fatalf("rule %d sits at switch %d slot %d, remembers switch %d slot %d", r.ID, sw, slot, r.Switch, r.slot)
			}
		}
	}
	inFlows := 0
	for _, rules := range c.flows {
		if len(rules) == 0 {
			continue
		}
		key := rules[0].Match.FlowKey
		inFlows += len(rules)
		array, next := rules[0].Actions[:cap(rules[0].Actions)], 0
		for i := range rules {
			r := &rules[i]
			if len(r.Actions) == 0 || next+len(r.Actions) > len(array) || &r.Actions[0] != &array[next] {
				t.Fatalf("flow %q rule %d: its actions are not the block's actions %d..", key, r.ID, next)
			}
			next += len(r.Actions)
			if r.Match.FlowKey != key {
				t.Fatalf("flow %q holds rule %d of flow %q", key, r.ID, r.Match.FlowKey)
			}
			if i > 0 && rules[i-1].ID >= r.ID {
				t.Fatalf("flow %q: rule %d after rule %d", key, r.ID, rules[i-1].ID)
			}
			if table := c.tables[r.Switch]; int(r.slot) >= len(table) || table[r.slot] != r {
				t.Fatalf("flow %q rule %d is not the rule at switch %d slot %d", key, r.ID, r.Switch, r.slot)
			}
		}
	}
	if inTables != inFlows || inFlows != c.ruleCount {
		t.Fatalf("%d rules in tables, %d in flows, counter %d", inTables, inFlows, c.ruleCount)
	}
}

// TestFlowIndexMatchesScanningOracle drives the indexed controller and
// the scanning one through the same seeded random history of reroutes,
// removals and hit records, and compares everything observable after
// every step. Half the reroutes of a live flow keep its path's length
// and move one to three of its hops — the ones the controller rewrites
// in place — so the history covers kept and moved switches and domain
// crossings that appear and disappear, beside new blocks for fresh
// installs and paths of another length. Each flow is installed for its
// path's ends, and after every step each flow is walked through the
// tables: the random paths revisit switches and skip links on purpose,
// so the walk must answer the path exactly when its every hop is linked
// (a revisited switch tells its visits apart by the packet's hop) and
// walkOracle's error otherwise.
func TestFlowIndexMatchesScanningOracle(t *testing.T) {
	f := newFabric(t)
	c, oracle := f.controller(t), newScanTables(f.topo)
	// Ten switches across both domains for nine flows: every table is
	// shared, and a random path over so few nodes often revisits one.
	switches := []topology.NodeID{f.vms[0], f.vms[1], f.pms[0], f.pms[1], f.tors[0], f.tors[1], f.opss[0], f.opss[1], f.opss[2], f.opss[3]}
	keys := make([]string, 9)
	for i := range keys {
		keys[i] = fmt.Sprintf("tenant-%d/chain-%d", i%3, i)
	}
	const unknown = "tenant-x/never-installed" // only ever asked about
	rng := rand.New(rand.NewSource(18))
	randomPath := func() []topology.NodeID {
		p := make([]topology.NodeID, 1+rng.Intn(9))
		for i := range p {
			p[i] = switches[rng.Intn(len(switches))]
		}
		return p
	}
	crossings := func(path []topology.NodeID) int {
		oe, eo := domainCrossings(f.topo, path)
		return oe + eo
	}
	walks := map[string]int{} // Walk's answers, by outcome
	compare := func(step int, op string) {
		t.Helper()
		for _, sw := range switches {
			if got, want := c.RulesAt(sw), oracle.rulesAt(sw); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d (%s): RulesAt(%d) = %+v, oracle %+v", step, op, sw, got, want)
			}
		}
		for _, key := range append(keys, unknown) {
			if got, want := c.RulesForFlow(key), oracle.rulesForFlow(key); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d (%s): RulesForFlow(%q) = %+v, oracle %+v", step, op, key, got, want)
			}
			if got, want := c.FlowHits(key), oracle.flowHits(key); got != want {
				t.Fatalf("step %d (%s): FlowHits(%q) = %d, oracle %d", step, op, key, got, want)
			}
			got, err := c.Walk(key)
			want, wantErr := walkOracle(f.topo, oracle.rulesForFlow(key))
			if wantErr != nil && !errors.Is(err, wantErr) || wantErr == nil && (err != nil || !reflect.DeepEqual(got, want)) {
				t.Fatalf("step %d (%s): Walk(%q) = %+v, %v; oracle %+v, %v", step, op, key, got, err, want, wantErr)
			}
			switch {
			case wantErr != nil:
				walks[wantErr.Error()]++
			case hasRepeat(got.Route):
				walks["delivered, revisiting a switch"]++
			default:
				walks["delivered"]++
			}
		}
		if got, want := c.RuleCount(), oracle.ruleCount(); got != want {
			t.Fatalf("step %d (%s): RuleCount = %d, oracle %d", step, op, got, want)
		}
		paths, rules := c.Stats()
		if paths != oracle.pathsProvisioned || rules != oracle.rulesInstalled {
			t.Fatalf("step %d (%s): Stats = %d, %d, oracle %d, %d", step, op, paths, rules, oracle.pathsProvisioned, oracle.rulesInstalled)
		}
		checkIndexes(t, c)
	}
	seen := map[string]int{}
	for step := 0; step < 3000; step++ {
		key := keys[rng.Intn(len(keys))]
		var cur []topology.NodeID // the flow's path, in rule-ID order
		for _, r := range oracle.rulesForFlow(key) {
			cur = append(cur, r.Switch)
		}
		var op string
		switch k := rng.Intn(10); {
		case k < 6:
			op = "reroute-unknown-flow"
			path := randomPath()
			if cur != nil && rng.Intn(2) == 0 {
				path = slices.Clone(cur)
				for n := 1 + rng.Intn(3); n > 0; n-- {
					path[rng.Intn(len(path))] = switches[rng.Intn(len(switches))]
				}
			}
			block := c.flow(key)
			if cur != nil {
				op = "reroute-other-length"
				if len(path) == len(cur) {
					op = "reroute-same-length"
					for i := range path {
						if path[i] == cur[i] {
							seen["keeps-switch"]++
						} else {
							seen["moves-switch"]++
						}
					}
					switch before, after := crossings(cur), crossings(path); {
					case after > before:
						seen["crossing-appears"]++
					case after < before:
						seen["crossing-disappears"]++
					}
				}
			}
			if hasRepeat(path) {
				seen["path-revisits-switch"]++
			}
			prio := rng.Intn(200)
			m := Match{FlowKey: key, Src: path[0], Dst: path[len(path)-1]}
			if _, _, err := reroute(c, m, path, prio); err != nil {
				t.Fatalf("step %d: Reroute: %v", step, err)
			}
			oracle.reroute(m, path, prio)
			fits := len(path) == len(cur) && cap(block[0].Actions) >= len(path)+crossings(path)
			if inPlace := fits && &c.flow(key)[0] == &block[0]; inPlace != fits {
				t.Fatalf("step %d: a reroute from %v to %v rewrote the block in place: %v, want %v", step, cur, path, inPlace, fits)
			} else if inPlace {
				seen["reroute-in-place"]++
			}
		case k < 8:
			op = "remove"
			if cur == nil {
				op = "remove-unknown-flow"
			}
			if got, want := c.RemoveFlow(key), oracle.removeFlow(key); got != want {
				t.Fatalf("step %d: RemoveFlow(%q) = %d, oracle %d", step, key, got, want)
			}
		default:
			op = "hits"
			n := int64(rng.Intn(5) - 1) // -1 and 0 credit nothing
			if got, want := c.RecordHits(key, n), oracle.recordHits(key, n); got != want {
				t.Fatalf("step %d: RecordHits(%q, %d) = %d, oracle %d", step, key, n, got, want)
			}
		}
		seen[op]++
		compare(step, op)
	}
	for _, op := range []string{"reroute-unknown-flow", "reroute-other-length", "reroute-same-length", "reroute-in-place",
		"keeps-switch", "moves-switch", "crossing-appears", "crossing-disappears", "path-revisits-switch",
		"remove", "remove-unknown-flow", "hits"} {
		if seen[op] < 10 {
			t.Errorf("the history exercised %q %d times, want >= 10", op, seen[op])
		}
	}
	for _, outcome := range []string{"delivered", "delivered, revisiting a switch", ErrBlackhole.Error(), ErrNoLink.Error()} {
		if walks[outcome] < 10 {
			t.Errorf("the walks answered %q %d times, want >= 10", outcome, walks[outcome])
		}
	}
}

// walkOracle is what Walk must answer for a flow whose rules, in path
// order, are rules: ErrBlackhole for a flow with none; the path, its
// links and its domain crossings when HopLink resolves its every hop to
// a live link, switches visited twice included; otherwise ErrNoLink.
func walkOracle(topo *topology.Topology, rules []FlowRule) (Walk, error) {
	if len(rules) == 0 {
		return Walk{}, ErrBlackhole
	}
	var w Walk
	for i, r := range rules {
		w.Route, w.Rules = append(w.Route, r.Switch), append(w.Rules, r.ID)
		if i+1 == len(rules) {
			break
		}
		l, ok := topo.HopLink(r.Switch, rules[i+1].Switch)
		if !ok || l != 0 && topo.Link(l).Down {
			return Walk{}, ErrNoLink
		}
		w.Links = append(w.Links, l)
	}
	w.OE, w.EO = domainCrossings(topo, w.Route)
	return w, nil
}

// domainCrossings counts a path's hops out of the optical domain (oe)
// and into it (eo).
func domainCrossings(topo *topology.Topology, path []topology.NodeID) (oe, eo int) {
	for i := 0; i+1 < len(path); i++ {
		switch a, b := topo.Node(path[i]).Domain(), topo.Node(path[i+1]).Domain(); {
		case a == b:
		case a == topology.DomainOptical:
			oe++
		default:
			eo++
		}
	}
	return oe, eo
}

func hasRepeat(path []topology.NodeID) bool {
	for i, n := range path {
		for _, m := range path[:i] {
			if m == n {
				return true
			}
		}
	}
	return false
}

// TestFlowIndexConcurrent has installers, removers, rerouters and
// readers at one controller at once, every writer on its own flows: the
// paths all cross the few core switches and end on VMs few others use,
// so tables are both contended and left empty. Run under -race;
// afterwards the indexes must agree and, once every flow is removed, be
// empty.
func TestFlowIndexConcurrent(t *testing.T) {
	f := newFabric(t)
	c := f.controller(t)
	const writers, flowsEach, rounds = 4, 6, 150
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				n := w*flowsEach + rng.Intn(flowsEach)
				m := Match{FlowKey: fmt.Sprintf("w%d/f%d", w, n)}
				var err error
				switch rng.Intn(4) {
				case 0:
					_, _, err = reroute(c, m, f.path(n), 100)
				case 1:
					_, _, err = reroute(c, m, f.path(n + i)[:1+rng.Intn(8)], 100)
				case 2:
					c.RemoveFlow(m.FlowKey)
				default:
					c.RecordHits(m.FlowKey, 1)
				}
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				n := i % (writers * flowsEach)
				key := fmt.Sprintf("w%d/f%d", n/flowsEach, n)
				for _, rule := range c.RulesForFlow(key) {
					if rule.Match.FlowKey != key {
						t.Errorf("RulesForFlow(%q) returned a rule of %q", key, rule.Match.FlowKey)
					}
				}
				c.FlowHits(key)
				c.RulesAt(f.opss[(i+r)%len(f.opss)])
				if c.RuleCount() < 0 {
					t.Errorf("RuleCount went negative")
				}
			}
		}(r)
	}
	wg.Wait()
	checkIndexes(t, c)
	for n := 0; n < writers*flowsEach; n++ {
		c.RemoveFlow(fmt.Sprintf("w%d/f%d", n/flowsEach, n))
	}
	checkIndexes(t, c)
	if got := c.RuleCount(); got != 0 {
		t.Fatalf("RuleCount = %d after removing every flow", got)
	}
}

// installFlows installs n flows "bg/<i>" over the fabric's shared core.
func installFlows(tb testing.TB, c *Controller, f fabric, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		if _, _, err := reroute(c, Match{FlowKey: fmt.Sprintf("bg/%d", i)}, f.path(i), 100); err != nil {
			tb.Fatalf("Reroute: %v", err)
		}
	}
}

// churnAllocs is the allocation count of installing and removing one
// 8-hop flow beside `others` installed flows that hold rules on each of
// its switches.
func churnAllocs(t *testing.T, others int) float64 {
	f := newFabric(t)
	c := f.controller(t)
	installFlows(t, c, f, others)
	m, path := Match{FlowKey: "t/churn"}, f.path(0) // bg/0's switches
	return testing.AllocsPerRun(200, func() {
		if _, _, err := reroute(c, m, path, 100); err != nil {
			t.Fatalf("Reroute: %v", err)
		}
		if c.RemoveFlow(m.FlowKey) != len(path) {
			t.Fatal("RemoveFlow removed the wrong number of rules")
		}
	})
}

// TestFlowChurnAllocations pins the block allocation: a fresh install's
// rules and their actions are two allocations however long the path
// (per-rule allocation made an 8-hop install 30), the flow index adds at
// most its map's amortised growth, and none of it depends on how many
// other flows are installed.
func TestFlowChurnAllocations(t *testing.T) {
	few, many := churnAllocs(t, 10), churnAllocs(t, 2000)
	if few > 5 {
		t.Errorf("install+remove of an 8-hop flow allocates %.0f times, want <= 5", few)
	}
	if few != many {
		t.Errorf("install+remove allocates %.0f times beside 10 flows, %.0f beside 2000", few, many)
	}
}

// TestEmptiedTablesKeepTheirArrays installs and removes one 8-hop flow
// on a controller holding nothing else, so each removal empties every
// table on its path: a table is a slot by node ID that keeps its array
// when emptied, so a reinstall allocates the flow's block and its
// actions and nothing per switch.
func TestEmptiedTablesKeepTheirArrays(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	f := newFabric(t)
	if allocs := churnAllocs(t, 0); allocs != 2 {
		t.Errorf("install+remove of an 8-hop flow alone on its switches allocates %.1f times, want 2 (block and actions)", allocs)
	}
	c := f.controller(t)
	installFlows(t, c, f, 1)
	c.RemoveFlow("bg/0")
	checkIndexes(t, c)
	if got := c.RulesAt(f.path(0)[3]); len(got) != 0 {
		t.Fatalf("an emptied switch answers %d rules", len(got))
	}
}

// TestRerouteInPlaceAllocatesNothing reroutes one flow among 2 000, all
// on the same core switches, back and forth between two 8-hop paths with
// a switch in common and two domain crossings each, as a swap to a
// standby of the primary's length does: the flow's block is rewritten in
// place, so the reroute allocates nothing.
func TestRerouteInPlaceAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	f := newFabric(t)
	c := f.controller(t)
	installFlows(t, c, f, 2000)
	m := Match{FlowKey: "t/reroute"}
	paths := [2][]topology.NodeID{f.path(0), f.path(1)}
	if _, _, err := reroute(c, m, paths[1], 100); err != nil {
		t.Fatalf("Reroute: %v", err)
	}
	next := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := reroute(c, m, paths[next%2], 100); err != nil {
			t.Fatalf("Reroute: %v", err)
		}
		next++
	})
	if allocs != 0 {
		t.Errorf("a same-length reroute allocates %.1f times, want 0", allocs)
	}
	checkIndexes(t, c)
}

func TestRemoveFlowDoesNotAllocate(t *testing.T) {
	f := newFabric(t)
	c := f.controller(t)
	const runs = 100
	installFlows(t, c, f, runs+2) // AllocsPerRun calls once more to warm up; one flow stays
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		c.RemoveFlow(fmt.Sprintf("bg/%d", next))
		next++
	})
	// The key's Sprintf is the test's own: one allocation per run.
	if allocs > 1 {
		t.Errorf("RemoveFlow allocates %.0f times", allocs-1)
	}
	if got, want := c.RuleCount(), len(f.path(0)); got != want {
		t.Fatalf("RuleCount = %d, want the one remaining flow's %d", got, want)
	}
}

// TestRemoveFlowTouchesOnlyItsOwnRules counts, without a clock, what one
// RemoveFlow does among 600 flows: the scanning oracle looks at every
// installed rule; the indexed controller takes out the flow's own rules
// and, for each, moves at most one other rule (the table's last, into
// the gap) — every other rule stays at its slot and every table off the
// path keeps its backing array and length.
func TestRemoveFlowTouchesOnlyItsOwnRules(t *testing.T) {
	f := newFabric(t)
	c, oracle := f.controller(t), newScanTables(f.topo)
	const flows = 600
	installFlows(t, c, f, flows)
	for i := 0; i < flows; i++ {
		oracle.installPath(Match{FlowKey: fmt.Sprintf("bg/%d", i)}, f.path(i), 100)
	}
	const victim = 300
	key, path := fmt.Sprintf("bg/%d", victim), f.path(victim)
	onPath := make(map[topology.NodeID]bool)
	for _, n := range path {
		onPath[n] = true
	}

	type tableShape struct {
		first *FlowRule
		n     int
	}
	slotBefore := make(map[*FlowRule]int32)
	shapeBefore := make(map[topology.NodeID]tableShape)
	for i, table := range c.tables {
		if len(table) == 0 {
			continue
		}
		shapeBefore[topology.NodeID(i)] = tableShape{table[0], len(table)}
		for _, r := range table {
			slotBefore[r] = r.slot
		}
	}

	if got := oracle.removeFlow(key); got != len(path) {
		t.Fatalf("oracle removed %d rules, want %d", got, len(path))
	}
	if oracle.visited != flows*len(path) {
		t.Fatalf("oracle visited %d rules, want all %d", oracle.visited, flows*len(path))
	}
	if got := c.RemoveFlow(key); got != len(path) {
		t.Fatalf("RemoveFlow = %d, want %d", got, len(path))
	}

	moved, remaining := 0, 0
	for i, table := range c.tables {
		sw := topology.NodeID(i)
		remaining += len(table)
		if !onPath[sw] {
			if before := shapeBefore[sw]; len(table) != before.n || len(table) > 0 && table[0] != before.first {
				t.Errorf("table of switch %d, off the removed path, changed", sw)
			}
		}
		for _, r := range table {
			if r.slot != slotBefore[r] {
				moved++
				if !onPath[sw] {
					t.Errorf("rule %d on switch %d, off the removed path, moved", r.ID, sw)
				}
			}
		}
	}
	if remaining != (flows-1)*len(path) {
		t.Fatalf("%d rules remain, want %d", remaining, (flows-1)*len(path))
	}
	if moved > len(path) {
		t.Errorf("removing %d rules moved %d others, want at most one each", len(path), moved)
	}
	checkIndexes(t, c)
}

// BenchmarkFlowChurn installs, reroutes and removes one flow among N
// installed ones whose rules sit on the same core switches: ns/op must
// not grow with N.
func BenchmarkFlowChurn(b *testing.B) {
	for _, n := range []int{100, 5000} {
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) {
			f := newFabric(b)
			c := f.controller(b)
			installFlows(b, c, f, n)
			m := Match{FlowKey: "t/churn"}
			path, detour := f.path(0), f.path(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := reroute(c, m, path, 100); err != nil {
					b.Fatal(err)
				}
				if _, _, err := reroute(c, m, detour, 100); err != nil {
					b.Fatal(err)
				}
				c.RemoveFlow(m.FlowKey)
			}
		})
	}
}
