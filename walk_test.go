package alvc_test

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/flow"
	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/sdn"
	"github.com/alvc/alvc/internal/topology"
)

// checkWalks walks every active chain through its shard's switch tables
// (sdn.Controller.Walk) and holds what the switches do to the chain's
// record and to the paper's claims:
//   - the walk delivers, and its route is the record's path;
//   - the hosts of the chain's instances are visited in chain order, as
//     a subsequence of the route (Mehraghdam et al.'s ordering
//     constraint; a route passes a VNF host's ToR more than once);
//   - the walk's conversions are the ones the flow's rules hold, and one
//     per hop between domains (§IV-D);
//   - the O/E/O excursions the walk pays, and their energy, are the
//     record's dep.Conversions and dep.EnergyJoules, and summed over the
//     chains they are ShardStats' and Summarize's totals;
//   - a slice-confined chain crosses only its own slice's OPSs, so none
//     of another tenant's, and every chain hosts its optical VNFs in its
//     own slice (§IV: an unconfined route may transit foreign OPSs, which
//     is what SliceConfined records);
//   - the walks use every installed rule, so no rule is orphaned.
//
// It returns how many chains pay an excursion and how many pay other
// than their placement's per-VNF score (Fig. 8's count).
func checkWalks(t *testing.T, arch *alvc.Architecture, when string) (paying, offScore int) {
	t.Helper()
	topo, sh := arch.Topology(), arch.Sharded()
	sim, err := flow.NewSimulator(topo, flow.DefaultConfig())
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	walked, excursions, energy := 0, 0, 0.0
	for _, dep := range arch.Sharded().Deployments() {
		if dep.State != orch.StateActive {
			continue
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Errorf("%s: chain %d: %s", when, dep.ID, fmt.Sprintf(format, args...))
		}
		ctrl := sh.ControllerOf(dep.ID)
		w, err := ctrl.Walk(dep.FlowKey())
		if err != nil {
			fail("walk: %v", err)
			continue
		}
		walked += len(w.Rules)
		if !slices.Equal(w.Route, dep.Path) {
			fail("the rules walk %v, the record says %v", w.Route, dep.Path)
		}
		hosts := make([]topology.NodeID, len(dep.Instances))
		for i, id := range dep.Instances {
			hosts[i] = sh.Manager().Instance(id).Host
		}
		if !visitsInOrder(w.Route, hosts) {
			fail("the walk %v does not visit the NF hosts %v in chain order", w.Route, hosts)
		}
		var oe, eo int
		for _, r := range ctrl.RulesForFlow(dep.FlowKey()) {
			for _, a := range r.Actions {
				switch a.Type {
				case sdn.ActionConvertOE:
					oe++
				case sdn.ActionConvertEO:
					eo++
				}
			}
		}
		routeOE, routeEO := crossings(topo, w.Route)
		if w.OE != oe || w.EO != eo || w.OE != routeOE || w.EO != routeEO {
			fail("the walk converts %d OE / %d EO, its rules hold %d / %d, its route crosses %d / %d", w.OE, w.EO, oe, eo, routeOE, routeEO)
		}
		pf, err := sim.Measure(flow.Spec{Walk: w, Bytes: dep.Spec.FlowBytes})
		if err != nil {
			fail("measure: %v", err)
			continue
		}
		if pf.OEOConversions != dep.Conversions || pf.EnergyJoules != dep.EnergyJoules {
			fail("the walk pays %d O/E/O excursions (%g J), the record says %d (%g J)", pf.OEOConversions, pf.EnergyJoules, dep.Conversions, dep.EnergyJoules)
		}
		excursions += pf.OEOConversions
		energy += pf.EnergyJoules
		if pf.OEOConversions > 0 {
			paying++
		}
		if pf.OEOConversions != dep.Placement.Conversions {
			offScore++
		}
		for _, n := range w.Route {
			if node := topo.Node(n); node.Kind == topology.KindOPS && !dep.Slice.Contains(n) &&
				(dep.SliceConfined || slices.Contains(hosts, n)) {
				fail("the walk crosses OPS %d outside its slice %v (confined %v, NF hosts %v)", n, dep.Slice.OPSs, dep.SliceConfined, hosts)
			}
		}
	}
	installed, conversions, joules := 0, 0, 0.0
	for _, st := range sh.ShardStats() {
		installed += st.InstalledRules
		conversions += st.Conversions
		joules += st.EnergyJoules
	}
	if walked != installed {
		t.Errorf("%s: the walks use %d rules, the switches hold %d", when, walked, installed)
	}
	sum := arch.Summarize()
	if excursions != conversions || excursions != sum.TotalConversions ||
		!closeTo(energy, joules) || !closeTo(energy, sum.TotalEnergyJoules) {
		t.Errorf("%s: the walks pay %d excursions (%g J), the shard stats sum %d (%g J), the summary %d (%g J)",
			when, excursions, energy, conversions, joules, sum.TotalConversions, sum.TotalEnergyJoules)
	}
	return paying, offScore
}

// closeTo reports whether two sums of the same terms, added in different
// orders, agree.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*max(math.Abs(a), math.Abs(b), 1)
}

// visitsInOrder reports whether route visits hosts in order, one host
// after (or at) the visit of the one before.
func visitsInOrder(route, hosts []topology.NodeID) bool {
	at := 0
	for _, h := range hosts {
		i := slices.Index(route[at:], h)
		if i < 0 {
			return false
		}
		at += i
	}
	return true
}

// crossings counts a route's hops out of the optical domain (oe) and
// into it (eo).
func crossings(topo *topology.Topology, route []topology.NodeID) (oe, eo int) {
	for i := 0; i+1 < len(route); i++ {
		switch a, b := topo.Node(route[i]).Domain(), topo.Node(route[i+1]).Domain(); {
		case a == b:
		case a == topology.DomainOptical:
			oe++
		default:
			eo++
		}
	}
	return oe, eo
}

// TestWalkChecksAfterStormRounds runs failure_storm's rounds over one
// tray of the four-shard storm fleet — cut, flush, drain, recover, drain
// — and walks every chain after each step: repairs, swaps, re-protects
// and recoveries rewrite rules in place, and the switches must still
// carry every chain along its record.
func TestWalkChecksAfterStormRounds(t *testing.T) {
	arch, _ := stormFleet(t, 64, alvc.WithOptimizer(alvc.OptimizerOptions{}), alvc.WithFailureDebounce(time.Hour))
	var tray []alvc.DeploymentID
	for _, dep := range arch.Sharded().Deployments()[1:9] {
		tray = append(tray, dep.ID)
	}
	checkWalks(t, arch, "provisioned")
	for round := 1; round <= 3; round++ {
		links := trayCut(arch, tray)
		for _, l := range links {
			arch.Debouncer().Report(ctx, alvc.NewFailures(nil, []alvc.LinkID{l}))
		}
		if _, err := arch.FlushFailures(); err != nil {
			t.Fatalf("round %d: flush: %v", round, err)
		}
		checkWalks(t, arch, fmt.Sprintf("round %d, flushed", round))
		arch.Optimizer().Drain()
		checkWalks(t, arch, fmt.Sprintf("round %d, drained", round))
		for _, l := range links {
			if err := arch.Sharded().Recover(alvc.NewFailures(nil, []alvc.LinkID{l})); err != nil {
				t.Fatalf("round %d: Recover: %v", round, err)
			}
		}
		checkWalks(t, arch, fmt.Sprintf("round %d, recovered", round))
		arch.Optimizer().Drain()
		checkWalks(t, arch, fmt.Sprintf("round %d, drained again", round))
	}
}

// deployMixed provisions the chains numbered from up to to: one to four
// NFs, in both domains, over three services and four tenants. The
// topology fills up: a chain that does not fit is no test, and is
// skipped.
func deployMixed(t *testing.T, arch *alvc.Architecture, from, to int) {
	t.Helper()
	nfs := [][]string{{"firewall", "dpi", "nat"}, {"secgw", "firewall", "dpi"}, {"lb", "videoopt", "cache"}, {"ids", "wanopt", "videoopt", "nat"}, {"dpi"}}
	for i := from; i < to; i++ {
		service := []string{"web", "mapreduce", "sns"}[i%3]
		spec, err := alvc.LinearChain(fmt.Sprintf("c-%d", i), fmt.Sprintf("t-%d", i%4), service, 1, 1<<20, nfs[i%len(nfs)]...)
		if err != nil {
			t.Fatalf("LinearChain: %v", err)
		}
		_, _ = arch.Sharded().Provision(ctx, spec)
	}
}

// TestWalkChecksOnDefaultTopology walks chains of one to four NFs on the
// default topology — VNFs in both domains, routes out to their hosts
// and back — after they are provisioned, after every other one is
// deleted and after the freed room is filled again. Some walks must pay
// an excursion, and some must pay other than Fig. 8's per-VNF count, or
// the record's count is not told apart from the placement's.
func TestWalkChecksOnDefaultTopology(t *testing.T) {
	arch, err := alvc.New(alvc.DefaultTopology())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var paying, offScore int
	check := func(when string) {
		p, o := checkWalks(t, arch, when)
		paying, offScore = paying+p, offScore+o
	}
	deployMixed(t, arch, 0, 12)
	check("provisioned")
	deps := arch.Sharded().Deployments()
	if len(deps) < 3 {
		t.Fatalf("%d chains provisioned, want 3 or more", len(deps))
	}
	for i, dep := range deps {
		if i%2 == 0 {
			if _, err := arch.Sharded().Delete(ctx, dep.ID); err != nil {
				t.Fatalf("Delete %d: %v", dep.ID, err)
			}
		}
	}
	check("every other chain deleted")
	deployMixed(t, arch, 12, 24)
	check("refilled")
	t.Logf("%d chain walks pay an excursion, %d pay other than their placement's score", paying, offScore)
	if paying == 0 {
		t.Error("no chain walk pays an excursion: the conversion check is vacuous")
	}
	if offScore == 0 {
		t.Error("every chain walk pays its placement's score: the check does not tell the record from the placement")
	}
}

// TestConversionsFollowRepathAndSwap swaps one chain onto a standby that
// pays other than its primary, then repaths another: each moves the
// route and not the placement, and after each the record counts what the
// rules now walk.
func TestConversionsFollowRepathAndSwap(t *testing.T) {
	arch, err := alvc.New(alvc.DefaultTopology())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	deployMixed(t, arch, 0, 12)
	checkWalks(t, arch, "provisioned")
	topo := arch.Topology()
	pays := func(path []alvc.NodeID) int { return sdn.Excursions(crossings(topo, path)) }
	// transitLinks returns the route's links with a ToR or an OPS at both
	// ends, but those in skip: a cut of one leaves the chain a detour.
	transitLinks := func(route []alvc.NodeID, skip []alvc.LinkID) []alvc.LinkID {
		transit := func(n alvc.NodeID) bool {
			k := topo.Node(n).Kind
			return k == topology.KindToR || k == topology.KindOPS
		}
		var out []alvc.LinkID
		for i := 0; i+1 < len(route); i++ {
			if a, b := route[i], route[i+1]; transit(a) && transit(b) {
				if l := topo.LinkBetween(a, b).ID; !slices.Contains(skip, l) {
					out = append(out, l)
				}
			}
		}
		return out
	}
	// cut fails the links and wants the chain repaired by the action.
	cut := func(id alvc.DeploymentID, want orch.RepairAction, links ...alvc.LinkID) *alvc.Deployment {
		t.Helper()
		reports, err := arch.Sharded().HandleFailures(ctx, alvc.NewFailures(nil, links))
		if err != nil {
			t.Fatalf("HandleFailures: %v", err)
		}
		i := slices.IndexFunc(reports, func(r orch.RepairReport) bool { return r.ID == id })
		if i < 0 || reports[i].Action != want {
			t.Fatalf("cut of links %v: reports %+v, want chain %d %s", links, reports, id, want)
		}
		checkWalks(t, arch, fmt.Sprintf("chain %d %s", id, want))
		return arch.Deployment(id)
	}
	deps := arch.Sharded().Deployments()
	i := slices.IndexFunc(deps, func(d *alvc.Deployment) bool {
		return d.Standby != nil && pays(d.Standby.Path) != pays(d.Path) && len(transitLinks(d.Path, d.Standby.Links)) > 0
	})
	if i < 0 {
		t.Fatal("no chain's standby pays other than its primary: a swap would show nothing")
	}
	dep := deps[i]
	after := cut(dep.ID, orch.ActionSwapped, transitLinks(dep.Path, dep.Standby.Links)[0])
	if want := pays(dep.Standby.Path); after.Conversions != want || after.Placement.Conversions != dep.Placement.Conversions {
		t.Errorf("swap: conversions %d -> %d, placement score %d -> %d; want the standby's %d and the score kept",
			dep.Conversions, after.Conversions, dep.Placement.Conversions, after.Placement.Conversions, want)
	}
	// Another chain loses its primary and, if it has one, its standby.
	deps = arch.Sharded().Deployments()
	j := slices.IndexFunc(deps, func(d *alvc.Deployment) bool { return d.ID != dep.ID && len(transitLinks(d.Path, nil)) > 0 })
	if j < 0 {
		t.Fatal("no second chain to repath")
	}
	dep = deps[j]
	links := transitLinks(dep.Path, nil)[:1]
	if dep.Standby != nil {
		links = append(links, transitLinks(dep.Standby.Path, links)...)
	}
	cut(dep.ID, orch.ActionRepathed, links...)
}

// TestMeasureDeploymentReadsTheSwitches: the facade prices a chain from
// the walk its rules take, so a chain whose rules are gone from the
// switches measures as an error, where its record's path alone would
// still give a number.
func TestMeasureDeploymentReadsTheSwitches(t *testing.T) {
	arch, err := alvc.New(alvc.DefaultTopology())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec, err := alvc.LinearChain("m", "t", "web", 1, 1<<20, "firewall", "dpi", "nat")
	if err != nil {
		t.Fatalf("LinearChain: %v", err)
	}
	dep, err := arch.Sharded().Provision(ctx, spec)
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if res, err := arch.MeasureDeployment(dep.ID, 3); err != nil || res.MeanHops != float64(len(dep.Path)-1) {
		t.Fatalf("MeasureDeployment = %+v, %v; want %d hops a flow", res, err, len(dep.Path)-1)
	}
	arch.Sharded().ControllerOf(dep.ID).RemoveFlow(dep.FlowKey())
	if _, err := arch.MeasureDeployment(dep.ID, 3); !errors.Is(err, sdn.ErrBlackhole) {
		t.Fatalf("MeasureDeployment of a chain without rules = %v, want %v", err, sdn.ErrBlackhole)
	}
}
