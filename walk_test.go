package alvc_test

import (
	"errors"
	"fmt"
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
//   - where §IV-D's accounting is the route's — each excursion out of the
//     optical core visits the host of one electronic VNF, every
//     electronic VNF has its excursion, and transit never leaves the
//     core — the walk-measured excursions equal dep.Conversions under
//     the default per-VNF accounting;
//   - a slice-confined chain crosses only its own slice's OPSs, so none
//     of another tenant's, and every chain hosts its optical VNFs in its
//     own slice (§IV: an unconfined route may transit foreign OPSs, which
//     is what SliceConfined records);
//   - the walks use every installed rule, so no rule is orphaned.
//
// It returns how many chains §IV-D's premise held for.
func checkWalks(t *testing.T, arch *alvc.Architecture, when string) (premised int) {
	t.Helper()
	topo, sh := arch.Topology(), arch.Sharded()
	sim, err := flow.NewSimulator(topo, flow.DefaultConfig())
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	walked := 0
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
		if fig8Premise(topo, w.Route, hosts) {
			premised++
			pf, err := sim.Measure(flow.Spec{Walk: w, Bytes: dep.Spec.FlowBytes})
			if err != nil {
				fail("measure: %v", err)
			} else if pf.OEOConversions != dep.Conversions {
				fail("the walk pays %d O/E/O excursions, the placement %d", pf.OEOConversions, dep.Conversions)
			}
		}
		for _, n := range w.Route {
			if node := topo.Node(n); node.Kind == topology.KindOPS && !dep.Slice.Contains(n) &&
				(dep.SliceConfined || slices.Contains(hosts, n)) {
				fail("the walk crosses OPS %d outside its slice %v (confined %v, NF hosts %v)", n, dep.Slice.OPSs, dep.SliceConfined, hosts)
			}
		}
	}
	installed := 0
	for _, st := range sh.ShardStats() {
		installed += st.InstalledRules
	}
	if walked != installed {
		t.Errorf("%s: the walks use %d rules, the switches hold %d", when, walked, installed)
	}
	return premised
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

// fig8Premise reports whether a route pays O/E/O conversions the way
// §IV-D's accounting (Fig. 8) counts them: its excursions out of the
// optical core — the electronic runs between its first and last optical
// switch — are one per electronic VNF host, in chain order, each
// visiting its host and no other's.
func fig8Premise(topo *topology.Topology, route, hosts []topology.NodeID) bool {
	var electronic []topology.NodeID
	for _, h := range hosts {
		if topo.Node(h).Domain() == topology.DomainElectronic {
			electronic = append(electronic, h)
		}
	}
	optical := func(n topology.NodeID) bool { return topo.Node(n).Domain() == topology.DomainOptical }
	first, last := slices.IndexFunc(route, optical), len(route)-1
	for last >= 0 && !optical(route[last]) {
		last--
	}
	if first < 0 {
		return false
	}
	k := 0
	for i := first + 1; i < last; i++ {
		if optical(route[i]) {
			continue
		}
		end := i
		for !optical(route[end]) {
			end++
		}
		dip := route[i:end]
		hosted := 0
		for _, h := range electronic {
			if slices.Contains(dip, h) {
				hosted++
			}
		}
		if k == len(electronic) || hosted != 1 || !slices.Contains(dip, electronic[k]) {
			return false
		}
		k++
		i = end
	}
	return k == len(electronic)
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

// TestWalkChecksOnDefaultTopology walks chains of one to four NFs on the
// default topology — VNFs in both domains, routes out to their hosts
// and back — after they are provisioned, after every other one is
// deleted and after the freed room is filled again. §IV-D's count must
// be checked on some of them.
func TestWalkChecksOnDefaultTopology(t *testing.T) {
	arch, err := alvc.New(alvc.DefaultTopology())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	nfs := [][]string{{"firewall", "dpi", "nat"}, {"secgw", "firewall", "dpi"}, {"lb", "videoopt", "cache"}, {"ids", "wanopt", "videoopt", "nat"}, {"dpi"}}
	deploy := func(from, to int) {
		for i := from; i < to; i++ {
			service := []string{"web", "mapreduce", "sns"}[i%3]
			spec, err := alvc.LinearChain(fmt.Sprintf("c-%d", i), fmt.Sprintf("t-%d", i%4), service, 1, 1<<20, nfs[i%len(nfs)]...)
			if err != nil {
				t.Fatalf("LinearChain: %v", err)
			}
			_, _ = arch.Sharded().Provision(ctx, spec) // the topology fills up: a chain that does not fit is no test
		}
	}
	deploy(0, 12)
	premised := checkWalks(t, arch, "provisioned")
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
	premised += checkWalks(t, arch, "every other chain deleted")
	deploy(12, 24)
	premised += checkWalks(t, arch, "refilled")
	t.Logf("§IV-D's premise held for %d chain walks", premised)
	if premised == 0 {
		t.Error("§IV-D's premise held for no chain: the conversion check is vacuous")
	}
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
