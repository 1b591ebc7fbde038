package resilience

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/alvc/alvc/internal/graph"
	"github.com/alvc/alvc/internal/sdn"
	"github.com/alvc/alvc/internal/topology"
)

// twoRouteTopo: pm1 and pm2 joined by two disjoint ToR routes, the
// first cheaper. Returns the topology, endpoints, and per-route transit
// nodes/links.
func twoRouteTopo(t *testing.T) (topo *topology.Topology, pm1, pm2 topology.NodeID,
	tors [2][2]topology.NodeID, links [2][2]topology.LinkID) {
	t.Helper()
	topo = topology.New()
	big := topology.Resources{CPUCores: 32, MemoryGB: 64, StorageGB: 512}
	pm1 = topo.AddPM(0, big)
	pm2 = topo.AddPM(1, big)
	for r := 0; r < 2; r++ {
		tors[r][0] = topo.AddToR(0)
		tors[r][1] = topo.AddToR(1)
		lat := float64(1 + r)
		var err error
		if links[r][0], err = topo.AddLink(pm1, tors[r][0], topology.LinkElectronic, 10, lat); err != nil {
			t.Fatalf("AddLink: %v", err)
		}
		if _, err = topo.AddLink(tors[r][0], tors[r][1], topology.LinkElectronic, 10, lat); err != nil {
			t.Fatalf("AddLink: %v", err)
		}
		if links[r][1], err = topo.AddLink(tors[r][1], pm2, topology.LinkElectronic, 10, lat); err != nil {
			t.Fatalf("AddLink: %v", err)
		}
	}
	return topo, pm1, pm2, tors, links
}

func TestFailureSetUnion(t *testing.T) {
	topo, _, _, _, _ := twoRouteTopo(t)
	f := Classify(topo, topology.NewFailures([]topology.NodeID{5, 3, 5}, []topology.LinkID{7}))
	if !slices.Equal(f.Nodes(), []topology.NodeID{3, 5}) || !slices.Equal(f.Links(), []topology.LinkID{7}) {
		t.Fatalf("set = %v %v, want [3 5] [7]", f.Nodes(), f.Links())
	}
	if !f.HasNode(5) || !f.HasNode(3) {
		t.Fatal("missed node 5")
	}
	if f.HasNode(1) || f.HasNode(2) {
		t.Fatal("phantom node hit")
	}
	if !slices.Contains(f.Links(), 7) || slices.Contains(f.Links(), 8) {
		t.Fatal("link hit detection wrong")
	}
	empty := Classify(topo, topology.NewFailures(nil, nil))
	if !empty.Empty() || empty.HasNode(3) || len(empty.Links()) != 0 || empty.Suspect != nil || empty.SRLGs != nil {
		t.Fatal("empty set hits resources")
	}
}

func TestPathLinksSkipsVirtualHopsAndSeesDownLinks(t *testing.T) {
	topo, pm1, pm2, tors, links := twoRouteTopo(t)
	vm, err := topo.AddVM(pm1, "web")
	if err != nil {
		t.Fatalf("AddVM: %v", err)
	}
	path := []topology.NodeID{vm, pm1, tors[0][0], tors[0][1], pm2}
	got, ok := topo.AppendPathLinks(nil, path)
	if !ok {
		t.Fatal("AppendPathLinks: a hop joins no link")
	}
	if len(got) != 3 {
		t.Fatalf("PathLinks = %v, want 3 physical links (virtual VM hop skipped)", got)
	}
	if got[0] != links[0][0] {
		t.Fatalf("first link = %d, want %d", got[0], links[0][0])
	}
	// A down link must still be enumerated — classification happens
	// after the failure is marked.
	if err := topo.SetDown(topology.NewFailures(nil, []topology.LinkID{links[0][0]}), true); err != nil {
		t.Fatalf("SetDown: %v", err)
	}
	again, ok := topo.AppendPathLinks(nil, path)
	if !ok {
		t.Fatal("AppendPathLinks after down: a hop joins no link")
	}
	if len(again) != 3 || again[0] != links[0][0] {
		t.Fatalf("PathLinks after down = %v, want the dead link reported", again)
	}
	// Disconnected hops are an error.
	if _, ok := topo.AppendPathLinks(nil, []topology.NodeID{pm1, pm2}); ok {
		t.Fatal("AppendPathLinks accepted a non-adjacent hop")
	}
}

func TestPathAlive(t *testing.T) {
	topo, pm1, pm2, tors, links := twoRouteTopo(t)
	path := []topology.NodeID{pm1, tors[0][0], tors[0][1], pm2}
	if !PathAlive(topo, path) {
		t.Fatal("fresh path not alive")
	}
	if err := topo.SetDown(topology.NewFailures(nil, []topology.LinkID{links[0][1]}), true); err != nil {
		t.Fatalf("SetDown: %v", err)
	}
	if PathAlive(topo, path) {
		t.Fatal("path alive over a dead link")
	}
	if err := topo.SetDown(topology.NewFailures(nil, []topology.LinkID{links[0][1]}), false); err != nil {
		t.Fatalf("SetLinkUp: %v", err)
	}
	if err := topo.SetDown(topology.NewFailures([]topology.NodeID{tors[0][0]}, nil), true); err != nil {
		t.Fatalf("SetDown: %v", err)
	}
	if PathAlive(topo, path) {
		t.Fatal("path alive over a dead node")
	}
	if PathAlive(topo, nil) {
		t.Fatal("empty path alive")
	}
}

// finderOver returns the production finder — an SDN controller — over
// the topology.
func finderOver(t *testing.T, topo *topology.Topology) *sdn.Controller {
	t.Helper()
	c, err := sdn.NewController(topo)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	return c
}

func TestPlanStandbyPrefersDisjoint(t *testing.T) {
	topo, pm1, pm2, tors, _ := twoRouteTopo(t)
	primary := []topology.NodeID{pm1, tors[0][0], tors[0][1], pm2}
	sb, err := PlanStandby(finderOver(t, topo), topo, primary, []topology.NodeID{pm1, pm2}, nil, 4, topology.Pool{})
	if err != nil {
		t.Fatalf("PlanStandby: %v", err)
	}
	if !sb.Disjoint {
		t.Fatalf("standby %+v not marked disjoint", sb)
	}
	if len(sb.Path) != 4 || sb.Path[1] != tors[1][0] {
		t.Fatalf("standby path = %v, want the second route", sb.Path)
	}
	if len(sb.Links) != 3 {
		t.Fatalf("standby links = %v, want 3", sb.Links)
	}
	// The cheap route is the primary here; protecting the dear one must
	// come back with the cheap one, not with the primary again.
	sb, err = PlanStandby(finderOver(t, topo), topo, sb.Path, []topology.NodeID{pm1, pm2}, nil, 4, topology.Pool{})
	if err != nil || !sb.Disjoint || sb.Path[1] != tors[0][0] {
		t.Fatalf("standby of the second route = %+v, %v; want the first route, disjoint", sb, err)
	}
}

func TestPlanStandbyBestEffortWhenOnlyOverlappingAltExists(t *testing.T) {
	topo, pm1, pm2, tors, links := twoRouteTopo(t)
	primary := []topology.NodeID{pm1, tors[0][0], tors[0][1], pm2}
	// The second route is cut: the only way left is the primary's own.
	if err := topo.SetDown(topology.NewFailures(nil, []topology.LinkID{links[1][0]}), true); err != nil {
		t.Fatalf("SetDown: %v", err)
	}
	sb, err := PlanStandby(finderOver(t, topo), topo, primary, []topology.NodeID{pm1, pm2}, nil, 4, topology.Pool{})
	if err != nil {
		t.Fatalf("PlanStandby: %v", err)
	}
	if sb.Disjoint {
		t.Fatal("identical standby marked disjoint")
	}
}

func TestPlanStandbyErrors(t *testing.T) {
	topo, pm1, pm2, tors, links := twoRouteTopo(t)
	primary := []topology.NodeID{pm1, tors[0][0], tors[0][1], pm2}
	good := finderOver(t, topo)
	if _, err := PlanStandby(good, topo, primary, []topology.NodeID{pm1, pm2}, nil, 0, topology.Pool{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := PlanStandby(nil, topo, primary, []topology.NodeID{pm1, pm2}, nil, 4, topology.Pool{}); err == nil {
		t.Fatal("nil finder accepted")
	}
	if _, err := PlanStandby(good, topo, nil, []topology.NodeID{pm1, pm2}, nil, 4, topology.Pool{}); err == nil {
		t.Fatal("empty primary accepted")
	}
	for r := range links {
		if err := topo.SetDown(topology.NewFailures(nil, []topology.LinkID{links[r][1]}), true); err != nil {
			t.Fatalf("SetDown: %v", err)
		}
	}
	if _, err := PlanStandby(good, topo, primary, []topology.NodeID{pm1, pm2}, nil, 4, topology.Pool{}); !errors.Is(err, graph.ErrNoPath) {
		t.Fatalf("no-route segment: err = %v, want graph.ErrNoPath", err)
	}
}

// TestPlanStandbyConfinedFlag: Confined says every OPS of the standby
// is the chain's own.
func TestPlanStandbyConfinedFlag(t *testing.T) {
	topo := topology.New()
	big := topology.Resources{CPUCores: 32, MemoryGB: 64, StorageGB: 512}
	pm1, pm2 := topo.AddPM(0, big), topo.AddPM(1, big)
	var opss [2]topology.NodeID
	var primary []topology.NodeID
	for r := range opss {
		t1, t2 := topo.AddToR(0), topo.AddToR(1)
		opss[r] = topo.AddOPS(false, topology.Resources{})
		route := []topology.NodeID{pm1, t1, opss[r], t2, pm2}
		for i, kind := range []topology.LinkKind{topology.LinkElectronic, topology.LinkBoundary, topology.LinkBoundary, topology.LinkElectronic} {
			if _, err := topo.AddLink(route[i], route[i+1], kind, 10, 1); err != nil {
				t.Fatalf("AddLink: %v", err)
			}
		}
		if r == 0 {
			primary = route
		}
	}
	for _, tc := range []struct {
		slice topology.NodeSet
		want  bool
	}{
		{topology.NewNodeSet(opss[0], opss[1]), true},
		{topology.NodeSet{opss[0]}, false},
	} {
		sb, err := PlanStandby(finderOver(t, topo), topo, primary, []topology.NodeID{pm1, pm2}, tc.slice, 4, topology.Pool{})
		if err != nil || !sb.Disjoint {
			t.Fatalf("slice %v: standby %+v, %v; want a disjoint one", tc.slice, sb, err)
		}
		if sb.Confined != tc.want {
			t.Errorf("slice %v: Confined = %v, want %v (standby %v)", tc.slice, sb.Confined, tc.want, sb.Path)
		}
	}
}

func TestStandbyClone(t *testing.T) {
	var nilStandby *Standby
	if nilStandby.Clone() != nil {
		t.Fatal("nil clone not nil")
	}
	sb := &Standby{Path: []topology.NodeID{1, 2}, Links: []topology.LinkID{9}, Disjoint: true}
	cp := sb.Clone()
	cp.Path[0] = 42
	cp.Links[0] = 43
	if sb.Path[0] != 1 || sb.Links[0] != 9 {
		t.Fatal("clone aliases the original")
	}
}

// TestStandbyCloneBlocks: a clone is deep, equal and clipped whatever
// its lists' lengths, and is one allocation while they fit a block —
// up to fifteen nodes over twelve links — else the record and an array
// per list.
func TestStandbyCloneBlocks(t *testing.T) {
	for nodes := 1; nodes <= 18; nodes++ {
		for links := 0; links < nodes; links++ {
			sb := &Standby{Disjoint: true}
			for i := range nodes {
				sb.Path = append(sb.Path, topology.NodeID(i+1))
			}
			for i := range links {
				sb.Links = append(sb.Links, topology.LinkID(i+1))
			}
			cp := sb.Clone()
			if !reflect.DeepEqual(cp, sb) || cap(cp.Path) != nodes || cap(cp.Links) != links {
				t.Fatalf("%d nodes over %d links: clone %+v (capacities %d, %d) of %+v", nodes, links, cp, cap(cp.Path), cap(cp.Links), sb)
			}
			cp.Path[0] = -1
			if links > 0 {
				cp.Links[0] = -1
			}
			if sb.Path[0] != 1 || links > 0 && sb.Links[0] != 1 {
				t.Fatalf("%d nodes over %d links: the clone shares the original's arrays", nodes, links)
			}
			if raceEnabled {
				continue
			}
			want := 3.0
			switch {
			case nodes <= 15 && links <= 12:
				want = 1
			case links == 0:
				want = 2
			}
			if got := testing.AllocsPerRun(10, func() { sb.Clone() }); got != want {
				t.Errorf("%d nodes over %d links: a clone allocates %.0f times, want %.0f", nodes, links, got, want)
			}
			// For a route between two VMs (two virtual hops, so links =
			// nodes - 3) past the two-NF block, a block is never more bytes
			// than the record and an array per list.
			if want != 1 || sb.BlockNodes() == 7 || links != nodes-3 {
				continue
			}
			perList := func() {
				cp := *sb
				cp.Path, cp.Links = slices.Clone(sb.Path), slices.Clone(sb.Links)
				sink = &cp
			}
			if block, lists := bytesPerRun(func() { sink = sb.Clone() }), bytesPerRun(perList); block > lists {
				t.Errorf("%d nodes over %d links: a clone's block is %d bytes, the per-list layout %d", nodes, links, block, lists)
			}
		}
	}
}

var sink *Standby

// bytesPerRun is what one call of f allocates, in bytes.
func bytesPerRun(f func()) uint64 {
	const runs = 100
	var before, after runtime.MemStats
	f()
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestPlanStandbySRLGCountsAsOverlap: a route-disjoint alternative
// whose links share a risk group (same cable tray) with the primary
// must score as overlap — "disjoint" means survivable — so the planner
// prefers a truly independent route and marks tray-sharing ones
// non-disjoint.
func TestPlanStandbySRLGCountsAsOverlap(t *testing.T) {
	topo, pm1, pm2, tors, links := twoRouteTopo(t)
	// Route 0 (the primary) and route 1 share tray 7 on the PM1 side.
	if err := topo.SetLinkSRLG(links[0][0], 7); err != nil {
		t.Fatalf("SetLinkSRLG: %v", err)
	}
	if err := topo.SetLinkSRLG(links[1][0], 7); err != nil {
		t.Fatalf("SetLinkSRLG: %v", err)
	}
	primary := []topology.NodeID{pm1, tors[0][0], tors[0][1], pm2}
	finder := finderOver(t, topo)
	sb, err := PlanStandby(finder, topo, primary, []topology.NodeID{pm1, pm2}, nil, 4, topology.Pool{})
	if err != nil {
		t.Fatalf("PlanStandby: %v", err)
	}
	if sb.Path[1] != tors[1][0] {
		t.Fatalf("standby = %v, want the second route (one shared tray beats the primary's own links)", sb.Path)
	}
	if sb.Disjoint {
		t.Fatal("tray-sharing standby marked disjoint")
	}
	found := false
	for _, g := range sb.SRLGs {
		if g == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("standby SRLGs = %v, want to contain 7", sb.SRLGs)
	}

	// Without the shared tray the same alternative is fully disjoint.
	if err := topo.SetLinkSRLG(links[1][0]); err != nil {
		t.Fatalf("clear SRLG: %v", err)
	}
	sb, err = PlanStandby(finder, topo, primary, []topology.NodeID{pm1, pm2}, nil, 4, topology.Pool{})
	if err != nil {
		t.Fatalf("PlanStandby: %v", err)
	}
	if !sb.Disjoint {
		t.Fatal("independent standby not marked disjoint")
	}
}

// TestFailureSetSRLG: Classify folds the dead links' groups into the
// set and HitsAnySRLG probes them.
func TestFailureSetSRLG(t *testing.T) {
	topo, _, _, _, links := twoRouteTopo(t)
	if err := topo.SetLinkSRLG(links[0][0], 3, 4); err != nil {
		t.Fatalf("SetLinkSRLG: %v", err)
	}
	unclassified := FailureSet{Failures: topology.NewFailures(nil, []topology.LinkID{links[0][0]})}
	if unclassified.HitsAnySRLG([]int{3}) {
		t.Fatal("SRLG hit before Classify")
	}
	f := Classify(topo, unclassified.Failures)
	if !slices.Equal(f.SRLGs, []int{3, 4}) {
		t.Fatalf("SRLGs = %v, want [3 4]", f.SRLGs)
	}
	if !f.HitsAnySRLG([]int{3}) || !f.HitsAnySRLG([]int{9, 4}) {
		t.Fatal("missed collected groups")
	}
	if f.HitsAnySRLG([]int{5}) {
		t.Fatal("phantom SRLG hit")
	}
	if f.HitsAnySRLG(nil) {
		t.Fatal("empty group list hit")
	}
}

// TestSuspectLinksEqualBruteForce: over random tray assignments and
// failure sets — links with no group, several groups, a dead link or an
// unknown ID among the failed — Classify's groups and suspect links,
// read from the topology's group index, equal a walk of the link table
// and come out ascending.
func TestSuspectLinksEqualBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		cfg := topology.DefaultGenConfig()
		cfg.Seed = int64(trial)
		topo, err := topology.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		links := topo.Links()
		for _, l := range links {
			var groups []int
			for g := 0; g < 6; g++ {
				if rng.Intn(8) == 0 {
					groups = append(groups, g)
				}
			}
			if err := topo.SetLinkSRLG(l.ID, groups...); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(20) == 0 {
				if err := topo.SetDown(topology.NewFailures(nil, []topology.LinkID{l.ID}), true); err != nil {
					t.Fatal(err)
				}
			}
		}
		var failed []topology.LinkID
		for i := rng.Intn(5); i > 0; i-- {
			failed = append(failed, links[rng.Intn(len(links))].ID)
		}
		if rng.Intn(4) == 0 {
			failed = append(failed, topology.LinkID(len(links)+7))
		}
		f := Classify(topo, topology.NewFailures(nil, failed))

		wantGroups, wantSuspect := map[int]bool{}, map[topology.LinkID]bool{}
		for _, id := range failed {
			wantSuspect[id] = true
			if l := topo.Link(id); l != nil {
				for _, g := range l.SRLG {
					wantGroups[g] = true
				}
			}
		}
		for _, l := range links {
			for _, g := range l.SRLG {
				if wantGroups[g] {
					wantSuspect[l.ID] = true
				}
			}
		}
		gotGroups, gotSuspect := map[int]bool{}, map[topology.LinkID]bool{}
		for _, g := range f.SRLGs {
			gotGroups[g] = true
		}
		for _, l := range f.Suspect {
			gotSuspect[l] = true
		}
		if !reflect.DeepEqual(gotGroups, wantGroups) || !reflect.DeepEqual(gotSuspect, wantSuspect) ||
			len(f.SRLGs) != len(gotGroups) || len(f.Suspect) != len(gotSuspect) ||
			!slices.IsSorted(f.SRLGs) || !slices.IsSorted(f.Suspect) {
			t.Fatalf("trial %d, failed %v: groups %v, suspect %v; link table walk %v, %v",
				trial, failed, f.SRLGs, f.Suspect, wantGroups, wantSuspect)
		}
	}
}
