package sdn

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/alvc/alvc/internal/resilience"
	"github.com/alvc/alvc/internal/topology"
)

// recordMemoQuestions makes the memo keep every stored entry's question,
// which auditMemo needs to ask it afresh. Call it before the entries to
// audit are stored.
func (c *Controller) recordMemoQuestions() {
	c.alts.mu.Lock()
	defer c.alts.mu.Unlock()
	c.alts.questions = make(map[uint64]altQuestion)
}

// auditMemo is the memo's audit predicate: every entry a lookup could
// serve now — stored under the routing snapshot's structural generation
// and current live digest — equals a fresh search of its question. It
// returns how many entries it checked and one line per violation: an
// answer that differs, a search that now fails, or an entry whose
// question was never recorded. The fabric must hold still meanwhile.
func (c *Controller) auditMemo() (checked int, bad []string) {
	snap := c.snapshot()
	live := snap.LiveDigest()
	ac := &c.alts
	ac.mu.Lock()
	defer ac.mu.Unlock()
	if ac.gen != snap.Generation() {
		return 0, nil // nothing stored at this generation can be served
	}
	for i, e := range ac.entries {
		src, dst := topology.NodeID(e.src), topology.NodeID(e.dst)
		q, ok := ac.questions[e.hash]
		switch {
		case e.live != uint32(live):
			continue
		case !ok:
			bad = append(bad, fmt.Sprintf("entry %d->%d: question not recorded", src, dst))
			continue
		case q.hash(src, dst, live) != e.hash:
			continue // another state sharing the digest's low half
		}
		checked++
		var stored []topology.NodeID
		for j, hops := range answerPaths(ac.answer(i)) {
			if j > 0 {
				stored = append(stored, pathSep)
			}
			stored = decodeHops(append(stored, src), nil, c.topo, src, hops)
		}
		var fresh []topology.NodeID
		var ran uint64
		var err error
		if q.k == 0 {
			r := snap.Restrict(q.pool.OPS)
			fresh, ran, err = snap.AppendPathAvoiding(nil, src, dst, r, q.avoid)
			snap.Release(r)
		} else {
			var paths [][]topology.NodeID
			paths, _, ran, err = snap.KShortestPaths(src, dst, q.k, q.pool.OPS)
			for j, p := range paths {
				if j > 0 {
					fresh = append(fresh, pathSep)
				}
				fresh = append(fresh, p...)
			}
		}
		if err != nil || ran != live || !slices.Equal(fresh, stored) {
			bad = append(bad, fmt.Sprintf("entry %d->%d (k %d, spread %d): memo %v, fresh search %v, %v under %#x", src, dst, q.k, q.avoid.Spread, stored, fresh, err, ran))
		}
	}
	return checked, bad
}

// answerPaths splits a stored answer into its paths' hops.
func answerPaths(answer []int32) [][]int32 {
	var out [][]int32
	for {
		j := slices.Index(answer, pathSep)
		if j < 0 {
			return append(out, answer)
		}
		out, answer = append(out, answer[:j]), answer[j+1:]
	}
}

// TestMemoAuditFires plants the bug the memo's protocol rules out: a
// planner reads the live digest, a patch lands, the search runs under
// the new state and its answer is stored under the digest read before.
// Once the fabric is back in that state the entry is served, wrongly,
// and the audit names it; stored under the digest the search reported,
// the same answer audits clean.
func TestMemoAuditFires(t *testing.T) {
	topo, pm1, pm2, opss := multiRouteTopo(t)
	c, _ := NewController(topo)
	c.recordMemoQuestions()
	stops := []topology.NodeID{pm1, pm2}
	if route, err := c.routeAvoiding(nil, stops, topology.Pool{}, topology.Avoid{}); err != nil || !slices.Contains(route, opss[0]) {
		t.Fatalf("route %v, %v; want the cheapest, over %d", route, err, opss[0])
	}
	if checked, bad := c.auditMemo(); checked != 1 || len(bad) != 0 {
		t.Fatalf("honest memo: %d checked, violations %v", checked, bad)
	}

	plant := func(storeUnderSearchDigest bool) {
		t.Helper()
		c.alts.invalidate()
		snap := c.snapshot()
		q := newAltQuestion(0, topology.Pool{}, topology.Avoid{})
		before := snap.LiveDigest()
		if err := topo.SetDown(topology.NewFailures([]topology.NodeID{opss[0]}, nil), true); err != nil { // the concurrent patch
			t.Fatalf("SetDown: %v", err)
		}
		path, ran, err := snap.AppendPathAvoiding(nil, pm1, pm2, nil, topology.Avoid{})
		if err != nil {
			t.Fatalf("AppendPathAvoiding: %v", err)
		}
		under := before
		if storeUnderSearchDigest {
			under = ran
		}
		c.alts.put(topo, snap.Generation(), &q, pm1, pm2, under, path)
		if err := topo.SetDown(topology.NewFailures([]topology.NodeID{opss[0]}, nil), false); err != nil {
			t.Fatalf("SetDown: %v", err)
		}
	}
	plant(false)
	if _, bad := c.auditMemo(); len(bad) != 1 {
		t.Fatalf("planted stale entry: violations %v, want 1", bad)
	}
	if route, _ := c.routeAvoiding(nil, stops, topology.Pool{}, topology.Avoid{}); slices.Contains(route, opss[0]) {
		t.Fatalf("the planted entry was not served (%v): the plant tests nothing", route)
	}
	plant(true)
	if checked, bad := c.auditMemo(); checked != 0 || len(bad) != 0 {
		t.Fatalf("entry under the search's own digest: %d checked now, violations %v", checked, bad)
	}
	if route, _ := c.routeAvoiding(nil, stops, topology.Pool{}, topology.Avoid{}); !slices.Contains(route, opss[0]) {
		t.Fatalf("all up again: route %v, want the one over %d", route, opss[0])
	}
}

// TestMemoUnderFlaps: planners on several goroutines share one memo
// while another flaps two links under them — the topology takes one
// mutator at a time. Whatever interleaving ran, every entry is exact for
// the state it is stored under: each of the four states the flaps can
// leave audits clean. CI runs it -race -count=10.
func TestMemoUnderFlaps(t *testing.T) {
	topo, pm1, pm2, opss := multiRouteTopo(t)
	c, _ := NewController(topo)
	c.recordMemoQuestions()
	c.snapshot() // built before the flaps: a cold build reads the topology
	tors := topo.NodeIDs(topology.KindToR)
	flapped := [2]topology.LinkID{topo.LinkBetween(pm1, tors[0]).ID, topo.LinkBetween(opss[1], tors[3]).ID}
	var planners, flapper sync.WaitGroup
	stop := make(chan struct{})
	flapper.Add(1)
	go func() {
		defer flapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				_ = topo.SetDown(topology.NewFailures(nil, []topology.LinkID{flapped[i%2]}), i/2%2 == 0)
			}
		}
	}()
	for g := 0; g < 4; g++ {
		planners.Add(1)
		go func(g int) {
			defer planners.Done()
			for i := 0; i < 200; i++ {
				avoid := topology.Avoid{Spread: opss[(g+i)%len(opss)]}
				if i%3 == 0 {
					avoid.Nodes = opss[:1]
				}
				if _, err := c.routeAvoiding(nil, []topology.NodeID{pm1, pm2, pm1}, topology.Pool{}, avoid); err != nil {
					t.Errorf("planner %d: %v", g, err)
					return
				}
				if i%10 == 0 {
					if _, err := c.PathAlternatives(pm1, pm2, 2, topology.Pool{}); err != nil {
						t.Errorf("planner %d: PathAlternatives: %v", g, err)
						return
					}
				}
			}
		}(g)
	}
	planners.Wait()
	close(stop)
	flapper.Wait()
	total := 0
	for state := 0; state < 4; state++ {
		for i, l := range flapped {
			if err := topo.SetDown(topology.NewFailures(nil, []topology.LinkID{l}), state>>i&1 == 1); err != nil {
				t.Fatalf("SetDown: %v", err)
			}
		}
		checked, bad := c.auditMemo()
		for _, b := range bad {
			t.Errorf("state %02b: %s", state, b)
		}
		total += checked
	}
	if total == 0 {
		t.Fatal("the audit checked no entry")
	}
}

// flapFleet is a generated fabric with n chains' stops — source VM, its
// host, a VNF host, the destination VM's host, the destination VM — and
// primaries, for planning standbys through resilience.PlanStandby.
func flapFleet(t *testing.T, n int) (*topology.Topology, *Controller, [][]topology.NodeID, [][]topology.NodeID) {
	t.Helper()
	f := newFabric(t)
	c := f.controller(t)
	var stops, primaries [][]topology.NodeID
	for i := 0; i < n; i++ {
		src, dst := f.vms[i], f.vms[len(f.vms)-1-i]
		via := f.pms[(7*i+3)%len(f.pms)]
		s := []topology.NodeID{src, f.topo.Node(src).Host, via, f.topo.Node(dst).Host, dst}
		primary, err := c.ComputePathVia(src, s[1:4], dst, nil)
		if err != nil {
			t.Fatalf("ComputePathVia: %v", err)
		}
		stops, primaries = append(stops, s), append(primaries, primary)
	}
	return f.topo, c, stops, primaries
}

func planAll(t *testing.T, c *Controller, topo *topology.Topology, stops, primaries [][]topology.NodeID) [][]topology.NodeID {
	t.Helper()
	var out [][]topology.NodeID
	for i := range stops {
		sb, err := resilience.PlanStandby(c, topo, primaries[i], stops[i], nil, 1, topology.Pool{})
		if err != nil {
			t.Fatalf("chain %d: PlanStandby: %v", i, err)
		}
		out = append(out, sb.Path)
	}
	return out
}

// TestMemoFlapCostsNoMiss: a link that fails and recovers returns the
// fabric to the state the standbys were planned in, so re-planning them
// misses no leg and searches nothing — where a memo keyed by a count of
// liveness changes would miss every leg.
func TestMemoFlapCostsNoMiss(t *testing.T) {
	const chains = 24
	topo, c, stops, primaries := flapFleet(t, chains)
	first := planAll(t, c, topo, stops, primaries)
	used := make(map[topology.LinkID]bool)
	for _, path := range append(slices.Clone(first), primaries...) {
		links, ok := topo.AppendPathLinks(nil, path)
		if !ok {
			t.Fatalf("a hop of %v joins no link", path)
		}
		for _, l := range links {
			used[l] = true
		}
	}
	var idle topology.LinkID
	for _, l := range topo.Links() {
		if !used[l.ID] {
			idle = l.ID
			break
		}
	}
	if idle == 0 {
		t.Fatal("every link carries a primary or a standby")
	}
	if err := topo.SetDown(topology.NewFailures(nil, []topology.LinkID{idle}), true); err != nil {
		t.Fatalf("SetDown: %v", err)
	}
	if err := topo.SetDown(topology.NewFailures(nil, []topology.LinkID{idle}), false); err != nil {
		t.Fatalf("SetDown: %v", err)
	}
	hits, misses := c.AlternativesCacheStats() // every leg the first plans asked
	searched := c.PathComputations()
	again := planAll(t, c, topo, stops, primaries)
	h, m := c.AlternativesCacheStats()
	if m != misses || c.PathComputations() != searched || h-hits != hits+misses {
		t.Fatalf("re-plan after the flap: %d hits, %d misses, %d searches; want %d hits and nothing else", h-hits, m-misses, c.PathComputations()-searched, hits+misses)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("standbys moved across the flap:\n%v\n%v", first, again)
	}
}

// TestRouteSkipsVMLegs: of a 5-stop plan's four legs the two VM↔host
// ones are answered without a search or a memo entry, and the route is
// what searching every leg gives; a down host or endpoint VM still fails
// the plan, as its search would.
func TestRouteSkipsVMLegs(t *testing.T) {
	topo, c, stops, primaries := flapFleet(t, 1)
	avoid := topology.Avoid{Nodes: primaries[0][2 : len(primaries[0])-2], Spread: stops[0][2]}
	snap := c.snapshot()
	want := []topology.NodeID{stops[0][0]}
	for i := 0; i+1 < len(stops[0]); i++ {
		leg, _, err := snap.AppendPathAvoiding(nil, stops[0][i], stops[0][i+1], nil, avoid)
		if err != nil {
			t.Fatalf("leg %d: %v", i, err)
		}
		want = append(want, leg[1:]...)
	}
	searched := c.PathComputations()
	got, err := c.routeAvoiding(nil, stops[0], topology.Pool{}, avoid)
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("route %v, %v; every leg searched gives %v", got, err, want)
	}
	if hits, misses := c.AlternativesCacheStats(); hits != 0 || misses != 2 || c.PathComputations()-searched != 2 {
		t.Fatalf("%d hits, %d misses, %d searches; want the 2 host-to-host legs searched", hits, misses, c.PathComputations()-searched)
	}
	if _, err := c.routeAvoiding(nil, stops[0], topology.Pool{}, avoid); err != nil {
		t.Fatalf("again: %v", err)
	}
	if hits, misses := c.AlternativesCacheStats(); hits != 2 || misses != 2 || len(c.alts.entries) != 2 {
		t.Fatalf("asked again: %d hits, %d misses, %d entries; want 2, 2, 2", hits, misses, len(c.alts.entries))
	}
	for _, end := range []topology.NodeID{stops[0][0], stops[0][1], stops[0][3], stops[0][4]} {
		if err := topo.SetDown(topology.NewFailures([]topology.NodeID{end}, nil), true); err != nil {
			t.Fatalf("SetDown: %v", err)
		}
		if _, err := c.routeAvoiding(nil, stops[0], topology.Pool{}, avoid); err == nil {
			t.Fatalf("node %d down, the plan still succeeded", end)
		}
		if err := topo.SetDown(topology.NewFailures([]topology.NodeID{end}, nil), false); err != nil {
			t.Fatalf("SetDown: %v", err)
		}
	}
}

// neighbors returns the nodes one link away from id.
func neighbors(topo *topology.Topology, id topology.NodeID) []topology.NodeID {
	var out []topology.NodeID
	for _, l := range topo.Links() {
		if l.From == id || l.To == id {
			out = append(out, l.From+l.To-id)
		}
	}
	return out
}

// TestMemoFullEvictsOtherStatesOnly: a memo full of one live state keeps
// what it has and stores nothing more while that state lasts — a
// one-state workload never churns — and a new state makes room by
// evicting the entries of the others.
func TestMemoFullEvictsOtherStatesOnly(t *testing.T) {
	topo, pm1, pm2, opss := multiRouteTopo(t)
	path := []topology.NodeID{pm1}
	for _, n := range neighbors(topo, opss[0]) {
		if slices.Contains(neighbors(topo, pm1), n) {
			path = append(path, n, opss[0])
		}
	}
	for _, n := range neighbors(topo, opss[0]) {
		if slices.Contains(neighbors(topo, pm2), n) {
			path = append(path, n, pm2)
		}
	}
	if len(path) != 5 {
		t.Fatalf("no route pm1 → ToR → OPS → ToR → pm2: %v", path)
	}
	// One question per entry: the same leg, spread apart.
	question := func(i int) *altQuestion {
		q := newAltQuestion(0, topology.Pool{}, topology.Avoid{Spread: topology.NodeID(i + 1)})
		return &q
	}
	var ac altCache
	const a, b = 0xa, 0xb
	for i := 0; i < altCacheMaxEntries+10; i++ {
		ac.put(topo, 1, question(i), pm1, pm2, a, path)
	}
	if len(ac.entries) != altCacheMaxEntries || !ac.full {
		t.Fatalf("%d entries, full %v; want the cap, full", len(ac.entries), ac.full)
	}
	for _, i := range []int{0, altCacheMaxEntries - 1} {
		got, links, ok := ac.appendLeg(nil, nil, topo, 1, question(i), pm1, pm2, a)
		want, _ := topo.AppendPathLinks(nil, path)
		if !ok || !slices.Equal(got, path) || !slices.Equal(links, want) {
			t.Fatalf("entry %d: %v %v, %v; want %v %v", i, got, links, ok, path, want)
		}
	}
	if _, _, ok := ac.appendLeg(nil, nil, topo, 1, question(altCacheMaxEntries), pm1, pm2, a); ok {
		t.Fatal("an entry past the cap was stored")
	}
	ac.put(topo, 1, question(0), pm1, pm2, b, path)
	if len(ac.entries) != 1 || ac.full {
		t.Fatalf("a new state's store left %d entries, full %v; want its own one", len(ac.entries), ac.full)
	}
	if got, _, ok := ac.appendLeg(nil, nil, topo, 1, question(0), pm1, pm2, b); !ok || !slices.Equal(got, path) {
		t.Fatalf("the new state's entry: %v, %v", got, ok)
	}
	if _, _, ok := ac.appendLeg(nil, nil, topo, 1, question(1), pm1, pm2, a); ok {
		t.Fatal("an evicted state's entry is still served")
	}
}

// hasPointers reports whether a value of the type holds a pointer the
// collector would have to follow.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Array:
		return typ.Len() > 0 && hasPointers(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
		reflect.Interface, reflect.Chan, reflect.Func:
		return true
	}
	return false
}

// TestMemoResidency: a memo filled to its cap retains at most 64 bytes
// an entry, index and answers included, and its storage holds no
// pointer, so the collector never marks it — what keeps the memo off
// every workload's live heap.
func TestMemoResidency(t *testing.T) {
	var ac altCache
	for _, typ := range []reflect.Type{reflect.TypeOf(ac.entries).Elem(), reflect.TypeOf(ac.slots).Elem(), reflect.TypeOf(ac.arena).Elem()} {
		if hasPointers(typ) {
			t.Errorf("memo storage type %v holds pointers", typ)
		}
	}
	if raceEnabled {
		t.Skip("heap accounting is not exact under the race detector")
	}
	f := newFabric(t)
	c := f.controller(t)
	c.snapshot() // the build is not the memo's
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	lengths := 0
fill:
	for _, spread := range f.opss {
		for _, src := range f.pms {
			for _, dst := range f.pms {
				if src == dst {
					continue
				}
				route, err := c.routeAvoiding(nil, []topology.NodeID{src, dst}, topology.Pool{}, topology.Avoid{Spread: spread})
				if err != nil {
					t.Fatalf("AppendRouteAvoiding: %v", err)
				}
				lengths += len(route)
				if len(c.alts.entries) == altCacheMaxEntries {
					break fill
				}
			}
		}
	}
	if len(c.alts.entries) != altCacheMaxEntries {
		t.Fatalf("filled %d entries, want the cap %d", len(c.alts.entries), altCacheMaxEntries)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEntry := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / altCacheMaxEntries
	t.Logf("%.1f bytes retained per entry, answers %.1f nodes on average", perEntry, float64(lengths)/altCacheMaxEntries)
	if perEntry > 64 {
		t.Fatalf("a full memo retains %.1f bytes per entry, want at most 64", perEntry)
	}
	runtime.KeepAlive(c)
}
