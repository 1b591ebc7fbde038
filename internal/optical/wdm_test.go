package optical

import (
	"testing"
	"testing/quick"

	"github.com/alvc/alvc/internal/topology"
)

func wdmTopo(t *testing.T) (*topology.Topology, []topology.LinkID, []topology.NodeID) {
	t.Helper()
	topo := topology.New()
	ops1 := topo.AddOPS(false, topology.Resources{})
	ops2 := topo.AddOPS(false, topology.Resources{})
	ops3 := topo.AddOPS(false, topology.Resources{})
	tor := topo.AddToR(0)
	var links []topology.LinkID
	mustLink := func(a, b topology.NodeID, k topology.LinkKind) {
		t.Helper()
		id, err := topo.AddLink(a, b, k, 100, 1)
		if err != nil {
			t.Fatalf("AddLink: %v", err)
		}
		links = append(links, id)
	}
	mustLink(ops1, ops2, topology.LinkOptical) // links[0]
	mustLink(ops2, ops3, topology.LinkOptical) // links[1]
	mustLink(tor, ops1, topology.LinkBoundary) // links[2]
	return topo, links, []topology.NodeID{ops1, ops2, ops3, tor}
}

func TestWDMFirstFitContinuity(t *testing.T) {
	_, links, _ := wdmTopo(t)
	w, err := NewWDM(4)
	if err != nil {
		t.Fatalf("NewWDM: %v", err)
	}
	// Flow a spans links 0,1 — gets λ0 on both (continuity).
	l, err := w.AssignPath("a", links[:2])
	if err != nil {
		t.Fatalf("AssignPath a: %v", err)
	}
	if l != 0 {
		t.Fatalf("lambda a = %d, want 0 (first fit)", l)
	}
	// Flow b spans link 1 only — λ0 taken there, gets λ1.
	l, err = w.AssignPath("b", links[1:2])
	if err != nil {
		t.Fatalf("AssignPath b: %v", err)
	}
	if l != 1 {
		t.Fatalf("lambda b = %d, want 1", l)
	}
	// Flow c on link 2 only — λ0 free there.
	l, err = w.AssignPath("c", links[2:3])
	if err != nil {
		t.Fatalf("AssignPath c: %v", err)
	}
	if l != 0 {
		t.Fatalf("lambda c = %d, want 0", l)
	}
	if w.Utilizations()[links[1]] != 2 {
		t.Fatalf("link1 utilization = %d, want 2", w.Utilizations()[links[1]])
	}
	for _, key := range []string{"a", "b", "c"} {
		if _, ok := w.AssignmentOf(key); !ok {
			t.Fatalf("flow %s has no assignment", key)
		}
	}
}

func TestWDMBlockingAndRelease(t *testing.T) {
	_, links, _ := wdmTopo(t)
	w, _ := NewWDM(1)
	if _, err := w.AssignPath("a", links[:2]); err != nil {
		t.Fatalf("AssignPath a: %v", err)
	}
	// Capacity 1 and λ0 taken on link 0: flow b blocks.
	if _, err := w.AssignPath("b", links[:1]); err == nil {
		t.Fatal("expected blocking")
	}
	if err := w.Release("a"); err != nil {
		t.Fatalf("Release: %v", err)
	}
	// Released wavelength is reusable.
	if _, err := w.AssignPath("b", links[:1]); err != nil {
		t.Fatalf("AssignPath after release: %v", err)
	}
	if err := w.Release("unknown"); err == nil {
		t.Fatal("release of unknown flow accepted")
	}
}

func TestWDMValidation(t *testing.T) {
	if _, err := NewWDM(0); err == nil {
		t.Fatal("zero capacity accepted")
	}
	_, links, _ := wdmTopo(t)
	w, _ := NewWDM(2)
	if _, err := w.AssignPath("", links[:1]); err == nil {
		t.Fatal("empty flow key accepted")
	}
	if _, err := w.AssignPath("a", nil); err == nil {
		t.Fatal("empty link list accepted")
	}
	if _, err := w.AssignPath("a", links[:1]); err != nil {
		t.Fatalf("AssignPath: %v", err)
	}
	if _, err := w.AssignPath("a", links[1:2]); err == nil {
		t.Fatal("duplicate flow accepted")
	}
	if w.Capacity() != 2 {
		t.Fatal("capacity accessor wrong")
	}
}

func TestWDMBlockedAssignHasNoSideEffects(t *testing.T) {
	_, links, _ := wdmTopo(t)
	w, _ := NewWDM(1)
	if _, err := w.AssignPath("a", links[1:2]); err != nil {
		t.Fatalf("AssignPath: %v", err)
	}
	// b needs links 0 and 1; blocked by a on link 1. Link 0 must stay
	// free afterwards.
	if _, err := w.AssignPath("b", links[:2]); err == nil {
		t.Fatal("expected blocking")
	}
	if w.Utilizations()[links[0]] != 0 {
		t.Fatal("blocked assignment leaked onto link 0")
	}
	if _, ok := w.AssignmentOf("b"); ok {
		t.Fatal("blocked flow recorded")
	}
}

func TestOpticalSegmentLinks(t *testing.T) {
	topo, links, nodes := wdmTopo(t)
	// Path tor -> ops1 -> ops2 -> ops3 crosses boundary + 2 optical.
	path := []topology.NodeID{nodes[3], nodes[0], nodes[1], nodes[2]}
	segs, err := OpticalSegmentLinks(topo, path)
	if err != nil {
		t.Fatalf("OpticalSegmentLinks: %v", err)
	}
	if len(segs) != 3 {
		t.Fatalf("segments = %v, want 3 links", segs)
	}
	want := map[topology.LinkID]bool{links[0]: true, links[1]: true, links[2]: true}
	for _, s := range segs {
		if !want[s] {
			t.Fatalf("unexpected segment link %d", s)
		}
	}
	// Unknown node errors.
	if _, err := OpticalSegmentLinks(topo, []topology.NodeID{9999, nodes[0]}); err == nil {
		t.Fatal("unknown node accepted")
	}
	// Electronic-only pairs are skipped: a pm-tor path yields nothing.
	pm := topo.AddPM(0, topology.Resources{})
	if _, err := topo.AddLink(pm, nodes[3], topology.LinkElectronic, 10, 1); err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	segs, err = OpticalSegmentLinks(topo, []topology.NodeID{pm, nodes[3]})
	if err != nil {
		t.Fatalf("OpticalSegmentLinks electronic: %v", err)
	}
	if len(segs) != 0 {
		t.Fatalf("electronic pair produced segments: %v", segs)
	}
}

// Property: utilization never exceeds capacity and assignments are
// continuity-consistent.
func TestWDMPropertyCapacityRespected(t *testing.T) {
	_, links, _ := wdmTopo(t)
	f := func(seeds []uint8) bool {
		w, err := NewWDM(3)
		if err != nil {
			return false
		}
		for i, s := range seeds {
			subset := links[int(s)%len(links):]
			if len(subset) == 0 {
				subset = links
			}
			_, _ = w.AssignPath(flowName(i), subset)
		}
		for _, l := range links {
			if w.Utilizations()[l] > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func flowName(i int) string {
	return string(rune('a'+i%26)) + string(rune('0'+i%10))
}
