package cluster

import (
	"slices"
	"testing"

	"github.com/alvc/alvc/internal/topology"
)

// VC returns the cluster with the given ID, or nil.
func (a *Allocator) VC(id VCID) *VC {
	a.mu.Lock()
	defer a.mu.Unlock()
	vc, _ := a.getLocked(id)
	return vc
}

// OwnerOf returns the VC owning the given OPS, if any.
func (a *Allocator) OwnerOf(ops topology.NodeID) (VCID, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, vc := range a.vcs {
		if vc != nil && slices.Contains(vc.AL.OPSs, ops) {
			return vc.ID, true
		}
	}
	return 0, false
}

func TestPatchVCSwapsFailedOPS(t *testing.T) {
	topo, vms, ids := fig4Topo(t)
	a, err := NewRestrictedAllocator(topo, PaperBuilder{}, nil, 0, 1)
	if err != nil {
		t.Fatalf("NewRestrictedAllocator: %v", err)
	}
	vc, err := a.BuildVC(freeID(a), "web", vms)
	if err != nil {
		t.Fatalf("BuildVC: %v", err)
	}
	victim := vc.AL.OPSs[0]
	if err := topo.SetDown(topology.NewFailures([]topology.NodeID{victim}, nil), true); err != nil {
		t.Fatalf("SetDown: %v", err)
	}
	patched, err := a.PatchVC(vc.ID, vms)
	if err != nil {
		t.Fatalf("PatchVC: %v", err)
	}
	if patched.ID != vc.ID {
		t.Fatalf("patch changed the VC ID: %d -> %d", vc.ID, patched.ID)
	}
	for _, ops := range patched.AL.OPSs {
		if ops == victim {
			t.Fatalf("failed OPS %d still in patched AL %v", victim, patched.AL.OPSs)
		}
	}
	if !VerifyAL(topo, vms, patched.AL) {
		t.Fatalf("patched AL %v does not connect the group", patched.AL.OPSs)
	}
	// Ownership moved: the victim is free, the new members are owned.
	if _, owned := a.OwnerOf(victim); owned {
		t.Fatalf("failed OPS %d still owned after patch", victim)
	}
	for _, ops := range patched.AL.OPSs {
		owner, owned := a.OwnerOf(ops)
		if !owned || owner != vc.ID {
			t.Fatalf("patched OPS %d owner = %d/%v, want %d", ops, owner, owned, vc.ID)
		}
	}
	if !Disjoint(a.VCs()) {
		t.Fatal("disjointness violated after patch")
	}
	// The old record handed to the caller is untouched (snapshots stay
	// immutable); the allocator serves the patched one.
	if got := a.VC(vc.ID); got != patched {
		t.Fatal("allocator does not serve the patched record")
	}
	_ = ids
}

func TestPatchVCReusesSurvivors(t *testing.T) {
	topo, vms, _ := fig4Topo(t)
	a, err := NewRestrictedAllocator(topo, PaperBuilder{}, nil, 0, 1)
	if err != nil {
		t.Fatalf("NewRestrictedAllocator: %v", err)
	}
	vc, err := a.BuildVC(freeID(a), "web", vms)
	if err != nil {
		t.Fatalf("BuildVC: %v", err)
	}
	if len(vc.AL.OPSs) < 2 {
		t.Skipf("AL has %d OPSs; nothing to survive", len(vc.AL.OPSs))
	}
	victim := vc.AL.OPSs[0]
	survivors := make(map[topology.NodeID]bool)
	for _, ops := range vc.AL.OPSs[1:] {
		survivors[ops] = true
	}
	if err := topo.SetDown(topology.NewFailures([]topology.NodeID{victim}, nil), true); err != nil {
		t.Fatalf("SetDown: %v", err)
	}
	patched, err := a.PatchVC(vc.ID, vms)
	if err != nil {
		t.Fatalf("PatchVC: %v", err)
	}
	reused := 0
	for _, ops := range patched.AL.OPSs {
		if survivors[ops] {
			reused++
		}
	}
	if reused == 0 {
		t.Fatalf("patch reused no surviving OPS: old %v new %v", vc.AL.OPSs, patched.AL.OPSs)
	}
}

func TestPatchVCUnknownID(t *testing.T) {
	topo, _, _ := fig4Topo(t)
	a, err := NewRestrictedAllocator(topo, PaperBuilder{}, nil, 0, 1)
	if err != nil {
		t.Fatalf("NewRestrictedAllocator: %v", err)
	}
	if _, err := a.PatchVC(42, nil); err == nil {
		t.Fatal("patch of unknown VC accepted")
	}
}

func TestPatchVCFailureLeavesAllocatorUnchanged(t *testing.T) {
	topo, vms, _ := fig4Topo(t)
	a, err := NewRestrictedAllocator(topo, PaperBuilder{}, nil, 0, 1)
	if err != nil {
		t.Fatalf("NewRestrictedAllocator: %v", err)
	}
	vc, err := a.BuildVC(freeID(a), "web", vms)
	if err != nil {
		t.Fatalf("BuildVC: %v", err)
	}
	// Down every OPS: no cover can exist.
	for _, n := range topo.NodeIDs(topology.KindOPS) {
		if err := topo.SetDown(topology.NewFailures([]topology.NodeID{n}, nil), true); err != nil {
			t.Fatalf("SetDown: %v", err)
		}
	}
	before := append([]topology.NodeID(nil), vc.AL.OPSs...)
	if _, err := a.PatchVC(vc.ID, vms); err == nil {
		t.Fatal("patch with no live OPS accepted")
	}
	after := a.VC(vc.ID)
	if len(after.AL.OPSs) != len(before) {
		t.Fatalf("failed patch mutated the VC: %v -> %v", before, after.AL.OPSs)
	}
	for i := range before {
		if after.AL.OPSs[i] != before[i] {
			t.Fatalf("failed patch mutated the VC: %v -> %v", before, after.AL.OPSs)
		}
	}
}
