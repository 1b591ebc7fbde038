package optical

import (
	"testing"

	"github.com/alvc/alvc/internal/topology"
)

func TestPatchMembershipKeepsIdentity(t *testing.T) {
	topo, ops := testTopo(t)
	m, err := NewSliceManager(topo)
	if err != nil {
		t.Fatalf("NewSliceManager: %v", err)
	}
	s, err := m.Allocate("tenant-a", ops[:2], 5)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	// Swap ops[0] for ops[2], keeping ops[1].
	patched, err := m.PatchMembership(s.ID, []topology.NodeID{ops[1], ops[2]})
	if err != nil {
		t.Fatalf("PatchMembership: %v", err)
	}
	if patched.ID != s.ID || patched.Tenant != "tenant-a" || patched.BandwidthGbps != 5 {
		t.Fatalf("identity not preserved: %+v", patched)
	}
	if patched.Contains(ops[0]) || !patched.Contains(ops[1]) || !patched.Contains(ops[2]) {
		t.Fatalf("membership wrong: %v", patched.OPSs)
	}
	// Ownership moved with the membership.
	if _, owned := m.SliceOf(ops[0]); owned {
		t.Fatal("removed OPS still owned")
	}
	if id, owned := m.SliceOf(ops[2]); !owned || id != s.ID {
		t.Fatalf("added OPS owner = %d/%v", id, owned)
	}
	if !m.Disjoint() {
		t.Fatal("disjointness violated after patch")
	}
	// The pre-patch record is untouched (snapshot immutability).
	if !s.Contains(ops[0]) {
		t.Fatal("patch mutated the old record in place")
	}
}

func TestPatchMembershipValidation(t *testing.T) {
	topo, ops := testTopo(t)
	m, err := NewSliceManager(topo)
	if err != nil {
		t.Fatalf("NewSliceManager: %v", err)
	}
	a, err := m.Allocate("tenant-a", ops[:1], 1)
	if err != nil {
		t.Fatalf("Allocate a: %v", err)
	}
	b, err := m.Allocate("tenant-b", ops[1:2], 1)
	if err != nil {
		t.Fatalf("Allocate b: %v", err)
	}
	if _, err := m.PatchMembership(a.ID, nil); err == nil {
		t.Fatal("empty membership accepted")
	}
	if _, err := m.PatchMembership(99, ops[2:3]); err == nil {
		t.Fatal("unknown slice accepted")
	}
	// Foreign-owned OPS rejected; manager unchanged.
	if _, err := m.PatchMembership(a.ID, []topology.NodeID{ops[1]}); err == nil {
		t.Fatal("patch onto another slice's OPS accepted")
	}
	if id, _ := m.SliceOf(ops[1]); id != b.ID {
		t.Fatal("failed patch moved ownership")
	}
	// Down OPS rejected.
	if err := topo.SetDown(topology.NewFailures([]topology.NodeID{ops[3]}, nil), true); err != nil {
		t.Fatalf("SetDown: %v", err)
	}
	if _, err := m.PatchMembership(a.ID, ops[3:4]); err == nil {
		t.Fatal("patch onto a down OPS accepted")
	}
	// Re-patching onto its own OPS set is fine (idempotent swap).
	if _, err := m.PatchMembership(a.ID, ops[:1]); err != nil {
		t.Fatalf("self patch: %v", err)
	}
}
