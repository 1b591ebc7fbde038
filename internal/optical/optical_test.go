package optical

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/alvc/alvc/internal/topology"
)

// SliceOf returns the slice owning the given OPS, if any.
func (m *SliceManager) SliceOf(ops topology.NodeID) (SliceID, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.ownerOf(ops)
	return id, id != 0
}

func testTopo(t *testing.T) (*topology.Topology, []topology.NodeID) {
	t.Helper()
	topo := topology.New()
	var ops []topology.NodeID
	for i := 0; i < 4; i++ {
		ops = append(ops, topo.AddOPS(i%2 == 0, topology.Resources{CPUCores: 4, MemoryGB: 8, StorageGB: 16}))
	}
	for i := 0; i < 3; i++ {
		if _, err := topo.AddLink(ops[i], ops[i+1], topology.LinkOptical, 100, 1); err != nil {
			t.Fatalf("AddLink: %v", err)
		}
	}
	return topo, ops
}

func TestConversionEnergyProportionalToFlow(t *testing.T) {
	m := DefaultCostModel()
	small := m.ConversionEnergy(1 << 10)
	large := m.ConversionEnergy(1 << 30)
	if large <= small {
		t.Fatalf("energy must grow with flow length: %g vs %g", small, large)
	}
	// The variable part must scale linearly with bytes.
	varSmall := small - m.FixedJoules
	varLarge := large - m.FixedJoules
	ratio := varLarge / varSmall
	if math.Abs(ratio-float64(1<<20)) > 1 {
		t.Fatalf("variable energy ratio = %f, want 2^20", ratio)
	}
}

func TestConversionEnergyNegativeClamped(t *testing.T) {
	m := DefaultCostModel()
	if got := m.ConversionEnergy(-5); got != m.FixedJoules {
		t.Fatalf("negative flow energy = %g, want fixed %g", got, m.FixedJoules)
	}
}

func TestTotalEnergy(t *testing.T) {
	m := CostModel{JoulesPerBit: 1, FixedJoules: 0}
	if got := m.TotalEnergy(3, 1); got != 24 { // 3 conversions × 8 bits
		t.Fatalf("TotalEnergy = %f, want 24", got)
	}
	if got := m.TotalEnergy(0, 100); got != 0 {
		t.Fatalf("zero conversions energy = %f", got)
	}
	if got := m.TotalEnergy(-1, 100); got != 0 {
		t.Fatalf("negative conversions energy = %f", got)
	}
}

func TestSliceAllocateAndRelease(t *testing.T) {
	topo, ops := testTopo(t)
	m, err := NewSliceManager(topo)
	if err != nil {
		t.Fatalf("NewSliceManager: %v", err)
	}
	s1, err := m.Allocate(1, "tenant-a", ops[:2], 10)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if !s1.Contains(ops[0]) || s1.Contains(ops[2]) {
		t.Fatal("slice membership wrong")
	}
	if id, ok := m.SliceOf(ops[1]); !ok || id != s1.ID {
		t.Fatal("SliceOf wrong")
	}
	// Overlapping allocation must fail.
	if _, err := m.Allocate(2, "tenant-b", ops[1:3], 10); err == nil {
		t.Fatal("overlapping slice accepted")
	}
	// Disjoint allocation succeeds.
	s2, err := m.Allocate(2, "tenant-b", ops[2:], 5)
	if err != nil {
		t.Fatalf("Allocate disjoint: %v", err)
	}
	if !m.Disjoint() {
		t.Fatal("manager reports non-disjoint slices")
	}
	if len(m.Slices()) != 2 {
		t.Fatalf("slices = %d, want 2", len(m.Slices()))
	}
	if err := m.Release(s1.ID); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if _, ok := m.SliceOf(ops[0]); ok {
		t.Fatal("released OPS still owned")
	}
	// Released OPSs are allocatable again.
	if _, err := m.Allocate(1, "tenant-c", ops[:1], 1); err != nil {
		t.Fatalf("re-allocate after release: %v", err)
	}
	_ = s2
}

func TestSliceAllocateValidation(t *testing.T) {
	topo, ops := testTopo(t)
	tor := topo.AddToR(0)
	m, err := NewSliceManager(topo)
	if err != nil {
		t.Fatalf("NewSliceManager: %v", err)
	}
	cases := []struct {
		name   string
		tenant string
		opss   []topology.NodeID
		bw     float64
	}{
		{"empty tenant", "", ops[:1], 1},
		{"empty OPS set", "t", nil, 1},
		{"zero bandwidth", "t", ops[:1], 0},
		{"non-OPS node", "t", []topology.NodeID{tor}, 1},
		{"unknown node", "t", []topology.NodeID{9999}, 1},
	}
	for _, tc := range cases {
		if _, err := m.Allocate(1, tc.tenant, tc.opss, tc.bw); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := m.Release(42); err == nil {
		t.Fatal("release of unknown slice accepted")
	}
}

func TestNewSliceManagerNilTopo(t *testing.T) {
	if _, err := NewSliceManager(nil); err == nil {
		t.Fatal("nil topology accepted")
	}
}

func TestSliceOPSSetAndSorted(t *testing.T) {
	topo, ops := testTopo(t)
	m, _ := NewSliceManager(topo)
	s, err := m.Allocate(1, "t", []topology.NodeID{ops[2], ops[0]}, 1)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if s.OPSs[0] > s.OPSs[1] {
		t.Fatal("slice OPSs not sorted")
	}
	set := s.OPSSet()
	if !set.Has(ops[0]) || !set.Has(ops[2]) || set.Has(ops[1]) {
		t.Fatal("OPSSet wrong")
	}
}

// Property: energy is monotonic in both conversions and flow size.
func TestEnergyMonotonicProperty(t *testing.T) {
	m := DefaultCostModel()
	f := func(a, b int64) bool {
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		lo, hi := a%1e12, b%1e12
		if lo > hi {
			lo, hi = hi, lo
		}
		return m.ConversionEnergy(lo) <= m.ConversionEnergy(hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
