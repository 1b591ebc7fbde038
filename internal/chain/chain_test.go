package chain

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/alvc/alvc/internal/topology"
)

func validSpec(t *testing.T) Spec {
	t.Helper()
	s, err := Linear("web-chain", "tenant-a", "web", 2.0, 1<<20, "firewall", "lb", "dpi")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	return s
}

func TestSpecValidate(t *testing.T) {
	s := validSpec(t)
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"empty name", func(s *Spec) { s.Name = "" }},
		{"empty tenant", func(s *Spec) { s.Tenant = "" }},
		{"no NFs", func(s *Spec) { s.NFs = nil }},
		{"zero bandwidth", func(s *Spec) { s.BandwidthGbps = 0 }},
		{"negative bandwidth", func(s *Spec) { s.BandwidthGbps = -1 }},
		{"zero flow bytes", func(s *Spec) { s.FlowBytes = 0 }},
		{"empty NF name", func(s *Spec) { s.NFs[1].Name = "" }},
	}
	for _, tc := range cases {
		bad := validSpec(t)
		tc.mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestLinearRejectsInvalid(t *testing.T) {
	if _, err := Linear("", "t", "svc", 1, 1, "firewall"); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := Linear("c", "t", "svc", 1, 1); err == nil {
		t.Fatal("no NFs accepted")
	}
}

func TestNFNames(t *testing.T) {
	s := validSpec(t)
	names := s.NFNames()
	want := []string{"firewall", "lb", "dpi"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("NFNames = %v, want %v", names, want)
		}
	}
}

func TestNFRefDemandOverride(t *testing.T) {
	s := validSpec(t)
	s.NFs[0].Demand = topology.Resources{CPUCores: 10}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate with override: %v", err)
	}
	if s.NFs[0].Demand.CPUCores != 10 {
		t.Fatal("demand override lost")
	}
}

func TestForwardingGraphLinear(t *testing.T) {
	s := validSpec(t)
	fg, err := NewForwardingGraph(s)
	if err != nil {
		t.Fatalf("NewForwardingGraph: %v", err)
	}
	if fg.Len() != 3 {
		t.Fatalf("Len = %d, want 3", fg.Len())
	}
	if err := fg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	order, err := fg.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	for i, want := range []int{0, 1, 2} {
		if order[i] != want {
			t.Fatalf("order = %v", order)
		}
	}
	paths := fg.Paths()
	if len(paths) != 1 || len(paths[0]) != 3 {
		t.Fatalf("paths = %v", paths)
	}
	if nf, err := fg.NF(1); err != nil || nf.Name != "lb" {
		t.Fatalf("NF(1) = %v, %v", nf, err)
	}
	if _, err := fg.NF(5); err == nil {
		t.Fatal("out-of-range NF accepted")
	}
}

func TestForwardingGraphBranch(t *testing.T) {
	s, err := Linear("branchy", "t", "web", 1, 1<<20, "lb", "dpi", "ids", "firewall")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	fg, err := NewForwardingGraph(s)
	if err != nil {
		t.Fatalf("NewForwardingGraph: %v", err)
	}
	// Add branch: lb(0) also fans to ids(2) directly.
	if err := fg.AddEdge(0, 2); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := fg.Validate(); err != nil {
		t.Fatalf("Validate branched: %v", err)
	}
	paths := fg.Paths()
	if len(paths) != 2 {
		t.Fatalf("paths = %v, want 2 source->sink paths", paths)
	}
	// Duplicate edge is a no-op.
	if err := fg.AddEdge(0, 2); err != nil {
		t.Fatalf("duplicate AddEdge: %v", err)
	}
	succ := fg.Successors(0)
	if len(succ) != 2 {
		t.Fatalf("successors of 0 = %v", succ)
	}
}

func TestForwardingGraphRejectsBadEdges(t *testing.T) {
	fg, err := NewForwardingGraph(validSpec(t))
	if err != nil {
		t.Fatalf("NewForwardingGraph: %v", err)
	}
	if err := fg.AddEdge(0, 0); err == nil {
		t.Fatal("self edge accepted")
	}
	if err := fg.AddEdge(-1, 1); err == nil {
		t.Fatal("negative index accepted")
	}
	if err := fg.AddEdge(0, 99); err == nil {
		t.Fatal("out-of-range accepted")
	}
}

func TestForwardingGraphCycleDetected(t *testing.T) {
	fg, err := NewForwardingGraph(validSpec(t))
	if err != nil {
		t.Fatalf("NewForwardingGraph: %v", err)
	}
	if err := fg.AddEdge(2, 1); err != nil { // creates 1->2->1
		t.Fatalf("AddEdge: %v", err)
	}
	if _, err := fg.TopoOrder(); err == nil {
		t.Fatal("cycle not detected by TopoOrder")
	}
	if err := fg.Validate(); err == nil {
		t.Fatal("cycle not detected by Validate")
	}
}

func TestForwardingGraphSourceWithIncoming(t *testing.T) {
	fg, err := NewForwardingGraph(validSpec(t))
	if err != nil {
		t.Fatalf("NewForwardingGraph: %v", err)
	}
	if err := fg.AddEdge(1, 0); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := fg.Validate(); err == nil {
		t.Fatal("source with incoming edge passed validation")
	}
}

func TestForwardingGraphFromInvalidSpec(t *testing.T) {
	if _, err := NewForwardingGraph(Spec{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	orig := validSpec(t)
	orig.NFs[0].Demand = topology.Resources{CPUCores: 4, MemoryGB: 8, StorageGB: 2}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Name != orig.Name || back.Tenant != orig.Tenant || len(back.NFs) != len(orig.NFs) {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	if back.NFs[0].Demand.CPUCores != 4 {
		t.Fatal("demand override lost in round trip")
	}
}

func TestSpecUnmarshalValidates(t *testing.T) {
	var s Spec
	// Valid JSON, invalid spec (no NFs).
	bad := `{"name":"x","tenant":"t","bandwidth_gbps":1,"flow_bytes":1,"nfs":[]}`
	if err := json.Unmarshal([]byte(bad), &s); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if err := json.Unmarshal([]byte(`{not json`), &s); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

// TestSpecUnmarshalRejectsUnknownFields: decoding is strict at both
// levels — a field the spec or an NF does not have is an error, alone
// and inside a ParseSpecs list; the same spec spelled right parses.
func TestSpecUnmarshalRejectsUnknownFields(t *testing.T) {
	good := `{"name":"x","tenant":"t","service":"web","bandwidth_gbps":1,"flow_bytes":1,"nfs":[{"name":"nat","cpu":3}]}`
	for _, bad := range []string{
		strings.Replace(good, `"name":"x"`, `"name":"x","bogus":1`, 1),
		strings.Replace(good, `"cpu":3`, `"cpuu":3`, 1),
	} {
		var s Spec
		if err := json.Unmarshal([]byte(bad), &s); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("%s: err = %v, want an unknown field", bad, err)
		}
		if _, err := ParseSpecs([]byte("[" + good + "," + bad + "]")); err == nil {
			t.Errorf("ParseSpecs accepted %s", bad)
		}
	}
	var s Spec
	if err := json.Unmarshal([]byte(good), &s); err != nil || s.NFs[0].Demand.CPUCores != 3 {
		t.Fatalf("good spec: %+v, %v", s, err)
	}
}

func TestParseSpecs(t *testing.T) {
	doc := `[
	  {"name":"a","tenant":"t1","service":"web","bandwidth_gbps":1,"flow_bytes":1024,
	   "nfs":[{"name":"firewall"},{"name":"dpi","cpu":16}]},
	  {"name":"b","tenant":"t2","service":"sns","bandwidth_gbps":2,"flow_bytes":2048,
	   "nfs":[{"name":"lb"}]}
	]`
	specs, err := ParseSpecs([]byte(doc))
	if err != nil {
		t.Fatalf("ParseSpecs: %v", err)
	}
	if len(specs) != 2 {
		t.Fatalf("specs = %d", len(specs))
	}
	if specs[0].NFs[1].Demand.CPUCores != 16 {
		t.Fatal("per-NF demand override not parsed")
	}
	if _, err := ParseSpecs([]byte(`[]`)); err == nil {
		t.Fatal("empty list accepted")
	}
	if _, err := ParseSpecs([]byte(`{`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}
