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
		{"tenant with a slash", func(s *Spec) { s.Tenant = "a/b" }},
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
