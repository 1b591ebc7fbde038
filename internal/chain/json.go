package chain

import (
	"encoding/json"
	"errors"
	"fmt"

	"github.com/alvc/alvc/internal/jsonread"
)

// jsonSpec is the on-disk form of a chain request, the format
// `alvc deploy -f chains.json` consumes.
type jsonSpec struct {
	Name          string   `json:"name"`
	Tenant        string   `json:"tenant"`
	Service       string   `json:"service"`
	NFs           []jsonNF `json:"nfs"`
	BandwidthGbps float64  `json:"bandwidth_gbps"`
	FlowBytes     int64    `json:"flow_bytes"`
}

type jsonNF struct {
	Name   string  `json:"name"`
	CPU    float64 `json:"cpu,omitempty"`
	Memory float64 `json:"memory_gb,omitempty"`
	Disk   float64 `json:"storage_gb,omitempty"`
}

// MarshalJSON serializes the spec.
func (s Spec) MarshalJSON() ([]byte, error) {
	out := jsonSpec{
		Name:          s.Name,
		Tenant:        s.Tenant,
		Service:       s.Service,
		BandwidthGbps: s.BandwidthGbps,
		FlowBytes:     s.FlowBytes,
	}
	for _, nf := range s.NFs {
		out.NFs = append(out.NFs, jsonNF{
			Name:   nf.Name,
			CPU:    nf.Demand.CPUCores,
			Memory: nf.Demand.MemoryGB,
			Disk:   nf.Demand.StorageGB,
		})
	}
	return json.Marshal(out)
}

// DefaultTenant is the tenant assigned to wire-format specs that omit
// the optional "tenant" field. Constructed specs (Linear) still require
// an explicit tenant; only the JSON surface treats it as optional.
const DefaultTenant = "default"

// The wire form's objects, read straight into Spec and NFRef; the Go
// names are the wire types' above, which the errors name.
var (
	specObject = jsonread.Struct{Type: "chain.jsonSpec",
		Fields: []string{"name", "tenant", "service", "nfs", "bandwidth_gbps", "flow_bytes"}}
	nfObject = jsonread.Struct{Type: "chain.jsonNF",
		Fields: []string{"name", "cpu", "memory_gb", "storage_gb"}}
)

// UnmarshalJSON parses and validates a spec: data is one JSON value and
// nothing after it but white space. See ReadJSON.
func (s *Spec) UnmarshalJSON(data []byte) error {
	err := jsonread.Decode(data, s)
	if se := (*jsonread.SyntaxError)(nil); errors.As(err, &se) {
		return fmt.Errorf("chain: parse spec: %w", err)
	}
	return err
}

// ReadJSON reads and validates a spec, the one way every spec is
// decoded. Decoding is strict: a field the spec or an NF does not have
// is an error, not ignored, so a typo ("cpuu") cannot silently provision
// a chain without the demand it meant. The tenant field is optional on
// the wire: an absent or empty tenant resolves to DefaultTenant before
// validation, so single-tenant API clients don't need to invent one
// (flow keys and shard routing still see a concrete tenant). The spec is
// read as a value of its own, as encoding/json hands one to an
// Unmarshaler: its error ends the enclosing decode, and *s is left as it
// was.
func (s *Spec) ReadJSON(r *jsonread.Reader) {
	var in Spec
	err := r.Nested(func() { readSpec(r, &in) })
	if err != nil {
		err = fmt.Errorf("chain: parse spec: %w", err)
	} else {
		if in.Tenant == "" {
			in.Tenant = DefaultTenant
		}
		err = in.Validate()
	}
	if err != nil {
		r.Abort(err)
		return
	}
	*s = in
}

func readSpec(r *jsonread.Reader, s *Spec) {
	r.Object(&specObject, func(i int) {
		switch i {
		case 0:
			r.String(&s.Name)
		case 1:
			r.String(&s.Tenant)
		case 2:
			r.String(&s.Service)
		case 3:
			jsonread.Slice(r, "[]chain.jsonNF", &s.NFs, func(nf *NFRef) { readNF(r, nf) })
		case 4:
			r.Float(&s.BandwidthGbps)
		case 5:
			jsonread.Int(r, "int64", &s.FlowBytes)
		}
	})
}

func readNF(r *jsonread.Reader, nf *NFRef) {
	r.Object(&nfObject, func(i int) {
		switch i {
		case 0:
			r.String(&nf.Name)
		case 1:
			r.Float(&nf.Demand.CPUCores)
		case 2:
			r.Float(&nf.Demand.MemoryGB)
		case 3:
			r.Float(&nf.Demand.StorageGB)
		}
	})
}

// specList is a JSON array of specs.
type specList []Spec

func (l *specList) ReadJSON(r *jsonread.Reader) {
	jsonread.Slice(r, "[]chain.Spec", (*[]Spec)(l), func(s *Spec) { s.ReadJSON(r) })
}

// ParseSpecs decodes a JSON array of chain specs, validating each.
func ParseSpecs(data []byte) ([]Spec, error) {
	var specs []Spec
	if err := jsonread.Decode(data, (*specList)(&specs)); err != nil {
		return nil, fmt.Errorf("chain: parse specs: %w", err)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("chain: parse specs: empty list")
	}
	return specs, nil
}
