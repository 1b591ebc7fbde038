package chain

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"github.com/alvc/alvc/internal/topology"
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

// UnmarshalJSON parses and validates a spec. Decoding is strict: a
// field the spec or an NF does not have is an error, not ignored, so a
// typo ("cpuu") cannot silently provision a chain without the demand it
// meant. The tenant field is optional on the wire: an absent or empty
// tenant resolves to DefaultTenant before validation, so single-tenant
// API clients don't need to invent one (flow keys and shard routing
// still see a concrete tenant).
func (s *Spec) UnmarshalJSON(data []byte) error {
	var in jsonSpec
	if err := decodeStrict(data, &in); err != nil {
		return fmt.Errorf("chain: parse spec: %w", err)
	}
	if in.Tenant == "" {
		in.Tenant = DefaultTenant
	}
	out := Spec{
		Name:          in.Name,
		Tenant:        in.Tenant,
		Service:       in.Service,
		BandwidthGbps: in.BandwidthGbps,
		FlowBytes:     in.FlowBytes,
	}
	for _, nf := range in.NFs {
		out.NFs = append(out.NFs, NFRef{
			Name: nf.Name,
			Demand: topology.Resources{
				CPUCores:  nf.CPU,
				MemoryGB:  nf.Memory,
				StorageGB: nf.Disk,
			},
		})
	}
	if err := out.Validate(); err != nil {
		return err
	}
	*s = out
	return nil
}

// strictDecoder is a json.Decoder that rejects unknown fields, reading
// from a reader it owns. Decoders are pooled: a fresh one costs a
// handful of allocations and its buffer, and every provision decodes a
// spec.
type strictDecoder struct {
	r   bytes.Reader
	dec *json.Decoder
}

var strictDecoders = sync.Pool{New: func() any {
	d := new(strictDecoder)
	d.dec = json.NewDecoder(&d.r)
	d.dec.DisallowUnknownFields()
	return d
}}

// decodeStrict decodes data, one JSON value and nothing after it but
// white space, into v, rejecting fields v does not have at any depth.
func decodeStrict(data []byte, v any) error {
	d := strictDecoders.Get().(*strictDecoder)
	d.r.Reset(data)
	start := d.dec.InputOffset()
	err := d.dec.Decode(v)
	n := d.dec.InputOffset() - start
	if err == nil && len(bytes.TrimLeft(data[n:], " \t\r\n")) > 0 {
		err = fmt.Errorf("invalid character after top-level value")
	}
	// A decoder goes back only when it read data exactly: after an error
	// it may be stuck, and bytes it left unread would lead the next input.
	if err == nil && n == int64(len(data)) {
		strictDecoders.Put(d)
	}
	return err
}

// ParseSpecs decodes a JSON array of chain specs, validating each.
func ParseSpecs(data []byte) ([]Spec, error) {
	var specs []Spec
	if err := json.Unmarshal(data, &specs); err != nil {
		return nil, fmt.Errorf("chain: parse specs: %w", err)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("chain: parse specs: empty list")
	}
	return specs, nil
}
