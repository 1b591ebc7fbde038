package chain

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"testing"

	"github.com/alvc/alvc/internal/topology"
)

// wireSpec is the documented wire form of a chain spec, written out
// again here so the oracle does not share the decoder's types.
type wireSpec struct {
	Name          string   `json:"name"`
	Tenant        string   `json:"tenant"`
	Service       string   `json:"service"`
	NFs           []wireNF `json:"nfs"`
	BandwidthGbps float64  `json:"bandwidth_gbps"`
	FlowBytes     int64    `json:"flow_bytes"`
}

type wireNF struct {
	Name      string  `json:"name"`
	CPU       float64 `json:"cpu"`
	MemoryGB  float64 `json:"memory_gb"`
	StorageGB float64 `json:"storage_gb"`
}

// strictSpec is the oracle: a strict encoding/json decode of one whole
// document into the wire form, then the spec it names.
func strictSpec(data []byte) (Spec, bool) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w wireSpec
	if err := dec.Decode(&w); err != nil {
		return Spec{}, false
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, false // a second value, or garbage, after the first
	}
	if w.Tenant == "" {
		w.Tenant = DefaultTenant
	}
	s := Spec{Name: w.Name, Tenant: w.Tenant, Service: w.Service, BandwidthGbps: w.BandwidthGbps, FlowBytes: w.FlowBytes}
	for _, nf := range w.NFs {
		s.NFs = append(s.NFs, NFRef{Name: nf.Name, Demand: topology.Resources{CPUCores: nf.CPU, MemoryGB: nf.MemoryGB, StorageGB: nf.StorageGB}})
	}
	return s, true
}

// FuzzSpecDecode: decoding a spec — through json.Unmarshal, or by
// calling UnmarshalJSON on the raw bytes, trailing data and all —
// accepts exactly what a strict encoding/json decode of the wire form
// accepts and the spec validation passes, and yields the spec that
// decode names; an accepted spec survives a marshal round trip
// unchanged. The decoders are pooled, so every input also checks that
// the ones before it left nothing behind.
func FuzzSpecDecode(f *testing.F) {
	for _, seed := range []string{
		`{"name":"c1","tenant":"t1","service":"web","nfs":[{"name":"firewall"},{"name":"lb"}],"bandwidth_gbps":2,"flow_bytes":1048576}`,
		`{"name":"c1","service":"web","nfs":[{"name":"dpi","cpu":16,"memory_gb":4,"storage_gb":1}],"bandwidth_gbps":1,"flow_bytes":1}`,
		`{"name":"c1","tenant":"t1","service":"web","bogus":1,"nfs":[{"name":"nat"}],"bandwidth_gbps":1,"flow_bytes":1}`,
		`{"name":"c1","tenant":"t1","service":"web","nfs":[{"name":"nat","cpuu":3}],"bandwidth_gbps":1,"flow_bytes":1}`,
		`{"NAME":"c1","Tenant":"t1","service":"web","nfs":[{"Name":"nat","CPU":2}],"bandwidth_gbps":1,"flow_bytes":1}`,
		`{"name":"c1","tenant":"t1","service":"web","nfs":[],"bandwidth_gbps":1,"flow_bytes":1}`,
		`{"name":"c1","tenant":"t1","service":"web","nfs":[{"name":"nat"}],"bandwidth_gbps":-1,"flow_bytes":1}`,
		`{"name":"c1","nfs":[{"name":"nat"}],"bandwidth_gbps":1,"flow_bytes":1} {}`,
		`null`, `[]`, `{}`, `{"nfs":null}`, `{"nfs":[null]}`, `{"name":1}`, ` {"name":"c1","nfs":[{"name":"nat"}],"bandwidth_gbps":1,"flow_bytes":1} `,
		`{"name":"c1","nfs":[{"name":"nat"}],"bandwidth_gbps":1,"flow_bytes":1}x`, `{"name":"c1","nfs":[{"name":"nat"}],"bandwidth_gbps":1,"flow_bytes":1`, ``,
		// Trailers the old server decoder let through: a closing brace or
		// bracket after the value, and a second document.
		`{"name":"c1","nfs":[{"name":"nat"}],"bandwidth_gbps":1,"flow_bytes":1}}`,
		`{"name":"c1","nfs":[{"name":"nat"}],"bandwidth_gbps":1,"flow_bytes":1}]`,
		`{"name":"c1","nfs":[{"name":"nat"}],"bandwidth_gbps":1,"flow_bytes":1}} {}`,
		// Escapes in values and keys: \u, surrogate pairs, a lone
		// surrogate, \" and the one-letter escapes, invalid UTF-8.
		`{"name":"c\u0031\"q\\/\b\f\n\r\t\/","n\u0061me":"c2","nfs":[{"name":"n\u0061t"}],"bandwidth_gbps":1,"flow_bytes":1}`,
		`{"name":"\ud83d\ude00\ud83d\u0041\ude00","nfs":[{"name":"nat"}],"bandwidth_gbps":1,"flow_bytes":1}`,
		"{\"name\":\"c\xff\xc3\",\"nfs\":[{\"name\":\"nat\"}],\"bandwidth_gbps\":1,\"flow_bytes\":1}",
		`{"name":"c1","nfs":[{"name":"nat"}],"bandwidth_gbps":1,"flow_bytes":1,"bad\u0000":1}`,
		// Keys encoding/json matches case-insensitively: U+017F folds to
		// 's', U+212A (Kelvin) to 'k', which no spec field has.
		`{"Name":"c1","ſervice":"web","NFS":[{"nAmE":"nat","ſtorage_gb":1}],"bandwidth_gbpſ":1,"flow_bytes":1}`,
		`{"name":"c1","nfs":[{"name":"nat"}],"bandwidth_gbps":1,"flow_bytes":1,"K":1}`,
		// Duplicate keys: the later value reads over the earlier one, an
		// array into the earlier one's elements.
		`{"name":"a","name":"b","nfs":[{"name":"nat","cpu":2,"memory_gb":3}],"nfs":[{"name":"lb","cpu":1}],"bandwidth_gbps":1,"flow_bytes":1}`,
		`{"name":"c1","nfs":[{"name":"nat"},{"name":"lb","cpu":4}],"nfs":[{"name":"dpi"}],"nfs":[{"name":"ids"},{}],"bandwidth_gbps":1,"flow_bytes":1}`,
		// 1e3 is a number but not an int64; nulls leave fields as they were.
		`{"name":"c1","nfs":[{"name":"nat"}],"bandwidth_gbps":1,"flow_bytes":1e3}`,
		`{"name":"c1","nfs":[{"name":"nat"}],"bandwidth_gbps":1e3,"flow_bytes":1000}`,
		`{"name":"c1","tenant":null,"service":null,"nfs":[{"name":"nat","cpu":null}],"bandwidth_gbps":1,"bandwidth_gbps":null,"flow_bytes":1}`,
		`{"name":"c1","nfs":[{"name":"nat"}],"nfs":null,"bandwidth_gbps":1,"flow_bytes":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, parsed := strictSpec(data)
		accept := parsed && want.Validate() == nil
		var direct Spec
		if err := direct.UnmarshalJSON(data); (err == nil) != accept || accept && !reflect.DeepEqual(direct, want) {
			t.Fatalf("%q: UnmarshalJSON = %+v, %v; strict decode parsed %+v (%v), validation %v", data, direct, err, want, parsed, want.Validate())
		}
		var got Spec
		err := json.Unmarshal(data, &got)
		if (err == nil) != (accept && json.Valid(data)) {
			t.Fatalf("%q: decode err = %v; strict decode parsed %v, validation %v", data, err, parsed, want.Validate())
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded %+v, strict decode names %+v", data, got, want)
		}
		out, err := json.Marshal(got)
		if err != nil {
			t.Fatalf("%q: marshal %+v: %v", data, got, err)
		}
		var back Spec
		if err := json.Unmarshal(out, &back); err != nil || !reflect.DeepEqual(back, got) {
			t.Fatalf("%q: round trip %s = %+v, %v; want %+v", data, out, back, err, got)
		}
	})
}
