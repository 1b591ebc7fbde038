package server

// Request decoding: every body-taking route reads its body with the one
// strict reader (jsonread), held here against a strict encoding/json
// decode of the same wire types, the decoder it replaced.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/jsonread"
	"github.com/alvc/alvc/internal/topology"
)

// TestBodyTrailersAnswer400: only white space may follow a request
// body's value. A stray closing brace or bracket after it — which the
// old decoder's "is there more?" check read as the end of the stream —
// and a second document are 400s on all six body-taking routes; the
// same bodies without the trailer are not.
func TestBodyTrailersAnswer400(t *testing.T) {
	srv, arch, ids := bootFleet(t, 8, 1)
	dep := arch.Deployment(ids[3])
	spec := func(name string) string {
		return `{"name":"` + name + `","tenant":"trail","service":"web","nfs":[{"name":"firewall"},{"name":"nat"}],"bandwidth_gbps":1,"flow_bytes":1048576}`
	}
	routes := []struct {
		name, target, body string
	}{
		{"provision", "/v1/chains", spec("one")},
		{"batch", "/v1/chains:batch", `{"specs":[` + spec("two") + `]}`},
		{"modify", fmt.Sprintf("/v1/chains/%d/modify", ids[3]), `{"bandwidth_gbps":3}`},
		{"scale", fmt.Sprintf("/v1/chains/%d/scale", ids[3]), `{"nf_index":0,"replicas":2}`},
		{"move", fmt.Sprintf("/v1/chains/%d/move", ids[3]), fmt.Sprintf(`{"nf_index":0,"to":%d}`, dep.Placement.Hosts[0])},
		{"failure batch", "/v1/failures:batch", fmt.Sprintf(`{"links":[%d]}`, dep.Standby.Links[1])},
	}
	for _, route := range routes {
		for _, trailer := range []string{"}", "]", " }", "\n]", "} {}", " {}", "x"} {
			rec := serve(t, srv, "POST", route.target, []byte(route.body+trailer))
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "unexpected data after JSON body") {
				t.Errorf("%s with %q after the body: %d %s, want 400 naming the trailing data", route.name, trailer, rec.Code, rec.Body)
			}
		}
	}
	for _, route := range routes {
		if rec := serve(t, srv, "POST", route.target, []byte(route.body+" \t\r\n")); rec.Code >= 300 {
			t.Errorf("%s: %d %s, want success", route.name, rec.Code, rec.Body)
		}
	}
}

// strictDecode is the oracle: encoding/json's Decoder with unknown
// fields disallowed, and nothing but white space after the value.
func strictDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return errors.New("unexpected data after JSON body")
	}
	return nil
}

// oracleSpec decodes a chain spec as the reflection decoder did: the
// whole value strictly into the wire form, an empty tenant defaulted,
// the spec validated.
type oracleSpec chain.Spec

// jsonSpec and jsonNF are the chain package's wire types, written out
// again so the oracle shares no code with the reader.
type jsonSpec struct {
	Name          string   `json:"name"`
	Tenant        string   `json:"tenant"`
	Service       string   `json:"service"`
	NFs           []jsonNF `json:"nfs"`
	BandwidthGbps float64  `json:"bandwidth_gbps"`
	FlowBytes     int64    `json:"flow_bytes"`
}

type jsonNF struct {
	Name      string  `json:"name"`
	CPU       float64 `json:"cpu"`
	MemoryGB  float64 `json:"memory_gb"`
	StorageGB float64 `json:"storage_gb"`
}

func (s *oracleSpec) UnmarshalJSON(data []byte) error {
	var w jsonSpec
	if err := strictDecode(data, &w); err != nil {
		return fmt.Errorf("chain: parse spec: %w", err)
	}
	if w.Tenant == "" {
		w.Tenant = chain.DefaultTenant
	}
	spec := chain.Spec{Name: w.Name, Tenant: w.Tenant, Service: w.Service, BandwidthGbps: w.BandwidthGbps, FlowBytes: w.FlowBytes}
	for _, nf := range w.NFs {
		spec.NFs = append(spec.NFs, chain.NFRef{Name: nf.Name, Demand: topology.Resources{CPUCores: nf.CPU, MemoryGB: nf.MemoryGB, StorageGB: nf.StorageGB}})
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	*s = oracleSpec(spec)
	return nil
}

// oracleBatchRequest is BatchRequest with its specs decoded by the oracle.
type oracleBatchRequest struct {
	Specs   []oracleSpec `json:"specs"`
	Workers int          `json:"workers,omitempty"`
}

func (o oracleBatchRequest) request() BatchRequest {
	req := BatchRequest{Workers: o.Workers}
	if o.Specs != nil {
		req.Specs = make([]chain.Spec, len(o.Specs))
		for i, s := range o.Specs {
			req.Specs[i] = chain.Spec(s)
		}
	}
	return req
}

// requestBody is one body-taking route's decode, by the reader and by
// the oracle.
type requestBody struct {
	name string
	// read decodes data with the reader, oracle with encoding/json, each
	// into a fresh request value, returned for comparison with the error.
	read, oracle func(data []byte) (any, error)
}

// oracleNames renames the batch oracle's own types, in its error text,
// to the types they stand for.
var oracleNames = strings.NewReplacer("server.oracleBatchRequest", "server.BatchRequest", "oracleBatchRequest.", "BatchRequest.",
	"[]server.oracleSpec", "[]chain.Spec", "server.json", "chain.json")

func bodyOf[T any, P interface {
	*T
	jsonread.Value
}](name string) requestBody {
	return requestBody{
		name: name,
		read: func(data []byte) (any, error) {
			var v T
			err := jsonread.Decode(data, P(&v))
			return v, err
		},
		oracle: func(data []byte) (any, error) {
			var v T
			err := strictDecode(data, &v)
			return v, err
		},
	}
}

var requestBodies = []requestBody{
	{
		name: "spec",
		read: func(data []byte) (any, error) {
			var spec chain.Spec
			err := jsonread.Decode(data, &spec)
			return spec, err
		},
		oracle: func(data []byte) (any, error) {
			var o oracleSpec
			if err := strictDecode(data, &o); err != nil {
				return chain.Spec(o), errors.New(oracleNames.Replace(err.Error()))
			}
			return chain.Spec(o), nil
		},
	},
	{
		name: "batch",
		read: func(data []byte) (any, error) {
			var req BatchRequest
			err := jsonread.Decode(data, &req)
			return req, err
		},
		oracle: func(data []byte) (any, error) {
			var o oracleBatchRequest
			if err := strictDecode(data, &o); err != nil {
				return o.request(), errors.New(oracleNames.Replace(err.Error()))
			}
			return o.request(), nil
		},
	},
	bodyOf[ModifyRequest]("modify"),
	bodyOf[ScaleRequest]("scale"),
	bodyOf[MoveRequest]("move"),
	bodyOf[BatchFailureRequest]("failure batch"),
}

// FuzzRequestBodies: the provision spec and the batch, modify, scale,
// move and failure-batch bodies — kind picks which — decode by the
// reader exactly as the strict encoding/json oracle decodes them: the
// same documents accepted, equal values out, the same error text. These
// are every body a route reads, and a route answers 400 exactly when its
// decode fails, so every route's status follows the oracle's.
func FuzzRequestBodies(f *testing.F) {
	const spec = `{"name":"c1","tenant":"t1","service":"web","nfs":[{"name":"firewall"},{"name":"nat"}],"bandwidth_gbps":1,"flow_bytes":1048576}`
	seeds := [][]string{
		{ // spec
			spec, `{"name":"c1","nfs":[{"name":"nat","cpu":2}],"nfs":[{"name":"lb"}],"bandwidth_gbps":1,"flow_bytes":1}`,
			`{"name":"c1","nfs":[{"name":"nat"}],"bandwidth_gbps":1,"flow_bytes":1e3}`, `{"name":null,"nfs":[null],"flow_bytes":null}`,
			`{"name":"c\u0031\"","ſervice":"web","nfs":[{"name":"n\u0061t"}],"bandwidth_gbps":1,"flow_bytes":1}`,
			spec + `}`, spec + `]`, spec + `} {}`, `[` + spec + `]`, `"x"`, `null`,
		},
		{ // batch
			`{"specs":[` + spec + `],"workers":2}`, `{"specs":[` + spec + `,` + spec + `]}`,
			`{"specs":[]}`, `{"specs":null}`, `{"specs":[null]}`, `{"specs":[1]}`, `{"specs":["x"]}`, `{"specs":{}}`,
			`{"specs":[` + spec + `],"specs":[]}`, `{"SPECS":[` + spec + `]}`, `{"workers":1.5}`, `{"workers":"2"}`,
			`{"bogus":1,"specs":[{"name":""}]}`, `{"specs":[{"name":""}],"bogus":1}`, `{"specs":[{"bogus":1}],"workers":"x"}`,
			`{"specs":[` + spec + `]}}`, `{"specs":[` + spec + `]}]`, `{"specs":[` + spec + `]} {}`,
		},
		{ // modify
			`{"bandwidth_gbps":2}`, `{"bandwidth_gbps":"2"}`, `{"bandwidth_gbps":1e400}`, `{"bandwidth_gbps":1e-400}`,
			`{"bandwidth_gbps":null}`, `{"BANDWIDTH_GBPS":3}`, `{"bandwidth_gbps":2,"bandwidth_gbps":3}`, `{"bandwidth_gbps":-0}`,
			`{"bandwidth_gbps":2}}`, `{"bandwidth_gbps":2}]`, `{"bandwidth_gbps":2} {}`, `{"bandwidth_gbps":2}x`,
			`{"bandwidth_gbps":2,}`, `{"bandwidth_gbps":02}`, `{"bandwidth_gbps":2.}`, `{"bandwidth_gbps":.5}`, `{"bandwidth_gbps":2e}`,
			`{"bandwidth_gbps":tru}`, `{"bandwidth_gbps":true}`, `{"bandwidth_gbps"2}`, `{bandwidth_gbps:2}`, `[]`, `null`, `2`, ``, ` `, `{`,
			"{\"bandwidth_gbps\":2\x00}", "\xef\xbb\xbf{}",
		},
		{ // scale
			`{"nf_index":0,"replicas":2}`, `{"nf_index":1.0}`, `{"replicas":1e3}`, `{"replicas":9223372036854775808}`,
			`{"nf_index":-9223372036854775808}`, `{"nf_index":"0"}`, `{"nf_index":[0]}`, `{"nf_index":{}}`, `{"replicas":-}`,
		},
		{ // move
			`{"nf_index":0,"to":5}`, `{"to":[5]}`, `{"To":5}`, `{"nf_index":0,"to":5,"from":3}`, `{"to":5.5}`,
			`{"to":null,"nf_index":null}`, `{"nf_index":1}`, `{"nf_index":1,"to":{"x":[[[]]]}}`,
		},
		{ // failure batch
			`{"nodes":[1,2],"links":[3]}`, `{"nodes":[]}`, `{"nodes":null}`, `{"links":[1,"2"]}`, `{"node":1}`,
			`{"nodes":[1,2],"nodes":[3]}`, `{"nodes":[1,2,3],"nodes":[4]}`, `{"nodes":[1,null,3]}`, `{"nodes":[1,2],"nodes":[null,null,null]}`,
			`{"linKs":[1]}`, `{"nodeſ":[1]}`, `{"NODES":[1]}`, `{"nodes":[1]}`, `{"nodes":[1],"links":[2]}` + "\n",
			`{"nodes":[1]}}`, `{"links":[1]}]`, `{"nodes":[1]} {}`, `{"x":[[[[[]]]]]}`, `{"nodes":[1] "links":[2]}`,
			`{"nodes":"\ud83d"}`, `{"😀":1}`, `{"nodes":[1],"bad\u0000":2}`, "{\"nod\xffes\":[1]}",
		},
	}
	for kind, bodies := range seeds {
		for _, body := range bodies {
			f.Add(uint8(kind), []byte(body))
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		rb := requestBodies[int(kind)%len(requestBodies)]
		got, err := rb.read(data)
		want, wantErr := rb.oracle(data)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("%s %q: reader says %v, oracle %v", rb.name, data, err, wantErr)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("%s %q: reader decoded %#v, oracle %#v", rb.name, data, got, want)
		case err != nil && err.Error() != wantErr.Error():
			t.Fatalf("%s %q: reader says %q, oracle %q", rb.name, data, err, wantErr)
		}
	})
}
