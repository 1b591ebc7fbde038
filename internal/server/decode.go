package server

import (
	"net/http"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/jsonread"
	"github.com/alvc/alvc/internal/topology"
)

// decodeBody strictly decodes a JSON request body into v: one JSON
// value and nothing after it but white space (jsonread).
func decodeBody(w http.ResponseWriter, r *http.Request, v jsonread.Value) error {
	return jsonread.DecodeReader(http.MaxBytesReader(w, r.Body, maxBodyBytes), v)
}

// The request bodies' objects, with the Go names encoding/json's errors
// give them.
var (
	batchObject        = jsonread.Struct{Type: "server.BatchRequest", Fields: []string{"specs", "workers"}}
	modifyObject       = jsonread.Struct{Type: "server.ModifyRequest", Fields: []string{"bandwidth_gbps"}}
	scaleObject        = jsonread.Struct{Type: "server.ScaleRequest", Fields: []string{"nf_index", "replicas"}}
	moveObject         = jsonread.Struct{Type: "server.MoveRequest", Fields: []string{"nf_index", "to"}}
	batchFailureObject = jsonread.Struct{Type: "server.BatchFailureRequest", Fields: []string{"nodes", "links"}}
)

// ReadJSON implements jsonread.Value.
func (b *BatchRequest) ReadJSON(r *jsonread.Reader) {
	r.Object(&batchObject, func(i int) {
		switch i {
		case 0:
			jsonread.Slice(r, "[]chain.Spec", &b.Specs, func(s *chain.Spec) { s.ReadJSON(r) })
		case 1:
			jsonread.Int(r, "int", &b.Workers)
		}
	})
}

// ReadJSON implements jsonread.Value.
func (m *ModifyRequest) ReadJSON(r *jsonread.Reader) {
	r.Object(&modifyObject, func(int) { r.Float(&m.BandwidthGbps) })
}

// ReadJSON implements jsonread.Value.
func (s *ScaleRequest) ReadJSON(r *jsonread.Reader) {
	r.Object(&scaleObject, func(i int) {
		switch i {
		case 0:
			jsonread.Int(r, "int", &s.NFIndex)
		case 1:
			jsonread.Int(r, "int", &s.Replicas)
		}
	})
}

// ReadJSON implements jsonread.Value.
func (m *MoveRequest) ReadJSON(r *jsonread.Reader) {
	r.Object(&moveObject, func(i int) {
		switch i {
		case 0:
			jsonread.Int(r, "int", &m.NFIndex)
		case 1:
			jsonread.Int(r, "topology.NodeID", &m.To)
		}
	})
}

// ReadJSON implements jsonread.Value.
func (b *BatchFailureRequest) ReadJSON(r *jsonread.Reader) {
	r.Object(&batchFailureObject, func(i int) {
		switch i {
		case 0:
			jsonread.Slice(r, "[]topology.NodeID", &b.Nodes, func(n *topology.NodeID) { jsonread.Int(r, "topology.NodeID", n) })
		case 1:
			jsonread.Slice(r, "[]topology.LinkID", &b.Links, func(l *topology.LinkID) { jsonread.Int(r, "topology.LinkID", l) })
		}
	})
}
