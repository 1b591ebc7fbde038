package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"testing"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/topology"
)

// TestLinkFailureEndpoint: POST /v1/failures/links/{id} must inject a
// link failure, return per-chain RepairReports like the node endpoint,
// and DELETE must recover the link. Unknown links map to 404 on both.
func TestLinkFailureEndpoint(t *testing.T) {
	ts, arch := newTestServerWith(t, wideConfig(24))
	dep := provisionChain(t, ts.URL, "a", "t-a")

	// A boundary (ToR↔OPS) link on the primary path: it has routable
	// alternatives, unlike a single-homed PM's only uplink.
	full := arch.Deployment(alvc.DeploymentID(dep.ID))
	var victim alvc.LinkID
	for i := 0; i+1 < len(full.Path); i++ {
		l := arch.Topology().LinkBetween(full.Path[i], full.Path[i+1])
		if l != nil && l.Kind == topology.LinkBoundary {
			victim = l.ID
			break
		}
	}
	if victim == 0 {
		t.Fatal("no boundary link on the chain's path")
	}

	status, body := do(t, "POST", fmt.Sprintf("%s/v1/failures/links/%d", ts.URL, victim), nil)
	if status != http.StatusOK {
		t.Fatalf("fail link: got %d (%s)", status, body)
	}
	var fr FailureResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if fr.Link != victim {
		t.Fatalf("response link = %d, want %d", fr.Link, victim)
	}
	found := false
	for _, rep := range fr.Reports {
		if rep.ID == dep.ID {
			found = true
			if rep.Action != string(alvc.RepairAction("swapped")) && rep.Action != string(alvc.RepairAction("repathed")) {
				t.Fatalf("action = %q, want swapped or repathed", rep.Action)
			}
		}
	}
	if !found {
		t.Fatalf("no report for chain %d: %+v", dep.ID, fr.Reports)
	}

	// Recover, then 404s for unknown links on both verbs.
	status, body = do(t, "DELETE", fmt.Sprintf("%s/v1/failures/links/%d", ts.URL, victim), nil)
	if status != http.StatusOK {
		t.Fatalf("recover link: got %d (%s)", status, body)
	}
	if arch.Topology().Link(victim).Down {
		t.Fatal("link still down after recovery")
	}
	if status, _ := do(t, "POST", ts.URL+"/v1/failures/links/99999", nil); status != http.StatusNotFound {
		t.Fatalf("fail unknown link: got %d, want 404", status)
	}
	if status, _ := do(t, "DELETE", ts.URL+"/v1/failures/links/99999", nil); status != http.StatusNotFound {
		t.Fatalf("recover unknown link: got %d, want 404", status)
	}
	if status, _ := do(t, "POST", ts.URL+"/v1/failures/links/zero", nil); status != http.StatusBadRequest {
		t.Fatalf("fail malformed link id: got %d, want 400", status)
	}
}

// TestBatchFailureEndpoint: POST /v1/failures:batch must take a
// node+link union down as one event with each chain reported at most
// once, reject empty bodies, and 404 unknown members without touching
// anything.
func TestBatchFailureEndpoint(t *testing.T) {
	ts, arch := newTestServerWith(t, wideConfig(24))
	provisionChain(t, ts.URL, "a", "t-a")
	provisionChain(t, ts.URL, "b", "t-b")

	// A rack: one ToR plus the PMs wired to it.
	topo := arch.Topology()
	var tor topology.NodeID
	for _, id := range topo.NodeIDs(topology.KindToR) {
		tor = id
		break
	}
	nodes := []topology.NodeID{tor}
	for _, pm := range topo.NodeIDs(topology.KindPhysicalMachine) {
		for _, pt := range topo.ToRsOfPM(pm) {
			if pt == tor {
				nodes = append(nodes, pm)
				break
			}
		}
	}
	reqBody, _ := json.Marshal(BatchFailureRequest{Nodes: nodes})
	status, body := do(t, "POST", ts.URL+"/v1/failures:batch", reqBody)
	if status != http.StatusOK {
		t.Fatalf("batch failure: got %d (%s)", status, body)
	}
	var fr FailureResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(fr.Nodes) != len(nodes) {
		t.Fatalf("response nodes = %v, want %v", fr.Nodes, nodes)
	}
	seen := make(map[int]bool)
	for _, rep := range fr.Reports {
		if seen[rep.ID] {
			t.Fatalf("chain %d reported twice: %+v", rep.ID, fr.Reports)
		}
		seen[rep.ID] = true
	}

	// Empty body → 400; unknown member → 404 and nothing marked down.
	empty, _ := json.Marshal(BatchFailureRequest{})
	if status, _ := do(t, "POST", ts.URL+"/v1/failures:batch", empty); status != http.StatusBadRequest {
		t.Fatalf("empty batch: got %d, want 400", status)
	}
	for _, n := range nodes {
		if err := arch.Sharded().Recover(topology.NewFailures([]topology.NodeID{n}, nil)); err != nil {
			t.Fatalf("Recover: %v", err)
		}
	}
	bad, _ := json.Marshal(BatchFailureRequest{Nodes: []topology.NodeID{nodes[0], 99999}})
	if status, _ := do(t, "POST", ts.URL+"/v1/failures:batch", bad); status != http.StatusNotFound {
		t.Fatalf("batch with unknown node: got %d, want 404", status)
	}
	if topo.Node(nodes[0]).Down {
		t.Fatal("rejected batch still marked nodes down")
	}
}

// TestImpactEndpoints: the blast-radius queries must reflect the
// reverse indexes — every chain using the resource, with roles — and
// 404 unknown resources.
func TestImpactEndpoints(t *testing.T) {
	ts, arch := newTestServerWith(t, wideConfig(24))
	dep := provisionChain(t, ts.URL, "a", "t-a")
	full := arch.Deployment(alvc.DeploymentID(dep.ID))

	// Node impact of a slice OPS.
	ops := full.Slice.OPSs[0]
	status, body := do(t, "GET", fmt.Sprintf("%s/v1/nodes/%d/impact", ts.URL, ops), nil)
	if status != http.StatusOK {
		t.Fatalf("node impact: got %d (%s)", status, body)
	}
	var ir ImpactResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if ir.Count != len(ir.Chains) || ir.Count < 1 {
		t.Fatalf("impact = %+v, want at least our chain", ir)
	}
	var entry *ImpactEntryJSON
	for i := range ir.Chains {
		if ir.Chains[i].ID == dep.ID {
			entry = &ir.Chains[i]
		}
	}
	if entry == nil {
		t.Fatalf("chain %d missing from impact %+v", dep.ID, ir)
	}
	hasSlice := false
	for _, r := range entry.Roles {
		if r == "slice" {
			hasSlice = true
		}
	}
	if !hasSlice {
		t.Fatalf("roles = %v, want slice included", entry.Roles)
	}

	// Link impact of the first physical path link.
	var link alvc.LinkID
	for i := 0; i+1 < len(full.Path); i++ {
		if l := arch.Topology().LinkBetween(full.Path[i], full.Path[i+1]); l != nil {
			link = l.ID
			break
		}
	}
	status, body = do(t, "GET", fmt.Sprintf("%s/v1/links/%d/impact", ts.URL, link), nil)
	if status != http.StatusOK {
		t.Fatalf("link impact: got %d (%s)", status, body)
	}
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	found := false
	for _, c := range ir.Chains {
		if c.ID == dep.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("chain %d missing from link impact %+v", dep.ID, ir)
	}

	// Unknown resources 404.
	if status, _ := do(t, "GET", ts.URL+"/v1/nodes/99999/impact", nil); status != http.StatusNotFound {
		t.Fatalf("unknown node impact: got %d, want 404", status)
	}
	if status, _ := do(t, "GET", ts.URL+"/v1/links/99999/impact", nil); status != http.StatusNotFound {
		t.Fatalf("unknown link impact: got %d, want 404", status)
	}

	// After delete the blast radius shrinks to empty.
	if status, _ := do(t, "DELETE", fmt.Sprintf("%s/v1/chains/%d", ts.URL, dep.ID), nil); status != http.StatusOK {
		t.Fatalf("delete failed: %d", status)
	}
	status, body = do(t, "GET", fmt.Sprintf("%s/v1/nodes/%d/impact", ts.URL, ops), nil)
	if status != http.StatusOK {
		t.Fatalf("node impact after delete: got %d", status)
	}
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if ir.Count != 0 {
		t.Fatalf("impact after delete = %+v, want empty", ir)
	}
}

// TestDeploymentJSONCarriesStandby: the wire form must expose the
// standby path so operators can see a chain's protection state, once:
// in the standby block, with no top-level standby_path beside it.
func TestDeploymentJSONCarriesStandby(t *testing.T) {
	ts, arch := newTestServerWith(t, wideConfig(24))
	dep := provisionChain(t, ts.URL, "a", "t-a")
	full := arch.Deployment(alvc.DeploymentID(dep.ID))
	if full.Standby == nil {
		t.Skip("no standby planned on this seed")
	}
	if dep.Standby == nil || !slices.Equal(dep.Standby.Path, full.Standby.Path) || dep.Standby.Disjoint != full.Standby.Disjoint {
		t.Fatalf("wire standby = %+v, want path %v, disjoint %v", dep.Standby, full.Standby.Path, full.Standby.Disjoint)
	}
	_, body := do(t, "GET", fmt.Sprintf("%s/v1/chains/%d", ts.URL, dep.ID), nil)
	if bytes.Contains(body, []byte(`"standby_path"`)) || bytes.Contains(body, []byte(`"standby_disjoint"`)) {
		t.Fatalf("the standby is sent twice: %s", body)
	}
}
