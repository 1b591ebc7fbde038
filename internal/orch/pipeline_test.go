package orch

import (
	"fmt"
	"slices"
	"testing"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/topology"
)

// TestRecordsOwnTheirArrays: pipelines are pooled with their scratch,
// and the records they commit must not be. Through provisions (single
// and batched), deletes, a repairing failure and a
// move, no two live records share the backing array of a path, an
// instance list, a placement or a standby path, and a record no verb
// touched since its provision still reads what the provision answered.
func TestRecordsOwnTheirArrays(t *testing.T) {
	s := equivalenceFleet(t, 1, 1)
	answered := make(map[DeploymentID]*Deployment)
	for _, dep := range s.Deployments() {
		answered[dep.ID] = dep
	}
	var extra []chain.Spec
	for i := range 16 {
		spec, err := chain.Linear(fmt.Sprintf("extra-%d", i), fmt.Sprintf("tenant-x%d", i), "web", 1, 1<<20, "firewall", "nat", "lb")
		if err != nil {
			t.Fatal(err)
		}
		extra = append(extra, spec)
	}
	for _, res := range s.ProvisionBatch(extra[:8]) {
		if res.Err != nil {
			t.Fatalf("batch %d: %v", res.Index, res.Err)
		}
		answered[res.Deployment.ID] = res.Deployment
	}
	for i, dep := range s.Deployments() {
		if i%3 == 0 {
			if _, err := s.Delete(bg, dep.ID); err != nil {
				t.Fatalf("Delete %d: %v", dep.ID, err)
			}
			delete(answered, dep.ID)
		}
	}
	for _, spec := range extra[8:] {
		dep, err := s.Provision(bg, spec)
		if err != nil {
			t.Fatalf("Provision %q: %v", spec.Name, err)
		}
		answered[dep.ID] = dep
	}
	touched := make(map[DeploymentID]bool)
	victim := s.Deployments()[0]
	reports, err := s.HandleFailures(bg, topology.NewFailures([]topology.NodeID{victim.Slice.OPSs[0]}, nil))
	if err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	for _, rep := range reports {
		touched[rep.ID] = true
	}
	mover := s.Deployments()[1]
	if _, err := s.Apply(mover.ID, ChangeHost(0, mover.Placement.Hosts[1])); err == nil {
		touched[mover.ID] = true
	}

	owner := make(map[any]string)
	claim := func(what string, id DeploymentID, ptr any) {
		if prev, ok := owner[ptr]; ok {
			t.Errorf("%s of %d shares its array with %s", what, id, prev)
		}
		owner[ptr] = fmt.Sprintf("%s of %d", what, id)
	}
	checked := 0
	for _, o := range s.shards {
		o.mu.Lock()
		for id, dep := range o.deployments {
			if dep.State != StateActive {
				continue
			}
			claim("path", id, &dep.Path[0])
			claim("instances", id, &dep.Instances[0])
			claim("hosts", id, &dep.Placement.Hosts[0])
			claim("domains", id, &dep.Placement.Domains[0])
			if dep.Standby != nil {
				claim("standby path", id, &dep.Standby.Path[0])
			}
			if was, ok := answered[id]; ok && !touched[id] {
				checked++
				if !slices.Equal(dep.Path, was.Path) || !slices.Equal(dep.Instances, was.Instances) ||
					!slices.Equal(dep.Placement.Hosts, was.Placement.Hosts) || !slices.Equal(dep.Placement.Domains, was.Placement.Domains) {
					t.Errorf("record %d changed under later builds: %v %v %v, provision answered %v %v %v",
						id, dep.Path, dep.Instances, dep.Placement.Hosts, was.Path, was.Instances, was.Placement.Hosts)
				}
			}
		}
		o.mu.Unlock()
	}
	if checked < 10 || len(touched) == 0 {
		t.Fatalf("%d untouched records checked, %d touched", checked, len(touched))
	}
}
