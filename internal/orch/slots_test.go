package orch

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/alvc/alvc/internal/topology"
	"github.com/alvc/alvc/internal/trace"
)

// lookup returns the record of id and whether the shard holds one.
// Caller holds o.mu.
func (o *shard) lookup(id DeploymentID) (*Deployment, bool) {
	dep := o.held(id)
	return dep, dep != nil
}

// records returns the shard's records by ID. Caller holds o.mu.
func (o *shard) records() map[DeploymentID]*Deployment {
	out := make(map[DeploymentID]*Deployment)
	for _, e := range o.slots {
		if e.dep != nil {
			out[e.dep.ID] = e.dep
		}
	}
	return out
}

// owedSet returns the records the shard's slot table marks owed, by ID.
// Caller holds o.mu.
func (o *shard) owedSet() map[DeploymentID]*Deployment {
	out := make(map[DeploymentID]*Deployment)
	for _, e := range o.slots {
		if e.owed {
			out[e.dep.ID] = e.dep
		}
	}
	return out
}

// claimSlot takes a slot of the shard for a caller that builds on the
// allocator directly, as a service cluster holds one, and returns its ID.
func claimSlot(o *shard) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	k, err := o.takeSlotLocked()
	if err != nil {
		panic(err)
	}
	o.slots[k].service = true
	return o.layerID(k)
}

// census is one slot table read in place: its length, and how many of
// its entries still reach something.
type census struct{ held, size int }

// tableCensus reads the slot table in field of owner, another package's,
// by reflection: an entry reaches something unless it is zero, or, with
// sub set, unless its field sub is.
func tableCensus(owner any, field, sub string) census {
	v := reflect.ValueOf(owner).Elem().FieldByName(field)
	c := census{size: v.Len()}
	for i := 0; i < v.Len(); i++ {
		if e := v.Index(i); sub != "" && !e.FieldByName(sub).IsZero() || sub == "" && !e.IsZero() {
			c.held++
		}
	}
	return c
}

// fleetCensus reads every slot table a chain has an entry in: the
// shards' own tables, their allocators' and controllers', and the shared
// slice, instance and trace tables.
func fleetCensus(s *Sharded, store *trace.Store) map[string]census {
	out := map[string]census{
		"slices":    tableCensus(s.core.slices, "slices", ""),
		"instances": tableCensus(s.core.mgr, "instances", "inst"),
		"traces":    tableCensus(store, "byDep", ""),
	}
	for i, o := range s.shards {
		o.mu.Lock()
		c := census{size: len(o.slots)}
		for _, e := range o.slots {
			if e.dep != nil || e.busy || e.owed || e.service {
				c.held++
			}
		}
		o.mu.Unlock()
		out[fmt.Sprintf("shard %d records", i)] = c
		out[fmt.Sprintf("shard %d VCs", i)] = tableCensus(o.alloc, "vcs", "")
		out[fmt.Sprintf("shard %d flows", i)] = tableCensus(o.ctrl, "flows", "")
	}
	return out
}

// TestEmptiedFleetHoldsNothing fills a fleet and deletes every chain, at
// one shard and at four, twice: each time no slot table entry reaches a
// record, VC, slice, instance, flow block or trace ring, and the second
// fill leaves every table the length the first gave it — a table by slot
// reuses freed entries where a map kept its peak buckets and rehashed.
func TestEmptiedFleetHoldsNothing(t *testing.T) {
	const chains = 50
	for _, shards := range []int{1, 4} {
		s := newTestSet(t, Config{Topo: fillTopology(t, 2*chains)}, shards)
		store := trace.NewStore(trace.StoreOptions{})
		s.UpdateHooks(func(h *Hooks) { h.Tracer = trace.NewTracer(store) })
		var filled map[string]census
		for round := 0; round < 2; round++ {
			var ids []DeploymentID
			for i := 0; i < chains; i++ {
				dep, err := s.Provision(bg, fillSpec(t, i, fillShapes[i%len(fillShapes)]))
				if err != nil {
					t.Fatalf("%d shards, fill %d: chain %d: %v", shards, round, i, err)
				}
				ids = append(ids, dep.ID)
			}
			now := fleetCensus(s, store)
			if filled == nil {
				filled = now
			}
			for name, c := range now {
				if c.size != filled[name].size {
					t.Errorf("%d shards, fill %d: %s table is %d long, the first fill left it %d", shards, round, name, c.size, filled[name].size)
				}
			}
			for _, id := range ids {
				if _, err := s.Delete(bg, id); err != nil {
					t.Fatalf("%d shards: Delete %d: %v", shards, id, err)
				}
			}
			for name, c := range fleetCensus(s, store) {
				if c.held != 0 {
					t.Errorf("%d shards, emptied after fill %d: %d %s entries still reach something", shards, round, c.held, name)
				}
			}
		}
	}
}

// TestBuildServiceClustersRollsBackOnFailure: with one OPS for two
// services the second cluster cannot be built, and the first is released
// with its slot — no cluster, no claimed OPS and no taken slot stays.
func TestBuildServiceClustersRollsBackOnFailure(t *testing.T) {
	cfg := topology.DefaultGenConfig()
	cfg.OPSCount, cfg.ToRUplinks, cfg.OPSChords = 1, 1, 0
	cfg.Services = []string{"a", "b"}
	topo, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	s, o := newTestOrch(t, Config{Topo: topo})
	if _, err := s.BuildServiceClusters(); err == nil {
		t.Fatal("two services built disjoint clusters over one OPS")
	}
	if vcs := s.Clusters(); len(vcs) != 0 {
		t.Fatalf("%d clusters leaked after the failed build", len(vcs))
	}
	if got := len(o.alloc.AvailableOPS()); got != 1 {
		t.Fatalf("available OPSs = %d, want the one released", got)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for k, e := range o.slots {
		if e != (slotEntry{}) {
			t.Errorf("slot %d holds %+v", k, e)
		}
	}
	if k, _ := o.takeSlotLocked(); k != 0 {
		t.Errorf("the next slot taken is %d, want 0", k)
	}
}
