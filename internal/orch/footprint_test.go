package orch

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/alvc/alvc/internal/optical"
	"github.com/alvc/alvc/internal/resilience"
	"github.com/alvc/alvc/internal/topology"
)

// footprintBySet and linkFootprintBySet are the map-deduplicating
// implementations footprint and linkFootprint replaced, kept as the
// reference for what they must return.
func footprintBySet(d *Deployment) []topology.NodeID {
	seen := make(map[topology.NodeID]struct{}, len(d.Path)+len(d.Placement.Hosts))
	var out []topology.NodeID
	add := func(n topology.NodeID) {
		if _, dup := seen[n]; !dup {
			seen[n] = struct{}{}
			out = append(out, n)
		}
	}
	if d.Slice != nil {
		for _, n := range d.Slice.OPSs {
			add(n)
		}
	}
	for _, n := range d.Placement.Hosts {
		add(n)
	}
	for _, n := range d.Path {
		add(n)
	}
	if d.Standby != nil {
		for _, n := range d.Standby.Path {
			add(n)
		}
	}
	return out
}

func linkFootprintBySet(d *Deployment, primary []topology.LinkID) []topology.LinkID {
	seen := make(map[topology.LinkID]struct{})
	var out []topology.LinkID
	add := func(ids []topology.LinkID) {
		for _, l := range ids {
			if _, dup := seen[l]; !dup {
				seen[l] = struct{}{}
				out = append(out, l)
			}
		}
	}
	add(primary)
	if d.Standby != nil {
		add(d.Standby.Links)
	}
	return out
}

// TestFootprintMatchesSetDedup holds the linear first-seen dedup against
// the map-based one on deployments whose slice, hosts, path and standby
// draw from one small ID range, so they overlap within and across parts
// (a path revisits a host; the standby shares the primary's ends).
func TestFootprintMatchesSetDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	nodes := func(max int) []topology.NodeID {
		out := make([]topology.NodeID, rng.Intn(max+1))
		for i := range out {
			out[i] = topology.NodeID(rng.Intn(24))
		}
		return out
	}
	links := func(max int) []topology.LinkID {
		out := make([]topology.LinkID, rng.Intn(max+1))
		for i := range out {
			out[i] = topology.LinkID(rng.Intn(24))
		}
		return out
	}
	for i := 0; i < 200; i++ {
		d := &Deployment{Path: nodes(14)}
		d.Placement.Hosts = nodes(4)
		if rng.Intn(8) > 0 {
			d.Slice = &optical.Slice{OPSs: nodes(6)}
		}
		if rng.Intn(3) > 0 {
			d.Standby = &resilience.Standby{Path: nodes(14), Links: links(12)}
		}
		primary := links(12)
		// Equal: same elements in the same first-seen order (an empty
		// footprint may be nil or empty).
		if got, want := d.footprint(), footprintBySet(d); !slices.Equal(got, want) {
			t.Fatalf("deployment %d: footprint %v, set-based %v", i, got, want)
		}
		if got, want := d.linkFootprint(primary), linkFootprintBySet(d, primary); !slices.Equal(got, want) {
			t.Fatalf("deployment %d: linkFootprint %v, set-based %v", i, got, want)
		}
	}
}
