package topology

import "fmt"

// Validate checks the structural invariants of an AL-VC topology:
//
//   - every VM is hosted on an existing physical machine;
//   - every physical machine is wired to at least one ToR;
//   - every ToR uplinks to at least one OPS (otherwise its VMs could
//     never be covered by an abstraction layer);
//   - link endpoint kinds are consistent with link kinds (enforced on
//     AddLink, re-checked here);
//   - the switching fabric (ToRs + OPSs) is connected.
//
// It returns the first violation found. It reads the node and link
// tables directly, so a valid topology costs one allocation.
func (t *Topology) Validate() error {
	for _, n := range t.nodes {
		if n == nil || n.Kind != KindVM {
			continue
		}
		host := t.Node(n.Host)
		if host == nil || host.Kind != KindPhysicalMachine {
			return fmt.Errorf("topology: validate: VM %d has invalid host %d", n.ID, n.Host)
		}
	}
	for _, n := range t.nodes {
		if n != nil && n.Kind == KindPhysicalMachine && !t.hasLiveNeighbor(n.ID, KindToR) {
			return fmt.Errorf("topology: validate: PM %d has no ToR", n.ID)
		}
	}
	for _, n := range t.nodes {
		if n != nil && n.Kind == KindToR && !t.hasLiveNeighbor(n.ID, KindOPS) {
			return fmt.Errorf("topology: validate: ToR %d has no OPS uplink", n.ID)
		}
	}
	for _, l := range t.links[1:] {
		nf, nt := t.Node(l.From), t.Node(l.To)
		if nf == nil || nt == nil {
			return fmt.Errorf("topology: validate: link %d has missing endpoint", l.ID)
		}
		opsEnds := 0
		if nf.Kind == KindOPS {
			opsEnds++
		}
		if nt.Kind == KindOPS {
			opsEnds++
		}
		want := 0
		switch l.Kind {
		case LinkBoundary:
			want = 1
		case LinkOptical:
			want = 2
		}
		if opsEnds != want {
			return fmt.Errorf("topology: validate: link %d kind %s has %d OPS ends", l.ID, l.Kind, opsEnds)
		}
		if l.BandwidthGbps < 0 || l.LatencyMicros < 0 {
			return fmt.Errorf("topology: validate: link %d has negative bandwidth or latency", l.ID)
		}
	}
	// Fabric connectivity: the ToRs, the OPSs and the ends of every
	// boundary and optical link, down ones included, must form one
	// component. A union-find over the link table counts them; parent 0
	// marks a node outside the fabric.
	parent := make([]NodeID, len(t.nodes))
	components := 0
	join := func(v NodeID) {
		if parent[v] == 0 {
			parent[v] = v
			components++
		}
	}
	find := func(v NodeID) NodeID {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for _, n := range t.nodes {
		if n != nil && (n.Kind == KindToR || n.Kind == KindOPS) {
			join(n.ID)
		}
	}
	for _, l := range t.links[1:] {
		if l.Kind == LinkElectronic {
			continue
		}
		join(l.From)
		join(l.To)
		if a, b := find(l.From), find(l.To); a != b {
			parent[a] = b
			components--
		}
	}
	if components > 1 {
		return fmt.Errorf("topology: validate: switching fabric is disconnected (%d components)", components)
	}
	return nil
}

// hasLiveNeighbor reports whether a live link joins id to a live node of
// the kind: whether ToRsOfPM or OPSsOfToR would list one, without
// filling their caches.
func (t *Topology) hasLiveNeighbor(id NodeID, kind NodeKind) bool {
	for _, lid := range t.linkIDsOf(id) {
		l := t.links[lid]
		other := l.From
		if other == id {
			other = l.To
		}
		if n := t.nodes[other]; !l.Down && n != nil && n.Kind == kind && !n.Down {
			return true
		}
	}
	return false
}
