package topology

import (
	"fmt"

	"github.com/alvc/alvc/internal/graph"
)

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
// It returns the first violation found.
func (t *Topology) Validate() error {
	for _, n := range t.Nodes(KindVM) {
		host := t.Node(n.Host)
		if host == nil || host.Kind != KindPhysicalMachine {
			return fmt.Errorf("topology: validate: VM %d has invalid host %d", n.ID, n.Host)
		}
	}
	for _, n := range t.Nodes(KindPhysicalMachine) {
		if len(t.ToRsOfPM(n.ID)) == 0 {
			return fmt.Errorf("topology: validate: PM %d has no ToR", n.ID)
		}
	}
	for _, n := range t.Nodes(KindToR) {
		if len(t.OPSsOfToR(n.ID)) == 0 {
			return fmt.Errorf("topology: validate: ToR %d has no OPS uplink", n.ID)
		}
	}
	for _, l := range t.Links() {
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
		want := map[LinkKind]int{LinkElectronic: 0, LinkBoundary: 1, LinkOptical: 2}
		if opsEnds != want[l.Kind] {
			return fmt.Errorf("topology: validate: link %d kind %s has %d OPS ends", l.ID, l.Kind, opsEnds)
		}
		if l.BandwidthGbps < 0 || l.LatencyMicros < 0 {
			return fmt.Errorf("topology: validate: link %d has negative bandwidth or latency", l.ID)
		}
	}
	// Fabric connectivity: ToRs and OPSs must form one component.
	fabric := graph.New(false)
	for _, n := range t.Nodes(KindToR, KindOPS) {
		fabric.AddVertex(graph.VertexID(n.ID))
	}
	for _, l := range t.Links() {
		if l.Kind == LinkElectronic {
			continue
		}
		_ = fabric.AddEdge(graph.VertexID(l.From), graph.VertexID(l.To), 1)
	}
	if !fabric.Connected() {
		return fmt.Errorf("topology: validate: switching fabric is disconnected (%d components)",
			len(fabric.Components()))
	}
	return nil
}
