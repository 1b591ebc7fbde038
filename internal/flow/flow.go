// Package flow measures what deployed chains actually cost: it prices
// the walk a flow's packets take through the switches' rules
// (sdn.Controller.Walk) — its hops, its O/E/O conversions (§IV-D), link
// latency, VNF processing latency and conversion energy — one flow at a
// time or as a batch. It counts no domain crossing of its own: the
// conversions are the ones the rules apply.
package flow

import (
	"fmt"

	"github.com/alvc/alvc/internal/optical"
	"github.com/alvc/alvc/internal/sdn"
	"github.com/alvc/alvc/internal/topology"
)

// Config parameterizes the simulator.
type Config struct {
	// CostModel prices O/E/O conversions.
	CostModel optical.CostModel
	// ConversionDelayUs is the added latency per boundary crossing.
	ConversionDelayUs float64
	// VNFDelayUs maps a host node to per-visit processing latency
	// (optional; the orchestration layer knows which VNFs sit where).
	VNFDelayUs map[topology.NodeID]float64
}

// DefaultConfig returns a simulator configuration with the default
// optical cost model and a 10 µs conversion penalty.
func DefaultConfig() Config {
	return Config{
		CostModel:         optical.DefaultCostModel(),
		ConversionDelayUs: 10,
	}
}

// Spec is one flow to replay: the walk its rules take and the flow
// length.
type Spec struct {
	Walk  sdn.Walk
	Bytes int64
}

// PerFlow is the measured cost of one flow.
type PerFlow struct {
	Hops int
	// OEOConversions counts the walk's O/E/O excursions (sdn.Excursions).
	OEOConversions int
	// BoundaryCrossings is the raw count of domain transitions.
	BoundaryCrossings int
	EnergyJoules      float64
	LatencyUs         float64
}

// Result aggregates a batch of flows.
type Result struct {
	Flows             int
	TotalBytes        int64
	TotalConversions  int
	TotalEnergyJoules float64
	MeanLatencyUs     float64
	MeanHops          float64
}

// Simulator measures flows over a topology.
type Simulator struct {
	topo *topology.Topology
	cfg  Config
}

// NewSimulator returns a simulator over the topology.
func NewSimulator(topo *topology.Topology, cfg Config) (*Simulator, error) {
	if topo == nil {
		return nil, fmt.Errorf("flow: simulator: nil topology")
	}
	if cfg.ConversionDelayUs < 0 {
		return nil, fmt.Errorf("flow: simulator: negative conversion delay")
	}
	return &Simulator{topo: topo, cfg: cfg}, nil
}

// Measure prices one flow along its walk: every conversion action the
// walk met is a boundary crossing.
func (s *Simulator) Measure(spec Spec) (PerFlow, error) {
	w := spec.Walk
	if len(w.Route) == 0 {
		return PerFlow{}, fmt.Errorf("flow: measure: empty walk")
	}
	if spec.Bytes <= 0 {
		return PerFlow{}, fmt.Errorf("flow: measure: non-positive flow size %d", spec.Bytes)
	}
	pf := PerFlow{Hops: len(w.Links), BoundaryCrossings: w.OE + w.EO}
	for _, n := range w.Route {
		pf.LatencyUs += s.cfg.VNFDelayUs[n]
	}
	for _, l := range w.Links {
		if l == 0 {
			pf.LatencyUs += 0.1 // a VM's hop to its host: no physical link
		} else {
			pf.LatencyUs += s.topo.Link(l).LatencyMicros
		}
	}
	pf.LatencyUs += float64(pf.BoundaryCrossings) * s.cfg.ConversionDelayUs
	pf.OEOConversions = sdn.Excursions(w.OE, w.EO)
	pf.EnergyJoules = s.cfg.CostModel.TotalEnergy(pf.OEOConversions, spec.Bytes)
	return pf, nil
}

// RunBatch measures every flow analytically.
func (s *Simulator) RunBatch(specs []Spec) (Result, error) {
	var res Result
	for i, spec := range specs {
		pf, err := s.Measure(spec)
		if err != nil {
			return Result{}, fmt.Errorf("flow: batch flow %d: %w", i, err)
		}
		res.Flows++
		res.TotalBytes += spec.Bytes
		res.TotalConversions += pf.OEOConversions
		res.TotalEnergyJoules += pf.EnergyJoules
		res.MeanLatencyUs += pf.LatencyUs
		res.MeanHops += float64(pf.Hops)
	}
	if res.Flows > 0 {
		res.MeanLatencyUs /= float64(res.Flows)
		res.MeanHops /= float64(res.Flows)
	}
	return res, nil
}
