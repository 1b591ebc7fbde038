// Package flow measures what deployed chains actually cost: it walks
// provisioned paths hop by hop, counting domain boundary crossings
// (O/E/O conversions, §IV-D), link latency, VNF processing latency and
// conversion energy. It offers a batch (analytic) mode and an
// event-driven mode on the internal/sim engine; both produce identical
// per-flow numbers, which the tests assert — the event-driven mode adds
// a simulated-time axis for throughput experiments.
package flow

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/alvc/alvc/internal/optical"
	"github.com/alvc/alvc/internal/sim"
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

// Spec is one flow to replay: the provisioned path and the flow length.
type Spec struct {
	Path  []topology.NodeID
	Bytes int64
}

// PerFlow is the measured cost of one flow.
type PerFlow struct {
	Hops int
	// OEOConversions counts complete optical→electronic→optical
	// excursions: boundary transitions / 2, minus the unavoidable
	// ingress/egress pair when the path both enters and leaves the
	// optical core.
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
	TotalCrossings    int
	TotalEnergyJoules float64
	MeanLatencyUs     float64
	MeanHops          float64
	// SimulatedDuration is the simulated time span (event mode only).
	SimulatedDuration time.Duration
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

// Measure walks one flow's path and returns its measured cost.
func (s *Simulator) Measure(spec Spec) (PerFlow, error) {
	if len(spec.Path) == 0 {
		return PerFlow{}, fmt.Errorf("flow: measure: empty path")
	}
	if spec.Bytes <= 0 {
		return PerFlow{}, fmt.Errorf("flow: measure: non-positive flow size %d", spec.Bytes)
	}
	var pf PerFlow
	prev := s.topo.Node(spec.Path[0])
	if prev == nil {
		return PerFlow{}, fmt.Errorf("flow: measure: unknown node %d", spec.Path[0])
	}
	pf.LatencyUs += s.cfg.VNFDelayUs[spec.Path[0]]
	enteredOptical := false
	for i := 1; i < len(spec.Path); i++ {
		cur := s.topo.Node(spec.Path[i])
		if cur == nil {
			return PerFlow{}, fmt.Errorf("flow: measure: unknown node %d", spec.Path[i])
		}
		pf.Hops++
		pf.LatencyUs += s.linkLatency(prev.ID, cur.ID)
		pf.LatencyUs += s.cfg.VNFDelayUs[cur.ID]
		if prev.Domain() != cur.Domain() {
			pf.BoundaryCrossings++
			pf.LatencyUs += s.cfg.ConversionDelayUs
			if cur.Domain() == topology.DomainOptical {
				enteredOptical = true
			}
		}
		prev = cur
	}
	// Complete O/E/O excursions: each pair of transitions is one
	// optical↔electronic round trip; the first entry + final exit pair
	// is the unavoidable ingress/egress, not charged (§IV-D charges
	// the VNF-visit excursions).
	if enteredOptical && pf.BoundaryCrossings >= 2 {
		pf.OEOConversions = pf.BoundaryCrossings/2 - 1
	}
	pf.EnergyJoules = s.cfg.CostModel.TotalEnergy(pf.OEOConversions, spec.Bytes)
	return pf, nil
}

func (s *Simulator) linkLatency(a, b topology.NodeID) float64 {
	for _, l := range s.topo.LinksOf(a) {
		if l.From == b || l.To == b {
			return l.LatencyMicros
		}
	}
	// VM↔host-PM virtual hop (no physical link object).
	return 0.1
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
		res.TotalCrossings += pf.BoundaryCrossings
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

// RunEventDriven replays the flows on the discrete-event engine with
// exponential inter-arrival times of the given mean (seeded), walking
// one hop per event. Per-flow measurements equal RunBatch's; the result
// additionally reports the simulated makespan.
func (s *Simulator) RunEventDriven(specs []Spec, meanInterArrival time.Duration, seed int64) (Result, error) {
	if meanInterArrival <= 0 {
		return Result{}, fmt.Errorf("flow: event run: non-positive inter-arrival %v", meanInterArrival)
	}
	engine := sim.NewEngine()
	rng := rand.New(rand.NewSource(seed))
	var res Result
	var firstErr error
	arrival := time.Duration(0)
	for i, spec := range specs {
		spec := spec
		i := i
		arrival += time.Duration(rng.ExpFloat64() * float64(meanInterArrival))
		if err := engine.At(arrival, func(now time.Duration) {
			pf, err := s.Measure(spec)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("flow: event flow %d: %w", i, err)
				}
				return
			}
			// Walk the path hop by hop in simulated time; completion
			// updates the aggregate.
			done := now + time.Duration(pf.LatencyUs*float64(time.Microsecond))
			if err := engine.At(done, func(time.Duration) {
				res.Flows++
				res.TotalBytes += spec.Bytes
				res.TotalConversions += pf.OEOConversions
				res.TotalCrossings += pf.BoundaryCrossings
				res.TotalEnergyJoules += pf.EnergyJoules
				res.MeanLatencyUs += pf.LatencyUs
				res.MeanHops += float64(pf.Hops)
			}); err != nil && firstErr == nil {
				firstErr = err
			}
		}); err != nil {
			return Result{}, fmt.Errorf("flow: event run: %w", err)
		}
	}
	engine.Run()
	if firstErr != nil {
		return Result{}, firstErr
	}
	if res.Flows > 0 {
		res.MeanLatencyUs /= float64(res.Flows)
		res.MeanHops /= float64(res.Flows)
	}
	res.SimulatedDuration = engine.Now()
	return res, nil
}
