package topology

import (
	"fmt"
	"math"
	"math/rand"
)

// CoreShape selects the optical-core interconnect generated between
// OPSs.
type CoreShape int

// Core shapes. RingChords is the default (the style of Ohsita-Murata
// [29]); FullMesh connects every OPS pair (small cores); LeafSpine
// splits OPSs into leaves and spines with leaves only wired to spines.
const (
	CoreRingChords CoreShape = iota
	CoreFullMesh
	CoreLeafSpine
)

// String returns the shape name.
func (s CoreShape) String() string {
	switch s {
	case CoreRingChords:
		return "ring-chords"
	case CoreFullMesh:
		return "full-mesh"
	case CoreLeafSpine:
		return "leaf-spine"
	default:
		return fmt.Sprintf("shape(%d)", int(s))
	}
}

// GenConfig parameterizes the deterministic DCN generator. The defaults
// (see DefaultGenConfig) produce a small AL-VC-style topology: racks of
// servers behind ToRs, each ToR multi-homed into an optical core of
// OPSs arranged as a ring with chords (the style of Ohsita-Murata [29],
// which the paper builds its core from).
type GenConfig struct {
	// Core selects the optical interconnect shape (default ring+chords).
	Core CoreShape

	Racks      int // number of racks (== number of ToRs)
	PMsPerRack int // physical machines per rack
	VMsPerPM   int // virtual machines per physical machine

	OPSCount   int // optical packet switches in the core
	ToRUplinks int // boundary links per ToR (distinct OPSs)
	OPSChords  int // extra chord links per OPS beyond the ring

	// DualHomeFrac is the fraction of PMs wired to a second ToR
	// (Fig. 4 shows machines reachable through several ToRs).
	DualHomeFrac float64

	// OptoFrac is the fraction of OPSs that are optoelectronic routers
	// able to host VNFs (§IV-D).
	OptoFrac float64

	// OERCapacity is the (limited) capacity of each optoelectronic
	// router; PMCapacity the capacity of each physical machine.
	OERCapacity Resources
	PMCapacity  Resources

	// Services are the service labels assigned to VMs. Assignment is
	// Zipf-like with skew ServiceSkew (0 = uniform round-robin).
	Services    []string
	ServiceSkew float64

	// Link characteristics.
	ElectronicGbps, OpticalGbps   float64
	ElectronicLatUs, OpticalLatUs float64

	Seed int64
}

// DefaultGenConfig returns a small but structurally complete
// configuration: 8 racks × 4 PMs × 4 VMs over a 6-OPS core.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Racks:           8,
		PMsPerRack:      4,
		VMsPerPM:        4,
		OPSCount:        6,
		ToRUplinks:      3,
		OPSChords:       1,
		DualHomeFrac:    0.25,
		OptoFrac:        0.5,
		OERCapacity:     Resources{CPUCores: 4, MemoryGB: 8, StorageGB: 32},
		PMCapacity:      Resources{CPUCores: 32, MemoryGB: 128, StorageGB: 2048},
		Services:        []string{"web", "mapreduce", "sns"},
		ElectronicGbps:  10,
		OpticalGbps:     100,
		ElectronicLatUs: 5,
		OpticalLatUs:    1,
		Seed:            1,
	}
}

func (c GenConfig) validate() error {
	switch {
	case c.Racks <= 0:
		return fmt.Errorf("topology: generate: Racks must be positive, got %d", c.Racks)
	case c.PMsPerRack <= 0:
		return fmt.Errorf("topology: generate: PMsPerRack must be positive, got %d", c.PMsPerRack)
	case c.VMsPerPM < 0:
		return fmt.Errorf("topology: generate: VMsPerPM must be non-negative, got %d", c.VMsPerPM)
	case c.OPSCount <= 0:
		return fmt.Errorf("topology: generate: OPSCount must be positive, got %d", c.OPSCount)
	case c.ToRUplinks <= 0:
		return fmt.Errorf("topology: generate: ToRUplinks must be positive, got %d", c.ToRUplinks)
	case c.ToRUplinks > c.OPSCount:
		return fmt.Errorf("topology: generate: ToRUplinks %d exceeds OPSCount %d", c.ToRUplinks, c.OPSCount)
	case c.DualHomeFrac < 0 || c.DualHomeFrac > 1:
		return fmt.Errorf("topology: generate: DualHomeFrac %f outside [0,1]", c.DualHomeFrac)
	case c.OptoFrac < 0 || c.OptoFrac > 1:
		return fmt.Errorf("topology: generate: OptoFrac %f outside [0,1]", c.OptoFrac)
	case len(c.Services) == 0:
		return fmt.Errorf("topology: generate: at least one service label required")
	}
	return nil
}

// Generate builds a topology from the configuration. The same
// configuration (including Seed) always yields the same topology.
func Generate(cfg GenConfig) (*Topology, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := New()

	// Optical core.
	opsIDs := make([]NodeID, cfg.OPSCount)
	optoCount := int(float64(cfg.OPSCount)*cfg.OptoFrac + 0.5)
	for i := range opsIDs {
		opsIDs[i] = t.AddOPS(i < optoCount, cfg.OERCapacity)
	}
	if err := buildCore(t, cfg, rng, opsIDs); err != nil {
		return nil, err
	}

	// Racks: ToR + PMs + VMs. ToR uplinks go to a contiguous window of
	// OPSs (offset per rack) so uplink sets overlap but differ — the
	// structure Fig. 4 exploits.
	svcPick := newServicePicker(cfg.Services, cfg.ServiceSkew, rng)
	torIDs := make([]NodeID, cfg.Racks)
	for r := 0; r < cfg.Racks; r++ {
		tor := t.AddToR(r)
		torIDs[r] = tor
		for u := 0; u < cfg.ToRUplinks; u++ {
			ops := opsIDs[(r+u)%cfg.OPSCount]
			if _, err := t.AddLink(tor, ops, LinkBoundary, cfg.OpticalGbps, cfg.OpticalLatUs); err != nil {
				return nil, fmt.Errorf("topology: generate uplink: %w", err)
			}
		}
	}
	for r := 0; r < cfg.Racks; r++ {
		for p := 0; p < cfg.PMsPerRack; p++ {
			pm := t.AddPM(r, cfg.PMCapacity)
			if _, err := t.AddLink(pm, torIDs[r], LinkElectronic, cfg.ElectronicGbps, cfg.ElectronicLatUs); err != nil {
				return nil, fmt.Errorf("topology: generate pm link: %w", err)
			}
			if cfg.Racks > 1 && rng.Float64() < cfg.DualHomeFrac {
				other := torIDs[(r+1+rng.Intn(cfg.Racks-1))%cfg.Racks]
				if other != torIDs[r] {
					if _, err := t.AddLink(pm, other, LinkElectronic, cfg.ElectronicGbps, cfg.ElectronicLatUs); err != nil {
						return nil, fmt.Errorf("topology: generate dual-home link: %w", err)
					}
				}
			}
			for v := 0; v < cfg.VMsPerPM; v++ {
				if _, err := t.AddVM(pm, svcPick()); err != nil {
					return nil, fmt.Errorf("topology: generate vm: %w", err)
				}
			}
		}
	}
	return t, nil
}

// buildCore wires the OPSs according to the configured shape.
func buildCore(t *Topology, cfg GenConfig, rng *rand.Rand, opsIDs []NodeID) error {
	if cfg.OPSCount <= 1 {
		return nil
	}
	optical := func(u, v NodeID) error {
		if u == v || t.AnyLinkBetween(u, v) != nil {
			return nil
		}
		_, err := t.AddLink(u, v, LinkOptical, cfg.OpticalGbps, cfg.OpticalLatUs)
		return err
	}
	switch cfg.Core {
	case CoreFullMesh:
		for i := range opsIDs {
			for j := i + 1; j < len(opsIDs); j++ {
				if err := optical(opsIDs[i], opsIDs[j]); err != nil {
					return fmt.Errorf("topology: generate mesh: %w", err)
				}
			}
		}
	case CoreLeafSpine:
		// First quarter (≥1) are spines; leaves wire to every spine.
		spines := len(opsIDs) / 4
		if spines < 1 {
			spines = 1
		}
		for i := spines; i < len(opsIDs); i++ {
			for s := 0; s < spines; s++ {
				if err := optical(opsIDs[i], opsIDs[s]); err != nil {
					return fmt.Errorf("topology: generate leaf-spine: %w", err)
				}
			}
		}
		// Spines interconnected in a ring so spine-only cores connect.
		for s := 0; s+1 < spines; s++ {
			if err := optical(opsIDs[s], opsIDs[s+1]); err != nil {
				return fmt.Errorf("topology: generate spine ring: %w", err)
			}
		}
	default: // CoreRingChords
		for i := range opsIDs {
			if err := optical(opsIDs[i], opsIDs[(i+1)%len(opsIDs)]); err != nil {
				return fmt.Errorf("topology: generate ring: %w", err)
			}
		}
		for i := range opsIDs {
			for c := 0; c < cfg.OPSChords; c++ {
				j := rng.Intn(len(opsIDs))
				if err := optical(opsIDs[i], opsIDs[j]); err != nil {
					return fmt.Errorf("topology: generate chord: %w", err)
				}
			}
		}
	}
	return nil
}

// newServicePicker returns a function drawing service labels. With skew
// 0 it cycles round-robin (balanced clusters); with skew > 0 it draws
// from a Zipf-like distribution (popular services get more VMs).
func newServicePicker(services []string, skew float64, rng *rand.Rand) func() string {
	if skew <= 0 {
		i := 0
		return func() string {
			s := services[i%len(services)]
			i++
			return s
		}
	}
	// Unnormalized Zipf weights 1/rank^skew.
	weights := make([]float64, len(services))
	total := 0.0
	for i := range services {
		weights[i] = 1.0 / math.Pow(float64(i+1), skew)
		total += weights[i]
	}
	return func() string {
		x := rng.Float64() * total
		for i, w := range weights {
			x -= w
			if x <= 0 {
				return services[i]
			}
		}
		return services[len(services)-1]
	}
}
