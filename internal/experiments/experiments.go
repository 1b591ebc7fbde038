// Package experiments regenerates every figure-level claim of the
// paper as a measurable experiment (the paper is a workshop paper with
// no numeric tables; each Result names the figure or claim its runner
// reproduces). Each experiment returns one or more tables in a
// row/series format, and a short list of machine-checked findings
// ("shape" assertions: who wins, by what factor).
package experiments

import (
	"fmt"
	"sort"
)

// Result is an experiment's output.
type Result struct {
	ID     string
	Title  string
	Figure string // the paper figure/claim reproduced
	Tables []*Table
	// Findings are the shape assertions, phrased for the report.
	Findings []string
	// Violations lists shape assertions that did NOT hold (empty on a
	// faithful reproduction).
	Violations []string
}

// Runner produces one experiment result. Runners are deterministic:
// all randomness is seeded internally.
type Runner func() (*Result, error)

// registry maps experiment IDs to runners. Populated by Register calls
// from the per-experiment files at package initialization via
// variable declarations (not init functions).
var registry = map[string]Runner{
	"E1":  E1Topology,
	"E2":  E2Clustering,
	"E3":  E3ALConstruction,
	"E4":  E4ALQuality,
	"E5":  E5ChainDeploy,
	"E6":  E6Lifecycle,
	"E7":  E7Slicing,
	"E8":  E8OEOPlacement,
	"E9":  E9UpdateCost,
	"E10": E10Scalability,
	"E11": E11CapacityGate,
	"E12": E12FlowSteering,
	"E13": E13FailureRepair,
	"E14": E14WDMBlocking,
	"E15": E15CoreShapes,
}

// IDs returns the experiment IDs in canonical order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		// Numeric-aware: E2 < E10.
		return expNum(ids[i]) < expNum(ids[j])
	})
	return ids
}

func expNum(id string) int {
	n := 0
	for _, r := range id {
		if r >= '0' && r <= '9' {
			n = n*10 + int(r-'0')
		}
	}
	return n
}

// Run executes one experiment by ID.
func Run(id string) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	return r()
}
