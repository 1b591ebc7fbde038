// Package placement decides which domain — electronic servers or
// optoelectronic routers in the optical core — hosts each VNF of a
// chain, implementing §IV-D of the paper: moving VNFs into the optical
// domain saves O/E/O conversions, but optoelectronic routers have
// limited capacity, so "VNFs only with low resource demands need to be
// implemented in this domain".
//
// Three policies are provided:
//
//   - AllElectronic: every VNF on servers — the baseline whose O/E/O
//     cost the paper's proposal reduces.
//   - OpticalFirst: the paper's greedy — move the lowest-demand VNFs
//     into optoelectronic routers while capacity remains.
//   - Optimal: exhaustive search over domain assignments (small chains)
//     minimizing conversions subject to capacity — the lower bound used
//     in experiment E8.
package placement

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/alvc/alvc/internal/nfv"
	"github.com/alvc/alvc/internal/topology"
)

// ErrNoCapacity is wrapped when no candidate host can fit a VNF of the
// chain — capacity exhaustion, as opposed to a malformed request.
var ErrNoCapacity = errors.New("placement: no host with sufficient capacity")

// Mode selects the O/E/O accounting convention.
type Mode int

// Accounting modes.
const (
	// AccountPerVNF charges one O/E/O conversion per electronic-hosted
	// VNF — the accounting of Fig. 8, where each electronic VNF sits on
	// its own server and the flow dips out of the optical core to
	// reach it ("the flow needs to traverse twice between the optical
	// and electronic domain and consuming two O/E/O conversions").
	AccountPerVNF Mode = iota + 1
	// AccountPerRun charges one conversion per maximal run of
	// consecutive electronic VNFs — the colocation-aware variant where
	// adjacent electronic VNFs share one excursion.
	AccountPerRun
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case AccountPerVNF:
		return "per-vnf"
	case AccountPerRun:
		return "per-run"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// CountOEO returns the number of O/E/O conversions a flow pays
// traversing a chain whose VNFs live in the given domains, under the
// given accounting mode. Entering and leaving the data center are not
// charged (they are unavoidable and identical across policies).
func CountOEO(domains []topology.Domain, mode Mode) int {
	switch mode {
	case AccountPerVNF:
		n := 0
		for _, d := range domains {
			if d == topology.DomainElectronic {
				n++
			}
		}
		return n
	case AccountPerRun:
		n := 0
		inRun := false
		for _, d := range domains {
			if d == topology.DomainElectronic {
				if !inRun {
					n++
					inRun = true
				}
			} else {
				inRun = false
			}
		}
		return n
	default:
		return 0
	}
}

// Context is the placement input: the chain's NF profiles in processing
// order and the candidate hosts of each domain with their free
// capacity. Free capacities are snapshotted from the ledger so a single
// chain's VNFs are packed consistently.
type Context struct {
	Topo *topology.Topology
	// OpticalHosts are the optoelectronic routers available to this
	// chain (normally the AL members that are optoelectronic).
	OpticalHosts []topology.NodeID
	// ElectronicHosts are candidate servers.
	ElectronicHosts []topology.NodeID
	// Free holds, by node ID, each candidate host's free capacity. It
	// reaches at least the highest candidate's ID; what it holds for a
	// node that is no candidate is not a capacity (see Candidate).
	Free []topology.Resources
	// NFs is the chain in processing order.
	NFs []nfv.NFProfile
	// Mode is the O/E/O accounting convention.
	Mode Mode

	// scratch, when set, lends the packer its table (Scratch.Context).
	scratch *Scratch
}

// NewContext snapshots free capacities from the ledger into a context
// of its own.
func NewContext(topo *topology.Topology, ledger *nfv.Ledger, opticalHosts, electronicHosts []topology.NodeID, nfs []nfv.NFProfile, mode Mode) (Context, error) {
	ctx, err := newContext(topo, ledger, opticalHosts, electronicHosts, nfs, mode, nil)
	if err != nil {
		return Context{}, err
	}
	ctx.OpticalHosts = slices.Clone(opticalHosts)
	ctx.ElectronicHosts = slices.Clone(electronicHosts)
	ctx.NFs = slices.Clone(nfs)
	return ctx, nil
}

// Candidate reports whether h is one of the context's hosts, optical or
// electronic: a node Free holds a capacity for.
func (c Context) Candidate(h topology.NodeID) bool {
	return slices.Contains(c.OpticalHosts, h) || slices.Contains(c.ElectronicHosts, h)
}

// Scratch is what placing one chain after another reuses: the capacity
// snapshot and the packer's working copy of it, each a table by node ID
// as long as the highest candidate ID seen, and OpticalFirst's host and
// domain lists. The zero Scratch is ready; a Scratch serves one
// placement at a time.
type Scratch struct {
	free, packed []topology.Resources
	hosts        []topology.NodeID
	domains      []topology.Domain
}

// Context is NewContext over the scratch's tables: the context shares
// the host and NF lists it is given instead of copying them, and it and
// an OpticalFirst placement over it are good until the scratch builds
// the next one.
func (s *Scratch) Context(topo *topology.Topology, ledger *nfv.Ledger, opticalHosts, electronicHosts []topology.NodeID, nfs []nfv.NFProfile, mode Mode) (Context, error) {
	ctx, err := newContext(topo, ledger, opticalHosts, electronicHosts, nfs, mode, s.free)
	if err != nil {
		return Context{}, err
	}
	s.free = ctx.Free
	ctx.scratch = s
	return ctx, nil
}

// newContext checks the input and snapshots the candidates' free
// capacities into free, grown to the highest candidate ID (a fresh table
// when nil). Only the candidates' entries are written.
func newContext(topo *topology.Topology, ledger *nfv.Ledger, opticalHosts, electronicHosts []topology.NodeID, nfs []nfv.NFProfile, mode Mode, free []topology.Resources) (Context, error) {
	if topo == nil || ledger == nil {
		return Context{}, fmt.Errorf("placement: context: nil topology or ledger")
	}
	if len(nfs) == 0 {
		return Context{}, fmt.Errorf("placement: context: empty chain")
	}
	if mode != AccountPerVNF && mode != AccountPerRun {
		return Context{}, fmt.Errorf("placement: context: invalid mode %d", mode)
	}
	for _, h := range opticalHosts {
		n := topo.Node(h)
		if n == nil || n.Kind != topology.KindOPS || !n.Optoelectronic {
			return Context{}, fmt.Errorf("placement: context: node %d is not an optoelectronic router", h)
		}
		free = topology.Widen(free, h)
		free[h] = ledger.Available(h)
	}
	for _, h := range electronicHosts {
		n := topo.Node(h)
		if n == nil || n.Kind != topology.KindPhysicalMachine {
			return Context{}, fmt.Errorf("placement: context: node %d is not a physical machine", h)
		}
		free = topology.Widen(free, h)
		free[h] = ledger.Available(h)
	}
	return Context{
		Topo:            topo,
		OpticalHosts:    opticalHosts,
		ElectronicHosts: electronicHosts,
		Free:            free,
		NFs:             nfs,
		Mode:            mode,
	}, nil
}

// Result is a placement decision: one host and domain per NF position.
type Result struct {
	Policy      string
	Hosts       []topology.NodeID
	Domains     []topology.Domain
	Conversions int
}

// OpticalCount returns the number of VNFs placed in the optical domain.
func (r Result) OpticalCount() int {
	n := 0
	for _, d := range r.Domains {
		if d == topology.DomainOptical {
			n++
		}
	}
	return n
}

// Score rates a placement for re-homing comparisons: lower is better.
// The paper's objective is O/E/O conversion count (§IV-D), so the
// score is simply the conversions a flow pays through this placement;
// host identity ties are irrelevant (moving between two electronic
// servers buys nothing and is never worth a migration).
func Score(r Result) int { return r.Conversions }

// BetterBy returns how much cand improves on cur (positive = cand is
// better). The background re-homer compares this against its
// hysteresis margin so placements within the margin never oscillate.
func BetterBy(cur, cand Result) int { return Score(cur) - Score(cand) }

// Policy places a chain.
type Policy interface {
	Name() string
	Place(ctx Context) (Result, error)
}

// packer tracks tentative allocations on top of the snapshot. Only the
// candidates' entries of its table are read, and each is copied from the
// snapshot before.
type packer struct {
	free []topology.Resources
}

func newPacker(ctx Context) packer {
	if ctx.scratch == nil {
		return packer{free: slices.Clone(ctx.Free)}
	}
	free := topology.Widen(ctx.scratch.packed, len(ctx.Free)-1)
	for _, hosts := range [...][]topology.NodeID{ctx.OpticalHosts, ctx.ElectronicHosts} {
		for _, h := range hosts {
			free[h] = ctx.Free[h]
		}
	}
	ctx.scratch.packed = free
	return packer{free: free}
}

// firstFit places demand on the first host (in order) with capacity,
// returning the host or false.
func (p *packer) firstFit(hosts []topology.NodeID, demand topology.Resources) (topology.NodeID, bool) {
	for _, h := range hosts {
		if p.free[h].Fits(demand) {
			p.free[h] = p.free[h].Sub(demand)
			return h, true
		}
	}
	return 0, false
}

// AllElectronic places every VNF on electronic servers (first-fit).
// This is the pre-NFV-placement baseline of Fig. 8's left side.
type AllElectronic struct{}

// Name implements Policy.
func (AllElectronic) Name() string { return "all-electronic" }

// Place implements Policy.
func (AllElectronic) Place(ctx Context) (Result, error) {
	pk := newPacker(ctx)
	hosts := make([]topology.NodeID, 0, len(ctx.NFs))
	domains := make([]topology.Domain, 0, len(ctx.NFs))
	for i, nf := range ctx.NFs {
		h, ok := pk.firstFit(ctx.ElectronicHosts, nf.Demand)
		if !ok {
			return Result{}, fmt.Errorf("%w: all-electronic: no server fits NF %d (%s, %s)", ErrNoCapacity, i, nf.Type, nf.Demand)
		}
		hosts = append(hosts, h)
		domains = append(domains, topology.DomainElectronic)
	}
	return Result{
		Policy:      "all-electronic",
		Hosts:       hosts,
		Domains:     domains,
		Conversions: CountOEO(domains, ctx.Mode),
	}, nil
}

// OpticalFirst is the paper's greedy: VNFs are considered in ascending
// resource demand and moved into optoelectronic routers while they fit;
// the rest stay electronic (§IV-D, Fig. 8).
type OpticalFirst struct{}

// Name implements Policy.
func (OpticalFirst) Name() string { return "optical-first" }

// Place implements Policy.
func (OpticalFirst) Place(ctx Context) (Result, error) {
	pk := newPacker(ctx)
	n := len(ctx.NFs)
	var hosts []topology.NodeID
	var domains []topology.Domain
	if s := ctx.scratch; s != nil {
		s.hosts, s.domains = slices.Grow(s.hosts[:0], n)[:n], slices.Grow(s.domains[:0], n)[:n]
		hosts, domains = s.hosts, s.domains
	} else {
		hosts, domains = make([]topology.NodeID, n), make([]topology.Domain, n)
	}
	// Ascending demand order (CPU, then memory, then position for
	// determinism): lightest VNFs get the scarce optical capacity.
	var buf [8]int
	order := buf[:0]
	for i := range ctx.NFs {
		order = append(order, i)
	}
	slices.SortStableFunc(order, func(a, b int) int {
		da, db := ctx.NFs[a].Demand, ctx.NFs[b].Demand
		if c := cmp.Compare(da.CPUCores, db.CPUCores); c != 0 {
			return c
		}
		if c := cmp.Compare(da.MemoryGB, db.MemoryGB); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for _, i := range order {
		nf := ctx.NFs[i]
		if h, ok := pk.firstFit(ctx.OpticalHosts, nf.Demand); ok {
			hosts[i] = h
			domains[i] = topology.DomainOptical
			continue
		}
		h, ok := pk.firstFit(ctx.ElectronicHosts, nf.Demand)
		if !ok {
			return Result{}, fmt.Errorf("%w: optical-first: no host fits NF %d (%s, %s)", ErrNoCapacity, i, nf.Type, nf.Demand)
		}
		hosts[i] = h
		domains[i] = topology.DomainElectronic
	}
	return Result{
		Policy:      "optical-first",
		Hosts:       hosts,
		Domains:     domains,
		Conversions: CountOEO(domains, ctx.Mode),
	}, nil
}

// MaxOptimalNFs bounds the chain length Optimal accepts (2^n search).
const MaxOptimalNFs = 14

// Optimal enumerates every domain assignment, keeps the feasible ones
// (optical VNFs must pack into the optoelectronic routers, electronic
// into the servers, verified by exact backtracking), and returns the
// assignment minimizing conversions; ties break toward more optical
// VNFs, then lexicographically (electronic-first) for determinism.
type Optimal struct{}

// Name implements Policy.
func (Optimal) Name() string { return "optimal" }

// Place implements Policy.
func (Optimal) Place(ctx Context) (Result, error) {
	n := len(ctx.NFs)
	if n > MaxOptimalNFs {
		return Result{}, fmt.Errorf("placement: optimal: chain length %d exceeds limit %d", n, MaxOptimalNFs)
	}
	bestConv := -1
	bestOptical := -1
	var bestMask uint32
	var bestHosts []topology.NodeID
	for mask := uint32(0); mask < 1<<uint(n); mask++ {
		domains := make([]topology.Domain, n)
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				domains[i] = topology.DomainOptical
			} else {
				domains[i] = topology.DomainElectronic
			}
		}
		hosts, ok := packAssignment(ctx, domains)
		if !ok {
			continue
		}
		conv := CountOEO(domains, ctx.Mode)
		optical := 0
		for _, d := range domains {
			if d == topology.DomainOptical {
				optical++
			}
		}
		better := bestConv < 0 || conv < bestConv ||
			(conv == bestConv && optical > bestOptical) ||
			(conv == bestConv && optical == bestOptical && mask < bestMask)
		if better {
			bestConv, bestOptical, bestMask, bestHosts = conv, optical, mask, hosts
		}
	}
	if bestConv < 0 {
		return Result{}, fmt.Errorf("%w: optimal: no feasible assignment for %d NFs", ErrNoCapacity, n)
	}
	domains := make([]topology.Domain, n)
	for i := 0; i < n; i++ {
		if bestMask&(1<<uint(i)) != 0 {
			domains[i] = topology.DomainOptical
		} else {
			domains[i] = topology.DomainElectronic
		}
	}
	return Result{
		Policy:      "optimal",
		Hosts:       bestHosts,
		Domains:     domains,
		Conversions: bestConv,
	}, nil
}

// packAssignment assigns a concrete host to every NF given fixed
// domains, using exact backtracking per domain (items in descending
// demand for pruning). Returns false if no packing exists.
func packAssignment(ctx Context, domains []topology.Domain) ([]topology.NodeID, bool) {
	hosts := make([]topology.NodeID, len(ctx.NFs))
	pk := newPacker(ctx)
	var byDomain [2][]int // 0 = optical, 1 = electronic
	for i, d := range domains {
		if d == topology.DomainOptical {
			byDomain[0] = append(byDomain[0], i)
		} else {
			byDomain[1] = append(byDomain[1], i)
		}
	}
	candidates := [2][]topology.NodeID{ctx.OpticalHosts, ctx.ElectronicHosts}
	for side := 0; side < 2; side++ {
		items := byDomain[side]
		sort.SliceStable(items, func(a, b int) bool {
			da, db := ctx.NFs[items[a]].Demand, ctx.NFs[items[b]].Demand
			if da.CPUCores != db.CPUCores {
				return da.CPUCores > db.CPUCores
			}
			return da.MemoryGB > db.MemoryGB
		})
		if !packExact(ctx, &pk, items, candidates[side], hosts, 0) {
			return nil, false
		}
	}
	return hosts, true
}

func packExact(ctx Context, pk *packer, items []int, hosts []topology.NodeID, out []topology.NodeID, pos int) bool {
	if pos == len(items) {
		return true
	}
	nf := ctx.NFs[items[pos]]
	for _, h := range hosts {
		if !pk.free[h].Fits(nf.Demand) {
			continue
		}
		pk.free[h] = pk.free[h].Sub(nf.Demand)
		out[items[pos]] = h
		if packExact(ctx, pk, items, hosts, out, pos+1) {
			return true
		}
		pk.free[h] = pk.free[h].Add(nf.Demand)
	}
	return false
}

// Verify checks a placement against its context: hosts belong to the
// declared domain lists, domains match host kinds, and the cumulative
// demand per host fits the snapshot capacity. It is the oracle used by
// tests and the experiment harness.
func Verify(ctx Context, r Result) error {
	if len(r.Hosts) != len(ctx.NFs) || len(r.Domains) != len(ctx.NFs) {
		return fmt.Errorf("placement: verify: result arity %d/%d != chain %d", len(r.Hosts), len(r.Domains), len(ctx.NFs))
	}
	inList := func(h topology.NodeID, list []topology.NodeID) bool {
		for _, x := range list {
			if x == h {
				return true
			}
		}
		return false
	}
	load := make(map[topology.NodeID]topology.Resources)
	for i, h := range r.Hosts {
		switch r.Domains[i] {
		case topology.DomainOptical:
			if !inList(h, ctx.OpticalHosts) {
				return fmt.Errorf("placement: verify: NF %d on %d not an allowed optical host", i, h)
			}
		case topology.DomainElectronic:
			if !inList(h, ctx.ElectronicHosts) {
				return fmt.Errorf("placement: verify: NF %d on %d not an allowed electronic host", i, h)
			}
		default:
			return fmt.Errorf("placement: verify: NF %d has invalid domain", i)
		}
		load[h] = load[h].Add(ctx.NFs[i].Demand)
	}
	for h, demand := range load {
		if !ctx.Free[h].Fits(demand) {
			return fmt.Errorf("placement: verify: host %d overloaded: %s > free %s", h, demand, ctx.Free[h])
		}
	}
	if got := CountOEO(r.Domains, ctx.Mode); got != r.Conversions {
		return fmt.Errorf("placement: verify: conversions %d != recomputed %d", r.Conversions, got)
	}
	return nil
}
