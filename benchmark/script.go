package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/orch"
)

// Op names one kind of script step. Every step but opStorm is exactly
// one HTTP request; opStorm is one failure-storm round (a burst of
// requests around an in-process debouncer flush).
const (
	opProvision = "provision" // POST /v1/chains            -> Slot
	opBatch     = "batch"     // POST /v1/chains:batch      -> Slot..Slot+len(Specs)
	opDelete    = "delete"    // DELETE /v1/chains/{Slot}
	opGet       = "get"       // GET /v1/chains/{Slot}
	opList      = "list"      // GET /v1/chains
	opMetrics   = "metrics"   // GET /metrics
	opTraces    = "traces"    // GET /v1/traces
	opImpact    = "impact"    // GET /v1/nodes/{first slice OPS of Slot}/impact
	opModify    = "modify"    // POST /v1/chains/{Slot}/modify   bandwidth Arg Gbps
	opScale     = "scale"     // POST /v1/chains/{Slot}/scale    NF 0 to Arg replicas
	opUpgrade   = "upgrade"   // POST /v1/chains/{Slot}/upgrade
	opMove      = "move"      // POST /v1/chains/{Slot}/move     NF 0 to move host Arg
	opStorm     = "storm"     // one storm round over the chains in Slots
)

// step is one entry of an op script. A script is pure data: the seed
// decides it completely, and the program under test sees nothing but
// the requests the steps describe.
type step struct {
	Op string
	// Iter is the timed iteration the step's latency is billed to.
	Iter int
	// Slot addresses a chain by its position in the runner's slot table
	// (deployment IDs are the server's to choose, so the script cannot
	// name them).
	Slot  int          `json:",omitempty"`
	Slots []int        `json:",omitempty"`
	Specs []chain.Spec `json:",omitempty"`
	Arg   int          `json:",omitempty"`
	// Ops is how many end-to-end operations the step accounts for in
	// the attempted/failed counts.
	Ops int `json:",omitempty"`
	// Verify asks for the untimed provision check after the step: GET
	// the chain back and look its flow rules up.
	Verify bool `json:",omitempty"`
}

// script is the whole run of one workload: the resident fleet, the
// untimed warm-up, and the timed phase.
type script struct {
	Resident []step
	Warm     []step
	Timed    []step
	// Slots is the size of the slot table the steps address.
	Slots int
	// Positions: the timed phase is cycles of this many iterations, and
	// iteration i does the same work as iteration i+Positions (the same
	// batch into the same pool fill, the same tray). 1 when every
	// iteration is like every other.
	Positions int
}

// hash fingerprints the script; same seed and size must give the same
// hash on every machine.
func (s script) hash() string {
	data, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("script is plain data and must marshal: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// nfShapes is the fixed multiset of chain shapes. Every run provisions
// the shapes in equal shares and only their order is seeded, so the
// work per run does not depend on the seed.
var nfShapes = [][]string{
	{"firewall", "nat"},
	{"firewall", "lb", "dpi"},
	{"nat", "secgw"},
	{"firewall", "ids", "nat"},
}

// residentShape is the one shape every resident chain has, so the
// verbs of operate_mix and failure_storm meet the same chain whichever
// one the seed picks.
var residentShape = []string{"firewall", "nat"}

// gen is the seeded script generator. Tenant and chain names carry the
// seed so two runs never collide on a flow key and never share one.
type gen struct {
	rng  *rand.Rand
	seed int64
	n    int // chains named so far
}

func newGen(seed int64) *gen {
	return &gen{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

func (g *gen) tenant() string {
	return fmt.Sprintf("t%x-%d", uint32(g.seed), g.rng.Intn(1<<20))
}

func (g *gen) spec(nfs []string) chain.Spec {
	g.n++
	refs := make([]chain.NFRef, len(nfs))
	for i, n := range nfs {
		refs[i] = chain.NFRef{Name: n}
	}
	return chain.Spec{
		Name:          fmt.Sprintf("c%d", g.n),
		Tenant:        g.tenant(),
		Service:       "web",
		NFs:           refs,
		BandwidthGbps: 1,
		FlowBytes:     1 << 20,
	}
}

// shuffledShapes returns n shapes, nfShapes in equal shares, in seeded
// order.
func (g *gen) shuffledShapes(n int) [][]string {
	out := make([][]string, n)
	for i := range out {
		out[i] = nfShapes[i%len(nfShapes)]
	}
	g.rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// batchSize is the number of specs per POST /v1/chains:batch, for the
// resident fleets and for bigpool_fill alike.
const batchSize = 25

// residents provisions n resident chains into slots 0..n-1 through the
// batch endpoint. On a sharded fleet the tenants are drawn so that chain
// i lands on shard i mod shards: each shard owns pool/shards OPSs, and a
// fleet sized to nearly fill the pool only fits when it fills every
// shard evenly, which hashing random tenants does not.
func (g *gen) residents(n, shards int) []step {
	router := orch.NewShardRouter(shards, orch.ShardByTenant)
	var out []step
	for lo := 0; lo < n; lo += batchSize {
		hi := min(lo+batchSize, n)
		st := step{Op: opBatch, Slot: lo, Ops: hi - lo}
		for i := lo; i < hi; i++ {
			spec := g.spec(residentShape)
			for router.ShardForSpec(spec) != i%router.Shards() {
				spec.Tenant = g.tenant()
			}
			st.Specs = append(st.Specs, spec)
		}
		out = append(out, st)
	}
	return out
}

// verifyEvery is how often a provision is followed by the untimed
// read-back check.
const verifyEvery = 16

// churn is n iterations of provision-then-delete into one scratch slot.
func (g *gen) churn(n, slot int) []step {
	out := make([]step, 0, 2*n)
	for i, shape := range g.shuffledShapes(n) {
		out = append(out,
			step{Op: opProvision, Iter: i, Slot: slot, Specs: []chain.Spec{g.spec(shape)}, Ops: 1, Verify: i%verifyEvery == 0},
			step{Op: opDelete, Iter: i, Slot: slot})
	}
	return out
}

// fillCycles is cycles rounds of: fill perCycle chains in batches of
// batchSize, then delete them one by one in seeded order. An iteration
// is one batch plus the deletes of its chains, wherever they fall.
func (g *gen) fillCycles(cycles, perCycle, firstSlot int) []step {
	var out []step
	batches := perCycle / batchSize
	for c := 0; c < cycles; c++ {
		shapes := g.shuffledShapes(perCycle)
		for b := 0; b < batches; b++ {
			st := step{Op: opBatch, Iter: c*batches + b, Slot: firstSlot + b*batchSize, Ops: batchSize}
			for _, shape := range shapes[b*batchSize : (b+1)*batchSize] {
				st.Specs = append(st.Specs, g.spec(shape))
			}
			out = append(out, st)
		}
		for _, i := range g.rng.Perm(perCycle) {
			out = append(out, step{Op: opDelete, Iter: c*batches + i/batchSize, Slot: firstSlot + i})
		}
	}
	return out
}

// trayChains is how many chains share one failing tray.
const trayChains = 8

// storms is n storm rounds. A tray is trayChains consecutive resident
// slots — on a sharded fleet that is the same number of chains from
// every shard — and the rounds walk the trays in slot order, over and
// over. The seed has no say in it: where the repaired paths and the
// re-planned standbys settle depends on the order the trays first fail
// in, and a seeded first tray alone moved allocations per round by 1 %.
// On this workload the seed names the tenants and nothing else.
func (g *gen) storms(n, resident int) []step {
	trays := resident / trayChains
	out := make([]step, n)
	for i := range out {
		st := step{Op: opStorm, Iter: i, Ops: 1}
		for c := 0; c < trayChains; c++ {
			st.Slots = append(st.Slots, i%trays*trayChains+c)
		}
		out[i] = st
	}
	return out
}

// mixShares is the operate_mix request mix in tenths.
var mixShares = []struct {
	op     string
	tenths int
}{
	{opGet, 3}, {opList, 1}, {opMetrics, 1}, {opTraces, 1}, {opImpact, 1},
	{opModify, 1}, {opScale, 1}, {opMove, 1},
}

// mixer generates operate_mix requests. Verbs that change a chain
// alternate between two values per chain, so every request asks for a
// real change and none can exhaust a host: modify 1<->2 Gbps, the scale
// tenth cycles scale-to-2, upgrade, scale-to-1, upgrade, and move
// ping-pongs NF 0 between the two move hosts. The toggles live here so
// they carry on from the warm-up into the timed phase.
type mixer struct {
	g         *gen
	modified  []bool
	scaleTurn []int
	moved     []bool
}

func (g *gen) mixer(resident int) *mixer {
	return &mixer{g: g, modified: make([]bool, resident), scaleTurn: make([]int, resident), moved: make([]bool, resident)}
}

// mixBlock is how many consecutive requests make one operate_mix
// iteration: long enough that every iteration carries about the same
// mix, so dropping the slowest iterations drops noise, not the
// expensive request kinds.
const mixBlock = 100

// steps is n requests over the resident chains in exactly the
// mixShares proportions, in seeded order on seeded chains.
func (m *mixer) steps(n int) []step {
	g := m.g
	ops := make([]string, n)
	i := 0
	for _, sh := range mixShares {
		for k := 0; k < n*sh.tenths/10; k++ {
			ops[i] = sh.op
			i++
		}
	}
	for ; i < n; i++ {
		ops[i] = opGet
	}
	g.rng.Shuffle(n, func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })

	out := make([]step, n)
	for i, op := range ops {
		c := g.rng.Intn(len(m.moved))
		st := step{Op: op, Iter: i / mixBlock, Slot: c, Ops: 1}
		switch op {
		case opModify:
			m.modified[c] = !m.modified[c]
			st.Arg = 1
			if m.modified[c] {
				st.Arg = 2
			}
		case opScale:
			switch m.scaleTurn[c] % 4 {
			case 0:
				st.Arg = 2
			case 2:
				st.Arg = 1
			default:
				st.Op = opUpgrade
			}
			m.scaleTurn[c]++
		case opMove:
			m.moved[c] = !m.moved[c]
			if m.moved[c] {
				st.Arg = 1
			}
		}
		out[i] = st
	}
	return out
}
