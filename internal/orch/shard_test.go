package orch

import (
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/topology"
)

// shardTopo generates a fabric wide enough that four disjoint per-shard
// OPS pools can each host several ALs: one service, deep PM capacity,
// every ToR uplinked to every core OPS.
func shardTopo(t *testing.T, opsCount int) *topology.Topology {
	t.Helper()
	cfg := topology.DefaultGenConfig()
	cfg.Racks = 4
	cfg.PMsPerRack = 2
	cfg.VMsPerPM = 2
	cfg.OPSCount = opsCount
	cfg.ToRUplinks = opsCount
	cfg.OPSChords = 0
	cfg.OptoFrac = 0.6
	cfg.Services = []string{"web"}
	cfg.PMCapacity = topology.Resources{CPUCores: 1 << 20, MemoryGB: 1 << 20, StorageGB: 1 << 20}
	topo, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return topo
}

func newSharded(t *testing.T, topo *topology.Topology, n int, mode ShardMode) *Sharded {
	t.Helper()
	s, err := New(Config{Topo: topo}, n, mode)
	if err != nil {
		t.Fatalf("New(%d shards): %v", n, err)
	}
	return s
}

func tenantSpec(t *testing.T, i int) chain.Spec {
	t.Helper()
	s, err := chain.Linear(fmt.Sprintf("c-%d", i), fmt.Sprintf("t-%d", i),
		"web", 1, 1<<20, "firewall", "nat")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	return s
}

func TestShardRouterDeterministicAndStride(t *testing.T) {
	forKey := func(r ShardRouter, tenant, name string) int {
		return r.ShardForSpec(chain.Spec{Tenant: tenant, Name: name})
	}
	r := NewShardRouter(4, ShardByTenant)
	if got := forKey(r, "t-7", "a"); got != forKey(r, "t-7", "b") {
		t.Fatalf("tenant mode hashed the name: %d vs %d", got, forKey(r, "t-7", "b"))
	}
	for i := 0; i < 100; i++ {
		tn := fmt.Sprintf("t-%d", i)
		if a, b := forKey(r, tn, "x"), forKey(r, tn, "x"); a != b {
			t.Fatalf("routing not deterministic for %s: %d vs %d", tn, a, b)
		}
	}
	rc := NewShardRouter(4, ShardByChain)
	spread := map[int]bool{}
	for i := 0; i < 64; i++ {
		spread[forKey(rc, "one-tenant", fmt.Sprintf("c-%d", i))] = true
	}
	if len(spread) < 2 {
		t.Fatalf("chain mode kept one tenant on %d shard(s)", len(spread))
	}
	// ID-stride round trip: shard s of n issues IDs s+1, s+1+n, ...
	for n := 1; n <= 16; n *= 4 {
		rn := NewShardRouter(n, ShardByTenant)
		for s := 0; s < n; s++ {
			for k := 0; k < 3; k++ {
				id := DeploymentID(s + 1 + k*n)
				if got := rn.ShardOf(id); got != s {
					t.Fatalf("ShardOf(%d) with %d shards = %d, want %d", id, n, got, s)
				}
			}
		}
	}
}

func TestShardedCrossShardFailureRepairsEachChainOnce(t *testing.T) {
	const chains = 24
	s := newSharded(t, shardTopo(t, 2*chains), 4, ShardByTenant)
	deps := make([]*Deployment, chains)
	for i := range deps {
		dep, err := s.Provision(bg, tenantSpec(t, i))
		if err != nil {
			t.Fatalf("Provision %d: %v", i, err)
		}
		deps[i] = dep
	}

	// One failure event spanning shards: the first slice OPS of one
	// chain per shard, all killed in a single batch. Tenants hash to
	// different shards, so the event crosses at least two of them.
	victimOf := make(map[int]topology.NodeID)
	for _, dep := range deps {
		sh := s.ShardOf(dep.ID)
		if _, ok := victimOf[sh]; !ok && len(dep.Slice.OPSs) > 0 {
			victimOf[sh] = dep.Slice.OPSs[0]
		}
	}
	if len(victimOf) < 2 {
		t.Fatalf("fleet landed on %d shard(s); need a cross-shard event", len(victimOf))
	}
	var victims []topology.NodeID
	for _, v := range victimOf {
		victims = append(victims, v)
	}

	reports, err := s.HandleFailures(bg, topology.NewFailures(victims, nil))
	if err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	if len(reports) == 0 {
		t.Fatal("no chain affected by a slice-OPS batch failure")
	}
	// A report per affected chain, each exactly once. Chains whose
	// primary crossed a dead OPS carry one repair; chains only touched
	// through their standby get a replan (ActionRestandby) and no
	// primary repair.
	repaired := make(map[DeploymentID]bool)
	seen := make(map[DeploymentID]bool)
	for _, rep := range reports {
		if seen[rep.ID] {
			t.Fatalf("deployment %d reconciled twice in one event", rep.ID)
		}
		seen[rep.ID] = true
		if !rep.Succeeded() {
			t.Fatalf("repair of %d failed: action=%v err=%v", rep.ID, rep.Action, rep.Err)
		}
		if rep.Action != ActionRestandby {
			repaired[rep.ID] = true
		}
	}
	for _, dep := range deps {
		cur := s.Deployment(dep.ID)
		if cur == nil {
			t.Fatalf("deployment %d vanished", dep.ID)
		}
		switch {
		case repaired[dep.ID]:
			if cur.Repairs != 1 || cur.State != StateActive {
				t.Fatalf("affected %d: repairs=%d state=%v, want exactly one repair",
					dep.ID, cur.Repairs, cur.State)
			}
		case seen[dep.ID]:
			if cur.Repairs != 0 || cur.State != StateActive {
				t.Fatalf("restandbied %d: repairs=%d state=%v, want untouched primary",
					dep.ID, cur.Repairs, cur.State)
			}
		default:
			if cur.Repairs != 0 || cur.Version != dep.Version {
				t.Fatalf("untouched %d mutated: repairs=%d version=%d->%d",
					dep.ID, cur.Repairs, dep.Version, cur.Version)
			}
		}
	}
}

func TestShardedDuplicateFlowKeyRejectedAcrossShards(t *testing.T) {
	s := newSharded(t, shardTopo(t, 32), 4, ShardByTenant)
	spec := tenantSpec(t, 0)
	if _, err := s.Provision(bg, spec); err != nil {
		t.Fatalf("first Provision: %v", err)
	}
	// Same flow key again, through the router: must hit the owning
	// shard's reservation map no matter how many shards exist.
	if _, err := s.Provision(bg, spec); !errors.Is(err, ErrDuplicateChain) {
		t.Fatalf("duplicate Provision error = %v, want ErrDuplicateChain", err)
	}
	// Batch form: intra-batch duplicates are rejected up front, and a
	// batch echo of an already-live key is rejected by its shard.
	dupe := tenantSpec(t, 1)
	results := s.ProvisionBatch([]chain.Spec{dupe, dupe, spec})
	if results[0].Err != nil {
		t.Fatalf("batch spec 0: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Fatal("intra-batch duplicate flow key accepted")
	}
	if !errors.Is(results[2].Err, ErrDuplicateChain) {
		t.Fatalf("batch re-provision of live key = %v, want ErrDuplicateChain", results[2].Err)
	}
}

// TestFlowKeyNamesOneChainAcrossShards: tenant "a/b" with name "c" and
// tenant "a" with name "b/c" join to the one flow key "a/b/c" but hash
// to different shards of a 4-shard tenant-routed fleet, so only a spec
// check can keep the key unique: the tenant with a "/" is refused by
// validation, and at most one live chain holds the key.
func TestFlowKeyNamesOneChainAcrossShards(t *testing.T) {
	s := newSharded(t, shardTopo(t, 32), 4, ShardByTenant)
	var held int
	for _, tn := range [][2]string{{"a/b", "c"}, {"a", "b/c"}} {
		spec, err := chain.Linear(tn[1], "t", "web", 1, 1<<20, "firewall", "nat")
		if err != nil {
			t.Fatalf("Linear: %v", err)
		}
		spec.Tenant = tn[0]
		dep, err := s.Provision(bg, spec)
		if verr := spec.Validate(); verr != nil {
			if err == nil || errors.Unwrap(err) == nil || errors.Unwrap(err).Error() != verr.Error() {
				t.Fatalf("Provision(%q + %q) = %v, want the refusal wrapping %q", tn[0], tn[1], err, verr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Provision(%q + %q): %v", tn[0], tn[1], err)
		}
		if dep.FlowKey() != "a/b/c" {
			t.Fatalf("flow key %q, want a/b/c", dep.FlowKey())
		}
	}
	for _, dep := range s.Deployments() {
		if dep.FlowKey() == "a/b/c" {
			held++
		}
	}
	if held > 1 {
		t.Fatalf("%d live chains hold the flow key a/b/c", held)
	}
}

// TestBatchDuplicatesFollowJoinedFlowKeys: ProvisionBatch finds the
// duplicates that joining each spec's flow key, Tenant+"/"+Name, and
// looking it up would find — "a/b" + "c" duplicates "a" + "b/c" — and
// words each as that lookup's first spec. The specs have no NF, so the
// rest fail validation without provisioning.
func TestBatchDuplicatesFollowJoinedFlowKeys(t *testing.T) {
	parts := []string{"", "a", "/", "a/", "/a", "b", "a/b"}
	for _, x := range parts {
		for _, y := range parts {
			for _, u := range parts {
				for _, v := range parts {
					a, b := chain.Spec{Tenant: x, Name: y}, chain.Spec{Tenant: u, Name: v}
					if got, want := compareFlowKeys(&a, &b), strings.Compare(x+"/"+y, u+"/"+v); got != want {
						t.Fatalf("compareFlowKeys(%q/%q, %q/%q) = %d, want %d", x, y, u, v, got, want)
					}
				}
			}
		}
	}
	s := newSharded(t, shardTopo(t, 8), 2, ShardByTenant)
	var specs []chain.Spec
	for i := 0; i < 2*len(parts)*len(parts); i++ { // every pair twice, interleaved
		k := i * 10 % (len(parts) * len(parts))
		specs = append(specs, chain.Spec{Tenant: parts[k%len(parts)], Name: parts[k/len(parts)]})
	}
	seen := map[string]int{}
	for i, res := range s.ProvisionBatch(specs) {
		key := specs[i].Tenant + "/" + specs[i].Name
		first, dup := seen[key]
		if !dup {
			seen[key] = i
		}
		switch {
		case res.Index != i || res.Deployment != nil || res.Err == nil:
			t.Fatalf("spec %d: %+v", i, res)
		case dup && res.Err.Error() != fmt.Sprintf("orch: batch: spec %d duplicates flow key %q of spec %d", i, key, first):
			t.Errorf("spec %d duplicates spec %d: %v", i, first, res.Err)
		case !dup && strings.Contains(res.Err.Error(), "duplicates"):
			t.Errorf("spec %d, the first of its key: %v", i, res.Err)
		}
	}
	if len(seen) >= len(parts)*len(parts) {
		t.Fatalf("%d keys: no two pairs of the batch join to one key", len(seen))
	}
}

func TestShardedDeleteVsRepairRaceAcrossShards(t *testing.T) {
	const chains = 16
	s := newSharded(t, shardTopo(t, 2*chains), 2, ShardByTenant)
	byShard := map[int][]*Deployment{}
	for i := 0; i < chains; i++ {
		dep, err := s.Provision(bg, tenantSpec(t, i))
		if err != nil {
			t.Fatalf("Provision %d: %v", i, err)
		}
		byShard[s.ShardOf(dep.ID)] = append(byShard[s.ShardOf(dep.ID)], dep)
	}
	if len(byShard[0]) == 0 || len(byShard[1]) == 0 {
		t.Fatalf("fleet not spread over both shards: %d/%d", len(byShard[0]), len(byShard[1]))
	}

	// Shard 0's chains are deleted while a batch failure event repairs
	// shard 1's: the fan-out must not let one shard's exclusive verbs
	// block or corrupt the other's reconciliation.
	var victims []topology.NodeID
	seen := map[topology.NodeID]bool{}
	for _, dep := range byShard[1] {
		if v := dep.Slice.OPSs[0]; !seen[v] {
			seen[v] = true
			victims = append(victims, v)
		}
	}
	var wg sync.WaitGroup
	var delErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, dep := range byShard[0] {
			if _, err := s.Delete(bg, dep.ID); err != nil && delErr == nil {
				delErr = fmt.Errorf("delete %d: %w", dep.ID, err)
			}
		}
	}()
	reports, repErr := s.HandleFailures(bg, topology.NewFailures(victims, nil))
	wg.Wait()
	if delErr != nil {
		t.Fatal(delErr)
	}
	if repErr != nil {
		t.Fatalf("HandleFailures: %v", repErr)
	}
	for _, rep := range reports {
		if s.ShardOf(rep.ID) != 1 {
			t.Fatalf("repair report %d leaked from shard %d", rep.ID, s.ShardOf(rep.ID))
		}
		if !rep.Succeeded() {
			t.Fatalf("repair of %d failed: action=%v err=%v", rep.ID, rep.Action, rep.Err)
		}
	}
	for _, dep := range byShard[0] {
		if _, deleted := s.Tombstone(dep.ID); !deleted || s.Deployment(dep.ID) != nil {
			t.Fatalf("shard-0 deployment %d not deleted: %+v", dep.ID, s.Deployment(dep.ID))
		}
	}
	for _, dep := range byShard[1] {
		if cur := s.Deployment(dep.ID); cur == nil || cur.State != StateActive {
			t.Fatalf("shard-1 deployment %d not active after repair: %+v", dep.ID, cur)
		}
	}
	// Per-shard stats stay consistent with the merged view.
	stats := s.ShardStats()
	if stats[0].Deleted != len(byShard[0]) || stats[1].Active != len(byShard[1]) {
		t.Fatalf("shard stats inconsistent: %+v", stats)
	}
}

// TestShardSurface holds the shard to the two methods the repository
// benchmark's tracer reaches through Sharded.Shard, Allocator and
// Manager: every verb and fleet read is the set's. The checks above the
// last are the ones the root package's TestOneFormPerVerb ran on the
// shard while it was exported, as strict as they were.
func TestShardSurface(t *testing.T) {
	typ := reflect.TypeOf(&shard{})
	failureTwin := regexp.MustCompile(`^(Fail|Recover|Set)(Node|Link)s?(Down)?$|^(Node|Link)Impact$|^FailBatch$`)
	var names []string
	for i := 0; i < typ.NumMethod(); i++ {
		name := typ.Method(i).Name
		names = append(names, name)
		if _, twin := typ.MethodByName(name + "Ctx"); twin || strings.HasSuffix(name, "Ctx") {
			t.Errorf("shard.%s: the context form goes under the plain name, once", name)
		}
		if failureTwin.MatchString(name) {
			t.Errorf("shard.%s: failures, recoveries and blast radii take one Failures set", name)
		}
		if slices.Contains([]string{"Modify", "Upgrade", "ScaleNF", "MoveNF", "Repair", "Rehome", "DefragLambda"}, name) {
			t.Errorf("shard.%s: an edit is Sharded.Apply(id, Change)", name)
		}
		if strings.HasPrefix(name, "Handle") || strings.HasPrefix(name, "Set") || name == "ProvisionBatch" {
			t.Errorf("shard method %s belongs to the shard set", name)
		}
	}
	if want := []string{"Allocator", "Manager"}; !slices.Equal(names, want) {
		t.Errorf("shard exports %v, want exactly %v", names, want)
	}
}
