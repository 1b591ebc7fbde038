package orch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/placement"
	"github.com/alvc/alvc/internal/topology"
	"github.com/alvc/alvc/internal/trace"
)

// recount derives from the whole-record copy what shardStat and
// AppendChainHealth read in place.
type recount struct {
	active, failed                     int
	disjoint, nonDisjoint, unprotected int
	conversions, repairs               int
	energy                             float64
	health                             []ChainHealth
}

func recountFleet(deps []*Deployment) recount {
	var rc recount
	for _, dep := range deps {
		if dep.State != StateActive {
			rc.failed++
			continue
		}
		rc.active++
		switch {
		case dep.Standby == nil:
			rc.unprotected++
		case dep.Standby.Disjoint:
			rc.disjoint++
		default:
			rc.nonDisjoint++
		}
		rc.conversions += dep.Conversions
		rc.energy += dep.EnergyJoules
		rc.repairs += dep.Repairs
		rc.health = append(rc.health, ChainHealth{
			ID:       dep.ID,
			Disjoint: dep.Standby != nil && dep.Standby.Disjoint,
			Repairs:  dep.Repairs,
			Lambda:   dep.Lambda,
		})
	}
	return rc
}

// TestFleetStatsEqualRecount drives seeded provision / delete / node and
// link failure / recovery / re-protect sequences and checks after every
// step that the in-place reads (ShardStats, AppendChainHealth) agree with
// a recount over Deployments(), that the repair counter never goes down —
// not when a repaired chain is deleted either — and that the deleted
// counter is the number of deletes.
func TestFleetStatsEqualRecount(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			topo := benchFleetTopo(t, 64)
			s, err := NewSharded(Config{Topo: topo, Wavelengths: 16}, shards, ShardByTenant)
			if err != nil {
				t.Fatalf("NewSharded: %v", err)
			}
			// Repairs drop standbys instead of replanning, so the fleet
			// mixes disjoint, degraded and unprotected chains.
			s.SetDeferReprotect(true)
			rng := rand.New(rand.NewSource(int64(17 + shards)))
			var live []DeploymentID
			next, deletes, lastRepairs, repairedDeleted := 0, 0, 0, 0

			check := func(step int, op string) {
				t.Helper()
				rc := recountFleet(s.Deployments())
				var sum ShardStat
				for _, st := range s.ShardStats() {
					sum.Active += st.Active
					sum.Failed += st.Failed
					sum.Deleted += st.Deleted
					sum.Repairs += st.Repairs
					sum.StandbyDisjoint += st.StandbyDisjoint
					sum.StandbyNonDisjoint += st.StandbyNonDisjoint
					sum.Unprotected += st.Unprotected
					sum.Conversions += st.Conversions
					sum.EnergyJoules += st.EnergyJoules
				}
				if sum.Active != rc.active || sum.Failed != rc.failed ||
					sum.StandbyDisjoint != rc.disjoint || sum.StandbyNonDisjoint != rc.nonDisjoint ||
					sum.Unprotected != rc.unprotected || sum.Conversions != rc.conversions ||
					math.Abs(sum.EnergyJoules-rc.energy) > 1e-9*(1+rc.energy) {
					t.Fatalf("step %d (%s): stats %+v, recount %+v", step, op, sum, rc)
				}
				if sum.Deleted != deletes {
					t.Fatalf("step %d (%s): deleted counter %d, want %d", step, op, sum.Deleted, deletes)
				}
				if sum.Repairs < lastRepairs {
					t.Fatalf("step %d (%s): repairs_total fell %d -> %d", step, op, lastRepairs, sum.Repairs)
				}
				if sum.Repairs != rc.repairs+repairedDeleted {
					t.Fatalf("step %d (%s): repairs_total %d, want %d live + %d of deleted chains",
						step, op, sum.Repairs, rc.repairs, repairedDeleted)
				}
				lastRepairs = sum.Repairs
				if got := s.AppendChainHealth(nil); !slices.Equal(got, rc.health) {
					t.Fatalf("step %d (%s): health %+v, recount %+v", step, op, got, rc.health)
				}
			}

			for step := 0; step < 300; step++ {
				op := "provision"
				switch r := rng.Intn(10); {
				case len(live) < 8 || (r < 3 && len(live) < 40):
					spec := residentSpec(t, next, fmt.Sprintf("t%d", next%11))
					next++
					dep, err := s.Provision(spec)
					if err != nil {
						t.Fatalf("step %d: provision: %v", step, err)
					}
					live = append(live, dep.ID)
				case r < 5:
					op = "delete"
					i := rng.Intn(len(live))
					repairedDeleted += s.Deployment(live[i]).Repairs
					if err := s.Delete(live[i]); err != nil {
						t.Fatalf("step %d: delete %d: %v", step, live[i], err)
					}
					deletes++
					live = slices.Delete(live, i, i+1)
				case r < 7:
					op = "node failure"
					dep := s.Deployment(live[rng.Intn(len(live))])
					victim := dep.Slice.OPSs[rng.Intn(len(dep.Slice.OPSs))]
					_, _ = s.HandleNodeFailure(victim)
					if err := s.RecoverNode(victim); err != nil {
						t.Fatalf("step %d: recover node: %v", step, err)
					}
				case r < 9:
					op = "link failure"
					dep := s.Deployment(live[rng.Intn(len(live))])
					i := 1 + rng.Intn(len(dep.Path)-3)
					l := topo.LinkBetween(dep.Path[i], dep.Path[i+1])
					_, _ = s.HandleLinkFailure(l.ID)
					if err := s.RecoverLink(l.ID); err != nil {
						t.Fatalf("step %d: recover link: %v", step, err)
					}
				default:
					op = "re-protect"
					_, _, _ = s.ReProtect(live[rng.Intn(len(live))])
				}
				// A repair that could not succeed leaves a failed record.
				live = slices.DeleteFunc(live, func(id DeploymentID) bool {
					return s.Deployment(id).State != StateActive
				})
				check(step, op)
			}
			if lastRepairs == 0 || repairedDeleted == 0 {
				t.Fatalf("sequence exercised no repaired-then-deleted chain (repairs %d, of deleted %d)",
					lastRepairs, repairedDeleted)
			}
		})
	}
}

// TestTombstoneRing: a deleted chain answers as deleted (ErrNotActive,
// a tombstone) while it is among the shard's newest TombstoneRing
// deletes, and as unknown after.
func TestTombstoneRing(t *testing.T) {
	o := newWideOrch(t, 8)
	spec := batchSpecs(t, 1)[0]
	var ids []DeploymentID
	for i := 0; i < TombstoneRing+3; i++ {
		dep, err := o.Provision(spec)
		if err != nil {
			t.Fatalf("Provision %d: %v", i, err)
		}
		final, err := o.DeleteCtx(context.Background(), dep.ID)
		if err != nil {
			t.Fatalf("Delete %d: %v", i, err)
		}
		if final.ID != dep.ID || final.State != StateDeleted || !slices.Equal(final.Path, dep.Path) {
			t.Fatalf("final record = %+v, want the deleted chain %d with its path", final, dep.ID)
		}
		ids = append(ids, dep.ID)
	}
	if got := o.Tombstones(); len(got) != TombstoneRing || got[0].ID != ids[3] || got[len(got)-1].ID != ids[len(ids)-1] {
		t.Fatalf("ring holds %d tombstones [%d..], want the newest %d from %d", len(got), got[0].ID, TombstoneRing, ids[3])
	}
	for i, id := range ids {
		ts, ok := o.Tombstone(id)
		err := o.Delete(id)
		if o.Deployment(id) != nil {
			t.Fatalf("deleted deployment %d still has a record", id)
		}
		if i < 3 {
			if ok || !errors.Is(err, ErrUnknownDeployment) {
				t.Fatalf("delete %d pushed out of the ring: tombstone %v, second delete %v", id, ok, err)
			}
			continue
		}
		if !ok || ts.Name != spec.Name || ts.Tenant != spec.Tenant || ts.Service != spec.Service || ts.DeletedAt.IsZero() {
			t.Fatalf("tombstone of %d = %+v, %v", id, ts, ok)
		}
		if !errors.Is(err, ErrNotActive) {
			t.Fatalf("second delete of ring member %d: %v, want ErrNotActive", id, err)
		}
	}
}

// TestRehomeFloorEqualsFullEvaluation: a chain scoring below the margin
// is answered by rehome's floor test; the full evaluation it skips
// (rehomeClaimed, run here as the oracle) gives the same answer and
// moves nothing, over random chains, drifts and margins.
func TestRehomeFloorEqualsFullEvaluation(t *testing.T) {
	nfPool := []string{"firewall", "nat", "lb", "dpi", "ids", "cache"}
	floorHits := 0
	for seed := int64(1); seed <= 6; seed++ {
		cfg := topology.DefaultGenConfig()
		cfg.Seed = seed
		cfg.OPSCount = 12
		cfg.ToRUplinks = 4
		topo, err := topology.Generate(cfg)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		o, err := New(Config{Topo: topo, Policy: placement.OpticalFirst{}})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		rng := rand.New(rand.NewSource(seed))
		pms := topo.NodeIDs(topology.KindPhysicalMachine)
		var ids []DeploymentID
		for i := 0; i < 6; i++ {
			nfs := make([]string, 1+rng.Intn(4))
			for j := range nfs {
				nfs[j] = nfPool[rng.Intn(len(nfPool))]
			}
			spec, err := chain.Linear(fmt.Sprintf("c%d", i), "t", cfg.Services[rng.Intn(len(cfg.Services))], 1, 1<<20, nfs...)
			if err != nil {
				t.Fatalf("Linear: %v", err)
			}
			dep, err := o.Provision(spec)
			if err != nil {
				continue // pool or capacity exhausted on this fabric
			}
			// Drift some chains: an NF pushed onto a random server.
			if rng.Intn(2) == 0 {
				_ = o.MoveNF(dep.ID, rng.Intn(len(nfs)), pms[rng.Intn(len(pms))])
			}
			ids = append(ids, dep.ID)
		}
		for _, id := range ids {
			for margin := 1; margin <= 4; margin++ {
				before := o.Deployment(id)
				if before.State != StateActive || placement.Score(before.Placement) >= margin {
					continue
				}
				floorHits++
				dep, err := o.beginExclusive(id)
				if err != nil {
					t.Fatalf("beginExclusive: %v", err)
				}
				o.topoMu.RLock()
				fMoved, fRebuilt, fErr := o.rehomeClaimed(dep, margin)
				o.topoMu.RUnlock()
				o.endExclusive(id)
				moved, rebuilt, err := o.rehome(id, margin)
				if moved != fMoved || rebuilt != fRebuilt || (err == nil) != (fErr == nil) || moved || rebuilt || err != nil {
					t.Fatalf("seed %d chain %d score %d margin %d: floor (%v,%v,%v), full evaluation (%v,%v,%v)",
						seed, id, placement.Score(before.Placement), margin, moved, rebuilt, err, fMoved, fRebuilt, fErr)
				}
				if after := o.Deployment(id); !slices.Equal(after.Placement.Hosts, before.Placement.Hosts) {
					t.Fatalf("seed %d chain %d: hosts moved %v -> %v below the margin", seed, id, before.Placement.Hosts, after.Placement.Hosts)
				}
			}
		}
	}
	if floorHits < 20 {
		t.Fatalf("only %d (chain, margin) pairs sat below the margin", floorHits)
	}
}

// storeSizes is every per-chain store a provision+delete cycle touches.
type storeSizes struct {
	deployments, nodeIndex, linkIndex, flowKeys, busy int
	instances, events                                 int
	tracedChains                                      int
}

func sizesOf(o *Orchestrator, st *trace.Store) storeSizes {
	o.mu.Lock()
	defer o.mu.Unlock()
	return storeSizes{
		deployments: len(o.deployments), nodeIndex: len(o.nodeIndex), linkIndex: len(o.linkIndex),
		flowKeys: len(o.flowKeys), busy: len(o.busy),
		instances: len(o.mgr.Instances()), events: len(o.mgr.Events()),
		tracedChains: st.Stats().IndexedChains,
	}
}

func heapObjects() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapObjects
}

// TestDeletedChainsLeaveMemory is the soak in miniature: 5 000 traced
// provision+delete cycles beside ten resident chains on a 40-OPS pool
// leave every per-chain store, and the heap, where 200 cycles left them.
func TestDeletedChainsLeaveMemory(t *testing.T) {
	topo := benchFleetTopo(t, 40)
	o, err := New(Config{Topo: topo})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	store := trace.NewStore(trace.StoreOptions{})
	o.SetTracer(trace.NewTracer(store))
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := o.ProvisionCtx(ctx, residentSpec(t, i, "resident")); err != nil {
			t.Fatalf("Provision resident %d: %v", i, err)
		}
	}
	var first, last DeploymentID
	cycle := func(n int) {
		for i := 0; i < n; i++ {
			dep, err := o.ProvisionCtx(ctx, residentSpec(t, 1000, "churn"))
			if err != nil {
				t.Fatalf("Provision: %v", err)
			}
			if _, err := o.DeleteCtx(ctx, dep.ID); err != nil {
				t.Fatalf("Delete %d: %v", dep.ID, err)
			}
			if first == 0 {
				first = dep.ID
			}
			last = dep.ID
		}
	}
	cycle(200)
	sizes, objects := sizesOf(o, store), heapObjects()
	cycle(4800)
	if got := sizesOf(o, store); got != sizes {
		t.Fatalf("store sizes after 5000 cycles %+v, after 200 %+v", got, sizes)
	}
	if sizes.deployments != 10 || sizes.instances != 20 || sizes.tracedChains != 10 {
		t.Fatalf("stores hold more than the ten residents: %+v", sizes)
	}
	if got := heapObjects(); float64(got) > 1.1*float64(objects) {
		t.Fatalf("heap objects grew %d -> %d between 200 and 5000 cycles", objects, got)
	}
	if _, ok := o.Tombstone(first); ok {
		t.Fatalf("first deleted chain %d still has a tombstone", first)
	}
	if ts, ok := o.Tombstone(last); !ok || ts.TraceID == "" {
		t.Fatalf("last deleted chain %d: tombstone %+v, %v", last, ts, ok)
	} else if _, _, held := store.Trace(ts.TraceID); !held {
		t.Fatalf("delete trace %s of chain %d not reachable through its tombstone", ts.TraceID, last)
	}
}
