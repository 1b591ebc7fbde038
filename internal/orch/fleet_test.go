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

// recount derives from the whole-record copy what shardStat, the sweeps
// and the maintenance-owed index read in place.
type recount struct {
	active, failed                     int
	disjoint, nonDisjoint, unprotected int
	drifted, conversions, repairs      int
	energy                             float64
	health, owed                       []ChainHealth
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
		if dep.Drifted {
			rc.drifted++
		}
		rc.conversions += dep.Conversions
		rc.energy += dep.EnergyJoules
		rc.repairs += dep.Repairs
		h := ChainHealth{
			ID:       dep.ID,
			Disjoint: dep.Standby != nil && dep.Standby.Disjoint,
			Drifted:  dep.Drifted,
			Lambda:   dep.Lambda,
		}
		rc.health = append(rc.health, h)
		if dep.Standby == nil || !dep.Standby.Disjoint || dep.Drifted {
			rc.owed = append(rc.owed, h)
		}
	}
	return rc
}

// owedSize is the size of the shards' owed indexes, read in place; every
// entry must be the live record of an active chain of that shard.
func owedSize(t *testing.T, s *Sharded) int {
	t.Helper()
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id, dep := range sh.owed {
			if sh.deployments[id] != dep || dep.State != StateActive {
				t.Errorf("shard %d: owed entry %d is not the shard's active record", sh.index, id)
			}
		}
		n += len(sh.owed)
		sh.mu.Unlock()
	}
	return n
}

// TestFleetStatsEqualRecount drives seeded sequences of every verb that
// can change a chain's record — provision / modify / scale / move / node,
// link and batch failure / recovery / re-protect / re-home / delete, with
// outages that last across steps — and checks after every step that the
// in-place reads (ShardStats, AppendChainHealth over the fleet and over
// the owed index) agree with a recount over Deployments(), that the
// repair counter never goes down — not when a repaired chain is deleted
// either — and that the deleted counter is the number of deletes.
func TestFleetStatsEqualRecount(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			topo := benchFleetTopo(t, 64)
			// Repairs drop standbys instead of replanning, so the fleet
			// mixes disjoint, degraded and unprotected chains.
			s := newTestSet(t, Config{Topo: topo, Wavelengths: 16, DeferReprotect: true}, shards)
			rng := rand.New(rand.NewSource(int64(17 + shards)))
			pms := topo.NodeIDs(topology.KindPhysicalMachine)
			var live []DeploymentID
			var downNodes []topology.NodeID
			var downLinks []topology.LinkID
			next, deletes, lastRepairs, repairedDeleted := 0, 0, 0, 0
			everDrifted, everOwed, everHome, broughtHome := 0, 0, 0, 0
			migrated := 0
			wasDrifted := make(map[DeploymentID]bool)

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
					sum.Drifted += st.Drifted
					sum.Conversions += st.Conversions
					sum.EnergyJoules += st.EnergyJoules
				}
				if sum.Active != rc.active || sum.Failed != rc.failed ||
					sum.StandbyDisjoint != rc.disjoint || sum.StandbyNonDisjoint != rc.nonDisjoint ||
					sum.Unprotected != rc.unprotected || sum.Drifted != rc.drifted ||
					sum.Conversions != rc.conversions ||
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
				if got := s.AppendChainHealth(nil, false); !slices.Equal(got, rc.health) {
					t.Fatalf("step %d (%s): health %+v, recount %+v", step, op, got, rc.health)
				}
				if got := s.AppendChainHealth(nil, true); !slices.Equal(got, rc.owed) {
					t.Fatalf("step %d (%s): owed %+v, recount %+v", step, op, got, rc.owed)
				}
				if got := owedSize(t, s); got != len(rc.owed) {
					t.Fatalf("step %d (%s): owed index holds %d chains, recount %d", step, op, got, len(rc.owed))
				}
				for _, h := range rc.health {
					if wasDrifted[h.ID] && !h.Drifted {
						broughtHome++
					}
					wasDrifted[h.ID] = h.Drifted
				}
				everDrifted += rc.drifted
				everOwed += len(rc.owed)
				everHome += rc.active - len(rc.owed)
			}

			for step := 0; step < 300; step++ {
				op := "provision"
				pick := func() *Deployment { return s.Deployment(live[rng.Intn(len(live))]) }
				switch r := rng.Intn(20); {
				case len(live) < 8 || (r < 4 && len(live) < 40):
					spec := residentSpec(t, next, fmt.Sprintf("t%d", next%11))
					next++
					// An outage can leave the spec's shard without a pool to
					// cover the VMs; the next provision tries again.
					if dep, err := s.Provision(bg, spec); err == nil {
						live = append(live, dep.ID)
					} else if len(downNodes)+len(downLinks) == 0 {
						t.Fatalf("step %d: provision on a whole fabric: %v", step, err)
					}
				case r < 6:
					op = "delete"
					i := rng.Intn(len(live))
					repairedDeleted += s.Deployment(live[i]).Repairs
					if _, err := s.Delete(bg, live[i]); err != nil {
						t.Fatalf("step %d: delete %d: %v", step, live[i], err)
					}
					deletes++
					live = slices.Delete(live, i, i+1)
				case r < 7:
					op = "modify"
					if _, err := s.Apply(pick().ID, ChangeBandwidth(float64(1+rng.Intn(4)))); err != nil {
						t.Fatalf("step %d: modify: %v", step, err)
					}
				case r < 8:
					op = "scale" // refused when the host is full
					_, _ = s.Apply(pick().ID, ChangeReplicas(rng.Intn(2), 1+rng.Intn(2)))
				case r < 10:
					op = "move" // refused when the target is down or unreachable
					_, _ = s.Apply(pick().ID, ChangeHost(rng.Intn(2), pms[rng.Intn(len(pms))]))
				case r < 12 && len(downNodes) < 2:
					op = "node failure"
					dep := pick()
					victim := dep.Slice.OPSs[rng.Intn(len(dep.Slice.OPSs))]
					if rng.Intn(2) == 0 {
						victim = dep.Placement.Hosts[rng.Intn(len(dep.Placement.Hosts))]
					}
					_, _ = failNode(s, victim)
					downNodes = append(downNodes, victim)
				case r < 14 && len(downLinks) < 2:
					op = "link failure"
					dep := pick()
					i := 1 + rng.Intn(len(dep.Path)-3)
					l := topo.LinkBetween(dep.Path[i], dep.Path[i+1])
					_, _ = failLink(s, l.ID)
					downLinks = append(downLinks, l.ID)
				case r < 15 && len(downNodes) < 2 && len(downLinks) < 2:
					op = "batch failure"
					a, b := pick(), pick()
					victim := a.Slice.OPSs[rng.Intn(len(a.Slice.OPSs))]
					l := topo.LinkBetween(b.Path[1], b.Path[2])
					_, _ = s.HandleFailures(bg, topology.NewFailures([]topology.NodeID{victim}, []topology.LinkID{l.ID}))
					downNodes = append(downNodes, victim)
					downLinks = append(downLinks, l.ID)
				case r < 17:
					op = "recover"
					switch {
					case len(downNodes) > 0 && (len(downLinks) == 0 || rng.Intn(2) == 0):
						i := rng.Intn(len(downNodes))
						if err := s.Recover(topology.NewFailures([]topology.NodeID{downNodes[i]}, nil)); err != nil {
							t.Fatalf("step %d: recover node: %v", step, err)
						}
						downNodes = slices.Delete(downNodes, i, i+1)
					case len(downLinks) > 0:
						i := rng.Intn(len(downLinks))
						if err := s.Recover(topology.NewFailures(nil, []topology.LinkID{downLinks[i]})); err != nil {
							t.Fatalf("step %d: recover link: %v", step, err)
						}
						downLinks = slices.Delete(downLinks, i, i+1)
					}
				case r < 18:
					op = "re-home"
					for i := 0; i < 6; i++ {
						if a, _ := s.Apply(pick().ID, ChangeRehome(1)); a.Moved {
							migrated++
						}
					}
				default:
					op = "re-protect" // a drain's worth: repairs leave many unprotected
					for i := 0; i < 6; i++ {
						reProtect(s, pick().ID)
					}
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
			if everDrifted == 0 || everOwed == 0 || everHome == 0 || migrated == 0 || broughtHome <= migrated {
				t.Fatalf("sequence not mixed: chain-steps drifted %d, owed %d, not owed %d; %d re-homes migrated, %d chains lost the flag (some must at score 0, without a migration)",
					everDrifted, everOwed, everHome, migrated, broughtHome)
			}
		})
	}
}

// TestTombstoneRing: a deleted chain answers as deleted (ErrNotActive,
// a tombstone) while it is among the shard's newest TombstoneRing
// deletes, and as unknown after.
func TestTombstoneRing(t *testing.T) {
	s, _ := newWideOrch(t, 8)
	spec := batchSpecs(t, 1)[0]
	var ids []DeploymentID
	for i := 0; i < TombstoneRing+3; i++ {
		dep, err := s.Provision(bg, spec)
		if err != nil {
			t.Fatalf("Provision %d: %v", i, err)
		}
		final, err := s.Delete(context.Background(), dep.ID)
		if err != nil {
			t.Fatalf("Delete %d: %v", i, err)
		}
		if final.ID != dep.ID || final.State != StateDeleted || !slices.Equal(final.Path, dep.Path) {
			t.Fatalf("final record = %+v, want the deleted chain %d with its path", final, dep.ID)
		}
		ids = append(ids, dep.ID)
	}
	if got := s.Tombstones(); len(got) != TombstoneRing || got[0].ID != ids[3] || got[len(got)-1].ID != ids[len(ids)-1] {
		t.Fatalf("ring holds %d tombstones [%d..], want the newest %d from %d", len(got), got[0].ID, TombstoneRing, ids[3])
	}
	for i, id := range ids {
		ts, ok := s.Tombstone(id)
		_, err := s.Delete(bg, id)
		if s.Deployment(id) != nil {
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
		s, o := newTestOrch(t, Config{Topo: topo, Policy: placement.OpticalFirst{}})
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
			dep, err := s.Provision(bg, spec)
			if err != nil {
				continue // pool or capacity exhausted on this fabric
			}
			// Drift some chains: an NF pushed onto a random server.
			if rng.Intn(2) == 0 {
				_, _ = s.Apply(dep.ID, ChangeHost(rng.Intn(len(nfs)), pms[rng.Intn(len(pms))]))
			}
			ids = append(ids, dep.ID)
		}
		for _, id := range ids {
			for margin := 1; margin <= 4; margin++ {
				before := s.Deployment(id)
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
				a, err := o.apply(id, ChangeRehome(margin))
				moved, rebuilt := a.Moved, a.Rebuilt
				if moved != fMoved || rebuilt != fRebuilt || (err == nil) != (fErr == nil) || moved || rebuilt || err != nil {
					t.Fatalf("seed %d chain %d score %d margin %d: floor (%v,%v,%v), full evaluation (%v,%v,%v)",
						seed, id, placement.Score(before.Placement), margin, moved, rebuilt, err, fMoved, fRebuilt, fErr)
				}
				if after := s.Deployment(id); !slices.Equal(after.Placement.Hosts, before.Placement.Hosts) {
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
	deployments, nodeIndex, linkIndex, flowKeys, busy, owed int
	instances, events                                       int
	tracedChains                                            int
}

func sizesOf(o *shard, st *trace.Store) storeSizes {
	o.mu.Lock()
	defer o.mu.Unlock()
	nodeIndex, linkIndex := o.indexSizes()
	return storeSizes{
		deployments: len(o.deployments), nodeIndex: nodeIndex, linkIndex: linkIndex,
		flowKeys: len(o.flowKeys), busy: len(o.busy), owed: len(o.owed),
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
// leave every per-chain store (the owed index among them), and the heap,
// where 200 cycles left them.
func TestDeletedChainsLeaveMemory(t *testing.T) {
	topo := benchFleetTopo(t, 40)
	s, o := newTestOrch(t, Config{Topo: topo, DeferReprotect: true})
	store := trace.NewStore(trace.StoreOptions{})
	s.UpdateHooks(func(h *Hooks) { h.Tracer = trace.NewTracer(store) })
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := s.Provision(ctx, residentSpec(t, i, "resident")); err != nil {
			t.Fatalf("Provision resident %d: %v", i, err)
		}
	}
	// One resident loses its standby and is not re-protected: the owed
	// index holds it, and only it, however many chains come and go.
	sb := s.Deployment(1).Standby
	if _, err := failLink(s, sb.Links[1]); err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	if err := s.Recover(topology.NewFailures(nil, []topology.LinkID{sb.Links[1]})); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	var first, last DeploymentID
	cycle := func(n int) {
		for i := 0; i < n; i++ {
			dep, err := s.Provision(ctx, residentSpec(t, 1000, "churn"))
			if err != nil {
				t.Fatalf("Provision: %v", err)
			}
			if _, err := s.Delete(ctx, dep.ID); err != nil {
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
	if sizes.deployments != 10 || sizes.instances != 20 || sizes.tracedChains != 10 || sizes.owed != 1 {
		t.Fatalf("stores hold more than the ten residents: %+v", sizes)
	}
	if got := heapObjects(); float64(got) > 1.1*float64(objects) {
		t.Fatalf("heap objects grew %d -> %d between 200 and 5000 cycles", objects, got)
	}
	if _, ok := s.Tombstone(first); ok {
		t.Fatalf("first deleted chain %d still has a tombstone", first)
	}
	if ts, ok := s.Tombstone(last); !ok || ts.TraceID == "" {
		t.Fatalf("last deleted chain %d: tombstone %+v, %v", last, ts, ok)
	} else if _, _, held := store.Trace(ts.TraceID); !held {
		t.Fatalf("delete trace %s of chain %d not reachable through its tombstone", ts.TraceID, last)
	}
}

// TestViewsShowLiveRecords: the views hand fn the shard's own records —
// not copies — in ID order within each shard, every record once; the
// single view answers false for an ID deleted or never issued; and the
// ordering scratch is empty again afterwards, so a deleted chain's
// record is not kept reachable by the last list.
func TestViewsShowLiveRecords(t *testing.T) {
	s := newSharded(t, shardTopo(t, 32), 4, ShardByTenant)
	var ids []DeploymentID
	for i := 0; i < 12; i++ {
		dep, err := s.Provision(bg, tenantSpec(t, i))
		if err != nil {
			t.Fatalf("Provision %d: %v", i, err)
		}
		ids = append(ids, dep.ID)
	}
	if _, err := s.Delete(bg, ids[5]); err != nil {
		t.Fatalf("Delete: %v", err)
	}

	seen := make(map[DeploymentID]bool)
	lastOf := make(map[int]DeploymentID)
	s.ViewDeployments(func(dep *Deployment) {
		sh := s.owner(dep.ID)
		if sh.deployments[dep.ID] != dep { // under sh.mu: the view holds it
			t.Errorf("view of %d is not the shard's record", dep.ID)
		}
		if seen[dep.ID] || dep.ID <= lastOf[sh.index] {
			t.Errorf("shard %d showed %d after %d", sh.index, dep.ID, lastOf[sh.index])
		}
		seen[dep.ID], lastOf[sh.index] = true, dep.ID
	})
	if len(seen) != len(ids)-1 || seen[ids[5]] {
		t.Fatalf("view showed %d records (deleted one: %v), want %d", len(seen), seen[ids[5]], len(ids)-1)
	}
	for _, sh := range s.shards {
		for i, dep := range sh.viewOrder[:cap(sh.viewOrder)] {
			if dep != nil {
				t.Fatalf("shard %d: scratch slot %d still holds record %d", sh.index, i, dep.ID)
			}
		}
	}

	var path []topology.NodeID
	if !s.ViewDeployment(ids[0], func(dep *Deployment) { path = slices.Clone(dep.Path) }) ||
		!slices.Equal(path, s.Deployment(ids[0]).Path) {
		t.Fatalf("ViewDeployment(%d) read path %v, snapshot has %v", ids[0], path, s.Deployment(ids[0]).Path)
	}
	for _, id := range []DeploymentID{ids[5], 9999} {
		if s.ViewDeployment(id, func(*Deployment) { t.Errorf("fn called for %d", id) }) {
			t.Fatalf("ViewDeployment(%d) = true for a chain with no record", id)
		}
	}
}
