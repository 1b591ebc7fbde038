package orch

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/resilience"
	"github.com/alvc/alvc/internal/topology"
)

// scribble writes into every element of list, then appends to it and
// writes into what the append returned. It reports whether the append
// wrote into list's own array: it must not, or a caller's append runs
// into the room a block keeps past the list.
func scribble[T ~int](list []T) (shared bool) {
	for i := range list {
		list[i] = -1
	}
	grown := append(list, -2)
	grown[0] = -3
	return len(list) > 0 && list[0] == -3
}

// depLists is a snapshot's four lists, as plain ints.
func depLists(d *Deployment) [][]int {
	return [][]int{asInts(d.Instances), asInts(d.Path), asInts(d.Standby.Path), asInts(d.Standby.Links)}
}

func asInts[T ~int](list []T) []int {
	out := make([]int, len(list))
	for i, v := range list {
		out[i] = int(v)
	}
	return out
}

// TestSnapshotListsAreDeep: the lists of a snapshot — Instances, Path,
// Standby.Path, Standby.Links — and of a freshly planned Standby are the
// caller's own. Writing into one, and appending to it and writing into
// what the append returned, leaves the live record (read again), a
// second snapshot and the other lists as they were. The first chain is
// one NF, so its instance list leaves room in the snapshot's block: each
// list is clipped to its length, and an append must reallocate. The
// second is the benchmark fleet's three-NF chain, whose lists fill the
// three-NF block. The third is a storm fleet's two-NF chain repaired
// around a cut tray and re-protected while the tray is down: its standby
// is a detour past the two-NF standby block. Each snapshot is one
// allocation, and a warm plan of each standby is one too.
func TestSnapshotListsAreDeep(t *testing.T) {
	type twoNF = snapshotBlock[resilience.Block7]
	t.Run("one NF", func(t *testing.T) {
		s, o, _ := triOrch(t, Config{})
		prov, err := s.Provision(bg, triSpec(t, "chain-1"))
		if err != nil {
			t.Fatalf("Provision: %v", err)
		}
		want := s.Deployment(prov.ID)
		if want.Standby == nil || want.Standby.BlockNodes() != 7 || len(want.Instances) >= len(twoNF{}.instances) ||
			len(want.Path) > len(twoNF{}.path) {
			t.Fatalf("the chain must fit a snapshot block with room to spare: %d instances, path %v, standby %+v",
				len(want.Instances), want.Path, want.Standby)
		}
		checkSnapshotLists(t, s, o, prov.ID)
	})
	t.Run("three NFs", func(t *testing.T) {
		s, o := newTestOrch(t, Config{Topo: benchFleetTopo(t, 300)})
		spec, err := chain.Linear("c1", "t1", "web", 1, 1<<20, "firewall", "lb", "dpi")
		if err != nil {
			t.Fatalf("Linear: %v", err)
		}
		prov, err := s.Provision(bg, spec)
		if err != nil {
			t.Fatalf("Provision: %v", err)
		}
		want := s.Deployment(prov.ID)
		if want.Standby.BlockNodes() != 11 || len(want.Instances) != len(snapshotBlock3{}.instances) ||
			len(want.Path) != len(snapshotBlock3{}.path) {
			t.Fatalf("the chain must fill a three-NF snapshot block: %d instances, path %v, standby %+v",
				len(want.Instances), want.Path, want.Standby)
		}
		checkSnapshotLists(t, s, o, prov.ID)
	})
	t.Run("repaired around a cut tray", func(t *testing.T) {
		s, topo := stormFleet(t)
		const id = DeploymentID(1)
		var tray []topology.LinkID
		s.ViewDeployment(id, func(dep *Deployment) {
			prim, stby := transitLinks(t, topo, dep.Path), transitLinks(t, topo, dep.Standby.Path)
			tray = []topology.LinkID{prim[0], stby[len(stby)-1]}
		})
		if _, err := s.HandleFailures(bg, topology.NewFailures(nil, tray)); err != nil {
			t.Fatalf("HandleFailures: %v", err)
		}
		if out := reProtect(s, id); out.Err != nil || out.Standby == nil {
			t.Fatalf("re-protect around the cut: %+v", out)
		}
		want := s.Deployment(id)
		if want.Standby.BlockNodes() <= 7 ||
			len(want.Instances) != len(twoNF{}.instances) || len(want.Path) > len(twoNF{}.path) {
			t.Fatalf("the chain must fit a two-NF snapshot block beside a detour's standby block: %d instances, path %v, standby %+v",
				len(want.Instances), want.Path, want.Standby)
		}
		t.Logf("the detour is %d nodes over %d links", len(want.Standby.Path), len(want.Standby.Links))
		checkSnapshotLists(t, s, s.owner(id), id)
	})
	t.Run("a fresh chain through every verb", func(t *testing.T) {
		s, topo := stormFleet(t)
		const id = DeploymentID(1)
		snap := s.Deployment(id)
		want := snapshotState(snap)
		verb := func(name string, do func() error) {
			t.Helper()
			if err := do(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := snapshotState(snap); got != want {
				t.Errorf("%s changed a snapshot taken before it:\n got %s\nwant %s", name, got, want)
			}
		}
		apply := func(c Change) func() error {
			return func() error { _, err := s.Apply(id, c); return err }
		}
		// cut fails links and recovers them, checking the chain's repair.
		cut := func(links []topology.LinkID, action RepairAction) func() error {
			return func() error {
				f := topology.NewFailures(nil, links)
				reports, err := s.HandleFailures(bg, f)
				for _, r := range reports {
					if r.ID == id && r.Action != action {
						t.Errorf("cutting %v: the chain's repair is %s, want %s", links, r.Action, action)
					}
				}
				return errors.Join(err, s.Recover(f))
			}
		}
		primary := func() []topology.LinkID { return transitLinks(t, topo, s.Deployment(id).Path)[:1] }
		var unused topology.NodeID // a PM off the chain's footprint, cut off for the failed move
		pms := topo.NodeIDs(topology.KindPhysicalMachine)
		s.ViewDeployment(id, func(dep *Deployment) {
			for _, pm := range pms[1:] {
				if !slices.Contains(dep.idxNodes, pm) {
					unused = pm
					break
				}
			}
		})
		var unusedLinks []topology.LinkID
		for _, l := range topo.Links() {
			if l.From == unused || l.To == unused {
				unusedLinks = append(unusedLinks, l.ID)
			}
		}

		verb("modify", apply(ChangeBandwidth(3)))
		verb("scale", apply(ChangeReplicas(0, 2)))
		verb("upgrade", apply(ChangeVersion()))
		// The standby the provision planned takes the first cut; the
		// repairs leave re-protection to the caller, so the second re-paths.
		verb("a swap", cut(primary(), ActionSwapped))
		verb("a storm repath", cut(primary(), ActionRepathed))
		verb("move", apply(ChangeHost(0, pms[len(pms)-1])))
		verb("a failed move", func() error {
			before := s.Deployment(id).Placement.Hosts
			f := topology.NewFailures(nil, unusedLinks)
			if _, err := s.HandleFailures(bg, f); err != nil {
				return err
			}
			if _, err := s.Apply(id, ChangeHost(0, unused)); err == nil {
				return fmt.Errorf("a move onto PM %d, cut off, succeeded", unused)
			}
			if after := s.Deployment(id).Placement.Hosts; !slices.Equal(after, before) {
				return fmt.Errorf("the move did not roll back: hosts %v, were %v", after, before)
			}
			return s.Recover(f)
		})
		verb("delete", func() error { _, err := s.Delete(bg, id); return err })
	})
}

// snapshotState is what a snapshot holds of its chain, as text: its own
// lists and the parts it shares with the live record.
func snapshotState(d *Deployment) string {
	return fmt.Sprint(depLists(d), d.Placement.Hosts, d.Placement.Domains, *d.VC, *d.Slice)
}

// checkSnapshotLists holds chain id's snapshots and a fresh plan of its
// standby to TestSnapshotListsAreDeep's rules.
func checkSnapshotLists(t *testing.T, s *Sharded, o *shard, id DeploymentID) {
	t.Helper()
	want := s.Deployment(id)
	wantLists := depLists(want)

	for i, name := range []string{"Instances", "Path", "Standby.Path", "Standby.Links"} {
		snap, second := s.Deployment(id), s.Deployment(id)
		lists := depLists(snap)
		for j, l := range [...]int{cap(snap.Instances), cap(snap.Path), cap(snap.Standby.Path), cap(snap.Standby.Links)} {
			if l != len(lists[j]) {
				t.Fatalf("list %d of a snapshot has capacity %d for %d elements", j, l, len(lists[j]))
			}
		}
		var shared bool
		switch i {
		case 0:
			shared = scribble(snap.Instances)
		case 1:
			shared = scribble(snap.Path)
		case 2:
			shared = scribble(snap.Standby.Path)
		case 3:
			shared = scribble(snap.Standby.Links)
		}
		if shared {
			t.Errorf("%s: an append to the snapshot's list wrote into its array", name)
		}
		got := depLists(snap)
		for j := range got {
			if j != i && !slices.Equal(got[j], wantLists[j]) {
				t.Errorf("%s: writing it changed the snapshot's list %d: %v, want %v", name, j, got[j], wantLists[j])
			}
		}
		for who, d := range map[string]*Deployment{"the live record": s.Deployment(id), "a second snapshot": second} {
			if got := depLists(d); !slices.EqualFunc(got, wantLists, slices.Equal) {
				t.Errorf("%s: writing the snapshot's list changed %s: %v, want %v", name, who, got, wantLists)
			}
		}
	}

	o.mu.Lock()
	live := o.deployments[id]
	p := o.pipelineFrom(bg, live)
	primary := resilience.Primary{Path: live.Path, Stops: p.appendStandbyStops(nil), Slice: live.Slice.OPSs}
	p.release()
	o.mu.Unlock()
	plan := func() *resilience.Standby {
		sb, err := resilience.PlanStandbyAvoiding(o.ctrl, o.topo, primary, topology.Pool{}, nil)
		if err != nil {
			t.Fatalf("PlanStandbyAvoiding: %v", err)
		}
		return sb
	}
	wantPlan := plan()
	for i, name := range []string{"Path", "Links"} {
		fresh := plan()
		if cap(fresh.Path) != len(fresh.Path) || cap(fresh.Links) != len(fresh.Links) {
			t.Fatalf("a planned standby's lists have capacities %d and %d for %d and %d elements",
				cap(fresh.Path), cap(fresh.Links), len(fresh.Path), len(fresh.Links))
		}
		var shared, otherSame bool
		if i == 0 {
			shared, otherSame = scribble(fresh.Path), slices.Equal(fresh.Links, wantPlan.Links)
		} else {
			shared, otherSame = scribble(fresh.Links), slices.Equal(fresh.Path, wantPlan.Path)
		}
		if shared || !otherSame {
			t.Errorf("planned standby's %s: the append shared its array (%v), or writing it changed the other list (%v)", name, shared, !otherSame)
		}
		if got := depLists(s.Deployment(id)); !slices.EqualFunc(got, wantLists, slices.Equal) {
			t.Errorf("planned standby's %s: writing it changed the live record: %v, want %v", name, got, wantLists)
		}
	}

	if raceEnabled {
		return
	}
	snapshots := testing.AllocsPerRun(100, func() { s.Deployment(id) })
	plans := testing.AllocsPerRun(100, func() { plan() })
	t.Logf("a snapshot allocates %.0f times, a warm standby plan %.0f", snapshots, plans)
	if snapshots != 1 || plans != 1 {
		t.Errorf("a snapshot allocates %.0f times and a warm standby plan %.0f, want 1 each: one block", snapshots, plans)
	}
}
