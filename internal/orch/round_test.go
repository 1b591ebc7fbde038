package orch

import (
	"context"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/alvc/alvc/internal/topology"
	"github.com/alvc/alvc/internal/trace"
)

// standbyExits returns, for each chain, the last ToR↔OPS link of its
// standby, each link once: cutting them consumes the standbys and leaves
// every primary carrying traffic.
func standbyExits(tb testing.TB, s *Sharded, topo *topology.Topology, ids []DeploymentID) []topology.LinkID {
	var links []topology.LinkID
	for _, id := range ids {
		s.ViewDeployment(id, func(dep *Deployment) {
			stby := transitLinks(tb, topo, dep.Standby.Path)
			links = appendUnseen(links, stby[len(stby)-1:])
		})
	}
	return links
}

// restore recovers the links one by one and re-protects the chains.
func restore(tb testing.TB, s *Sharded, links []topology.LinkID, ids []DeploymentID) {
	for _, l := range links {
		if err := s.Recover(topology.NewFailures(nil, []topology.LinkID{l})); err != nil {
			tb.Fatalf("Recover: %v", err)
		}
	}
	for _, out := range s.ReProtectGroup(nil, FailureDomain{Batch: 1}, ids) {
		if out.Err != nil || out.Standby == nil {
			tb.Fatalf("chain %d left unprotected: %v", out.ID, out.Err)
		}
	}
}

// TestStormRoundScratchIsReused: on a warmed four-shard storm fleet,
// traced, a repeated round's debouncer Report and flush and each shard's
// reconcile fan-out allocate only what outlives the round: the merged
// reports, the domain key the repair events carry, the batch span's
// attributes and links and the record field that holds the links (the
// trace store keeps them), and the window's timer. Each round cuts eight
// chains' standby exits, the reports alternating between two traces, so
// every repair drops a standby and allocates nothing of its own, and the
// batch span continues one trace and links the other; re-protection runs
// outside the count. Every round commits into that one trace, full since
// the warm-up, so the store files no new trace: how often its maps grow
// under churn hangs on their hash seed. The rounds run on one P with the
// collector held off, so pooled arrays stay where the last round left
// them.
func TestStormRoundScratchIsReused(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of what it is handed under the race detector")
	}
	s, topo := stormFleet(t)
	tr := trace.NewTracer(trace.NewStore(trace.StoreOptions{MaxSpansPerTrace: 64}))
	s.UpdateHooks(func(h *Hooks) { h.Tracer = tr })
	ctxs := []context.Context{
		carrier(bg, tr.Start(trace.SpanContext{TraceID: "report-a"})),
		carrier(bg, tr.Start(trace.SpanContext{TraceID: "report-b"})),
	}
	d := NewFailureDebouncer(s, time.Hour)
	const kept = 6
	var ms runtime.MemStats
	round := func(r int) uint64 {
		ids := make([]DeploymentID, 8)
		for v := range ids {
			ids[v] = DeploymentID(1 + (r*8+v)%160)
		}
		links := standbyExits(t, s, topo, ids)
		sets := make([]topology.Failures, len(links))
		for i, l := range links {
			sets[i] = topology.NewFailures(nil, []topology.LinkID{l})
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for i := range sets {
			d.Report(ctxs[i%len(ctxs)], sets[i])
		}
		reports, err := d.Flush()
		runtime.ReadMemStats(&ms)
		allocs := ms.Mallocs - before
		if err != nil || len(reports) < len(ids) {
			t.Fatalf("round %d: %d reports for %d victims, %v", r, len(reports), len(ids), err)
		}
		for _, rep := range reports {
			if rep.Action != ActionRestandby {
				t.Fatalf("round %d: chain %d %s, want every repair a dropped standby", r, rep.ID, rep.Action)
			}
		}
		restore(t, s, links, RepairedIDs(reports))
		return allocs
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for r := 0; r < 40; r++ { // every chain twice: the lists reach their size
		round(r)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var most uint64
	for r := 40; r < 60; r++ {
		got := round(r)
		most = max(most, got)
		if got > kept {
			t.Errorf("round %d: Report and Flush allocate %d times, want at most %d: the reports, the domain key, the batch span's attributes, links and their record field, and the timer", r, got, kept)
		}
	}
	t.Logf("a round's Report and Flush allocate at most %d times (ceiling %d)", most, kept)
}

// TestConcurrentHandleFailuresShareNoScratch: two HandleFailures calls
// at once — a window's expiry and a Flush, say — each cutting standbys
// of its own chains, on every shard. Each call answers for its own
// chains alone, and the race detector sees no list of one call's round
// written by the other.
func TestConcurrentHandleFailuresShareNoScratch(t *testing.T) {
	s, topo := stormFleet(t)
	for r := 0; r < 20; r++ {
		var sides [2][]DeploymentID
		for v := 0; v < 8; v++ { // four chains a side, one on every shard
			id := DeploymentID(1 + (r*8+v)%160)
			sides[v/4] = append(sides[v/4], id)
		}
		var links [2][]topology.LinkID
		for i, ids := range sides {
			links[i] = standbyExits(t, s, topo, ids)
		}
		if slices.ContainsFunc(links[0], func(l topology.LinkID) bool { return slices.Contains(links[1], l) }) {
			continue // a shared link: either side may report the chain
		}
		var got [2][]RepairReport
		var wg sync.WaitGroup
		for i := range sides {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reports, err := s.HandleFailures(bg, topology.NewFailures(nil, links[i]))
				if err != nil {
					t.Errorf("round %d side %d: %v", r, i, err)
				}
				got[i] = reports
			}()
		}
		wg.Wait()
		for i, ids := range sides {
			var answered []DeploymentID
			for _, rep := range got[i] {
				answered = append(answered, rep.ID)
			}
			if !slices.Equal(answered, ids) {
				t.Fatalf("round %d side %d: reports for %v, want its own chains %v", r, i, answered, ids)
			}
		}
		restore(t, s, append(links[0], links[1]...), append(sides[0], sides[1]...))
	}
}
