package optimizer

import (
	"fmt"
	"testing"

	"github.com/alvc/alvc/internal/orch"
)

// TestQueueBoundShedsLowestPriority fills a bounded queue with
// low-priority defrag tasks for chains on every shard, then pushes
// high-priority re-protects past the cap: the bound is the engine's,
// whatever the shard count — at every step depth and high-water hold it
// and the shed counter accounts for every task past it — and the defrag
// tail is what is shed.
func TestQueueBoundShedsLowestPriority(t *testing.T) {
	const bound = 4
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, _, deps := healthyFleet(t, shards, 8, 1)
			onShard := make(map[int]bool)
			for _, dep := range deps {
				onShard[s.ShardOf(dep.ID)] = true
			}
			if len(onShard) != shards {
				t.Fatalf("chains on %d of %d shards, want every shard", len(onShard), shards)
			}
			eng, err := New(s, Options{MaxQueueDepth: bound})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			queued := 0
			check := func(what string) {
				t.Helper()
				st := eng.Status()
				if st.QueueDepth > bound || st.HighWater > bound {
					t.Fatalf("%s: depth %d, high-water %d; bound %d", what, st.QueueDepth, st.HighWater, bound)
				}
				if want := max(0, queued-bound); st.Shed != want {
					t.Fatalf("%s: Shed = %d, want the %d tasks past the bound", what, st.Shed, want)
				}
			}
			for i, dep := range deps {
				if ok := eng.Enqueue(dep.ID, KindDefrag); ok != (i < bound) {
					t.Fatalf("defrag %d queued = %v with %d tasks queued", i, ok, queued)
				}
				queued++
				check(fmt.Sprintf("defrag %d", i))
			}
			for i, dep := range deps[:3] {
				if !eng.Enqueue(dep.ID, KindReProtect) {
					t.Fatalf("re-protect %d rejected; high-priority work must displace defrag", i)
				}
				queued++
				check(fmt.Sprintf("re-protect %d", i))
			}
			st := eng.Status()
			if st.QueueDepth != bound || st.HighWater != bound {
				t.Errorf("depth %d, high-water %d; want the queue full at %d", st.QueueDepth, st.HighWater, bound)
			}
			if got := st.Kinds[KindReProtect.String()].Enqueued; got != 3 {
				t.Errorf("re-protect enqueued = %d, want 3", got)
			}
		})
	}
}

// TestQueueBoundSelfShed: when the queue is full of work that outranks
// the newcomer, the newcomer itself is the shed victim and Enqueue
// reports it was not queued.
func TestQueueBoundSelfShed(t *testing.T) {
	topo, _, _ := routeTopo(t, 2)
	_, eng := engineOver(t, topo, Options{MaxQueueDepth: 2})

	eng.Enqueue(orch.DeploymentID(1), KindReProtect)
	eng.Enqueue(orch.DeploymentID(2), KindReProtect)
	if eng.Enqueue(orch.DeploymentID(3), KindDefrag) {
		t.Fatal("defrag enqueued past a bound held by higher-priority work")
	}
	st := eng.Status()
	if st.Shed != 1 {
		t.Errorf("Shed = %d, want 1", st.Shed)
	}
	if got := st.Kinds[KindDefrag.String()].Enqueued; got != 0 {
		t.Errorf("self-shed defrag counted as enqueued (%d)", got)
	}
}

// TestQueueUnboundedWhenNegative: MaxQueueDepth < 0 disables the bound.
func TestQueueUnboundedWhenNegative(t *testing.T) {
	topo, _, _ := routeTopo(t, 2)
	_, eng := engineOver(t, topo, Options{MaxQueueDepth: -1})

	for i := 1; i <= 64; i++ {
		eng.Enqueue(orch.DeploymentID(i), KindDefrag)
	}
	st := eng.Status()
	if st.Shed != 0 {
		t.Errorf("Shed = %d, want 0 with the bound disabled", st.Shed)
	}
	if st.QueueDepth != 64 || st.HighWater != 64 {
		t.Errorf("depth %d, high-water %d; want all 64 tasks queued", st.QueueDepth, st.HighWater)
	}
}
