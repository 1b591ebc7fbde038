package orch

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/alvc/alvc/internal/topology"
)

// hookSide is one of the two Hooks values TestHooksSwapUnderTraffic
// alternates: what its observers saw.
type hookSide struct {
	stages  atomic.Int64
	rehomes atomic.Int64
	sink    recordingSink
}

func (x *hookSide) hooks() Hooks {
	return Hooks{
		Events: &x.sink,
		Stage:  func(string, time.Duration) { x.stages.Add(1) },
		Rehome: func(int, int) { x.rehomes.Add(1) },
	}
}

// stagesOf is how many pipeline stages a repair action runs: a swap
// re-enters at wdm, the other differential repairs at path, a standby
// replan runs none.
func stagesOf(a RepairAction) (int64, bool) {
	switch a {
	case ActionSwapped:
		return int64(numStages - stageWDM), true
	case ActionRepathed, ActionReplaced, ActionPatched:
		return int64(numStages - stagePath), true
	case ActionRestandby, ActionSkipped:
		return 0, true
	}
	return 0, false // rebuilt / failed: a partial run first, not countable
}

// TestHooksSwapUnderTraffic replaces the Hooks value, over and over,
// while provisions, one failure batch and a re-home run on four shards:
// every executed stage is counted by exactly one of the two stage
// observers and every emitted event reaches exactly one of the two
// sinks, whichever value an operation happened to load. Count-based;
// run it with -race.
func TestHooksSwapUnderTraffic(t *testing.T) {
	topo := benchFleetTopo(t, 64)
	s := newTestSet(t, Config{Topo: topo}, 4)
	var a, b hookSide
	s.UpdateHooks(func(h *Hooks) { *h = a.hooks() })

	var wantStages, wantEvents int64
	residents := make([]*Deployment, 6)
	for i := range residents {
		dep, err := s.Provision(bg, residentSpec(t, i, fmt.Sprintf("res%d", i)))
		if err != nil {
			t.Fatalf("Provision resident %d: %v", i, err)
		}
		residents[i] = dep
		wantStages += int64(numStages)
	}
	// The last resident drifts onto a server, so the re-home below has
	// something to undo: a move re-runs path → rules and emits once.
	drifted := residents[len(residents)-1]
	if err := s.Apply(drifted.ID, ChangeHost(0, topo.NodeIDs(topology.KindPhysicalMachine)[0])); err != nil {
		t.Fatalf("move: %v", err)
	}
	wantStages += int64(numStages - stagePath)
	wantEvents++
	// The tray: the first ToR→OPS link of three other residents' primaries.
	var tray []topology.LinkID
	for _, dep := range residents[:3] {
		for i := 0; i+1 < len(dep.Path); i++ {
			if topo.Node(dep.Path[i]).Kind == topology.KindToR && topo.Node(dep.Path[i+1]).Kind == topology.KindOPS {
				tray = append(tray, topo.LinkBetween(dep.Path[i], dep.Path[i+1]).ID)
				break
			}
		}
	}
	if len(tray) != 3 {
		t.Fatalf("tray = %v, want one transit link per victim", tray)
	}

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			side := &a
			if i%2 == 0 {
				side = &b
			}
			s.UpdateHooks(func(h *Hooks) { *h = side.hooks() })
		}
	}()

	var traffic sync.WaitGroup
	var stages, events atomic.Int64
	for g := 0; g < 3; g++ {
		traffic.Add(1)
		go func() {
			defer traffic.Done()
			for i := 0; i < 6; i++ {
				n := 100 + g*10 + i
				if _, err := s.Provision(bg, residentSpec(t, n, fmt.Sprintf("t%d", n))); err != nil {
					t.Errorf("Provision %d: %v", n, err)
					continue
				}
				stages.Add(int64(numStages))
			}
		}()
	}
	traffic.Add(2)
	go func() {
		defer traffic.Done()
		reports, _ := s.HandleFailures(bg, topology.NewFailures(nil, tray)) // a busy skip is an error and no stage
		for _, rep := range reports {
			n, ok := stagesOf(rep.Action)
			if !ok {
				t.Errorf("deployment %d was %s: the tray was meant to cost differential repairs only", rep.ID, rep.Action)
			}
			stages.Add(n)
			if rep.Succeeded() {
				events.Add(1)
			}
		}
	}()
	var moved bool
	go func() {
		defer traffic.Done()
		var err error
		if moved, err = s.Rehome(drifted.ID, 1); err != nil {
			t.Errorf("Rehome: %v", err)
		}
		if moved {
			stages.Add(int64(numStages - stagePath))
			events.Add(1)
		}
	}()
	traffic.Wait()
	close(stop)
	swapper.Wait()
	wantStages += stages.Load()
	wantEvents += events.Load()

	if got := a.stages.Load() + b.stages.Load(); got != wantStages {
		t.Fatalf("stage observers counted %d + %d = %d stages, %d ran", a.stages.Load(), b.stages.Load(), got, wantStages)
	}
	if got := a.rehomes.Load() + b.rehomes.Load(); (got > 0) != moved {
		t.Fatalf("re-home observers counted %d migrations, moved = %v", got, moved)
	}
	type evKey struct {
		kind EventKind
		dep  DeploymentID
	}
	seen := make(map[evKey]int)
	for _, side := range []*hookSide{&a, &b} {
		for _, ev := range side.sink.events {
			seen[evKey{ev.Kind, ev.Deployment}]++
		}
	}
	var total int64
	for k, n := range seen {
		// The drifted chain moves twice (MoveNF, then the re-home back).
		if n > 1 && !(k.kind == EventPlacementChanged && k.dep == drifted.ID && n == 2 && moved) {
			t.Errorf("event %s of deployment %d delivered %d times", k.kind, k.dep, n)
		}
		total += int64(n)
	}
	if total != wantEvents {
		t.Fatalf("sinks received %d events, %d were emitted", total, wantEvents)
	}
}
