package update

import (
	"testing"

	"github.com/alvc/alvc/internal/cluster"
	"github.com/alvc/alvc/internal/topology"
)

func churnTopo(t *testing.T) *topology.Topology {
	t.Helper()
	cfg := topology.DefaultGenConfig()
	cfg.Racks = 6
	cfg.OPSCount = 8
	cfg.ToRUplinks = 4
	topo, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return topo
}

func initialAL(t *testing.T, topo *topology.Topology, service string) cluster.AL {
	t.Helper()
	group := topo.VMsByService()[service]
	al, err := cluster.PaperBuilder{}.Build(topo, group, nil)
	if err != nil {
		t.Fatalf("initial AL: %v", err)
	}
	return al
}

func TestALVCCostJoin(t *testing.T) {
	topo := churnTopo(t)
	m, err := NewModel(topo, cluster.PaperBuilder{})
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	al := initialAL(t, topo, "web")
	pm := topo.NodeIDs(topology.KindPhysicalMachine)[0]
	before := len(topo.VMsByService()["web"])
	cost, newAL, err := m.ALVCCost(al, Event{Kind: VMJoin, Service: "web", PM: pm})
	if err != nil {
		t.Fatalf("ALVCCost: %v", err)
	}
	if got := len(topo.VMsByService()["web"]); got != before+1 {
		t.Fatalf("join not applied: %d -> %d", before, got)
	}
	if cost.SwitchesTouched < 1 {
		t.Fatal("join must touch at least one switch")
	}
	if newAL.Size() == 0 {
		t.Fatal("rebuilt AL is empty")
	}
	if !cluster.VerifyAL(topo, topo.VMsByService()["web"], newAL) {
		t.Fatal("rebuilt AL does not cover the grown group")
	}
}

func TestALVCCostLeaveAndEmptyGroup(t *testing.T) {
	topo := churnTopo(t)
	m, _ := NewModel(topo, cluster.PaperBuilder{})
	al := initialAL(t, topo, "web")
	group := topo.VMsByService()["web"]
	// Remove all but one, then the last.
	for _, vm := range group[:len(group)-1] {
		var err error
		_, al, err = m.ALVCCost(al, Event{Kind: VMLeave, Service: "web", VM: vm})
		if err != nil {
			t.Fatalf("leave: %v", err)
		}
	}
	last := topo.VMsByService()["web"][0]
	cost, emptied, err := m.ALVCCost(al, Event{Kind: VMLeave, Service: "web", VM: last})
	if err != nil {
		t.Fatalf("final leave: %v", err)
	}
	if emptied.Size() != 0 {
		t.Fatal("AL should be empty after group vanishes")
	}
	if !cost.ALRebuilt || cost.SwitchesTouched == 0 {
		t.Fatalf("releasing a whole AL must touch its switches: %+v", cost)
	}
}

func TestALVCCostMigrate(t *testing.T) {
	topo := churnTopo(t)
	m, _ := NewModel(topo, cluster.PaperBuilder{})
	al := initialAL(t, topo, "web")
	group := topo.VMsByService()["web"]
	pms := topo.NodeIDs(topology.KindPhysicalMachine)
	cost, newAL, err := m.ALVCCost(al, Event{Kind: VMMigrate, Service: "web", VM: group[0], PM: pms[len(pms)-1]})
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if cost.SwitchesTouched < 1 {
		t.Fatal("migration must touch at least one switch")
	}
	if !cluster.VerifyAL(topo, topo.VMsByService()["web"], newAL) {
		t.Fatal("AL no longer covers group after migration")
	}
}

func TestApplyValidation(t *testing.T) {
	topo := churnTopo(t)
	m, _ := NewModel(topo, cluster.PaperBuilder{})
	al := initialAL(t, topo, "web")
	if _, _, err := m.ALVCCost(al, Event{Kind: VMJoin, Service: "web", PM: 9999}); err == nil {
		t.Fatal("join on unknown PM accepted")
	}
	if _, _, err := m.ALVCCost(al, Event{Kind: VMLeave, Service: "web", VM: 9999}); err == nil {
		t.Fatal("leave of unknown VM accepted")
	}
	if _, _, err := m.ALVCCost(al, Event{Kind: EventKind(99), Service: "web"}); err == nil {
		t.Fatal("unknown event kind accepted")
	}
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(nil, nil); err == nil {
		t.Fatal("nil topology accepted")
	}
	topo := churnTopo(t)
	m, err := NewModel(topo, nil)
	if err != nil || m == nil {
		t.Fatal("nil builder should default to PaperBuilder")
	}
}

func TestRunChurnALVCBeatsFlat(t *testing.T) {
	topo := churnTopo(t)
	m, _ := NewModel(topo, cluster.PaperBuilder{})
	report, err := m.RunChurn(ChurnConfig{
		Events:    40,
		Service:   "web",
		JoinFrac:  0.3,
		LeaveFrac: 0.3,
		Seed:      7,
	})
	if err != nil {
		t.Fatalf("RunChurn: %v", err)
	}
	if report.Events != 40 {
		t.Fatalf("events = %d", report.Events)
	}
	// The paper's claim: AL-VC's scoped updates cost far less than
	// whole-network updates.
	if report.ALVC.SwitchesTouched >= report.Flat.SwitchesTouched {
		t.Fatalf("AL-VC %d switches >= flat %d — claim violated",
			report.ALVC.SwitchesTouched, report.Flat.SwitchesTouched)
	}
	if report.FinalSize <= 0 {
		t.Fatal("final AL empty after balanced churn")
	}
}

func TestRunChurnDeterministic(t *testing.T) {
	cfgGen := func() *Model {
		m, _ := NewModel(churnTopo(t), cluster.PaperBuilder{})
		return m
	}
	cfg := ChurnConfig{Events: 20, Service: "web", JoinFrac: 0.4, LeaveFrac: 0.2, Seed: 11}
	r1, err := cfgGen().RunChurn(cfg)
	if err != nil {
		t.Fatalf("RunChurn: %v", err)
	}
	r2, err := cfgGen().RunChurn(cfg)
	if err != nil {
		t.Fatalf("RunChurn: %v", err)
	}
	if r1.ALVC != r2.ALVC || r1.Flat != r2.Flat {
		t.Fatalf("same seed different reports: %+v vs %+v", r1, r2)
	}
}

func TestRunChurnValidation(t *testing.T) {
	topo := churnTopo(t)
	m, _ := NewModel(topo, cluster.PaperBuilder{})
	if _, err := m.RunChurn(ChurnConfig{Events: 0, Service: "web"}); err == nil {
		t.Fatal("zero events accepted")
	}
	if _, err := m.RunChurn(ChurnConfig{Events: 5, Service: "nope"}); err == nil {
		t.Fatal("unknown service accepted")
	}
	if _, err := m.RunChurn(ChurnConfig{Events: 5, Service: "web", JoinFrac: 0.9, LeaveFrac: 0.9}); err == nil {
		t.Fatal("fractions > 1 accepted")
	}
}

func TestEventKindString(t *testing.T) {
	for k, want := range map[EventKind]string{VMJoin: "join", VMLeave: "leave", VMMigrate: "migrate"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k)
		}
	}
	if EventKind(99).String() == "" {
		t.Error("unknown kind must render")
	}
}

func TestCostAdd(t *testing.T) {
	a := Cost{SwitchesTouched: 2, RulesChanged: 3}
	b := Cost{SwitchesTouched: 1, RulesChanged: 1, ALRebuilt: true}
	sum := a.Add(b)
	if sum.SwitchesTouched != 3 || sum.RulesChanged != 4 || !sum.ALRebuilt {
		t.Fatalf("Add = %+v", sum)
	}
}
