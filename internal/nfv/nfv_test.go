package nfv

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"github.com/alvc/alvc/internal/topology"
)

// hostTopo returns a topology with one PM (big) and one optoelectronic
// OPS (small), both hosting-capable, plus a plain OPS that is not.
func hostTopo(t *testing.T) (*topology.Topology, topology.NodeID, topology.NodeID, topology.NodeID) {
	t.Helper()
	topo := topology.New()
	oer := topo.AddOPS(true, topology.Resources{CPUCores: 4, MemoryGB: 8, StorageGB: 16})
	plain := topo.AddOPS(false, topology.Resources{})
	tor := topo.AddToR(0)
	pm := topo.AddPM(0, topology.Resources{CPUCores: 32, MemoryGB: 128, StorageGB: 1024})
	mustLink := func(a, b topology.NodeID, k topology.LinkKind) {
		t.Helper()
		if _, err := topo.AddLink(a, b, k, 10, 1); err != nil {
			t.Fatalf("AddLink: %v", err)
		}
	}
	mustLink(oer, plain, topology.LinkOptical)
	mustLink(tor, oer, topology.LinkBoundary)
	mustLink(pm, tor, topology.LinkElectronic)
	return topo, pm, oer, plain
}

func TestCatalogProfiles(t *testing.T) {
	ps := DefaultProfiles()
	if len(ps) < 8 {
		t.Fatalf("catalog has %d entries, want >= 8", len(ps))
	}
	for ty, p := range ps {
		if p.Type != ty {
			t.Errorf("profile %s has mismatched type %s", ty, p.Type)
		}
		if p.Demand.IsZero() {
			t.Errorf("profile %s has zero demand", ty)
		}
		if p.PerPacketMicros <= 0 {
			t.Errorf("profile %s has non-positive latency", ty)
		}
	}
	// The Fig. 8 split: light NFs fit the default OER capacity, heavy
	// ones do not.
	oerCap := topology.Resources{CPUCores: 4, MemoryGB: 8, StorageGB: 32}
	if !oerCap.Fits(ps[Firewall].Demand) {
		t.Error("firewall should fit an optoelectronic router")
	}
	if oerCap.Fits(ps[DPI].Demand) {
		t.Error("DPI should NOT fit an optoelectronic router")
	}
}

// DefaultProfiles hands out copies: editing one reaches neither the next
// copy nor name resolution, which reads the package's own catalog
// without building a map per lookup.
func TestDefaultProfilesIsACopy(t *testing.T) {
	ps := DefaultProfiles()
	want := ps[Firewall]
	delete(ps, Firewall)
	ps[NAT] = NFProfile{Type: NAT}
	if got, err := ProfileByName("firewall"); err != nil || got != want {
		t.Fatalf("ProfileByName(firewall) = %+v, %v after editing a copy; want %+v", got, err, want)
	}
	if got := DefaultProfiles(); got[Firewall] != want || got[NAT].Demand.IsZero() {
		t.Fatalf("a later copy saw the edit: %+v", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = ProfileByName("dpi") }); allocs != 0 {
		t.Fatalf("ProfileByName allocates %.0f times per lookup", allocs)
	}
}

func TestProfileByNameAndResolve(t *testing.T) {
	if _, err := ProfileByName("firewall"); err != nil {
		t.Fatalf("ProfileByName: %v", err)
	}
	if _, err := ProfileByName("bogus"); err == nil {
		t.Fatal("unknown NF accepted")
	}
	chain, err := ResolveChain([]string{"firewall", "dpi", "lb"})
	if err != nil {
		t.Fatalf("ResolveChain: %v", err)
	}
	if len(chain) != 3 || chain[1].Type != DPI {
		t.Fatalf("chain = %+v", chain)
	}
	if _, err := ResolveChain([]string{"firewall", "bogus"}); err == nil {
		t.Fatal("chain with unknown NF accepted")
	}
	names := ProfileNames()
	if len(names) != len(DefaultProfiles()) {
		t.Fatal("ProfileNames incomplete")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("ProfileNames not sorted")
		}
	}
}

func TestLedgerAllocFree(t *testing.T) {
	topo, pm, oer, plain := hostTopo(t)
	l, err := NewLedger(topo)
	if err != nil {
		t.Fatalf("NewLedger: %v", err)
	}
	demand := topology.Resources{CPUCores: 2, MemoryGB: 4, StorageGB: 8}
	if !l.Available(oer).Fits(demand) {
		t.Fatal("OER should host small demand")
	}
	if l.Available(plain).Fits(demand) {
		t.Fatal("plain OPS must not host")
	}
	if err := l.Alloc(oer, demand); err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	// Second identical alloc exceeds CPU (4 total).
	if err := l.Alloc(oer, topology.Resources{CPUCores: 3}); err == nil {
		t.Fatal("over-allocation accepted")
	}
	if err := l.Free(oer, demand); err != nil {
		t.Fatalf("Free: %v", err)
	}
	// Over-free must error.
	if err := l.Free(oer, demand); err == nil {
		t.Fatal("over-free accepted")
	}
	if err := l.Alloc(plain, demand); err == nil {
		t.Fatal("alloc on non-hosting node accepted")
	}
	if err := l.Free(plain, demand); err == nil {
		t.Fatal("free on non-hosting node accepted")
	}
	_ = pm
}

func TestLedgerDomains(t *testing.T) {
	topo, pm, oer, _ := hostTopo(t)
	l, _ := NewLedger(topo)
	if d, ok := l.Domain(pm); !ok || d != topology.DomainElectronic {
		t.Fatal("PM domain wrong")
	}
	if d, ok := l.Domain(oer); !ok || d != topology.DomainOptical {
		t.Fatal("OER domain wrong")
	}
	// The domain totals follow every Alloc and Free on their hosts only.
	demand := topology.Resources{CPUCores: 2, MemoryGB: 4, StorageGB: 8}
	if err := l.Alloc(pm, demand); err != nil {
		t.Fatal(err)
	}
	totals := func(d topology.Domain, host topology.NodeID, wantUsed topology.Resources) {
		t.Helper()
		used, capacity := l.DomainTotals(d)
		if used != wantUsed || capacity != topo.Node(host).Capacity {
			t.Fatalf("%s totals = used %v of %v, want %v of %v", d, used, capacity, wantUsed, topo.Node(host).Capacity)
		}
	}
	totals(topology.DomainElectronic, pm, demand)
	totals(topology.DomainOptical, oer, topology.Resources{})
	if err := l.Free(pm, demand); err != nil {
		t.Fatal(err)
	}
	totals(topology.DomainElectronic, pm, topology.Resources{})
}

func TestManagerLifecycle(t *testing.T) {
	topo, pm, _, _ := hostTopo(t)
	m, err := NewManager(topo)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	inst, err := m.Create(Firewall, pm)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if inst.State != StatePending {
		t.Fatalf("state = %s, want pending", inst.State)
	}
	// Scale before activation is rejected.
	if err := m.ScaleTo(inst.ID, 2); err == nil {
		t.Fatal("scale of pending instance accepted")
	}
	if err := m.Activate(inst.ID); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	if err := m.Activate(inst.ID); err == nil {
		t.Fatal("double activation accepted")
	}
	if err := m.ScaleTo(inst.ID, 3); err != nil {
		t.Fatalf("ScaleTo: %v", err)
	}
	used := m.Ledger().Used(pm)
	wantCPU := DefaultProfiles()[Firewall].Demand.CPUCores * 3
	if used.CPUCores != wantCPU {
		t.Fatalf("used CPU = %f, want %f", used.CPUCores, wantCPU)
	}
	if err := m.ScaleTo(inst.ID, 1); err != nil {
		t.Fatalf("scale in: %v", err)
	}
	if err := m.ScaleTo(inst.ID, 0); err == nil {
		t.Fatal("scale to zero accepted")
	}
	if err := m.Update(inst.ID); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if got := m.Instance(inst.ID); got.Version != 2 || got.State != StateActive {
		t.Fatalf("after update: %+v", got)
	}
	if err := m.Terminate(inst.ID); err != nil {
		t.Fatalf("Terminate: %v", err)
	}
	if !m.Ledger().Used(pm).IsZero() {
		t.Fatal("resources leaked after terminate")
	}
	if err := m.Terminate(inst.ID); err == nil {
		t.Fatal("double terminate accepted")
	}
	// Audit log covers every transition.
	events := m.Events()
	if len(events) < 6 {
		t.Fatalf("events = %d, want >= 6", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatal("event sequence not increasing")
		}
	}
}

func TestManagerCreateOnOER(t *testing.T) {
	topo, _, oer, plain := hostTopo(t)
	m, _ := NewManager(topo)
	inst, err := m.Create(Firewall, oer)
	if err != nil {
		t.Fatalf("Create on OER: %v", err)
	}
	if inst.Domain != topology.DomainOptical {
		t.Fatalf("domain = %s, want optical", inst.Domain)
	}
	// Heavy VNF cannot fit the OER (DPI needs 8 cores, OER has 4).
	if _, err := m.Create(DPI, oer); err == nil {
		t.Fatal("DPI placed on small OER")
	}
	if _, err := m.Create(Firewall, plain); err == nil {
		t.Fatal("create on plain OPS accepted")
	}
	if _, err := m.Create(Firewall, 9999); err == nil {
		t.Fatal("create on unknown host accepted")
	}
	if _, err := m.Create("bogus", oer); err == nil {
		t.Fatal("create of unknown type accepted")
	}
}

func TestManagerQueries(t *testing.T) {
	topo, pm, oer, _ := hostTopo(t)
	m, _ := NewManager(topo)
	i1, err := m.Create(Firewall, pm)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	i2, err := m.Create(NAT, oer)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	all := m.Instances()
	if len(all) != 2 || all[0].ID != i1.ID || all[1].ID != i2.ID {
		t.Fatalf("Instances = %+v", all)
	}
	if err := m.Activate(i1.ID); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	if err := m.Terminate(i1.ID); err != nil {
		t.Fatalf("Terminate: %v", err)
	}
	if got := m.Instances(); len(got) != 1 || got[0].ID != i2.ID {
		t.Fatalf("terminated instance still listed: %+v", got)
	}
	if m.Instance(9999) != nil {
		t.Fatal("unknown instance returned non-nil")
	}
	// Returned copies must not alias internal state.
	snapshot := m.Instance(i2.ID)
	snapshot.State = StateTerminated
	if m.Instance(i2.ID).State == StateTerminated {
		t.Fatal("mutating returned instance affected manager state")
	}
}

func TestManagerUnknownInstanceOps(t *testing.T) {
	topo, _, _, _ := hostTopo(t)
	m, _ := NewManager(topo)
	if err := m.Activate(1); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("Activate unknown: %v", err)
	}
	if err := m.ScaleTo(1, 2); err == nil {
		t.Fatal("ScaleTo unknown accepted")
	}
	if err := m.Update(1); err == nil {
		t.Fatal("Update unknown accepted")
	}
	if err := m.Terminate(1); err == nil {
		t.Fatal("Terminate unknown accepted")
	}
}

func TestMigrate(t *testing.T) {
	topo, pm, oer, _ := hostTopo(t)
	m, _ := NewManager(topo)
	inst, err := m.Create(Firewall, pm)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// Pending instances cannot migrate.
	if err := m.Migrate(inst.ID, oer); err == nil {
		t.Fatal("migration of pending instance accepted")
	}
	if err := m.Activate(inst.ID); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	if err := m.Migrate(inst.ID, oer); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	moved := m.Instance(inst.ID)
	if moved.Host != oer || moved.Domain != topology.DomainOptical {
		t.Fatalf("after migrate: %+v", moved)
	}
	if !m.Ledger().Used(pm).IsZero() {
		t.Fatal("source resources not released")
	}
	demand := DefaultProfiles()[Firewall].Demand
	if m.Ledger().Used(oer) != demand {
		t.Fatalf("destination usage = %v, want %v", m.Ledger().Used(oer), demand)
	}
	// Self-migration is a no-op.
	if err := m.Migrate(inst.ID, oer); err != nil {
		t.Fatalf("self migration: %v", err)
	}
	// Migrations respect capacity: scale up so the small OER cannot
	// take it back... (scale to 3 on the OER: 3 cpu total fits 4-core
	// router; then a 9-replica scale fails).
	if err := m.ScaleTo(inst.ID, 3); err != nil {
		t.Fatalf("ScaleTo on OER: %v", err)
	}
	// Migrate 3 replicas back to the PM (plenty of room).
	if err := m.Migrate(inst.ID, pm); err != nil {
		t.Fatalf("Migrate back: %v", err)
	}
	if !m.Ledger().Used(oer).IsZero() {
		t.Fatal("OER resources not released after migrating away")
	}
}

func TestMigrateValidation(t *testing.T) {
	topo, pm, oer, plain := hostTopo(t)
	m, _ := NewManager(topo)
	inst, err := m.Create(DPI, pm) // DPI: 8 cores — too big for the OER
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := m.Activate(inst.ID); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	if err := m.Migrate(inst.ID, oer); err == nil {
		t.Fatal("migration exceeding destination capacity accepted")
	}
	// Failed migration leaves the instance and accounting untouched.
	if got := m.Instance(inst.ID); got.Host != pm {
		t.Fatal("failed migration moved the instance")
	}
	if !m.Ledger().Used(oer).IsZero() {
		t.Fatal("failed migration leaked destination reservation")
	}
	if err := m.Migrate(inst.ID, plain); err == nil {
		t.Fatal("migration to non-hosting node accepted")
	}
	if err := m.Migrate(inst.ID, 9999); err == nil {
		t.Fatal("migration to unknown node accepted")
	}
	if err := m.Migrate(9999, pm); err == nil {
		t.Fatal("migration of unknown instance accepted")
	}
	if err := topo.SetDown(topology.NewFailures([]topology.NodeID{oer}, nil), true); err != nil {
		t.Fatalf("SetDown: %v", err)
	}
	if err := m.Migrate(inst.ID, oer); err == nil {
		t.Fatal("migration to down node accepted")
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StatePending: "pending", StateActive: "active",
		StateUpdating: "updating", StateTerminated: "terminated",
	} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", s, s, want)
		}
	}
	if State(99).String() == "" {
		t.Error("unknown state must render")
	}
}

// TestManagerHoldsNoHistory: a terminated instance is forgotten — its
// ID is unknown from then on — and the event log keeps the newest
// EventLogSize transitions under a Seq that counts all of them.
func TestManagerHoldsNoHistory(t *testing.T) {
	topo, pm, _, _ := hostTopo(t)
	m, _ := NewManager(topo)
	keep, err := m.Create(NAT, pm)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	const cycles = EventLogSize // two events a cycle: the log wraps
	for i := 0; i < cycles; i++ {
		inst, err := m.Create(Firewall, pm)
		if err != nil {
			t.Fatalf("Create %d: %v", i, err)
		}
		if err := m.Terminate(inst.ID); err != nil {
			t.Fatalf("Terminate %d: %v", i, err)
		}
		if m.Instance(inst.ID) != nil {
			t.Fatalf("terminated instance %d still known", inst.ID)
		}
		if err := m.Update(inst.ID); err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Fatalf("update of terminated instance %d: %v", inst.ID, err)
		}
	}
	if all := m.Instances(); len(all) != 1 || all[0].ID != keep.ID {
		t.Fatalf("Instances = %+v, want only the live one", all)
	}
	events := m.Events()
	if len(events) != EventLogSize {
		t.Fatalf("event log holds %d events, want %d", len(events), EventLogSize)
	}
	total := 1 + 2*cycles
	if first, last := events[0].Seq, events[len(events)-1].Seq; last != total || first != total-EventLogSize+1 {
		t.Fatalf("log spans Seq %d..%d, want %d..%d", first, last, total-EventLogSize+1, total)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("events %d and %d out of order: Seq %d then %d", i-1, i, events[i-1].Seq, events[i].Seq)
		}
	}
	if last := events[len(events)-1]; last.To != StateTerminated {
		t.Fatalf("last event = %+v, want a termination", last)
	}
}

// TestEventNotesEqualEagerFormat drives every transition — created,
// activated, scaled, update started and finished, migrated both ways,
// terminated from active and from pending — for every catalog type past
// the log's wrap, and holds Events to the log as it was formatted when
// each transition happened, note for note, byte for byte.
func TestEventNotesEqualEagerFormat(t *testing.T) {
	if size := unsafe.Sizeof(logEntry{}); size > 48 {
		t.Fatalf("a log entry is %d bytes, want at most 48", size)
	}
	topo, pm, oer, _ := hostTopo(t)
	m, err := NewManager(topo)
	if err != nil {
		t.Fatal(err)
	}
	oerCap := topology.Resources{CPUCores: 4, MemoryGB: 8, StorageGB: 16} // hostTopo's
	var want []Event
	migrated := 0
	log := func(id InstanceID, from, to State, note string) {
		want = append(want, Event{Seq: len(want) + 1, Instance: id, From: from, To: to, Note: note})
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for len(want) <= EventLogSize+100 {
		for _, nf := range ProfileNames() {
			typ := NFType(nf)
			inst, err := m.Create(typ, pm)
			must(err)
			log(inst.ID, 0, StatePending, fmt.Sprintf("created %s on node %d (%s)", typ, pm, topology.DomainElectronic))
			must(m.Activate(inst.ID))
			log(inst.ID, StatePending, StateActive, "activated")
			must(m.ScaleTo(inst.ID, 2))
			log(inst.ID, StateActive, StateActive, fmt.Sprintf("scaled %d -> %d replicas", 1, 2))
			must(m.ScaleTo(inst.ID, 1))
			log(inst.ID, StateActive, StateActive, fmt.Sprintf("scaled %d -> %d replicas", 2, 1))
			must(m.Update(inst.ID))
			log(inst.ID, StateActive, StateUpdating, "update started")
			log(inst.ID, StateUpdating, StateActive, fmt.Sprintf("update finished, version %d", 2))
			if oerCap.Fits(DefaultProfiles()[typ].Demand) {
				migrated++
				must(m.Migrate(inst.ID, oer))
				log(inst.ID, StateActive, StateActive, fmt.Sprintf("migrated node %d -> %d (%s)", pm, oer, topology.DomainOptical))
				must(m.Migrate(inst.ID, pm))
				log(inst.ID, StateActive, StateActive, fmt.Sprintf("migrated node %d -> %d (%s)", oer, pm, topology.DomainElectronic))
			}
			must(m.Terminate(inst.ID))
			log(inst.ID, StateActive, StateTerminated, "terminated")
			pending, err := m.Create(typ, pm)
			must(err)
			log(pending.ID, 0, StatePending, fmt.Sprintf("created %s on node %d (%s)", typ, pm, topology.DomainElectronic))
			must(m.Terminate(pending.ID))
			log(pending.ID, StatePending, StateTerminated, "terminated")
		}
	}
	if migrated == 0 {
		t.Fatal("no NF type fits the optoelectronic router: nothing migrated")
	}
	got := m.Events()
	want = want[len(want)-EventLogSize:]
	if len(got) != len(want) {
		t.Fatalf("Events holds %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
