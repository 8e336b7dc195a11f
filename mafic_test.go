package mafic

import (
	"testing"

	"mafic/internal/netsim"
	"mafic/internal/sim"
)

func TestPublicDefaultsMatchPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.DropProbability != 0.90 {
		t.Fatalf("default Pd = %v, want 0.90", cfg.DropProbability)
	}
	if cfg.ProbeWindowRTTs != 2 {
		t.Fatalf("default probe window = %v RTTs, want 2", cfg.ProbeWindowRTTs)
	}
	s := DefaultScenario()
	if s.Workload.TotalFlows != 50 || s.Workload.TCPShare != 0.95 || s.Topology.NumRouters != 40 {
		t.Fatalf("default scenario does not match Table II: %+v", s.Workload)
	}
	if s.Defense != DefenseMAFIC {
		t.Fatal("default defence should be MAFIC")
	}
}

func TestPublicNewDefender(t *testing.T) {
	sched := sim.NewScheduler()
	net := netsim.New(sched, sim.NewRNG(1))
	r := net.AddRouter()
	d, err := NewDefender(DefaultConfig(), r, nil)
	if err != nil {
		t.Fatalf("NewDefender: %v", err)
	}
	if d.Active() {
		t.Fatal("new defender should start inactive")
	}
	d.Activate(netsim.IP(42))
	if !d.Active() {
		t.Fatal("Activate did not enable the defender")
	}
}

func TestPublicSimulateSmallScenario(t *testing.T) {
	s := DefaultScenario()
	s.Topology.NumRouters = 12
	s.Topology.BystanderHosts = 6
	s.Workload.TotalFlows = 15
	s.Duration = 1500 * sim.Millisecond
	s.Workload.AttackStart = 500 * sim.Millisecond

	res, err := Simulate(s)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if !res.Activated {
		t.Fatal("defense never activated")
	}
	if res.Accuracy < 0.85 {
		t.Fatalf("accuracy %.3f too low", res.Accuracy)
	}
}

func TestPublicFigureList(t *testing.T) {
	ids := AllFigures()
	if len(ids) < 11 {
		t.Fatalf("expected at least the paper's 11 figure panels, got %d", len(ids))
	}
	seen := map[FigureID]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate figure id %q", id)
		}
		seen[id] = true
	}
	for _, want := range []FigureID{"3a", "3b", "4a", "4b", "5a", "5b", "5c", "6a", "6b", "6c", "7"} {
		if !seen[want] {
			t.Fatalf("figure %q missing from AllFigures", want)
		}
	}
}
