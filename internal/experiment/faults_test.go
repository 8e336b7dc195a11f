package experiment

import (
	"errors"
	"testing"

	"mafic/internal/sim"
)

func TestFaultSpecValidate(t *testing.T) {
	t.Parallel()
	good := FaultSpec{
		LinkFlaps: []LinkFlap{{RouterA: 10, RouterB: 11, Start: 800 * sim.Millisecond,
			DownFor: 150 * sim.Millisecond, Period: 400 * sim.Millisecond, Count: 3}},
		RouterCrashes:   []RouterCrash{{Router: 5, CrashAt: 700 * sim.Millisecond, RestoreAt: 1400 * sim.Millisecond}},
		ReportLoss:      0.2,
		ReportDelayProb: 0.1,
		ReportDelay:     20 * sim.Millisecond,
	}
	if err := good.Validate(16, 2*sim.Second); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if err := (FaultSpec{}).Validate(2, sim.Second); err != nil {
		t.Fatalf("zero spec must validate: %v", err)
	}
	// The last outage may start at the run's last instant, and a flap may
	// outlast the run.
	edge := FaultSpec{LinkFlaps: []LinkFlap{{RouterA: 1, RouterB: 2, Start: sim.Millisecond,
		DownFor: sim.Second, Period: 2 * sim.Second, Count: 2}}}
	if err := edge.Validate(4, 2*sim.Second+sim.Millisecond+1); err != nil {
		t.Fatalf("flap whose last outage starts before the end rejected: %v", err)
	}
	if err := edge.Validate(4, 2*sim.Second+sim.Millisecond); !errors.Is(err, ErrScenario) {
		t.Fatalf("flap whose last outage starts at the end: want ErrScenario, got %v", err)
	}
	capped := FaultSpec{LinkFlaps: []LinkFlap{{RouterA: 1, RouterB: 2, DownFor: 1, Period: 2, Count: maxFlapCount}}}
	if err := capped.Validate(4, sim.Second); err != nil {
		t.Fatalf("flap at the count cap rejected: %v", err)
	}
	// A crash with no restore is a permanent failure, which is legal.
	perm := FaultSpec{RouterCrashes: []RouterCrash{{Router: 1, CrashAt: sim.Second}}}
	if err := perm.Validate(4, 2*sim.Second); err != nil {
		t.Fatalf("permanent crash rejected: %v", err)
	}

	flap := func(mut func(*LinkFlap)) FaultSpec {
		f := LinkFlap{RouterA: 1, RouterB: 2, Start: sim.Millisecond, DownFor: sim.Millisecond}
		mut(&f)
		return FaultSpec{LinkFlaps: []LinkFlap{f}}
	}
	crash := func(mut func(*RouterCrash)) FaultSpec {
		c := RouterCrash{Router: 1, CrashAt: sim.Millisecond}
		mut(&c)
		return FaultSpec{RouterCrashes: []RouterCrash{c}}
	}
	tests := []struct {
		name string
		spec FaultSpec
	}{
		{"flap router A negative", flap(func(f *LinkFlap) { f.RouterA = -1 })},
		{"flap router B beyond domain", flap(func(f *LinkFlap) { f.RouterB = 16 })},
		{"flap self-loop", flap(func(f *LinkFlap) { f.RouterB = f.RouterA })},
		{"flap negative start", flap(func(f *LinkFlap) { f.Start = -sim.Millisecond })},
		{"flap zero outage", flap(func(f *LinkFlap) { f.DownFor = 0 })},
		{"flap negative count", flap(func(f *LinkFlap) { f.Count = -1 })},
		{"flap period not above outage", flap(func(f *LinkFlap) { f.Count = 2; f.Period = f.DownFor })},
		// Either would have the build queue 2^41 events, or overflow
		// Start + k·Period.
		{"flap count of 2^40", flap(func(f *LinkFlap) { f.Count = 1 << 40; f.Period = 2 * sim.Millisecond })},
		{"flap period of 2^40", flap(func(f *LinkFlap) { f.Count = 2; f.Period = 1 << 40 })},
		{"flap count above the cap", flap(func(f *LinkFlap) { f.Count, f.DownFor, f.Period = maxFlapCount+1, 1, 2 })},
		{"flap starts after the run", flap(func(f *LinkFlap) { f.Start = 2 * sim.Second })},
		{"flap's last outage after the run", flap(func(f *LinkFlap) { f.Count = 11; f.Period = 200 * sim.Millisecond })},
		{"crash router beyond domain", crash(func(c *RouterCrash) { c.Router = 99 })},
		{"crash negative time", crash(func(c *RouterCrash) { c.CrashAt = -sim.Second })},
		{"restore before crash", crash(func(c *RouterCrash) { c.RestoreAt = c.CrashAt })},
		{"negative report loss", FaultSpec{ReportLoss: -0.1}},
		{"report loss above one", FaultSpec{ReportLoss: 1.5}},
		{"negative delay probability", FaultSpec{ReportDelayProb: -0.1, ReportDelay: sim.Millisecond}},
		{"delay probability above one", FaultSpec{ReportDelayProb: 2, ReportDelay: sim.Millisecond}},
		{"negative report delay", FaultSpec{ReportDelay: -sim.Millisecond}},
		{"delay probability without delay", FaultSpec{ReportDelayProb: 0.5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.spec.Validate(16, 2*sim.Second); !errors.Is(err, ErrScenario) {
				t.Fatalf("want ErrScenario, got %v", err)
			}
		})
	}
}

// TestScenarioValidateChecksFaults verifies fault validation is wired into
// Scenario.Validate against the scenario's own router count.
func TestScenarioValidateChecksFaults(t *testing.T) {
	t.Parallel()
	s := DefaultScenario()
	s.Faults.RouterCrashes = []RouterCrash{{Router: s.Topology.NumRouters, CrashAt: sim.Second}}
	if err := s.Validate(); !errors.Is(err, ErrScenario) {
		t.Fatalf("crash beyond the domain passed Validate: %v", err)
	}
	s = DefaultScenario()
	s.Faults.ReportLoss = 2
	if err := s.Validate(); !errors.Is(err, ErrScenario) {
		t.Fatalf("impossible report loss passed Validate: %v", err)
	}
}

// TestRunRejectsFlapOnUnconnectedRouters verifies the build-time check: a
// flap schedule naming two routers with no link between them fails the run
// instead of silently flapping nothing.
func TestRunRejectsFlapOnUnconnectedRouters(t *testing.T) {
	t.Parallel()
	s := DefaultScenario()
	s.Topology.NumRouters = 8
	s.Topology.ExtraChords = 0 // pure ring: only consecutive routers connect
	s.Topology.BystanderHosts = 0
	s.Workload.TotalFlows = 4
	s.Faults.LinkFlaps = []LinkFlap{{RouterA: 2, RouterB: 5,
		Start: sim.Millisecond, DownFor: sim.Millisecond}}
	if _, err := Run(s); !errors.Is(err, ErrScenario) {
		t.Fatalf("flap on unconnected pair (2,5) did not fail the run: %v", err)
	}
}

// TestChaosScenariosRun executes the chaos catalog entries in quick mode and
// checks the fault layer actually bites: churn drops packets (flap-core,
// partition-heal) and the defence still activates everywhere.
func TestChaosScenariosRun(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"flap-core", "partition-heal"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e, ok := LookupScenario(name)
			if !ok {
				t.Fatalf("chaos scenario %q not registered", name)
			}
			s := Quick(e.Build())
			if len(s.Faults.LinkFlaps) == 0 && len(s.Faults.RouterCrashes) == 0 {
				t.Fatalf("%s carries no link or router faults", name)
			}
			res, err := Run(s)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Counts.FaultDrops == 0 {
				t.Errorf("%s dropped no packets to churn — the fault schedule never bit", name)
			}
			if !res.Activated {
				t.Errorf("%s never activated the defence", name)
			}
		})
	}
}

// TestFaultlessRunsBitIdenticalWithFaultLayer pins the oracle discipline: a
// scenario with the zero FaultSpec must be bit-identical to the same scenario
// carrying an explicitly empty spec — the fault layer draws nothing and
// schedules nothing when disabled.
func TestFaultlessRunsBitIdenticalWithFaultLayer(t *testing.T) {
	t.Parallel()
	base := Quick(DefaultScenario())
	with := base
	with.Faults = FaultSpec{LinkFlaps: []LinkFlap{}, RouterCrashes: []RouterCrash{}}

	resBase, err := Run(base)
	if err != nil {
		t.Fatalf("base run: %v", err)
	}
	resWith, err := Run(with)
	if err != nil {
		t.Fatalf("empty-spec run: %v", err)
	}
	if resBase.Counts != resWith.Counts || resBase.EventsProcessed != resWith.EventsProcessed ||
		resBase.Accuracy != resWith.Accuracy {
		t.Fatal("empty fault spec changed the run")
	}
	if resBase.Counts.FaultDrops != 0 {
		t.Fatalf("fault-free run recorded %d fault drops", resBase.Counts.FaultDrops)
	}
}
