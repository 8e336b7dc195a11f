package experiment

import (
	"reflect"
	"testing"

	"mafic/internal/sim"
)

// parallelTestBase is a scaled-down scenario so determinism tests stay fast.
func parallelTestBase() Scenario {
	s := DefaultScenario()
	s.Topology.NumRouters = 12
	s.Topology.BystanderHosts = 4
	s.Workload.TotalFlows = 16
	s.Duration = 1200 * sim.Millisecond
	s.Workload.AttackStart = 500 * sim.Millisecond
	s.DetectionFallback = 300 * sim.Millisecond
	return s
}

// TestRunManySerialParallelIdentical is the determinism contract of the sweep
// worker pool: for a fixed seed, running the same scenarios serially and
// across workers must produce byte-identical results in the same order.
func TestRunManySerialParallelIdentical(t *testing.T) {
	t.Parallel()
	var scenarios []Scenario
	for i, flows := range []int{8, 12, 16, 20} {
		s := parallelTestBase()
		s.Workload.TotalFlows = flows
		s.Seed = int64(100 + i)
		scenarios = append(scenarios, s)
	}

	serial, err := RunMany(scenarios, 1)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	parallel, err := RunMany(scenarios, 4)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("result count differs: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("result %d (%s) differs between serial and parallel runs:\nserial:   %+v\nparallel: %+v",
				i, scenarios[i].Name, serial[i], parallel[i])
		}
	}
}

// TestFigureSerialParallelIdentical checks the same property end-to-end
// through the whole figure set.
func TestFigureSerialParallelIdentical(t *testing.T) {
	t.Parallel()
	serial, err := GenerateFigures(AllFigureIDs(), shortFigureOpts(1))
	if err != nil {
		t.Fatalf("serial figures: %v", err)
	}
	parallel := shortFigures(t)
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("figure %s differs between serial and parallel sweeps:\nserial:   %+v\nparallel: %+v",
				serial[i].ID, serial[i], parallel[i])
		}
	}
}
