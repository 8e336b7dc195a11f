package experiment

import (
	"testing"
)

// TestRunManyParallelAdversarialScenarios drives the parallel sweep path
// over the new adversarial workloads — notably the multi-victim flood, whose
// runs carry the most shared-looking state (extra victim servers, split
// attack targets) — with more workers than scenarios would strictly need.
// Under `go test -race` this is the regression net for data races in
// RunMany; in any mode it pins serial/parallel bit-identity for the catalog.
func TestRunManyParallelAdversarialScenarios(t *testing.T) {
	t.Parallel()
	var scenarios []Scenario
	// The chaos scenarios ride along so fault schedules and the lossy
	// control plane are proven bit-identical between serial and parallel
	// execution too.
	for _, name := range []string{"multi-victim", "multi-victim", "rolling-pulse", "flash-crowd", "multihomed-victim", "transit-stub", "flap-core", "partition-heal", "lossy-control"} {
		e, ok := LookupScenario(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		s := Quick(e.Build())
		s.Seed = int64(len(scenarios) + 1) // distinct seeds, including for the duplicated entry
		scenarios = append(scenarios, s)
	}

	serial, err := RunMany(scenarios, 1)
	if err != nil {
		t.Fatalf("serial RunMany: %v", err)
	}
	parallel, err := RunMany(scenarios, 4)
	if err != nil {
		t.Fatalf("parallel RunMany: %v", err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("result lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Counts != parallel[i].Counts {
			t.Errorf("scenario %d (%s): serial and parallel raw counts differ", i, serial[i].Name)
		}
		if serial[i].EventsProcessed != parallel[i].EventsProcessed {
			t.Errorf("scenario %d (%s): serial and parallel event counts differ", i, serial[i].Name)
		}
		if serial[i].Accuracy != parallel[i].Accuracy {
			t.Errorf("scenario %d (%s): serial and parallel accuracy differ", i, serial[i].Name)
		}
	}
}

// TestRunManyParallelFirstErrorDeterministic checks the failure contract on
// the parallel path: the first error in input order is reported even when a
// later worker fails first in wall-clock time.
func TestRunManyParallelFirstErrorDeterministic(t *testing.T) {
	t.Parallel()
	e, ok := LookupScenario("multi-victim")
	if !ok {
		t.Fatal("multi-victim not registered")
	}
	good := Quick(e.Build())
	bad := good
	bad.Duration = 0 // fails validation
	scenarios := []Scenario{good, bad, good, bad}
	if _, err := RunMany(scenarios, 4); err == nil {
		t.Fatal("RunMany should surface the validation error")
	}
}
