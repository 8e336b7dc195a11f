package experiment

import (
	"errors"
	"reflect"
	"testing"
)

func TestSearchGridEnumerationDeterministic(t *testing.T) {
	t.Parallel()
	spec := DefaultSearchSpec()
	grid := spec.Grid()
	perFault := len(spec.Shapes) * len(spec.RateMixes) * len(spec.VictimSpreads)
	if want := len(spec.FaultShapes) * perFault; len(grid) != want {
		t.Fatalf("grid has %d points, want %d", len(grid), want)
	}
	// Nested order: fault shapes outermost, then attack shapes, mixes and
	// spreads — and Index must equal the enumeration position, because it
	// offsets the seed.
	for i, p := range grid {
		if p.Index != i {
			t.Fatalf("point %d carries index %d", i, p.Index)
		}
		fi := i / perFault
		si := i / (len(spec.RateMixes) * len(spec.VictimSpreads)) % len(spec.Shapes)
		mi := i / len(spec.VictimSpreads) % len(spec.RateMixes)
		vi := i % len(spec.VictimSpreads)
		if p.Fault.Name != spec.FaultShapes[fi].Name ||
			p.Shape.Name != spec.Shapes[si].Name || p.Mix.Name != spec.RateMixes[mi].Name ||
			p.Spread != spec.VictimSpreads[vi] {
			t.Fatalf("point %d out of order: %s/%s/%s/%v", i, p.Fault.Name, p.Shape.Name, p.Mix.Name, p.Spread)
		}
	}
	// An unset fault axis behaves as a single fault-free environment, so
	// pre-fault specs keep their historical point order and seeds.
	spec.FaultShapes = nil
	if got := len(spec.Grid()); got != perFault {
		t.Fatalf("fault-free grid has %d points, want %d", got, perFault)
	}
	for _, p := range spec.Grid() {
		if f := p.Fault.Faults; p.Fault.Name != "none" || len(f.LinkFlaps) > 0 || len(f.RouterCrashes) > 0 || f.ReportLoss > 0 || f.ReportDelayProb > 0 {
			t.Fatalf("point %d in a fault-free grid carries fault %q", p.Index, p.Fault.Name)
		}
	}
}

// TestSearchPointScenarioSeeding checks every point of the default grid, under
// each defence, full and quick: seeded from the spec's seed and valid.
func TestSearchPointScenarioSeeding(t *testing.T) {
	t.Parallel()
	spec := DefaultSearchSpec()
	spec.Seed = 42
	for _, p := range spec.Grid() {
		for _, def := range spec.Defences {
			for _, quick := range []bool{false, true} {
				s := spec.scenario(def, p, quick)
				if s.Seed != spec.Seed+int64(p.Index) {
					t.Fatalf("point %d seeded %d, want %d", p.Index, s.Seed, spec.Seed+int64(p.Index))
				}
				if err := s.Validate(); err != nil {
					t.Fatalf("point %d (%s, quick %v) scenario invalid: %v", p.Index, def.Name, quick, err)
				}
			}
		}
	}
}

// TestSearchSerialParallelIdentical is the harness's core determinism claim:
// the same spec and seed produce a bit-identical report whether the grid runs
// on one worker or many — so a worst case found on a laptop reproduces on CI.
func TestSearchSerialParallelIdentical(t *testing.T) {
	t.Parallel()
	spec := QuickSearchSpec()
	opts := SearchOptions{Quick: true}

	opts.Workers = 1
	serial, err := Search(spec, opts)
	if err != nil {
		t.Fatalf("serial search: %v", err)
	}
	opts.Workers = 4
	parallel, err := Search(spec, opts)
	if err != nil {
		t.Fatalf("parallel search: %v", err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("serial and parallel search reports diverge")
	}

	// Same seed, second run: same report, same worst case.
	again, err := Search(spec, SearchOptions{Quick: true})
	if err != nil {
		t.Fatalf("repeat search: %v", err)
	}
	if !reflect.DeepEqual(serial, again) {
		t.Fatal("repeated search with the same seed diverges")
	}
	for i := range serial.Defences {
		if serial.Defences[i].WorstAccuracy.Name != again.Defences[i].WorstAccuracy.Name {
			t.Fatalf("defence %q worst case moved between identical runs",
				serial.Defences[i].Defence)
		}
	}
}

func TestSearchReportShape(t *testing.T) {
	t.Parallel()
	spec := QuickSearchSpec()
	report, err := Search(spec, SearchOptions{Quick: true})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if report.GridSize != len(spec.Grid()) {
		t.Fatalf("grid size %d, want %d", report.GridSize, len(spec.Grid()))
	}
	if len(report.Defences) != len(spec.Defences) {
		t.Fatalf("defences %d, want %d", len(report.Defences), len(spec.Defences))
	}
	for _, d := range report.Defences {
		if len(d.Points) != report.GridSize {
			t.Fatalf("defence %q has %d points, want %d", d.Defence, len(d.Points), report.GridSize)
		}
		worstSeen := false
		for _, p := range d.Points {
			if p.Accuracy < 0 || p.Accuracy > 1 {
				t.Fatalf("point %q accuracy %v outside [0,1]", p.Name, p.Accuracy)
			}
			if p == d.WorstAccuracy {
				worstSeen = true
			}
		}
		if !worstSeen {
			t.Fatalf("defence %q worst-accuracy point is not one of its grid points", d.Defence)
		}
		if d.MeanAccuracy < d.WorstAccuracy.Accuracy {
			t.Fatalf("defence %q mean %v below worst %v", d.Defence, d.MeanAccuracy, d.WorstAccuracy.Accuracy)
		}
		if len(d.ByFault) != len(spec.FaultShapes) {
			t.Fatalf("defence %q has %d fault outcomes, want %d", d.Defence, len(d.ByFault), len(spec.FaultShapes))
		}
		for i, f := range d.ByFault {
			if f.Fault != spec.FaultShapes[i].Name {
				t.Fatalf("fault outcome %d is %q, want %q", i, f.Fault, spec.FaultShapes[i].Name)
			}
			if f.WorstAccuracy.Fault != f.Fault {
				t.Fatalf("fault %q worst case comes from fault %q", f.Fault, f.WorstAccuracy.Fault)
			}
			if f.MeanAccuracy < f.WorstAccuracy.Accuracy {
				t.Fatalf("fault %q mean %v below worst %v", f.Fault, f.MeanAccuracy, f.WorstAccuracy.Accuracy)
			}
		}
	}
}

func TestSearchRejectsDegenerateSpecs(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name   string
		mutate func(*SearchSpec)
	}{
		{"no shapes", func(s *SearchSpec) { s.Shapes = nil }},
		{"no rate mixes", func(s *SearchSpec) { s.RateMixes = nil }},
		{"no victim spreads", func(s *SearchSpec) { s.VictimSpreads = nil }},
		{"no defences", func(s *SearchSpec) { s.Defences = nil }},
		{"invalid base", func(s *SearchSpec) { s.Base.Workload.TotalFlows = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec := QuickSearchSpec()
			tt.mutate(&spec)
			if _, err := Search(spec, SearchOptions{Quick: true}); !errors.Is(err, ErrScenario) {
				t.Fatalf("want ErrScenario, got %v", err)
			}
		})
	}
}
