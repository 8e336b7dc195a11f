package experiment

import (
	"reflect"
	"sync"
	"testing"

	"mafic/internal/sim"
)

// quickFigureOpts sweeps every figure at quick size around quickScenario.
func quickFigureOpts() SweepOptions {
	base := quickScenario()
	return SweepOptions{Quick: true, Base: &base}
}

// shortFigureOpts sweeps every figure at quick size around parallelTestBase
// cut to 0.9 s, for the tests that generate the set more than once. The
// defence still activates by 0.6 s, after four 100 ms baseline epochs or by
// the fallback, and drops for the last third of every run.
func shortFigureOpts(workers int) SweepOptions {
	base := parallelTestBase()
	base.Duration = 900 * sim.Millisecond
	base.Workload.AttackStart = 400 * sim.Millisecond
	base.DetectionFallback = 200 * sim.Millisecond
	return SweepOptions{Quick: true, Seed: 11, Base: &base, Workers: workers}
}

// shortSet is the whole set at Workers 8 around shortFigureOpts, generated
// once for the two tests that compare against it.
var shortSet struct {
	once sync.Once
	figs []Figure
	err  error
}

func shortFigures(t *testing.T) []Figure {
	t.Helper()
	shortSet.once.Do(func() { shortSet.figs, shortSet.err = GenerateFigures(AllFigureIDs(), shortFigureOpts(8)) })
	if shortSet.err != nil {
		t.Fatalf("GenerateFigures: %v", shortSet.err)
	}
	return shortSet.figs
}

// TestFigurePlanRunsEachScenarioOnce pins how many runs a set of figures
// costs: the figures are projections of a few grids, so five of them share
// one P_d × V_t grid, Figs. 5(b)/6(b) and 5(c)/6(c) share theirs, and
// ablation-pulsing's constant flood (and, at full size, Fig. 4(b)'s Vt=10
// timeline) is ablation-baseline's MAFIC run.
func TestFigurePlanRunsEachScenarioOnce(t *testing.T) {
	t.Parallel()
	runs := func(ids []FigureID, opts SweepOptions) int {
		t.Helper()
		_, runs, err := planFigures(ids, opts)
		if err != nil {
			t.Fatal(err)
		}
		return len(runs)
	}
	volumeFigures := []FigureID{FigureF3a, FigureF4a, FigureF5a, FigureF6a, FigureF7}
	for _, tt := range []struct {
		name string
		ids  []FigureID
		opts SweepOptions
		want int
	}{
		{"all quick", AllFigureIDs(), SweepOptions{Quick: true, Seed: 1}, 63},
		{"all quick around quickScenario", AllFigureIDs(), quickFigureOpts(), 63},
		{"all full", AllFigureIDs(), SweepOptions{Seed: 1}, 121},
		{"P_d x V_t figures quick", volumeFigures, SweepOptions{Quick: true, Seed: 1}, 9},
	} {
		if got := runs(tt.ids, tt.opts); got != tt.want {
			t.Errorf("%s: %d distinct runs, want %d", tt.name, got, tt.want)
		}
	}
}

// TestGenerateMatchesWholeSet checks that a figure generated alone is the
// figure taken out of the whole-set call: sharing runs across figures moves
// no point.
func TestGenerateMatchesWholeSet(t *testing.T) {
	t.Parallel()
	set := shortFigures(t)
	for i, id := range AllFigureIDs() {
		fig, err := Generate(id, shortFigureOpts(0))
		if err != nil {
			t.Fatalf("Generate(%s): %v", id, err)
		}
		if !reflect.DeepEqual(fig, set[i]) {
			t.Errorf("Generate(%s) differs from the whole set's figure:\nalone: %+v\nset:   %+v", id, fig, set[i])
		}
	}
}

// TestSweepSeedAppliesOverBase checks that SweepOptions.Seed is the base seed
// whether or not Base is set.
func TestSweepSeedAppliesOverBase(t *testing.T) {
	t.Parallel()
	b := quickScenario()
	b7 := b
	b7.Seed = 7
	if b.Seed == 7 {
		t.Fatal("setup: quickScenario already has seed 7")
	}
	gen := func(opts SweepOptions) Figure {
		t.Helper()
		fig, err := Generate(FigureF4b, opts)
		if err != nil {
			t.Fatal(err)
		}
		return fig
	}
	seeded := gen(SweepOptions{Base: &b, Seed: 7})
	if !reflect.DeepEqual(seeded, gen(SweepOptions{Base: &b7})) {
		t.Error("{Base: b, Seed: 7} differs from {Base: b with Seed 7}")
	}
	if reflect.DeepEqual(seeded, gen(SweepOptions{Base: &b})) {
		t.Error("Seed 7 over Base is ignored: same figure as the base's own seed")
	}
}
