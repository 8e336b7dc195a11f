package experiment

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden rewrites the pinned fixtures instead of comparing against
// them: `go test ./internal/experiment -run TestGoldenScenarios -update`.
// Re-pin deliberately, in the PR that intentionally changes scenario
// behaviour, never to silence a diff you cannot explain.
var updateGolden = flag.Bool("update", false, "rewrite the golden scenario fixtures in testdata/")

// goldenMetrics is the subset of Result each fixture pins. Raw counters and
// the bandwidth series are deliberately excluded: they shift with any engine
// change, while these headline numbers are what the paper reports and what a
// refactor must not silently move.
type goldenMetrics struct {
	Name                string  `json:"name"`
	Seed                int64   `json:"seed"`
	Activated           bool    `json:"activated"`
	DetectedByPushback  bool    `json:"detectedByPushback"`
	ATRCount            int     `json:"atrCount"`
	ActivationSeconds   float64 `json:"activationSeconds"`
	Accuracy            float64 `json:"accuracy"`
	FalsePositiveRate   float64 `json:"falsePositiveRate"`
	FalseNegativeRate   float64 `json:"falseNegativeRate"`
	LegitimateDropRate  float64 `json:"legitimateDropRate"`
	TrafficReduction    float64 `json:"trafficReduction"`
	FlowsProbed         int     `json:"flowsProbed"`
	LegitFlowsCondemned int     `json:"legitFlowsCondemned"`
	AttackFlowsForgiven int     `json:"attackFlowsForgiven"`
	EventsProcessed     uint64  `json:"eventsProcessed"`
}

func goldenFromResult(seed int64, res Result) goldenMetrics {
	return goldenMetrics{
		Name:                res.Name,
		Seed:                seed,
		Activated:           res.Activated,
		DetectedByPushback:  res.DetectedByPushback,
		ATRCount:            res.ATRCount,
		ActivationSeconds:   res.ActivationSeconds,
		Accuracy:            res.Accuracy,
		FalsePositiveRate:   res.FalsePositiveRate,
		FalseNegativeRate:   res.FalseNegativeRate,
		LegitimateDropRate:  res.LegitimateDropRate,
		TrafficReduction:    res.TrafficReduction,
		FlowsProbed:         res.FlowsProbed,
		LegitFlowsCondemned: res.LegitFlowsCondemned,
		AttackFlowsForgiven: res.AttackFlowsForgiven,
		EventsProcessed:     res.EventsProcessed,
	}
}

// Comparison tolerances. A fixed-seed run is bit-reproducible on the same
// code, so the tolerances only need to absorb benign engine changes (event
// ordering, float summation order), not hide real regressions.
const (
	rateTol       = 0.02 // absolute, on metrics that are fractions in [0,1]
	activationTol = 0.06 // seconds; one monitor epoch of slack
	eventsRelTol  = 0.01 // relative, on the processed-event count: an event per hop more is +90%
)

// intTol allows small flow-count drift: ±2 flows or 25%, whichever is larger.
func intTol(golden int) int {
	tol := golden / 4
	if tol < 2 {
		tol = 2
	}
	return tol
}

func checkRate(t *testing.T, metric string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > rateTol {
		t.Errorf("%s = %.4f, golden %.4f (tolerance %.2f)", metric, got, want, rateTol)
	}
}

func checkCount(t *testing.T, metric string, got, want int) {
	t.Helper()
	if d := got - want; d > intTol(want) || -d > intTol(want) {
		t.Errorf("%s = %d, golden %d (tolerance %d)", metric, got, want, intTol(want))
	}
}

// TestGoldenScenarios re-runs every registered scenario in quick mode with
// its pinned seed and compares the paper's headline metrics against the
// committed fixtures, so engine refactors cannot silently shift the numbers.
func TestGoldenScenarios(t *testing.T) {
	t.Parallel()
	for _, e := range Entries() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			s := Quick(e.Build())
			res, err := Run(s)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			got := goldenFromResult(s.Seed, res)
			path := filepath.Join("testdata", e.Name+".golden.json")

			if *updateGolden {
				data, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", path)
				return
			}

			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (generate with `go test -run TestGoldenScenarios -update`): %v", err)
			}
			var want goldenMetrics
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("corrupt fixture %s: %v", path, err)
			}

			if want.Seed != s.Seed {
				t.Fatalf("fixture pinned seed %d but scenario uses %d", want.Seed, s.Seed)
			}
			if got.Activated != want.Activated {
				t.Errorf("Activated = %v, golden %v", got.Activated, want.Activated)
			}
			if got.DetectedByPushback != want.DetectedByPushback {
				t.Errorf("DetectedByPushback = %v, golden %v", got.DetectedByPushback, want.DetectedByPushback)
			}
			if got.ATRCount != want.ATRCount {
				t.Errorf("ATRCount = %d, golden %d", got.ATRCount, want.ATRCount)
			}
			if math.Abs(got.ActivationSeconds-want.ActivationSeconds) > activationTol {
				t.Errorf("ActivationSeconds = %.3f, golden %.3f (tolerance %.2f)",
					got.ActivationSeconds, want.ActivationSeconds, activationTol)
			}
			checkRate(t, "Accuracy", got.Accuracy, want.Accuracy)
			checkRate(t, "FalsePositiveRate", got.FalsePositiveRate, want.FalsePositiveRate)
			checkRate(t, "FalseNegativeRate", got.FalseNegativeRate, want.FalseNegativeRate)
			checkRate(t, "LegitimateDropRate", got.LegitimateDropRate, want.LegitimateDropRate)
			checkRate(t, "TrafficReduction", got.TrafficReduction, want.TrafficReduction)
			checkCount(t, "FlowsProbed", got.FlowsProbed, want.FlowsProbed)
			checkCount(t, "LegitFlowsCondemned", got.LegitFlowsCondemned, want.LegitFlowsCondemned)
			checkCount(t, "AttackFlowsForgiven", got.AttackFlowsForgiven, want.AttackFlowsForgiven)
			if want.EventsProcessed > 0 {
				rel := math.Abs(float64(got.EventsProcessed)-float64(want.EventsProcessed)) / float64(want.EventsProcessed)
				if rel > eventsRelTol {
					t.Errorf("EventsProcessed = %d, golden %d (drift %.1f%% > %.0f%%)",
						got.EventsProcessed, want.EventsProcessed, rel*100, eventsRelTol*100)
				}
			}
		})
	}
}

// TestGoldenFixturesCoverCatalog fails when a scenario is registered without
// a fixture or a fixture is left behind after a scenario is renamed.
func TestGoldenFixturesCoverCatalog(t *testing.T) {
	t.Parallel()
	if *updateGolden {
		t.Skip("updating fixtures")
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	onDisk := map[string]bool{}
	for _, f := range files {
		name := filepath.Base(f)
		onDisk[name[:len(name)-len(".golden.json")]] = true
	}
	for _, e := range Entries() {
		name := e.Name
		if !onDisk[name] {
			t.Errorf("scenario %q has no golden fixture", name)
		}
		delete(onDisk, name)
	}
	for name := range onDisk {
		t.Errorf("fixture %q matches no registered scenario", name)
	}
	if len(files) == 0 {
		t.Fatal("no fixtures in testdata/ — generate with `go test -run TestGoldenScenarios -update`")
	}
}
