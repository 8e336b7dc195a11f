package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mafic/internal/experiment"
	"mafic/internal/sim"
)

// runJSON drives the CLI with -json and decodes what it printed.
func runJSON(t *testing.T, args ...string) experiment.Result {
	t.Helper()
	var out bytes.Buffer
	if err := run(append(args, "-json", "-series"), &out); err != nil {
		t.Fatalf("maficsim %v: %v", args, err)
	}
	var res experiment.Result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("maficsim %v printed no result JSON: %v", args, err)
	}
	return res
}

// reference runs s in-process and takes the result through the same JSON
// round trip the CLI's output makes.
func reference(t *testing.T, s experiment.Scenario) experiment.Result {
	t.Helper()
	res, err := experiment.Run(s)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back experiment.Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	return back
}

func catalog(t *testing.T, name string) experiment.Scenario {
	t.Helper()
	e, ok := experiment.LookupScenario(name)
	if !ok {
		t.Fatalf("%s not registered", name)
	}
	return e.Build()
}

func TestScenarioQuickMatchesTheLibrary(t *testing.T) {
	want := reference(t, experiment.Quick(catalog(t, "shrew")))
	if got := runJSON(t, "-scenario", "shrew", "-quick"); !reflect.DeepEqual(want, got) {
		t.Errorf("maficsim -scenario shrew -quick differs from experiment.Run(Quick(shrew))")
	}
}

// TestFlagDefaultsApplyOnlyWithoutScenario pins the CLI contract: without
// -scenario every flag applies, defaults included (a 2 s run at seed 1 of the
// Table II scenario); with -scenario the catalog entry keeps every knob the
// user did not set, and the ones they did set override it.
func TestFlagDefaultsApplyOnlyWithoutScenario(t *testing.T) {
	bare := experiment.DefaultScenario()
	bare.Duration = 2 * sim.Second
	bare.Topology.NumRouters = 16
	if got := runJSON(t, "-routers", "16"); !reflect.DeepEqual(reference(t, bare), got) {
		t.Errorf("maficsim -routers 16 is not the default scenario at the flag defaults")
	}

	entry := experiment.Quick(catalog(t, "rate-mix"))
	if entry.Duration == 2*sim.Second && entry.Workload.TotalFlows == 50 && entry.Seed == 1 {
		t.Fatal("quick rate-mix sits at the flag defaults: the test cannot tell them apart")
	}
	if got := runJSON(t, "-scenario", "rate-mix", "-quick"); !reflect.DeepEqual(reference(t, entry), got) {
		t.Errorf("flag defaults leaked into -scenario rate-mix -quick")
	}
	entry.Seed, entry.Workload.TotalFlows, entry.Defense = 9, 24, experiment.DefenseBaseline
	if got := runJSON(t, "-scenario", "rate-mix", "-quick", "-seed", "9", "-flows", "24", "-defense", "proportional"); !reflect.DeepEqual(reference(t, entry), got) {
		t.Errorf("explicit -seed, -flows and -defense did not override the catalog entry")
	}
}

func TestRejections(t *testing.T) {
	for _, tc := range []struct {
		want string
		args []string
	}{
		{"name a scenario", []string{"-quick"}},
		{"unknown scenario", []string{"-scenario", "no-such-scenario"}},
		{"unknown defense", []string{"-defense", "magic"}},
		{"produces no snapshots", []string{"-scenario", "shrew", "-quick", "-checkpoint-every", "2s"}},
		{"not both", []string{"-checkpoint-every", "500ms", "-checkpoint-at", "600ms"}},
		// -resume takes its scenario from the file: a run-shaping flag beside
		// it is refused by name, not ignored.
		{"not with -pd", []string{"-resume", "x.snap", "-pd", "0.5", "-json"}},
		{"not with -checkpoint-at, -quick, -scenario", []string{"-resume", "x.snap", "-scenario", "shrew", "-quick", "-checkpoint-at", "600ms"}},
		{"not with -seed", []string{"-seed", "1", "-resume", "x.snap", "-series"}},
	} {
		var out bytes.Buffer
		if err := run(tc.args, &out); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("maficsim %v returned %v, want an error saying %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("maficsim %v printed a result before refusing", tc.args)
		}
	}
}

func TestCheckpointThenResumeReproducesTheRun(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "ckpt")
	want := runJSON(t, "-scenario", "shrew", "-quick")
	if got := runJSON(t, "-scenario", "shrew", "-quick", "-checkpoint-at", "600ms", "-checkpoint-out", prefix); !reflect.DeepEqual(want, got) {
		t.Errorf("the checkpointed run differs from the plain one")
	}
	if got := runJSON(t, "-resume", prefix+"-600ms.snap"); !reflect.DeepEqual(want, got) {
		t.Errorf("the run resumed from %s-600ms.snap differs from the uninterrupted one", prefix)
	}

	// A 2 s run snapshotted every 800 ms writes t=800ms and t=1600ms.
	if got := runJSON(t, "-scenario", "shrew", "-quick", "-checkpoint-every", "800ms", "-checkpoint-out", prefix); !reflect.DeepEqual(want, got) {
		t.Errorf("the periodically checkpointed run differs from the plain one")
	}
	if snaps, _ := filepath.Glob(prefix + "-*.snap"); len(snaps) != 3 {
		t.Errorf("snapshot files are %v, want the 600ms one and the periodic 800ms and 1600ms", snaps)
	}
	if got := runJSON(t, "-resume", prefix+"-1600ms.snap"); !reflect.DeepEqual(want, got) {
		t.Errorf("the run resumed from %s-1600ms.snap differs from the uninterrupted one", prefix)
	}
}
