package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{8, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {5000, 90},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5}} {
		if got := percentile(xs, tc.p); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("percentile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

// TestQuartileMatchesPython pins quartile to statistics.quantiles(xs, n=4).
func TestQuartileMatchesPython(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	four := []float64{1, 2, 3, 4}
	for _, tc := range []struct {
		xs   []float64
		q    int
		want float64
	}{{ten, 1, 2.75}, {ten, 3, 8.25}, {four, 1, 1.25}, {four, 3, 3.75}} {
		if got := quartile(tc.xs, tc.q); got != tc.want {
			t.Errorf("quartile %d of %v = %g, want %g", tc.q, tc.xs, got, tc.want)
		}
	}
	if got := spread([]float64{10, 4, 1, 7, 2, 9, 3, 8, 5, 6}); got != 1 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5", got)
	}
}

// TestBestPerSlot pins the estimator of the timed loop: per slot of the job
// cycle, the lowest value over the admitted passes.
func TestBestPerSlot(t *testing.T) {
	l := loopStats{slots: 3}
	//              pass 0     pass 1     pass 2 (cut short)
	xs := []float64{5, 2, 9 /**/, 4, 3, 7 /**/, 6, 1}
	for _, tc := range []struct {
		name string
		keep func(int) bool
		want []float64
	}{
		{"all executions", nil, []float64{4, 1, 7}},
		// Traced are executions 1 | 3, 5 | 7: slot 1, then slots 0 and 2, ...
		{"traced executions", l.traced, []float64{4, 1, 7}},
		{"untraced executions", func(k int) bool { return !l.traced(k) }, []float64{5, 3, 9}},
		{"none", func(int) bool { return false }, []float64{}},
	} {
		if got := l.best(xs, tc.keep); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: best = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestPaceProbe checks the probe's heap (a run leaves it a heap of the same
// size) and that a run allocates nothing, and logs what a run takes here.
func TestPaceProbe(t *testing.T) {
	p := newPaceProbe()
	lowest := p.run()
	for i := 0; i < 20; i++ {
		lowest = min(lowest, p.run())
	}
	t.Logf("lowest of 21 probe runs: %.4f s (probeNominalS = %.4f s)", lowest, probeNominalS)
	if allocs := testing.AllocsPerRun(3, func() { p.run() }); allocs != 0 {
		t.Errorf("a probe run allocates %v times", allocs)
	}
	if len(p.heap) != probePending {
		t.Fatalf("heap holds %d events, want %d", len(p.heap), probePending)
	}
	for prev := p.pop().t; len(p.heap) > 0; {
		next := p.pop().t
		if next < prev {
			t.Fatalf("heap popped %d after %d", next, prev)
		}
		prev = next
	}
	if got := pace(probeNominalS, probeNominalS); got != 1 {
		t.Errorf("pace at the nominal reading = %g, want 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "job", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "segment", StartNs: 10, EndNs: 40},
		// Overlaps the first child by 10 and runs past its parent by 10.
		{ID: 3, Parent: 1, Name: "save", StartNs: 30, EndNs: 110},
		{ID: 4, Parent: 2, Name: "inner", StartNs: 15, EndNs: 20},
	}
	self := selfNs(spans)
	for id, want := range map[int]int64{1: 10, 2: 25, 3: 80, 4: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	byName := selfByName(append(spans, span{ID: 5, Parent: 0, Name: "job", StartNs: 200, EndNs: 230}))
	if byName["job"] != 40 {
		t.Errorf("self time of job spans = %d, want 40", byName["job"])
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin(0, "x"), 1)
	real := newTracer()
	id := real.begin(0, "x")
	real.end(id, 7)
	if len(real.spans) != 1 || real.spans[0].Count != 7 || real.spans[0].EndNs < real.spans[0].StartNs {
		t.Errorf("unexpected spans %+v", real.spans)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{"some_s", "s", "lower", 0.10}
	higher := metricDef{"some_per_s", "1/s", "higher", 0.10}
	for _, tc := range []struct {
		name          string
		def           metricDef
		base, changed []float64
		want          string
	}{
		{"within bound", lower, []float64{1, 1.01, 0.99, 1}, []float64{1.05, 1.06, 1.04, 1.05}, verdictSame},
		{"slower", lower, []float64{1, 1.01, 0.99, 1}, []float64{1.2, 1.21, 1.19, 1.2}, verdictWorse},
		{"faster", lower, []float64{1, 1.01, 0.99, 1}, []float64{0.8, 0.81, 0.79, 0.8}, verdictBetter},
		{"fewer per second", higher, []float64{10}, []float64{8}, verdictWorse},
		{"more per second", higher, []float64{10}, []float64{12}, verdictBetter},
		{"noisy, overlapping", lower, []float64{0.8, 1, 1.2, 1.4}, []float64{0.9, 1.1, 1.3, 1.5}, verdictUnresolved},
		{"noisy, every run faster", lower, []float64{0.8, 1, 1.2, 1.4}, []float64{0.4, 0.5, 0.6, 0.7}, verdictBetter},
		{"noisy, every run slower", lower, []float64{0.8, 1, 1.2, 1.4}, []float64{1.6, 2, 2.4, 2.8}, verdictWorse},
	} {
		if got := judge(tc.def, tc.base, tc.changed); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// fakeReport is a one-workload report with the given job time.
func fakeReport(jobS float64, failed int, digest string) report {
	set := metricSet{}
	for _, def := range endToEnd {
		set[def.Name] = value{Value: 1, Unit: def.Unit}
	}
	set["job_s_p50"] = value{Value: jobS, Unit: "s"}
	return report{Workloads: []workloadReport{{
		Name: "paper-table2", Jobs: 10, Attempted: 12, Failed: failed,
		FailFrac: float64(failed) / 12, ResultDigest: digest, EndToEnd: set, PeakRSSMode: rssPerJob,
		PerLayer: metricSet{"sim.events_per_job": {Value: 1000, Unit: "count"}},
	}}}
}

func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep report) string {
		path := filepath.Join(dir, name)
		if err := writeReport(path, &rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", fakeReport(1, 0, "aa"))
	same := write("same.json", fakeReport(1.05, 0, "aa"))
	slow := write("slow.json", fakeReport(1.5, 0, "bb"))
	failing := write("failing.json", fakeReport(1, 1, "aa"))

	var out bytes.Buffer
	if err := runCompare(&out, base, same); err != nil {
		t.Errorf("comparison within the bound failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "result_digest        identical") {
		t.Errorf("digests not reported identical:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "1.05/1 s = 1.0500") {
		t.Errorf("ratio is not printed with its base:\n%s", out.String())
	}

	out.Reset()
	if err := runCompare(&out, base, slow); err == nil {
		t.Errorf("a 50%% slower job did not fail the comparison:\n%s", out.String())
	}
	for _, want := range []string{"job_s_p50            worse", "result_digest        differs"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if err := runCompare(&out, base, failing); err == nil {
		t.Errorf("a failed job did not fail the comparison:\n%s", out.String())
	}

	// A process-wide high-water mark is not judged against per-job ones.
	other := fakeReport(1, 0, "aa")
	other.Workloads[0].PeakRSSMode = rssProcess
	out.Reset()
	if err := runCompare(&out, base, write("other.json", other)); err != nil {
		t.Errorf("mixed peak_rss_mode failed the comparison: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "peak_rss_mb          unresolved") {
		t.Errorf("mixed peak_rss_mode not reported unresolved:\n%s", out.String())
	}

	// Two sets of runs: the medians decide.
	out.Reset()
	if err := runCompare(&out, base+","+same, same+","+base); err != nil {
		t.Errorf("two equal sets compared unequal: %v\n%s", err, out.String())
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return decl
}

// TestBenchmarkJSONMatchesCode keeps the declaration at the repository root
// and the tables in this package naming the same workloads and metrics.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	decl := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if got := strings.Join(decl.Command, " "); got != "go run ./benchmark" {
		t.Errorf("command = %q", got)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", decl.Paths)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", decl.RunSeconds)
	}

	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		d := decl.Workloads[i]
		if d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q breaks the declaration's limits", w.name)
		}
	}

	seen := make(map[string]bool)
	checkDef := func(def metricDef) {
		if !nameRE.MatchString(def.Name) || !unitRE.MatchString(def.Unit) {
			t.Errorf("metric %q (%q) breaks the declaration's limits", def.Name, def.Unit)
		}
		if def.Better != "lower" && def.Better != "higher" {
			t.Errorf("metric %q: better = %q", def.Name, def.Better)
		}
		if seen[def.Name] {
			t.Errorf("metric %q is declared twice", def.Name)
		}
		seen[def.Name] = true
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the code has %d", len(decl.EndToEnd), len(endToEnd))
	}
	for i, def := range endToEnd {
		checkDef(def)
		d := decl.EndToEnd[i]
		if d.Bound == nil {
			t.Fatalf("end-to-end metric %q has no bound", d.Name)
		}
		if got := (metricDef{d.Name, d.Unit, d.Better, *d.Bound}); got != def {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, got, def)
		}
		if def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("metric %q: bound %g outside (0, 0.25]", def.Name, def.Bound)
		}
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the code has %d", len(decl.PerLayer), len(perLayer))
	}
	for i, def := range perLayer {
		checkDef(def)
		d := decl.PerLayer[i]
		if got := (metricDef{d.Name, d.Unit, d.Better, 0}); got != def {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, got, def)
		}
	}
	for name := range exactCounts {
		if !seen[name] {
			t.Errorf("exact count %q is not a declared metric", name)
		}
	}
}

// TestSmoke runs every workload, scaled down, untraced and traced, and
// requires every declared metric exactly once per workload with its unit,
// every job correct, and the spans of a traced run on disk.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	decl := readBenchmarkJSON(t)
	for i := range workloads {
		w := &workloads[i]
		// The engine's pools are mutex-guarded, so workloads may share the
		// process; two at a time is what the reference host has cores for.
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			tmp := t.TempDir()
			for _, traced := range []bool{false, true} {
				smokeRun(t, decl, w, tmp, traced)
			}
			left, err := os.ReadDir(tmp)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range left {
				if e.IsDir() {
					t.Errorf("temporary store %s was left behind", e.Name())
				}
			}
		})
	}
}

func smokeRun(t *testing.T, decl benchmarkJSON, w *workload, tmp string, traced bool) {
	cfg := runConfig{w: w, seed: 1, jobs: 1, traced: traced, tmp: tmp, quick: true}
	if traced {
		cfg.spans = filepath.Join(tmp, w.name+".spans.json")
	}
	t0 := time.Now()
	rep, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("%s (traced %v): %v", w.name, traced, err)
	}
	t.Logf("%s (traced %v): %d jobs in %.1f s", w.name, traced, rep.Attempted, time.Since(t0).Seconds())
	if rep.Failed != 0 || rep.Attempted < 3 || rep.ResultDigest == "" {
		t.Errorf("%s (traced %v): %d of %d jobs failed: %v", w.name, traced, rep.Failed, rep.Attempted, rep.Failures)
	}
	got, other := rep.EndToEnd, rep.PerLayer
	want := map[string]string{}
	for _, d := range decl.EndToEnd {
		want[d.Name] = d.Unit
	}
	if traced {
		got, other = rep.PerLayer, rep.EndToEnd
		want = map[string]string{}
		for _, d := range decl.PerLayer {
			want[d.Name] = d.Unit
		}
	}
	if other != nil {
		t.Errorf("%s (traced %v): both metric sets emitted", w.name, traced)
	}
	if len(got) != len(want) {
		t.Errorf("%s (traced %v): %d metrics emitted, %d declared", w.name, traced, len(got), len(want))
	}
	for name, unit := range want {
		v, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", w.name, name)
		} else if v.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, declared %q", w.name, name, v.Unit, unit)
		}
		if !traced && v.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %g", w.name, name, v.Value)
		}
	}
	if traced {
		var spans []span
		if err := readJSON(cfg.spans, &spans); err != nil {
			t.Fatal(err)
		}
		names := make(map[string]bool)
		for _, s := range spans {
			names[s.Name] = true
		}
		for _, name := range []string{"workload", "job", "job.checkpointed", "sim.hold_p1e3", "netsim.hop"} {
			if !names[name] {
				t.Errorf("%s: no %q span recorded", w.name, name)
			}
		}
	}
}
