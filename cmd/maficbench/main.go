// Command maficbench measures the simulation engine's throughput and
// allocation behaviour and emits the results as JSON, one record per
// benchmark, mirroring the figure benchmarks in bench_test.go.
//
// It exists so the performance trajectory of the engine is tracked across
// PRs: BENCH_baseline.json at the repository root was produced by this tool
// and records the reference numbers future changes are compared against.
//
//	go run ./cmd/maficbench -out BENCH_current.json
//	go run ./cmd/maficbench -benchmarks table2,fig3a
//
// Each record reports B/op and allocs/op exactly as
// `go test -bench=. -benchmem` would, because the tool drives the same code
// through testing.Benchmark. ns/op is the median of -samples process-CPU-time
// measurements of the same loop (see BenchResult.NsPerOp): wall-clock on a
// shared host flaps ±15–30% on identical code from CPU the host steals, and
// a regression gate needs a measurement that holds still.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"testing"

	"mafic/internal/experiment"
	"mafic/internal/sim"
)

// BenchResult is one benchmark's measurement in the emitted JSON. Route
// stats are reported for single-scenario benchmarks: demand-driven routing
// materializes next-hop state per active destination, so the resident entry
// count and bytes are a tracked property of each scenario, not a constant of
// the domain size.
type BenchResult struct {
	Name       string `json:"name"`
	Iterations int    `json:"iterations"`
	// NsPerOp is the median across the run's samples (see -samples) of
	// *process CPU time* per op, not wall-clock: time the host steals from
	// the process (noisy neighbours, cgroup throttling) inflates wall-clock
	// by ±15–30% on identical code but never shows up as CPU consumed, so
	// CPU time is the measurement a regression gate can hold still on. On a
	// quiet single-core host the two are equal; parallel sweep benchmarks
	// report total work across workers rather than elapsed time. Samples
	// records how many samples went into the median.
	NsPerOp      float64 `json:"nsPerOp"`
	Samples      int     `json:"samples,omitempty"`
	BytesPerOp   int64   `json:"bytesPerOp"`
	AllocsPerOp  int64   `json:"allocsPerOp"`
	RouteEntries int     `json:"routeEntries,omitempty"`
	RouteBytes   int64   `json:"routeBytes,omitempty"`
}

// BenchReport is the full emitted document.
type BenchReport struct {
	GoVersion string        `json:"goVersion"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	NumCPU    int           `json:"numCPU"`
	Results   []BenchResult `json:"results"`
}

// benchScenario mirrors benchBase in bench_test.go: the full pipeline on a
// smaller domain and a shorter timeline.
func benchScenario() experiment.Scenario {
	s := experiment.DefaultScenario()
	s.Topology.NumRouters = 20
	s.Topology.ExtraChords = 5
	s.Topology.BystanderHosts = 8
	s.Workload.TotalFlows = 30
	s.Duration = 1800 * sim.Millisecond
	s.Workload.AttackStart = 600 * sim.Millisecond
	s.DetectionFallback = 300 * sim.Millisecond
	return s
}

func benchOpts() experiment.SweepOptions {
	base := benchScenario()
	return experiment.SweepOptions{Quick: true, Seed: 1, Base: &base}
}

// benchEntry is one tracked benchmark. fn drives the workload through
// testing.Benchmark for the deterministic counters (allocs/op, B/op) and
// iteration calibration; prep performs the same setup and untimed warm-up
// once and returns the bare measured loop, which the main loop times with
// process CPU time for the ns/op samples. Scenario benchmarks carry a
// lastRun slot the loops fill, so the emitted record can report the run's
// resident route state without re-running the scenario.
type benchEntry struct {
	name    string
	fn      func(b *testing.B)
	prep    func() (func(n int) error, error)
	lastRun *experiment.Result
}

// cpuTimeNs reports the process's cumulative CPU time (user + system) in
// nanoseconds. Unlike wall-clock it is unaffected by CPU the host steals
// from the process, which is what makes the ns/op gate stable on shared
// machines.
func cpuTimeNs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec)*1e9 +
		float64(ru.Utime.Usec+ru.Stime.Usec)*1e3
}

// scenarioLoop runs n build-measure-defend iterations of an already warmed-up
// scenario, recording the final Result for route-stat reporting.
func scenarioLoop(s experiment.Scenario, last *experiment.Result) func(n int) error {
	return func(n int) error {
		for i := 0; i < n; i++ {
			res, err := experiment.Run(s)
			if err != nil {
				return err
			}
			if !res.Activated {
				return fmt.Errorf("defense never activated")
			}
			*last = res
		}
		return nil
	}
}

// scenarioBench builds a benchmark that runs one scenario per iteration. One
// untimed warm-up run precedes the measured loop so B/op and allocs/op
// report the pooled steady state instead of a cold-start cost amortized over
// an iteration count that varies run to run.
func scenarioBench(build func() (experiment.Scenario, error), last *experiment.Result) func(b *testing.B) {
	return func(b *testing.B) {
		s, err := build()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := experiment.Run(s); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		if err := scenarioLoop(s, last)(b.N); err != nil {
			b.Fatal(err)
		}
	}
}

// scenarioPrep mirrors scenarioBench's setup and warm-up and hands back the
// bare measured loop for CPU-time sampling.
func scenarioPrep(build func() (experiment.Scenario, error), last *experiment.Result) func() (func(n int) error, error) {
	return func() (func(n int) error, error) {
		s, err := build()
		if err != nil {
			return nil, err
		}
		if _, err := experiment.Run(s); err != nil {
			return nil, err
		}
		return scenarioLoop(s, last), nil
	}
}

// registryQuick resolves a registered scenario's quick variant.
func registryQuick(name string) func() (experiment.Scenario, error) {
	return experiment.Overrides{Scenario: name, Quick: true}.Build
}

// benchmarks enumerates every tracked benchmark by short name.
var benchmarks = func() []benchEntry {
	entries := []benchEntry{
		newScenarioEntry("table2", func() (experiment.Scenario, error) { return benchScenario(), nil }),
		newScenarioEntry("stress-1k", registryQuick("stress-1k")),
		newScenarioEntry("stress-5k", registryQuick("stress-5k")),
		newScenarioEntry("stress-50k", registryQuick("stress-50k")),
	}
	for _, fig := range []struct {
		name string
		id   experiment.FigureID
	}{
		{"fig3a", experiment.FigureF3a},
		{"fig3b", experiment.FigureF3b},
		{"fig4a", experiment.FigureF4a},
		{"fig4b", experiment.FigureF4b},
		{"fig5a", experiment.FigureF5a},
		{"fig5b", experiment.FigureF5b},
		{"fig5c", experiment.FigureF5c},
		{"fig6a", experiment.FigureF6a},
		{"fig6b", experiment.FigureF6b},
		{"fig6c", experiment.FigureF6c},
		{"fig7", experiment.FigureF7},
		{"ablation-baseline", experiment.FigureAblationBase},
		{"ablation-probe", experiment.FigureAblationProbe},
		{"ablation-pulsing", experiment.FigureAblationPulsing},
	} {
		entries = append(entries, benchEntry{name: fig.name, fn: figureBench(fig.id), prep: figurePrep(fig.id)})
	}
	return entries
}()

func newScenarioEntry(name string, build func() (experiment.Scenario, error)) benchEntry {
	last := new(experiment.Result)
	return benchEntry{
		name:    name,
		fn:      scenarioBench(build, last),
		prep:    scenarioPrep(build, last),
		lastRun: last,
	}
}

// figureLoop runs n regenerations of one figure's sweep.
func figureLoop(id experiment.FigureID) func(n int) error {
	return func(n int) error {
		for i := 0; i < n; i++ {
			fig, err := experiment.Generate(id, benchOpts())
			if err != nil {
				return fmt.Errorf("figure %s: %w", id, err)
			}
			if len(fig.Series) == 0 {
				return fmt.Errorf("figure %s produced no series", id)
			}
		}
		return nil
	}
}

func figureBench(id experiment.FigureID) func(b *testing.B) {
	return func(b *testing.B) {
		// Untimed warm-up, as in scenarioBench: measure pooled steady
		// state, not amortized cold-start.
		if _, err := experiment.Generate(id, benchOpts()); err != nil {
			b.Fatalf("figure %s: %v", id, err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		if err := figureLoop(id)(b.N); err != nil {
			b.Fatal(err)
		}
	}
}

// figurePrep warms the figure sweep up and hands back the measured loop.
func figurePrep(id experiment.FigureID) func() (func(n int) error, error) {
	return func() (func(n int) error, error) {
		if _, err := experiment.Generate(id, benchOpts()); err != nil {
			return nil, fmt.Errorf("figure %s: %w", id, err)
		}
		return figureLoop(id), nil
	}
}

// allocTolerance is the fixed gate for allocs/op and B/op: both are exactly
// reproducible run to run (the engine's steady state is deterministic), so
// they stay on the strict 10% gate regardless of the -tolerance flag, which
// governs only the noisy wall-clock dimension.
const allocTolerance = 0.10

// compareAgainst checks the freshly measured report against a tracked
// baseline and returns the number of regressions: benchmarks whose median
// ns/op exceeds the baseline by more than nsTolerance (a fraction, e.g. 0.10
// for 10%), or whose allocs/op or B/op exceed it by more than the fixed
// allocTolerance. Benchmarks missing from the baseline (newly added) are
// reported but never count as regressions; benchmarks present only in the
// baseline are flagged so silent coverage loss is visible.
func compareAgainst(baselinePath string, report BenchReport, nsTolerance float64) (int, error) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return 0, fmt.Errorf("read baseline: %w", err)
	}
	var baseline BenchReport
	if err := json.Unmarshal(data, &baseline); err != nil {
		return 0, fmt.Errorf("parse baseline %s: %w", baselinePath, err)
	}
	base := make(map[string]BenchResult, len(baseline.Results))
	for _, r := range baseline.Results {
		base[r.Name] = r
	}

	// ratioDelta is the fractional growth of got over base, treating a
	// zero baseline as regressed only when the measurement became nonzero.
	ratioDelta := func(got, base int64) float64 {
		if base > 0 {
			return float64(got)/float64(base) - 1
		}
		if got > 0 {
			return 1
		}
		return 0
	}

	regressions := 0
	seen := make(map[string]bool, len(report.Results))
	fmt.Fprintf(os.Stderr, "%-20s %14s %14s %9s %12s %12s %9s %12s %12s %9s\n",
		"benchmark", "base ns/op", "ns/op", "Δ", "base allocs", "allocs", "Δ", "base B/op", "B/op", "Δ")
	for _, r := range report.Results {
		seen[r.Name] = true
		b, ok := base[r.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "%-20s %14s %14.0f %9s %12s %12d %9s %12s %12d %9s  (new, no baseline)\n",
				r.Name, "-", r.NsPerOp, "-", "-", r.AllocsPerOp, "-", "-", r.BytesPerOp, "-")
			continue
		}
		nsDelta := r.NsPerOp/b.NsPerOp - 1
		allocDelta := ratioDelta(r.AllocsPerOp, b.AllocsPerOp)
		bytesDelta := ratioDelta(r.BytesPerOp, b.BytesPerOp)
		verdict := ""
		if nsDelta > nsTolerance || allocDelta > allocTolerance || bytesDelta > allocTolerance {
			verdict = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(os.Stderr, "%-20s %14.0f %14.0f %+8.1f%% %12d %12d %+8.1f%% %12d %12d %+8.1f%%%s\n",
			r.Name, b.NsPerOp, r.NsPerOp, nsDelta*100, b.AllocsPerOp, r.AllocsPerOp, allocDelta*100,
			b.BytesPerOp, r.BytesPerOp, bytesDelta*100, verdict)
	}
	for _, b := range baseline.Results {
		if !seen[b.Name] {
			fmt.Fprintf(os.Stderr, "%-20s: present in baseline but not measured\n", b.Name)
		}
	}
	return regressions, nil
}

// median returns the middle of the sorted samples (the mean of the middle
// two for even counts). The input is sorted in place.
func median(samples []float64) float64 {
	sort.Float64s(samples)
	n := len(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

// main defers to run so the profile writers run before the process exits
// (os.Exit would skip them).
func main() { os.Exit(run()) }

func run() int {
	out := flag.String("out", "", "write the JSON report to this file instead of stdout")
	only := flag.String("benchmarks", "", "comma-separated benchmark names to run (default: all)")
	diff := flag.String("diff", "", "compare against this baseline JSON and exit non-zero on regression")
	tolerance := flag.Float64("tolerance", 0.10, "with -diff: allowed fractional growth in median ns/op (allocs/op and B/op always use the strict 10% gate)")
	samples := flag.Int("samples", 3, "wall-clock samples per benchmark; the reported ns/op is their median")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark runs to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile of the benchmark runs to this file")
	flag.Parse()

	if *memprofile != "" {
		// Record every allocation, not one per half-megabyte: the hot
		// paths at stake allocate a few hundred small objects per run,
		// which the default sampling rate would mostly miss.
		runtime.MemProfileRate = 1
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "maficbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush outstanding allocations into the profile
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "maficbench: write alloc profile:", err)
			}
		}()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "maficbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "maficbench: start cpu profile:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	known := map[string]bool{}
	for _, bm := range benchmarks {
		known[bm.name] = true
	}
	selected := map[string]bool{}
	for _, name := range strings.Split(*only, ",") {
		if name = strings.TrimSpace(name); name != "" {
			if !known[name] {
				fmt.Fprintf(os.Stderr, "maficbench: unknown benchmark %q (known: table2, stress-1k, stress-5k, stress-50k, fig3a..fig7, ablation-*)\n", name)
				return 2
			}
			selected[name] = true
		}
	}

	report := BenchReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	for _, bm := range benchmarks {
		if len(selected) > 0 && !selected[bm.name] {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %s...\n", bm.name)
		n := *samples
		if n < 1 {
			n = 1
		}
		// One testing.Benchmark run supplies the deterministic counters
		// (allocs/op, B/op) and calibrates the per-sample iteration count;
		// the ns/op samples are then taken median-of-N over the bare
		// measured loop timed with process CPU time, which host CPU-steal
		// cannot inflate the way it inflates wall-clock.
		r := testing.Benchmark(bm.fn)
		loop, err := bm.prep()
		if err != nil {
			fmt.Fprintf(os.Stderr, "maficbench: %s: %v\n", bm.name, err)
			return 1
		}
		nsSamples := make([]float64, 0, n)
		for s := 0; s < n; s++ {
			start := cpuTimeNs()
			if err := loop(r.N); err != nil {
				fmt.Fprintf(os.Stderr, "maficbench: %s: %v\n", bm.name, err)
				return 1
			}
			nsSamples = append(nsSamples, (cpuTimeNs()-start)/float64(r.N))
		}
		res := BenchResult{
			Name:        bm.name,
			Iterations:  r.N,
			NsPerOp:     median(nsSamples),
			Samples:     n,
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if bm.lastRun != nil && bm.lastRun.Routers > 0 {
			res.RouteEntries = bm.lastRun.RouteEntries
			res.RouteBytes = bm.lastRun.RouteBytes
			fmt.Fprintf(os.Stderr, "  route state: %d entries, %d bytes resident\n",
				res.RouteEntries, res.RouteBytes)
		}
		report.Results = append(report.Results, res)
	}

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "encode report:", err)
		return 1
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "write report:", err)
		return 1
	}

	if *diff != "" {
		regressions, err := compareAgainst(*diff, report, *tolerance)
		if err != nil {
			fmt.Fprintln(os.Stderr, "maficbench:", err)
			return 1
		}
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "maficbench: %d benchmark(s) regressed vs %s (ns/op tolerance %.0f%%, allocs/B gate %.0f%%)\n",
				regressions, *diff, *tolerance*100, allocTolerance*100)
			return 1
		}
		fmt.Fprintf(os.Stderr, "maficbench: no regressions vs %s (ns/op tolerance %.0f%%, allocs/B gate %.0f%%)\n",
			*diff, *tolerance*100, allocTolerance*100)
	}
	return 0
}
