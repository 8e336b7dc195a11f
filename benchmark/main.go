// Command benchmark is the repository's benchmark: six workloads over the
// simulator, its checkpoint layer and the job service, six end-to-end
// metrics per workload from an untraced run, and the per-layer metrics of a
// separate traced run. README.md in this directory describes each workload
// and metric; BENCHMARK.json at the repository root declares them.
//
//	go run ./benchmark -workload paper-table2 -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -seed 1 -trace 1 -out report.json
//	go run ./benchmark -compare parent.json change.json
//
// With -workload it runs that workload once and prints, as its last line,
// one JSON object {correct, attempted, failed, metrics}. Without, it runs
// every workload, each in a process of its own.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// report is the document -out writes and -compare reads.
type report struct {
	Host      hostInfo         `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadReport `json:"workloads"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Network says what the serve-1x1 client and server talk over.
	Network string `json:"network"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// limitProcs pins GOMAXPROCS to min(nproc, 2): no workload has more than
// two busy goroutines, and a run must never have more busy threads than
// cores. A GOMAXPROCS asked for through the environment that the host
// cannot back is refused, not silently lowered.
func limitProcs() error {
	nproc := runtime.NumCPU()
	if env := os.Getenv("GOMAXPROCS"); env != "" {
		if v, err := strconv.Atoi(env); err == nil && v > nproc {
			return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available", v, nproc)
		}
	}
	runtime.GOMAXPROCS(min(nproc, 2))
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run only this workload (default: every workload, each in its own process)")
		seed    = fs.Int64("seed", 1, "workload seed: job i runs at a scenario seed derived from seed+i")
		seconds = fs.Float64("seconds", 0, "length of the timed region; 0 runs each workload's fixed job count")
		trace   = fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics (every workload: both)")
		out     = fs.String("out", "", "write the JSON report here")
		spans   = fs.String("spans", "", "write the traced run's spans here (per workload: NAME.<workload>.json)")
		tmp     = fs.String("tmp", "benchmark/.scratch", "scratch directory, created if missing and removed again if empty; temporary stores live and die under it")
		compare = fs.Bool("compare", false, "compare two reports (or comma-separated sets of reports): -compare A.json B.json")
		// Not for users: a run re-executes itself with it to time a cold set-up.
		setupOnly = fs.Bool("setup-only", false, "internal: perform the workload's set-up, print its time and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two arguments, got %d", fs.NArg())
		}
		return runCompare(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace is 0 or 1, got %d", *trace)
	}
	if err := limitProcs(); err != nil {
		return err
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		return err
	}
	// Fails, as it should, while another run still has a store in there.
	defer os.Remove(*tmp)
	rep := report{
		Host: hostInfo{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			Network: "loopback",
		},
		Seed:    *seed,
		Seconds: *seconds,
	}

	if *name == "" {
		if err := runSuite(&rep, *trace == 1, *tmp, *spans); err != nil {
			return err
		}
		printReport(&rep)
		return writeReport(*out, &rep)
	}

	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, traced: *trace == 1, tmp: *tmp, spans: *spans}
	if *setupOnly {
		return runSetupOnly(cfg)
	}
	wr, err := runWorkload(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	rep.Workloads = []workloadReport{*wr}
	printReport(&rep)
	if err := writeReport(*out, &rep); err != nil {
		return err
	}
	return printResultLine(wr)
}

// runSuite runs every workload in a child process of its own, so that the
// process-global pools, the GC's state and the resident-set high-water mark
// of one workload never reach the next; with traced set, a second child per
// workload makes the traced run.
func runSuite(rep *report, traced bool, tmp, spans string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmp, "suite-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, w := range workloads {
		merged := workloadReport{}
		for pass := 0; pass < 2; pass++ {
			if pass == 1 && !traced {
				break
			}
			part := filepath.Join(dir, fmt.Sprintf("%s.%d.json", w.name, pass))
			args := []string{
				"-workload", w.name, "-seed", strconv.FormatInt(rep.Seed, 10),
				"-seconds", strconv.FormatFloat(rep.Seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(pass), "-tmp", tmp, "-out", part,
			}
			if pass == 1 && spans != "" {
				args = append(args, "-spans", strings.TrimSuffix(spans, ".json")+"."+w.name+".json")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %d): %w", w.name, pass, err)
			}
			var child report
			if err := readJSON(part, &child); err != nil {
				return err
			}
			if len(child.Workloads) != 1 {
				return fmt.Errorf("%s: child report holds %d workloads", w.name, len(child.Workloads))
			}
			got := child.Workloads[0]
			if pass == 0 {
				merged = got
				continue
			}
			// The traced pass adds its metrics and its failures; the job
			// count and the digest stay those of the untraced run.
			merged.PerLayer = got.PerLayer
			merged.SpanSelfMs = got.SpanSelfMs
			merged.TailPercentile = got.TailPercentile
			merged.Attempted += got.Attempted
			merged.Failed += got.Failed
			merged.FailFrac = float64(merged.Failed) / float64(merged.Attempted)
			merged.Failures = append(merged.Failures, got.Failures...)
		}
		rep.Workloads = append(rep.Workloads, merged)
	}
	return nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func writeReport(path string, rep *report) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport prints one line per (workload, metric): name, unit, value.
func printReport(rep *report) {
	fmt.Printf("# seed %d, %d CPUs, GOMAXPROCS %d, %s %s/%s, serve-1x1 over %s\n",
		rep.Seed, rep.Host.NProc, rep.Host.GOMAXPROCS, rep.Host.Go, rep.Host.GOOS, rep.Host.GOARCH, rep.Host.Network)
	for _, w := range rep.Workloads {
		fmt.Printf("# %s: %d timed jobs, %d of %d attempted jobs failed, result_digest %s\n",
			w.Name, w.Jobs, w.Failed, w.Attempted, w.ResultDigest)
		if w.HostPace > 0 {
			fmt.Printf("# %s: host pace %.3f (timings are divided by the pace around each job)\n", w.Name, w.HostPace)
		}
		if w.TailPercentile > 0 {
			fmt.Printf("# %s: the p90 metrics report percentile %g\n", w.Name, w.TailPercentile)
		}
		for _, f := range w.Failures {
			fmt.Printf("# %s: FAILED %s\n", w.Name, f)
		}
		for _, name := range sortedKeys(w.SpanSelfMs) {
			fmt.Printf("# %s: span %s self time %.3f ms\n", w.Name, name, w.SpanSelfMs[name])
		}
		for _, set := range []metricSet{w.EndToEnd, w.PerLayer} {
			for _, name := range sortedKeys(set) {
				fmt.Printf("%s %s %s %v\n", w.Name, name, set[name].Unit, set[name].Value)
			}
		}
		fmt.Printf("%s fail_frac ratio %v\n", w.Name, w.FailFrac)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// printResultLine prints the one-object summary a single-workload run ends
// with: the end-to-end metrics of an untraced run, the per-layer metrics of
// a traced one.
func printResultLine(w *workloadReport) error {
	metrics := w.EndToEnd
	if metrics == nil {
		metrics = w.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{w.Failed == 0, w.Attempted, w.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
