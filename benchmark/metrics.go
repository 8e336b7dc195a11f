package main

import (
	"fmt"
	"sort"
)

// metricDef declares one metric the benchmark emits. The same table is
// written out as BENCHMARK.json; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics carry no bound.
	Bound float64
}

// endToEnd are the numbers a user of the simulator or the service sees. The
// same six are reported for every workload, from the untraced run only.
//
// fail_frac (ratio, lower, bound 0) is in every report and in -compare but is
// not declared here: the builder's contract asks for metrics that are never
// 0 and takes the spread of each as a share of its median, and fail_frac is 0
// on every workload. It travels as attempted/failed in the result line.
//
// The three timings carry 0.25, the widest bound the contract allows, where
// issue 11 asked for 0.10. A metric has one bound for all six workloads, and
// the contract refuses the benchmark when ten runs at ten seeds spread by more
// than the bound on any of them, or when a second such set has a median worse
// than the first's by more than the bound. The seed moves a job's event count
// by a tenth (one standard deviation), which leaves 3 to 5% between runs of
// a job cycle; and the shared two-core reference host slows by up to a half,
// in bursts of a second and for minutes on end. The best-of-passes estimator
// and the pace probe take most of that out — 29% of spread before, 13% on the
// widest cell after — but not enough for 0.10. Paired, alternating runs
// resolve much smaller differences; see README.md.
//
// alloc_bytes_per_job carries 0.10 where the issue asked for 0.05: at a fixed
// seed it repeats to a part in a thousand, but what a ckpt-10ms job allocates
// moves with its seed, and ten runs of six jobs each spread by up to 5%.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"job_s_p50", "s", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"cpu_s_per_job", "s", "lower", 0.25},
	{"alloc_bytes_per_job", "B", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer are the single-layer numbers of the traced run; a layer is a
// package under internal/. Count metrics repeat exactly at a fixed seed;
// the rest time a public function of the layer inside one span. A metric
// that does not apply to a workload (serve.* outside serve-1x1) reads 0.
var perLayer = []metricDef{
	{"sim.events_per_job", "count", "lower", 0},
	{"sim.events_per_s", "1/s", "higher", 0},
	{"sim.pending_p50", "count", "lower", 0},
	{"sim.hold_ns_p1e3", "ns", "lower", 0},
	{"sim.hold_ns_p1e5", "ns", "lower", 0},
	{"sim.cancel_ns", "ns", "lower", 0},
	{"sim.rng_draws_per_job", "count", "lower", 0},
	{"sim.rng_fork_ns", "ns", "lower", 0},
	{"sim.rng_ff_ms_per_mdraw", "ms", "lower", 0},

	{"netsim.hops_per_job", "count", "lower", 0},
	{"netsim.hop_ns", "ns", "lower", 0},
	{"netsim.hop_ns_filtered", "ns", "lower", 0},
	{"netsim.route_cold_us", "us", "lower", 0},
	{"netsim.route_warm_ns", "ns", "lower", 0},
	{"netsim.linkbetween_ns", "ns", "lower", 0},
	{"netsim.route_entries", "count", "lower", 0},
	{"netsim.route_bytes", "B", "lower", 0},

	{"topology.build_ms_cold", "ms", "lower", 0},
	{"topology.build_ms_warm", "ms", "lower", 0},
	{"topology.build_alloc_bytes", "B", "lower", 0},

	{"traffic.build_ms", "ms", "lower", 0},
	{"traffic.flows", "count", "lower", 0},

	{"loglog.add_ns", "ns", "lower", 0},
	{"loglog.estimate_ns", "ns", "lower", 0},
	{"loglog.union_estimate_ns", "ns", "lower", 0},

	{"trafficmatrix.monitored", "count", "lower", 0},
	{"trafficmatrix.epochs_per_job", "count", "lower", 0},
	{"trafficmatrix.epoch_us", "us", "lower", 0},
	{"trafficmatrix.counter_ns", "ns", "lower", 0},

	{"core.examined_per_job", "count", "lower", 0},
	{"core.probes_per_job", "count", "lower", 0},
	{"core.handle_ns_inactive", "ns", "lower", 0},
	{"core.handle_ns_nft", "ns", "lower", 0},
	{"core.handle_ns_pdt", "ns", "lower", 0},

	{"flowtable.lookup_ns", "ns", "lower", 0},
	{"flowtable.insert_ns", "ns", "lower", 0},

	{"pushback.report_us", "us", "lower", 0},
	{"pushback.atrs", "count", "lower", 0},

	{"checkpoint.snapshots_per_job", "count", "lower", 0},
	{"checkpoint.snapshot_bytes_p50", "B", "lower", 0},
	{"checkpoint.encode_ms", "ms", "lower", 0},
	{"checkpoint.decode_ms", "ms", "lower", 0},
	{"checkpoint.capture_ms", "ms", "lower", 0},
	{"checkpoint.overhead_ratio", "ratio", "lower", 0},
	{"checkpoint.store_save_ms", "ms", "lower", 0},
	{"checkpoint.resume_fixed_ms", "ms", "lower", 0},

	{"serve.submit_ms_p50", "ms", "lower", 0},
	{"serve.queue_wait_ms_p50", "ms", "lower", 0},
	{"serve.run_ms_p50", "ms", "lower", 0},
	{"serve.overhead_ratio", "ratio", "lower", 0},
	{"serve.snapshots_per_job", "count", "lower", 0},
	{"serve.polls_per_job", "count", "lower", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.job_s_p90", "s", "lower", 0},

	{"experiment.job_s_p90", "s", "lower", 0},
	{"experiment.allocs_per_job", "count", "lower", 0},
	{"experiment.gc_cycles_per_job", "count", "lower", 0},
	{"experiment.unattributed_share", "ratio", "lower", 0},
	{"experiment.trace_overhead", "ratio", "lower", 0},
}

// exactCounts are the per-layer counts read off the probe job's results and
// snapshots: the simulator is deterministic, so at a fixed seed they repeat
// exactly and two versions of the program compare exactly on them.
var exactCounts = map[string]bool{
	"sim.events_per_job":            true,
	"sim.pending_p50":               true,
	"sim.rng_draws_per_job":         true,
	"netsim.hops_per_job":           true,
	"netsim.route_entries":          true,
	"netsim.route_bytes":            true,
	"traffic.flows":                 true,
	"trafficmatrix.monitored":       true,
	"trafficmatrix.epochs_per_job":  true,
	"core.examined_per_job":         true,
	"core.probes_per_job":           true,
	"pushback.atrs":                 true,
	"checkpoint.snapshots_per_job":  true,
	"checkpoint.snapshot_bytes_p50": true,
}

// value is one measured number with its unit, as the result line and the
// report carry it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one run, keyed by metric name.
type metricSet map[string]value

// fill copies vals into a set holding exactly the metrics of defs, with
// their declared units. A missing value is an error unless zeroMissing is
// set (the traced run reads 0 for metrics that do not apply to a workload);
// a value that is not declared is always an error.
func fill(defs []metricDef, vals map[string]float64, zeroMissing bool) (metricSet, error) {
	out := make(metricSet, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok && !zeroMissing {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not declared", name)
		}
	}
	return out, nil
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. It does not modify xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder are the percentiles a tail metric may report, highest first.
// The metric names say p90, so the ladder stops there.
var tailLadder = []float64{90, 75}

// tailPercentile picks the highest percentile of the ladder that still has
// at least ten of n samples beyond it; with fewer than that even at the
// lowest rung, the tail is not resolved and the median stands in.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}
