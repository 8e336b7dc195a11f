package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Verdicts of comparing one end-to-end metric on one workload between a
// base side and a changed side.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// worsening is how much v is worse than base, as a share of base: positive
// is worse whichever way the metric points.
func worsening(def metricDef, base, v float64) float64 {
	if def.Better == "higher" {
		return (base - v) / base
	}
	return (v - base) / base
}

// quartile returns the q-th quartile (1 or 3) of sorted xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the acceptance of this benchmark was measured with.
func quartile(sorted []float64, q int) float64 {
	n := len(sorted)
	j, delta := q*(n+1)/4, q*(n+1)%4
	j = min(max(j, 1), n-1)
	return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
}

// spread is the run-to-run spread of one side as a share of its median: the
// distance between the quartiles with four or more runs, the whole range
// with fewer.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / m
	}
	return (quartile(s, 3) - quartile(s, 1)) / m
}

// judge compares the runs of one metric. Medians within the bound of each
// other read same; a median beyond it reads better or worse; but where
// either side's own spread exceeds the bound the medians resolve nothing,
// and only every changed run beating (or losing to) every base run counts.
func judge(def metricDef, base, changed []float64) string {
	if max(spread(base), spread(changed)) > def.Bound {
		allBetter, allWorse := true, true
		for _, b := range base {
			for _, c := range changed {
				w := worsening(def, b, c)
				allBetter = allBetter && w < 0
				allWorse = allWorse && w > def.Bound
			}
		}
		switch {
		case allBetter:
			return verdictBetter
		case allWorse:
			return verdictWorse
		}
		return verdictUnresolved
	}
	switch w := worsening(def, median(base), median(changed)); {
	case w > def.Bound:
		return verdictWorse
	case w < -def.Bound:
		return verdictBetter
	}
	return verdictSame
}

// side is one set of runs: the reports of one commit.
type side []report

func loadSide(paths string) (side, error) {
	var s side
	for _, path := range strings.Split(paths, ",") {
		var rep report
		if err := readJSON(path, &rep); err != nil {
			return nil, err
		}
		s = append(s, rep)
	}
	return s, nil
}

// runs returns the workload's reports on this side, one per run.
func (s side) runs(name string) []workloadReport {
	var out []workloadReport
	for _, rep := range s {
		for _, w := range rep.Workloads {
			if w.Name == name {
				out = append(out, w)
			}
		}
	}
	return out
}

func values(runs []workloadReport, get func(workloadReport) (float64, bool)) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := get(r); ok {
			out = append(out, v)
		}
	}
	return out
}

// runCompare prints, per workload and end-to-end metric, how the changed
// side compares with the base side under the bounds the benchmark fixes,
// each ratio with its base; then whether the result digests and the count
// metrics, which repeat exactly at a fixed seed, are identical. It returns
// an error when any metric reads worse.
func runCompare(out io.Writer, basePaths, changedPaths string) error {
	base, err := loadSide(basePaths)
	if err != nil {
		return err
	}
	changed, err := loadSide(changedPaths)
	if err != nil {
		return err
	}
	worse := 0
	for _, w := range workloads {
		b, c := base.runs(w.name), changed.runs(w.name)
		if len(b) == 0 || len(c) == 0 {
			continue
		}
		for _, def := range endToEnd {
			get := func(r workloadReport) (float64, bool) {
				v, ok := r.EndToEnd[def.Name]
				return v.Value, ok
			}
			bv, cv := values(b, get), values(c, get)
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			verdict, note := judge(def, bv, cv), ""
			if def.Name == "peak_rss_mb" && mixedRSSModes(b, c) {
				verdict, note = verdictUnresolved, "; the runs differ in peak_rss_mode, so they measured different quantities"
			}
			if verdict == verdictWorse {
				worse++
			}
			fmt.Fprintf(out, "%-14s %-20s %-10s %.4g/%.4g %s = %.4f (base spread %.3f, changed spread %.3f, bound %.2f, %d vs %d runs%s)\n",
				w.name, def.Name, verdict, median(cv), median(bv), def.Unit, median(cv)/median(bv),
				spread(bv), spread(cv), def.Bound, len(bv), len(cv), note)
		}

		// fail_frac has bound 0: any more failures than the base is worse.
		frac := func(r workloadReport) (float64, bool) { return r.FailFrac, true }
		bf, cf := percentile(values(b, frac), 100), percentile(values(c, frac), 100)
		verdict := verdictSame
		if cf > bf {
			verdict = verdictWorse
			worse++
		} else if cf < bf {
			verdict = verdictBetter
		}
		fmt.Fprintf(out, "%-14s %-20s %-10s %.4g against base %.4g (highest of the runs)\n", w.name, "fail_frac", verdict, cf, bf)

		fmt.Fprintf(out, "%-14s %-20s %s\n", w.name, "result_digest", digestVerdict(b, c))
		for _, line := range countDifferences(b, c) {
			fmt.Fprintf(out, "%-14s %s\n", w.name, line)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the base beyond their bound", worse)
	}
	return nil
}

// mixedRSSModes reports whether the untraced runs of the two sides took
// peak_rss_mb in more than one way.
func mixedRSSModes(base, changed []workloadReport) bool {
	modes := make(map[string]bool)
	for _, r := range append(append([]workloadReport(nil), base...), changed...) {
		if r.EndToEnd != nil {
			modes[r.PeakRSSMode] = true
		}
	}
	return len(modes) > 1
}

// digestVerdict compares the untraced runs' result digests. Digests cover
// every timed job, so they are comparable only between runs of the same
// seed and job count.
func digestVerdict(base, changed []workloadReport) string {
	type key struct {
		seed int64
		jobs int
	}
	digests := make(map[key]string)
	for _, r := range base {
		if r.EndToEnd != nil {
			digests[key{r.Seed, r.Jobs}] = r.ResultDigest
		}
	}
	compared := false
	for _, r := range changed {
		want, ok := digests[key{r.Seed, r.Jobs}]
		if !ok || r.EndToEnd == nil {
			continue
		}
		compared = true
		if r.ResultDigest != want {
			return "differs"
		}
	}
	if !compared {
		return "not comparable (no two runs share seed and job count; use -seconds 0)"
	}
	return "identical"
}

// countDifferences lists the exact count metrics that take more than one
// value among the runs of one seed, whichever side they are on.
func countDifferences(base, changed []workloadReport) []string {
	var lines []string
	for _, def := range perLayer {
		if !exactCounts[def.Name] {
			continue
		}
		seen := make(map[int64]float64)
		for _, r := range append(append([]workloadReport(nil), base...), changed...) {
			v, ok := r.PerLayer[def.Name]
			if !ok {
				continue
			}
			if first, dup := seen[r.Seed]; dup && first != v.Value {
				lines = append(lines, fmt.Sprintf("%-20s differs at seed %d: %v and %v", def.Name, r.Seed, first, v.Value))
				break
			}
			seen[r.Seed] = v.Value
		}
	}
	return lines
}
