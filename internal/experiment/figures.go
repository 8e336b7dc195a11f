package experiment

import (
	"encoding/json"
	"fmt"
	"slices"

	"mafic/internal/sim"
)

// Point is one (x, y) sample of a figure series.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Series is one labelled curve of a figure.
type Series struct {
	Label  string  `json:"label"`
	Points []Point `json:"points"`
}

// Figure is the regenerated data behind one figure panel of the paper.
type Figure struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	XLabel string   `json:"xLabel"`
	YLabel string   `json:"yLabel"`
	Series []Series `json:"series"`
}

// SweepOptions controls the resolution of the parameter sweeps so the same
// generators serve both the full CLI reproduction and the quick benchmarks.
type SweepOptions struct {
	// Quick reduces the number of sweep points and the simulated time so
	// a figure regenerates in a fraction of the full cost.
	Quick bool
	// Seed is the base seed; every run derives its own seed from it so
	// sweep points are independent but reproducible. Zero keeps the base
	// scenario's seed.
	Seed int64
	// Base overrides the base scenario. Nil means DefaultScenario.
	Base *Scenario
	// Workers caps how many sweep points run concurrently. Zero means
	// GOMAXPROCS, one forces serial execution. Results are identical
	// either way; see RunMany.
	Workers int
}

// base returns the scenario every sweep point starts from.
func (o SweepOptions) base() Scenario {
	s := DefaultScenario()
	if o.Base != nil {
		s = *o.Base
	} else if o.Quick {
		s.Duration = 1800 * sim.Millisecond
		s.Workload.AttackStart = 600 * sim.Millisecond
		s.DetectionFallback = 300 * sim.Millisecond
	}
	if o.Seed != 0 {
		s.Seed = o.Seed
	}
	return s
}

// sized returns a sweep's quick or full values.
func sized[T any](o SweepOptions, quick, full []T) []T {
	if o.Quick {
		return quick
	}
	return full
}

// volumes returns the traffic-volume sweep (x axis of most figures).
func (o SweepOptions) volumes() []int {
	return sized(o, []int{20, 60, 100}, []int{10, 30, 50, 70, 90, 110})
}

// gridPoint is one run of a grid: a fully configured scenario (seed offset
// already applied) plus the series index and x value its samples land on.
type gridPoint struct {
	series   int
	x        float64
	scenario Scenario
}

// grid is one parameter sweep: its series labels and its seeded runs.
type grid struct {
	labels []string
	points []gridPoint
}

// add appends the point of series v at x: s with its seed shifted by offset,
// keeping sweep points independent but reproducible.
func (g *grid) add(v int, x float64, s Scenario, offset int64) {
	s.Seed += offset
	g.points = append(g.points, gridPoint{series: v, x: x, scenario: s})
}

// volumesByPd is the P_d ∈ {70, 80, 90}% × traffic-volume grid.
func volumesByPd(opts SweepOptions) (g grid) {
	for v, pd := range []float64{0.70, 0.80, 0.90} {
		g.labels = append(g.labels, fmt.Sprintf("Pd=%.0f%%", pd*100))
		for i, vt := range opts.volumes() {
			s := opts.base()
			s.MAFIC.DropProbability = pd
			s.Workload.TotalFlows = vt
			g.add(v, float64(vt), s, int64(i)+int64(pd*1000))
		}
	}
	return g
}

// volumesByRate is the source rate × traffic-volume grid. R's legend values
// are the paper's packets/s; simulated rates are divided by RateScale.
func volumesByRate(opts SweepOptions) grid {
	g := grid{labels: []string{"R=100k", "R=500k", "R=1M"}}
	for v, pps := range []float64{1e5, 5e5, 1e6} {
		for i, vt := range opts.volumes() {
			s := opts.base()
			s.Workload.AttackRate = pps / RateScale
			s.Workload.TotalFlows = vt
			g.add(v, float64(vt), s, int64(i)+int64(v)*100)
		}
	}
	return g
}

// timelines is one full run per V_t ∈ {10, 30, 50}. The paper plots
// seconds 1..3 with the attack already raging; the whole timeline is kept.
func timelines(opts SweepOptions) (g grid) {
	for v, vt := range []int{10, 30, 50} {
		g.labels = append(g.labels, fmt.Sprintf("Vt=%d", vt))
		s := opts.base()
		s.Workload.TotalFlows = vt
		g.add(v, float64(vt), s, int64(v)*17)
	}
	return g
}

// tcpSharesByVolume is the V_t ∈ {30, 70, 100} × Γ grid.
func tcpSharesByVolume(opts SweepOptions) (g grid) {
	shares := sized(opts, []float64{0.35, 0.65, 0.95}, []float64{0.10, 0.25, 0.40, 0.55, 0.70, 0.85, 0.95})
	for v, vt := range []int{30, 70, 100} {
		g.labels = append(g.labels, fmt.Sprintf("Vt=%d", vt))
		for i, share := range shares {
			s := opts.base()
			s.Workload.TotalFlows = vt
			s.Workload.TCPShare = share
			g.add(v, share*100, s, int64(v)*1000+int64(i))
		}
	}
	return g
}

// domainSizesByTCP is the Γ ∈ {95, 75, 55, 35}% × domain-size grid.
func domainSizesByTCP(opts SweepOptions) (g grid) {
	sizes := sized(opts, []int{20, 60, 120}, []int{20, 40, 80, 120, 160})
	for v, share := range []float64{0.95, 0.75, 0.55, 0.35} {
		g.labels = append(g.labels, fmt.Sprintf("TCP=%.0f%%", share*100))
		for i, n := range sizes {
			s := opts.base()
			s.Topology.NumRouters = n
			s.Workload.TCPShare = share
			g.add(v, float64(n), s, int64(v)*1000+int64(i))
		}
	}
	return g
}

// volumeVariants is a variant × traffic-volume grid: set applies variant
// v, labelled labels[v], to a point's scenario.
func volumeVariants(opts SweepOptions, labels []string, set func(s *Scenario, v int)) grid {
	g := grid{labels: labels}
	for v := range labels {
		for i, vt := range opts.volumes() {
			s := opts.base()
			set(&s, v)
			s.Workload.TotalFlows = vt
			g.add(v, float64(vt), s, int64(v)*1000+int64(i))
		}
	}
	return g
}

// defenses sets MAFIC against the proportional dropper, the design point
// the paper argues against.
func defenses(opts SweepOptions) grid {
	kinds := []DefenseKind{DefenseMAFIC, DefenseBaseline}
	return volumeVariants(opts, []string{"MAFIC", "Proportional"},
		func(s *Scenario, v int) { s.Defense = kinds[v] })
}

// probeWindows varies the probing window (1×, 2×, 4× RTT) to expose the
// accuracy / collateral-damage trade-off behind the paper's 2×RTT choice.
func probeWindows(opts SweepOptions) grid {
	rtts := []float64{1, 2, 4}
	return volumeVariants(opts, []string{"1xRTT", "2xRTT", "4xRTT"},
		func(s *Scenario, v int) { s.MAFIC.ProbeWindowRTTs = rtts[v] })
}

// attackPulses sets a constant flood against shrew-style on-off attacks of
// the same peak rate. The paper's related work (HAWK, ref [11]) motivates
// it: a pulsing attacker mimics a responsive source by going silent, which
// inflates the false-negative rate of any probe-and-watch scheme.
func attackPulses(opts SweepOptions) grid {
	periods := []sim.Time{0, sim.Second, sim.Second}
	duties := []float64{0, 0.2, 0.5}
	return volumeVariants(opts, []string{"constant flood", "pulsing 20% duty", "pulsing 50% duty"},
		func(s *Scenario, v int) {
			s.Workload.AttackPulsePeriod = periods[v]
			s.Workload.AttackDutyCycle = duties[v]
		})
}

// pick turns the run of one grid point into that point's samples.
type pick func(p gridPoint, r Result) []Point

// percent picks one sample per point: the run's metric as a percentage.
func percent(metric func(Result) float64) pick {
	return func(p gridPoint, r Result) []Point { return []Point{{X: p.x, Y: metric(r) * 100}} }
}

// victimBandwidth picks the run's victim-side bandwidth series, one sample
// per bin: the cutoff when MAFIC triggers and the recovery of legitimate
// bandwidth afterwards.
func victimBandwidth(p gridPoint, r Result) (out []Point) {
	for _, bin := range r.Series {
		out = append(out, Point{X: bin.Time.Seconds(), Y: float64(bin.Total()) / p.scenario.BinWidth.Seconds()})
	}
	return out
}

// The y metrics and the axis labels several figures share.
var (
	accuracy        = percent(func(r Result) float64 { return r.Accuracy })
	falsePositives  = percent(func(r Result) float64 { return r.FalsePositiveRate })
	falseNegatives  = percent(func(r Result) float64 { return r.FalseNegativeRate })
	legitimateDrops = percent(func(r Result) float64 { return r.LegitimateDropRate })
)

const (
	volumeAxis    = "Total Traffic Volume (No. of Flows)"
	tcpAxis       = "Percentage of TCP Traffic (%)"
	domainAxis    = "Domain Size (No. of Routers)"
	accuracyAxis  = "Attacking Packets Dropping Accuracy (%)"
	fpAxis        = "False Positive Rate (%)"
	fnAxis        = "False Negative Rate (%)"
	legitDropAxis = "Legitimate Packet Dropping Rate (%)"
)

// figureSpec is one figure as data: its panel metadata, the grid it is a
// projection of, and how a point reads its samples from its run.
type figureSpec struct {
	id   FigureID
	meta Figure // everything but the series
	grid func(SweepOptions) grid
	pick pick
}

// figureSpecs holds every reproducible figure in presentation order.
var figureSpecs = []figureSpec{
	{FigureF3a, Figure{ID: "fig3a", Title: "Attack packet dropping accuracy vs. traffic volume (by Pd)",
		XLabel: volumeAxis, YLabel: accuracyAxis}, volumesByPd, accuracy},
	{FigureF3b, Figure{ID: "fig3b", Title: "Attack packet dropping accuracy vs. traffic volume (by source rate)",
		XLabel: volumeAxis, YLabel: accuracyAxis}, volumesByRate, accuracy},
	{FigureF4a, Figure{ID: "fig4a", Title: "Traffic reduction rate vs. traffic volume (by Pd)",
		XLabel: volumeAxis, YLabel: "Traffic Reduction Rate (%)"},
		volumesByPd, percent(func(r Result) float64 { return r.TrafficReduction })},
	{FigureF4b, Figure{ID: "fig4b", Title: "Victim flow bandwidth over time (by number of flows)",
		XLabel: "Time (second)", YLabel: "Flow Bandwidth (packets/s at victim)"}, timelines, victimBandwidth},
	{FigureF5a, Figure{ID: "fig5a", Title: "False positive rate vs. traffic volume (by Pd)",
		XLabel: volumeAxis, YLabel: fpAxis}, volumesByPd, falsePositives},
	{FigureF5b, Figure{ID: "fig5b", Title: "False positive rate vs. percentage of TCP traffic (by Vt)",
		XLabel: tcpAxis, YLabel: fpAxis}, tcpSharesByVolume, falsePositives},
	{FigureF5c, Figure{ID: "fig5c", Title: "False positive rate vs. domain size (by TCP share)",
		XLabel: domainAxis, YLabel: fpAxis}, domainSizesByTCP, falsePositives},
	{FigureF6a, Figure{ID: "fig6a", Title: "False negative rate vs. traffic volume (by Pd)",
		XLabel: volumeAxis, YLabel: fnAxis}, volumesByPd, falseNegatives},
	{FigureF6b, Figure{ID: "fig6b", Title: "False negative rate vs. percentage of TCP traffic (by Vt)",
		XLabel: tcpAxis, YLabel: fnAxis}, tcpSharesByVolume, falseNegatives},
	{FigureF6c, Figure{ID: "fig6c", Title: "False negative rate vs. domain size (by TCP share)",
		XLabel: domainAxis, YLabel: fnAxis}, domainSizesByTCP, falseNegatives},
	{FigureF7, Figure{ID: "fig7", Title: "Legitimate packet dropping rate vs. traffic volume (by Pd)",
		XLabel: volumeAxis, YLabel: legitDropAxis}, volumesByPd, legitimateDrops},
	{FigureAblationBase, Figure{ID: "ablation-baseline", Title: "Collateral damage: MAFIC vs. proportional dropping",
		XLabel: volumeAxis, YLabel: legitDropAxis}, defenses, legitimateDrops},
	{FigureAblationProbe, Figure{ID: "ablation-probe-window", Title: "Probing window length vs. collateral damage",
		XLabel: volumeAxis, YLabel: legitDropAxis}, probeWindows, legitimateDrops},
	{FigureAblationPulsing, Figure{ID: "ablation-pulsing", Title: "False negatives under constant vs. pulsing (shrew-style) attacks",
		XLabel: volumeAxis, YLabel: fnAxis}, attackPulses, falseNegatives},
}

// FigureID identifies one reproducible figure.
type FigureID string

// The reproducible figure identifiers.
const (
	FigureF3a             FigureID = "3a"
	FigureF3b             FigureID = "3b"
	FigureF4a             FigureID = "4a"
	FigureF4b             FigureID = "4b"
	FigureF5a             FigureID = "5a"
	FigureF5b             FigureID = "5b"
	FigureF5c             FigureID = "5c"
	FigureF6a             FigureID = "6a"
	FigureF6b             FigureID = "6b"
	FigureF6c             FigureID = "6c"
	FigureF7              FigureID = "7"
	FigureAblationBase    FigureID = "ablation-baseline"
	FigureAblationProbe   FigureID = "ablation-probe"
	FigureAblationPulsing FigureID = "ablation-pulsing"
)

// AllFigureIDs lists every reproducible figure in presentation order.
func AllFigureIDs() []FigureID {
	ids := make([]FigureID, len(figureSpecs))
	for i, f := range figureSpecs {
		ids[i] = f.id
	}
	return ids
}

// plannedFigure is one figure of a plan: its spec, its grid, and at[i], the
// index among the plan's runs of grid point i's scenario.
type plannedFigure struct {
	spec *figureSpec
	grid grid
	at   []int
}

// planFigures collects the grid of every figure ids names, and runs, each
// distinct scenario among their points once: two points share a run when
// their scenarios are equal apart from Name, whichever grids they come from.
func planFigures(ids []FigureID, opts SweepOptions) (figs []plannedFigure, runs []Scenario, err error) {
	seen := map[string]int{}
	for _, id := range ids {
		k := slices.IndexFunc(figureSpecs, func(f figureSpec) bool { return f.id == id })
		if k < 0 {
			return nil, nil, fmt.Errorf("%w: unknown figure %q", ErrScenario, id)
		}
		g := figureSpecs[k].grid(opts)
		at := make([]int, len(g.points))
		for i, p := range g.points {
			s := p.scenario
			s.Name = ""
			key, err := json.Marshal(s)
			if err != nil {
				return nil, nil, fmt.Errorf("figure %s: %w", id, err)
			}
			run, ok := seen[string(key)]
			if !ok {
				run = len(runs)
				seen[string(key)] = run
				runs = append(runs, p.scenario)
			}
			at[i] = run
		}
		figs = append(figs, plannedFigure{spec: &figureSpecs[k], grid: g, at: at})
	}
	return figs, runs, nil
}

// GenerateFigures produces the named figures in order. Figures are
// projections of a few shared grids, so each distinct scenario among their
// sweep points runs once (through RunMany, under the options' worker cap)
// and every figure that plots it reads the same result.
func GenerateFigures(ids []FigureID, opts SweepOptions) ([]Figure, error) {
	plan, runs, err := planFigures(ids, opts)
	if err != nil {
		return nil, err
	}
	results, err := RunMany(runs, opts.Workers)
	if err != nil {
		return nil, err
	}
	figs := make([]Figure, len(plan))
	for k, pf := range plan {
		fig := pf.spec.meta
		fig.Series = make([]Series, len(pf.grid.labels))
		for v, label := range pf.grid.labels {
			fig.Series[v].Label = label
		}
		for i, p := range pf.grid.points {
			series := &fig.Series[p.series]
			series.Points = append(series.Points, pf.spec.pick(p, results[pf.at[i]])...)
		}
		figs[k] = fig
	}
	return figs, nil
}

// Generate produces the named figure.
func Generate(id FigureID, opts SweepOptions) (Figure, error) {
	figs, err := GenerateFigures([]FigureID{id}, opts)
	if err != nil {
		return Figure{}, err
	}
	return figs[0], nil
}
