// Benchmarks that regenerate the data behind every table and figure of the
// paper's evaluation section (Section V). Each benchmark runs the
// corresponding parameter sweep in its reduced "quick" form so the whole
// suite finishes in minutes; the cmd/maficfig tool runs the full sweeps.
//
//	go test -bench=. -benchmem
package mafic

import (
	"testing"

	"mafic/internal/experiment"
	"mafic/internal/sim"
)

// benchBase is the scaled-down base scenario shared by the figure
// benchmarks: the full pipeline (detection, probing, classification) on a
// smaller domain and a shorter timeline.
func benchBase() experiment.Scenario {
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
	base := benchBase()
	return experiment.SweepOptions{Quick: true, Seed: 1, Base: &base}
}

// benchFigure runs one figure generator per iteration and fails the
// benchmark if the sweep breaks.
func benchFigure(b *testing.B, id experiment.FigureID) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig, err := experiment.Generate(id, benchOpts())
		if err != nil {
			b.Fatalf("figure %s: %v", id, err)
		}
		if len(fig.Series) == 0 {
			b.Fatalf("figure %s produced no series", id)
		}
	}
}

// BenchmarkTable2Defaults reproduces the paper's Table II default operating
// point (one full scenario run per iteration).
func BenchmarkTable2Defaults(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(benchBase())
		if err != nil {
			b.Fatal(err)
		}
		if !res.Activated {
			b.Fatal("defense never activated")
		}
	}
}

// benchRegistryScenario runs the quick variant of a registered scenario, one
// full build-measure-defend cycle per iteration, after one untimed warm-up
// run so the pooled engine's steady state is what gets measured (mirroring
// cmd/maficbench's scenarioBench).
func benchRegistryScenario(b *testing.B, name string) {
	b.Helper()
	e, ok := experiment.LookupScenario(name)
	if !ok {
		b.Fatalf("%s scenario not registered", name)
	}
	s := experiment.Quick(e.Build())
	if _, err := experiment.Run(s); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Activated {
			b.Fatal("defense never activated")
		}
	}
}

// BenchmarkStress1k runs the 1000-router multi-victim scale scenario: 25x
// the paper's domain size per iteration.
func BenchmarkStress1k(b *testing.B) { benchRegistryScenario(b, "stress-1k") }

// BenchmarkStress5k runs the 5000-router scale scenario: demand-driven
// routing keeps the build phase out of the way, so one iteration is a full
// build-measure-defend cycle at 125x the paper's domain size.
func BenchmarkStress5k(b *testing.B) { benchRegistryScenario(b, "stress-5k") }

// BenchmarkStress50k runs the 50000-router scale scenario: sparse adjacency
// rows and the monitored-only traffic matrix keep the build O(nodes+links),
// so one iteration is a full build-measure-defend cycle at 1250x the paper's
// domain size.
func BenchmarkStress50k(b *testing.B) { benchRegistryScenario(b, "stress-50k") }

// BenchmarkFig3aAccuracyVsVolumeByPd regenerates Figure 3(a).
func BenchmarkFig3aAccuracyVsVolumeByPd(b *testing.B) { benchFigure(b, experiment.FigureF3a) }

// BenchmarkFig3bAccuracyVsVolumeByRate regenerates Figure 3(b).
func BenchmarkFig3bAccuracyVsVolumeByRate(b *testing.B) { benchFigure(b, experiment.FigureF3b) }

// BenchmarkFig4aTrafficReductionByPd regenerates Figure 4(a).
func BenchmarkFig4aTrafficReductionByPd(b *testing.B) { benchFigure(b, experiment.FigureF4a) }

// BenchmarkFig4bFlowBandwidthTimeline regenerates Figure 4(b).
func BenchmarkFig4bFlowBandwidthTimeline(b *testing.B) { benchFigure(b, experiment.FigureF4b) }

// BenchmarkFig5aFalsePositiveByPd regenerates Figure 5(a).
func BenchmarkFig5aFalsePositiveByPd(b *testing.B) { benchFigure(b, experiment.FigureF5a) }

// BenchmarkFig5bFalsePositiveByTCPShare regenerates Figure 5(b).
func BenchmarkFig5bFalsePositiveByTCPShare(b *testing.B) { benchFigure(b, experiment.FigureF5b) }

// BenchmarkFig5cFalsePositiveByDomainSize regenerates Figure 5(c).
func BenchmarkFig5cFalsePositiveByDomainSize(b *testing.B) { benchFigure(b, experiment.FigureF5c) }

// BenchmarkFig6aFalseNegativeByPd regenerates Figure 6(a).
func BenchmarkFig6aFalseNegativeByPd(b *testing.B) { benchFigure(b, experiment.FigureF6a) }

// BenchmarkFig6bFalseNegativeByTCPShare regenerates Figure 6(b).
func BenchmarkFig6bFalseNegativeByTCPShare(b *testing.B) { benchFigure(b, experiment.FigureF6b) }

// BenchmarkFig6cFalseNegativeByDomainSize regenerates Figure 6(c).
func BenchmarkFig6cFalseNegativeByDomainSize(b *testing.B) { benchFigure(b, experiment.FigureF6c) }

// BenchmarkFig7LegitimateDropRateByPd regenerates Figure 7.
func BenchmarkFig7LegitimateDropRateByPd(b *testing.B) { benchFigure(b, experiment.FigureF7) }

// BenchmarkAblationBaselineComparison regenerates the MAFIC-vs-proportional
// ablation (experiment.AblationBaseline).
func BenchmarkAblationBaselineComparison(b *testing.B) {
	benchFigure(b, experiment.FigureAblationBase)
}

// BenchmarkAblationProbeWindow regenerates the probing-window ablation.
func BenchmarkAblationProbeWindow(b *testing.B) { benchFigure(b, experiment.FigureAblationProbe) }

// BenchmarkAblationPulsingAttack regenerates the constant-vs-pulsing attack
// ablation (shrew-style evasion).
func BenchmarkAblationPulsingAttack(b *testing.B) {
	benchFigure(b, experiment.FigureAblationPulsing)
}

// BenchmarkDefenderHandle measures the per-packet cost of the MAFIC decision
// path in isolation (the router fast path the algorithm adds).
func BenchmarkDefenderHandle(b *testing.B) {
	s := benchBase()
	s.Duration = sim.Second
	res, err := experiment.Run(s)
	if err != nil {
		b.Fatal(err)
	}
	// The per-packet cost is already exercised inside Run; here we report
	// the cost per simulated event as a throughput proxy.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(float64(res.EventsProcessed), "events/run")
}
