package experiment

import (
	"testing"

	"mafic/internal/sim"
)

// benchBase is the reduced Table II run the figure benchmarks sweep around:
// the full pipeline (detection, probing, classification) on a 20-router
// domain over 1.8 s.
func benchBase() Scenario {
	s := DefaultScenario()
	s.Topology.NumRouters = 20
	s.Topology.ExtraChords = 5
	s.Topology.BystanderHosts = 8
	s.Workload.TotalFlows = 30
	s.Duration = 1800 * sim.Millisecond
	s.Workload.AttackStart = 600 * sim.Millisecond
	s.DetectionFallback = 300 * sim.Millisecond
	return s
}

// BenchmarkRun times one whole build-measure-defend run per iteration, after
// one untimed warm-up run, so what it reports is the pooled steady state and
// not the process's first build of the domain. "table2" is benchBase; the
// others are the quick variants of the catalog's scale entries. `make
// profile` runs one of them under the profilers:
//
//	go test ./internal/experiment -run '^$' -bench 'Run/stress-50k$' -benchtime 5x
func BenchmarkRun(b *testing.B) {
	for _, name := range []string{"table2", "stress-1k", "stress-5k", "stress-50k"} {
		s := benchBase()
		if name != "table2" {
			e, ok := LookupScenario(name)
			if !ok {
				b.Fatalf("%s not registered", name)
			}
			s = Quick(e.Build())
		}
		b.Run(name, func(b *testing.B) {
			if _, err := Run(s); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var res Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = Run(s); err != nil {
					b.Fatal(err)
				}
				if !res.Activated {
					b.Fatal("defense never activated")
				}
			}
			b.ReportMetric(float64(res.EventsProcessed), "events/run")
		})
	}
}

// BenchmarkFigure regenerates each figure's quick sweep around benchBase.
func BenchmarkFigure(b *testing.B) {
	base := benchBase()
	opts := SweepOptions{Quick: true, Seed: 1, Base: &base}
	for _, id := range AllFigureIDs() {
		b.Run(string(id), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fig, err := Generate(id, opts)
				if err != nil {
					b.Fatalf("figure %s: %v", id, err)
				}
				if len(fig.Series) == 0 {
					b.Fatalf("figure %s produced no series", id)
				}
			}
		})
	}
}
