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
// others are the quick variants of the catalog's scale entries. The rest
// price the checkpoint layer around a whole job. "resume/<entry>" resumes
// the full-size entry from its 90 % snapshot by restore (ResumeControlled;
// stress-1k's is the file the codec benchmarks decode, and resume-late's
// job), and "replay/<entry>" resumes the same file by replay
// (resumeByReplay), which runs the first 90 % again instead: the two are
// ROADMAP item 17's price of restore. "ckpt/table2" runs the catalog's
// full-size table2 checkpointed every 100 ms into a sink that keeps the
// newest snapshot. `make profile` runs one of them under the profilers:
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
			benchJobs(b, func() (Result, error) { return Run(s) })
		})
	}
	// The 90 % snapshots, made the first time a benchmark needs one and
	// shared by both ways of resuming it.
	snap90 := map[string][]byte{}
	for _, resume := range []struct {
		name string
		job  func(data []byte, opts ControlOptions) (Result, error)
	}{{"resume", ResumeControlled}, {"replay", replayedResult}} {
		b.Run(resume.name, func(b *testing.B) {
			for _, name := range []string{"table2", "stress-1k"} {
				b.Run(name, func(b *testing.B) {
					if snap90[name] == nil {
						e, ok := LookupScenario(name)
						if !ok {
							b.Fatalf("%s not registered", name)
						}
						s := e.Build()
						snap90[name], _ = snapshotMidRun(b, s, s.Duration*9/10)
					}
					data := snap90[name]
					benchJobs(b, func() (Result, error) { return resume.job(data, ControlOptions{}) })
				})
			}
		})
	}
	b.Run("ckpt", func(b *testing.B) {
		e, ok := LookupScenario("table2")
		if !ok {
			b.Fatal("table2 not registered")
		}
		s := e.Build()
		var newest []byte
		opts := ControlOptions{
			CheckpointEvery: 100 * sim.Millisecond,
			Save:            func(_ sim.Time, data []byte) error { newest = data; return nil },
		}
		b.Run("table2", func(b *testing.B) {
			benchJobs(b, func() (Result, error) { return RunControlled(s, opts) })
		})
		if len(newest) == 0 {
			b.Fatal("no snapshot was saved")
		}
	})
}

// benchJobs times job after an untimed warm-up call and reports the events
// of the last run.
func benchJobs(b *testing.B, job func() (Result, error)) {
	if _, err := job(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var res Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = job(); err != nil {
			b.Fatal(err)
		}
		if !res.Activated {
			b.Fatal("defense never activated")
		}
	}
	b.ReportMetric(float64(res.EventsProcessed), "events/run")
}

// BenchmarkFigure regenerates each figure's quick sweep around benchBase, and
// under "all" the whole set in one call, which runs each distinct scenario of
// the fourteen sweeps once.
func BenchmarkFigure(b *testing.B) {
	base := benchBase()
	opts := SweepOptions{Quick: true, Seed: 1, Base: &base}
	b.Run("all", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := GenerateFigures(AllFigureIDs(), opts); err != nil {
				b.Fatal(err)
			}
		}
	})
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
