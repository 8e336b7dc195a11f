package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// quickScenario returns a scaled-down scenario that still exercises the full
// pipeline (detection, probing, classification) but runs in well under a
// second of wall time.
func quickScenario() Scenario {
	s := DefaultScenario()
	s.Topology.NumRouters = 16
	s.Topology.ExtraChords = 4
	s.Topology.BystanderHosts = 8
	s.Workload.TotalFlows = 20
	s.Duration = 1800 * sim.Millisecond
	s.Workload.AttackStart = 600 * sim.Millisecond
	s.DetectionFallback = 300 * sim.Millisecond
	return s
}

func TestDefaultScenarioValidates(t *testing.T) {
	t.Parallel()
	if err := DefaultScenario().Validate(); err != nil {
		t.Fatalf("default scenario invalid: %v", err)
	}
}

// TestScenarioValidateBoundsHostsPerIngress pins that a scenario whose
// ingress routers would carry more links than netsim.MaxDegree is refused by
// Validate, naming the knobs, before anything is built: Run returns that
// refusal, not the build's netsim.ErrDegree.
func TestScenarioValidateBoundsHostsPerIngress(t *testing.T) {
	t.Parallel()
	s := DefaultScenario()
	s.Topology.ClientsPerIngress = netsim.MaxDegree - 1 - s.Topology.ZombiesPerIngress
	err := s.Validate()
	if !errors.Is(err, ErrScenario) || !strings.Contains(err.Error(), "ClientsPerIngress") || !strings.Contains(err.Error(), "ZombiesPerIngress") {
		t.Fatalf("Validate = %v, want ErrScenario naming ClientsPerIngress and ZombiesPerIngress", err)
	}
	if _, err := Run(s); !errors.Is(err, ErrScenario) || errors.Is(err, netsim.ErrDegree) {
		t.Fatalf("Run = %v, want the Validate refusal", err)
	}
	s.Topology.ClientsPerIngress--
	if err := s.Validate(); err != nil {
		t.Fatalf("ingress routers with MaxDegree links: %v", err)
	}
}

func TestScenarioValidateErrors(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{name: "zero duration", mutate: func(s *Scenario) { s.Duration = 0 }},
		{name: "duration at the horizon", mutate: func(s *Scenario) { s.Duration = sim.Horizon }},
		{name: "data packets over the IP maximum", mutate: func(s *Scenario) { s.Workload.PacketSize = netsim.MaxPacketSize + 1 }},
		{name: "probes over the IP maximum", mutate: func(s *Scenario) { s.MAFIC.ProbeSize = netsim.MaxPacketSize + 1 }},
		{name: "bad defense", mutate: func(s *Scenario) { s.Defense = DefenseKind(99) }},
		{name: "bad workload", mutate: func(s *Scenario) { s.Workload.TotalFlows = 0 }},
		{name: "bad mafic", mutate: func(s *Scenario) { s.MAFIC.DropProbability = 2 }},
		{name: "attack after end", mutate: func(s *Scenario) { s.Workload.AttackStart = s.Duration + sim.Second }},
		{name: "bad topology", mutate: func(s *Scenario) { s.Topology.NumRouters = 1 }},
		{name: "bad topology style", mutate: func(s *Scenario) { s.Topology.Style = 99 }},
		{name: "bad monitor epoch", mutate: func(s *Scenario) { s.Monitor.Epoch = -sim.Second }},
		{name: "bad monitor buckets", mutate: func(s *Scenario) { s.Monitor.Buckets = 100 }},
		{name: "bad pushback share", mutate: func(s *Scenario) { s.Pushback.ATRShare = 2 }},
		{name: "bad pushback history", mutate: func(s *Scenario) { s.Pushback.HistoryFactor = -1 }},
		// The proportional dropper drops at MAFIC.DropProbability, so
		// Validate bounds it for the baseline defence too.
		{name: "baseline probability above one", mutate: func(s *Scenario) {
			s.Defense = DefenseBaseline
			s.MAFIC.DropProbability = 1.5
		}},
		{name: "baseline probability negative", mutate: func(s *Scenario) {
			s.Defense = DefenseBaseline
			s.MAFIC.DropProbability = -0.2
		}},
		{name: "flash crowd after end", mutate: func(s *Scenario) {
			s.Workload.FlashCrowdFlows = 10
			s.Workload.FlashCrowdStart = s.Duration + sim.Second
		}},
		{name: "extra victim share without extra victims", mutate: func(s *Scenario) {
			s.Workload.ExtraVictimShare = 0.4
			s.Topology.ExtraVictims = 0
		}},
		{name: "coremelt share without bystanders", mutate: func(s *Scenario) {
			s.Workload.CoremeltShare = 0.5
			s.Topology.BystanderHosts = 0
		}},
		{name: "bad coremelt share", mutate: func(s *Scenario) {
			s.Workload.CoremeltShare = 1.2
		}},
		{name: "hardened knob negative", mutate: func(s *Scenario) {
			s.MAFIC.CondemnProbes = -1
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := DefaultScenario()
			tt.mutate(&s)
			if err := s.Validate(); !errors.Is(err, ErrScenario) {
				t.Fatalf("want ErrScenario, got %v", err)
			}
		})
	}
}

func TestDefenseKindString(t *testing.T) {
	t.Parallel()
	tests := []struct {
		kind DefenseKind
		want string
	}{
		{DefenseMAFIC, "mafic"},
		{DefenseBaseline, "proportional"},
		{DefenseNone, "none"},
		{DefenseKind(42), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Fatalf("DefenseKind(%d) = %q, want %q", tt.kind, got, tt.want)
		}
	}
}

func TestRunMAFICScenario(t *testing.T) {
	t.Parallel()
	res, err := Run(quickScenario())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Activated {
		t.Fatal("defense never activated")
	}
	if res.Accuracy < 0.90 {
		t.Fatalf("accuracy = %.3f, want >= 0.90", res.Accuracy)
	}
	if res.FalseNegativeRate > 0.10 {
		t.Fatalf("θn = %.3f, want <= 0.10", res.FalseNegativeRate)
	}
	if res.FalsePositiveRate > 0.02 {
		t.Fatalf("θp = %.3f, want <= 0.02", res.FalsePositiveRate)
	}
	if res.LegitimateDropRate > 0.20 {
		t.Fatalf("Lr = %.3f, want <= 0.20", res.LegitimateDropRate)
	}
	if res.TrafficReduction < 0.5 {
		t.Fatalf("β = %.3f, want >= 0.5", res.TrafficReduction)
	}
	if res.DefenseStats.FlowsProbed == 0 || res.DefenseStats.FlowsCondemned == 0 {
		t.Fatal("no flows were probed or condemned")
	}
	if res.Counts.ATRAttackPost == 0 {
		t.Fatal("no attack packets observed post-activation")
	}
	if len(res.Series) == 0 {
		t.Fatal("victim bandwidth series empty")
	}
	if res.EventsProcessed == 0 {
		t.Fatal("no events processed")
	}
}

func TestRunIsDeterministic(t *testing.T) {
	t.Parallel()
	s := quickScenario()
	a, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Accuracy != b.Accuracy || a.Counts != b.Counts || a.EventsProcessed != b.EventsProcessed {
		t.Fatal("identical scenarios produced different results")
	}
	s.Seed = 999
	c, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if c.Counts == a.Counts {
		t.Fatal("different seeds produced identical raw counts")
	}
}

func TestRunBaselineHasMoreCollateralDamage(t *testing.T) {
	t.Parallel()
	s := quickScenario()
	maficRes, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	s.Defense = DefenseBaseline
	baseRes, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	// The proportional dropper keeps dropping legitimate packets for the
	// whole run, so its collateral damage must clearly exceed MAFIC's.
	if baseRes.LegitimateDropRate <= maficRes.LegitimateDropRate {
		t.Fatalf("baseline Lr (%.3f) should exceed MAFIC Lr (%.3f)",
			baseRes.LegitimateDropRate, maficRes.LegitimateDropRate)
	}
	if baseRes.FalsePositiveRate <= maficRes.FalsePositiveRate {
		t.Fatalf("baseline θp (%.4f) should exceed MAFIC θp (%.4f)",
			baseRes.FalsePositiveRate, maficRes.FalsePositiveRate)
	}
}

func TestRunWithoutDefense(t *testing.T) {
	t.Parallel()
	s := quickScenario()
	s.Defense = DefenseNone
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy != 0 {
		t.Fatal("undefended run should drop nothing")
	}
	if res.Counts.DropAttack != 0 || res.Counts.DropLegitProbing != 0 {
		t.Fatal("undefended run recorded defense drops")
	}
}

func TestRunDetectionIdentifiesAttackIngress(t *testing.T) {
	t.Parallel()
	res, err := Run(quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	if !res.DetectedByPushback {
		t.Fatal("the default attack should be detected by the pushback layer, not the fallback")
	}
	if res.ATRCount == 0 {
		t.Fatal("no ATRs identified")
	}
	if res.ActivationSeconds <= quickScenario().Workload.AttackStart.Seconds() {
		t.Fatal("activation should happen after the attack starts")
	}
}

func TestRunFallbackActivation(t *testing.T) {
	t.Parallel()
	s := quickScenario()
	// Cripple detection so only the scheduled fallback can activate.
	s.Pushback.HistoryFactor = 1000
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Activated || res.DetectedByPushback {
		t.Fatal("fallback should have activated the defense")
	}
	if res.Accuracy < 0.85 {
		t.Fatalf("accuracy via fallback = %.3f, want >= 0.85", res.Accuracy)
	}
}

func TestRunInvalidScenario(t *testing.T) {
	t.Parallel()
	s := quickScenario()
	s.Duration = 0
	if _, err := Run(s); !errors.Is(err, ErrScenario) {
		t.Fatalf("want ErrScenario, got %v", err)
	}
}

// TestGenerateQuickFigures pins the JSON of every figure's quick sweep around
// quickScenario byte for byte (rewrite it with -update after an intentional
// change) and checks each figure's shape and metadata.
func TestGenerateQuickFigures(t *testing.T) {
	t.Parallel()
	// Generating every figure in Quick mode is the closest thing to an
	// end-to-end test of the whole harness. Keep the base scenario small
	// so the full set stays fast.
	figs, err := GenerateFigures(AllFigureIDs(), quickFigureOpts())
	if err != nil {
		t.Fatalf("GenerateFigures: %v", err)
	}
	got, err := json.MarshalIndent(figs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "figures-quick.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing fixture (generate with `go test -run TestGenerateQuickFigures -update`): %v", err)
		}
		if !bytes.Equal(got, want) {
			var pinned []Figure
			if err := json.Unmarshal(want, &pinned); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for i := range figs {
				if i >= len(pinned) || !reflect.DeepEqual(figs[i], pinned[i]) {
					t.Errorf("figure %s differs from %s", figs[i].ID, path)
				}
			}
			t.Fatalf("figures differ from %s", path)
		}
	}
	for i, id := range AllFigureIDs() {
		fig := figs[i]
		t.Run(string(id), func(t *testing.T) {
			if len(fig.Series) == 0 {
				t.Fatal("figure has no series")
			}
			for _, s := range fig.Series {
				if len(s.Points) == 0 {
					t.Fatalf("series %q has no points", s.Label)
				}
			}
			if fig.ID == "" || fig.Title == "" || fig.XLabel == "" || fig.YLabel == "" {
				t.Fatal("figure metadata incomplete")
			}
		})
	}
}

func TestGenerateUnknownFigure(t *testing.T) {
	t.Parallel()
	if _, err := Generate(FigureID("nope"), SweepOptions{Quick: true}); !errors.Is(err, ErrScenario) {
		t.Fatalf("want ErrScenario, got %v", err)
	}
}

func TestFig3aAccuracyShape(t *testing.T) {
	t.Parallel()
	fig, err := Generate(FigureF3a, quickFigureOpts())
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports accuracy consistently above 99%; with the scaled
	// simulation we accept anything above 90% but require every point to
	// be high and the Pd=90% series to dominate the Pd=70% series on
	// average.
	means := map[string]float64{}
	for _, s := range fig.Series {
		sum := 0.0
		for _, p := range s.Points {
			if p.Y < 90 {
				t.Fatalf("series %s point %v has accuracy %.2f%% < 90%%", s.Label, p.X, p.Y)
			}
			sum += p.Y
		}
		means[s.Label] = sum / float64(len(s.Points))
	}
	if means["Pd=90%"] < means["Pd=70%"] {
		t.Fatalf("Pd=90%% accuracy (%.2f) should not be below Pd=70%% (%.2f)",
			means["Pd=90%"], means["Pd=70%"])
	}
}
