// Package experiment assembles full MAFIC scenarios — topology, workload,
// measurement layer, pushback detection and per-ATR defence — runs them on
// the discrete-event engine, and computes the metrics the paper reports. It
// also contains the parameter sweeps that regenerate every figure of the
// evaluation section.
package experiment

import (
	"errors"
	"fmt"

	"mafic/internal/core"
	"mafic/internal/metrics"
	"mafic/internal/pushback"
	"mafic/internal/sim"
	"mafic/internal/topology"
	"mafic/internal/traffic"
	"mafic/internal/trafficmatrix"
)

// ErrScenario is returned for invalid scenario configurations.
var ErrScenario = errors.New("experiment: invalid scenario")

// DefenseKind selects which defence (if any) runs at the ATRs.
type DefenseKind int

// Defence choices.
const (
	// DefenseMAFIC runs the adaptive MAFIC defender (the paper's
	// contribution).
	DefenseMAFIC DefenseKind = iota + 1
	// DefenseBaseline runs the proportional dropper from the authors'
	// earlier pushback work, the paper's implicit baseline.
	DefenseBaseline
	// DefenseNone runs no dropping at all (undefended reference).
	DefenseNone
)

// String implements fmt.Stringer.
func (k DefenseKind) String() string {
	switch k {
	case DefenseMAFIC:
		return "mafic"
	case DefenseBaseline:
		return "proportional"
	case DefenseNone:
		return "none"
	default:
		return "unknown"
	}
}

// ParseDefense is the inverse of DefenseKind.String: the defence a user names
// as "mafic", "proportional" or "none".
func ParseDefense(name string) (DefenseKind, error) {
	for _, k := range []DefenseKind{DefenseMAFIC, DefenseBaseline, DefenseNone} {
		if name == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown defense %q", ErrScenario, name)
}

// RateScale documents how the paper's packet rates map onto the simulated
// rates: the paper's default R = 10⁶ packets/s per attack flow is simulated
// as R/RateScale so a full parameter sweep finishes in seconds. Ratios
// between series (100 kpps : 500 kpps : 1 Mpps) are preserved exactly.
const RateScale = 200.0

// Scenario is one complete experiment configuration.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string
	// Seed drives every random choice in the run.
	Seed int64
	// Duration is the total simulated time.
	Duration sim.Time

	// Topology configures the domain (paper parameter N lives here).
	Topology topology.Config
	// Workload configures the traffic mix (V_t, Γ, R).
	Workload traffic.WorkloadSpec
	// MAFIC configures the defenders (P_d, probe window).
	MAFIC core.Config
	// Defense selects MAFIC, the proportional baseline, or nothing. The
	// proportional dropper drops at MAFIC.DropProbability.
	Defense DefenseKind

	// Monitor configures the set-union counting measurement epochs. Its
	// report loss and delay must be zero: Faults declares them.
	Monitor trafficmatrix.MonitorConfig
	// Pushback configures victim detection and ATR identification. Its
	// Eligible must be empty: a run makes every ingress router eligible.
	Pushback pushback.Config
	// DetectionFallback activates the defence on every ingress router
	// this long after the attack starts if the pushback layer has not
	// triggered by then. Zero disables the fallback.
	DetectionFallback sim.Time

	// Faults is the scenario's failure model: scheduled link flaps and
	// router crash windows plus a lossy control plane. The zero value
	// injects nothing and leaves every fault-free run bit-identical.
	Faults FaultSpec

	// BinWidth is the victim bandwidth time-series bin width; it must be
	// positive.
	BinWidth sim.Time
	// ReductionWindow is the measurement window for the traffic
	// reduction rate β on either side of the activation instant. Zero
	// reports β as 0.
	ReductionWindow sim.Time
}

// DefaultScenario returns the paper's default configuration (Table II):
// P_d = 90%, R = 10⁶ pkt/s (scaled by RateScale), V_t = 50 flows, Γ = 95%,
// N = 40 routers.
func DefaultScenario() Scenario {
	topo := topology.DefaultConfig()
	work := traffic.DefaultWorkloadSpec()
	work.AttackRate = 1e6 / RateScale
	work.LegitRate = 250
	work.AttackStart = 600 * sim.Millisecond

	mafic := core.DefaultConfig()

	// Detection builds four epochs (400 ms) of per-router baseline before
	// it may fire, so the legitimate flows' slow-start ramp never looks
	// like an attack. Once raised, pushback stays in force for the rest of
	// the run; pushback.Config says why.
	pb := pushback.DefaultConfig()
	pb.MinHistoryEpochs = 4

	return Scenario{
		Name:              "table2-defaults",
		Seed:              1,
		Duration:          3 * sim.Second,
		Topology:          topo,
		Workload:          work,
		MAFIC:             mafic,
		Defense:           DefenseMAFIC,
		Monitor:           trafficmatrix.MonitorConfig{Epoch: 100 * sim.Millisecond},
		Pushback:          pb,
		DetectionFallback: 400 * sim.Millisecond,
		BinWidth:          50 * sim.Millisecond,
		ReductionWindow:   100 * sim.Millisecond,
	}
}

// Harden returns a copy of s with the robustness hardening switched on: the
// defenders gain probing memory and idle-gap re-probing (core.HardenedConfig)
// and the pushback coordinator gains cross-epoch ATR hysteresis
// (pushback.HardenedConfig). Scenario-specific tuning of every other knob is
// preserved.
func Harden(s Scenario) Scenario {
	hc := core.HardenedConfig()
	s.MAFIC.ReprobeAfterIdle = hc.ReprobeAfterIdle
	s.MAFIC.CondemnProbes = hc.CondemnProbes
	s.MAFIC.ProbeMemoryCapacity = hc.ProbeMemoryCapacity
	hp := pushback.HardenedConfig()
	s.Pushback.ATRRise = hp.ATRRise
	s.Pushback.ATRDecay = hp.ATRDecay
	s.Pushback.StaleEpochs = hp.StaleEpochs
	s.Pushback.RefireBackoffEpochs = hp.RefireBackoffEpochs
	return s
}

// Validate reports configuration problems before an expensive run.
func (s Scenario) Validate() error {
	if s.Duration <= 0 || s.Duration >= sim.Horizon {
		return fmt.Errorf("%w: duration must be positive and under sim.Horizon", ErrScenario)
	}
	if s.Defense < DefenseMAFIC || s.Defense > DefenseNone {
		return fmt.Errorf("%w: unknown defence kind %d", ErrScenario, s.Defense)
	}
	if err := s.Topology.Validate(); err != nil {
		return fmt.Errorf("%w: topology: %v", ErrScenario, err)
	}
	if err := s.Workload.Validate(); err != nil {
		return fmt.Errorf("%w: workload: %v", ErrScenario, err)
	}
	if m := s.Monitor; m.ReportLoss != 0 || m.ReportDelayProb != 0 || m.ReportDelay != 0 {
		return fmt.Errorf("%w: monitor report loss and delay belong in Faults", ErrScenario)
	}
	if err := s.Monitor.Validate(); err != nil {
		return fmt.Errorf("%w: monitor: %v", ErrScenario, err)
	}
	if len(s.Pushback.Eligible) > 0 {
		return fmt.Errorf("%w: pushback eligibility is the domain's ingress routers, not a scenario knob", ErrScenario)
	}
	if err := s.Pushback.Validate(); err != nil {
		return fmt.Errorf("%w: pushback: %v", ErrScenario, err)
	}
	switch s.Defense {
	case DefenseMAFIC:
		if err := s.MAFIC.Validate(); err != nil {
			return fmt.Errorf("%w: mafic: %v", ErrScenario, err)
		}
	case DefenseBaseline:
		if p := s.MAFIC.DropProbability; p < 0 || p > 1 {
			return fmt.Errorf("%w: proportional drop probability %v outside [0,1]", ErrScenario, p)
		}
	}
	if s.DetectionFallback < 0 {
		return fmt.Errorf("%w: detection fallback %v must not be negative", ErrScenario, s.DetectionFallback)
	}
	if s.BinWidth <= 0 {
		return fmt.Errorf("%w: bin width %v must be positive", ErrScenario, s.BinWidth)
	}
	if s.ReductionWindow < 0 {
		return fmt.Errorf("%w: reduction window %v must not be negative", ErrScenario, s.ReductionWindow)
	}
	if err := s.Faults.Validate(s.Topology.NumRouters, s.Duration); err != nil {
		return err
	}
	if s.Workload.AttackStart >= s.Duration {
		return fmt.Errorf("%w: attack starts after the simulation ends", ErrScenario)
	}
	if s.Workload.FlashCrowdFlows > 0 && s.Workload.FlashCrowdStart >= s.Duration {
		return fmt.Errorf("%w: flash crowd starts after the simulation ends", ErrScenario)
	}
	if s.Workload.ExtraVictimShare > 0 && s.Topology.ExtraVictims == 0 {
		return fmt.Errorf("%w: extra-victim share %v needs topology extra victims",
			ErrScenario, s.Workload.ExtraVictimShare)
	}
	if s.Workload.CoremeltShare > 0 && s.Topology.BystanderHosts == 0 {
		return fmt.Errorf("%w: coremelt share %v needs topology bystander hosts",
			ErrScenario, s.Workload.CoremeltShare)
	}
	return nil
}

// Result summarises one scenario run with the paper's metrics.
type Result struct {
	// Name echoes the scenario name.
	Name string `json:"name"`
	// Pd, Volume, TCPShare, AttackRate and Routers echo the headline
	// parameters so sweep outputs are self-describing.
	Pd         float64 `json:"pd"`
	Volume     int     `json:"volume"`
	TCPShare   float64 `json:"tcpShare"`
	AttackRate float64 `json:"attackRate"`
	Routers    int     `json:"routers"`
	Defense    string  `json:"defense"`

	// Activated reports whether the defence was ever switched on, when,
	// and whether the pushback detector (rather than the fallback) did it.
	Activated          bool    `json:"activated"`
	ActivationSeconds  float64 `json:"activationSeconds"`
	DetectedByPushback bool    `json:"detectedByPushback"`
	ATRCount           int     `json:"atrCount"`

	// The paper's headline metrics (fractions in [0,1]).
	Accuracy           float64 `json:"accuracy"`
	FalsePositiveRate  float64 `json:"falsePositiveRate"`
	FalseNegativeRate  float64 `json:"falseNegativeRate"`
	LegitimateDropRate float64 `json:"legitimateDropRate"`
	TrafficReduction   float64 `json:"trafficReduction"`

	// Flow-level outcomes.
	FlowsProbed         int `json:"flowsProbed"`
	LegitFlowsCondemned int `json:"legitFlowsCondemned"`
	AttackFlowsForgiven int `json:"attackFlowsForgiven"`

	// Raw counters and the victim bandwidth time series.
	Counts metrics.Counts           `json:"counts"`
	Series []metrics.BandwidthPoint `json:"series,omitempty"`

	// DefenseStats aggregates the per-ATR MAFIC counters.
	DefenseStats core.Stats `json:"defenseStats"`

	// EventsProcessed counts discrete events executed by the run.
	EventsProcessed uint64 `json:"eventsProcessed"`

	// RouteEntries and RouteBytes report the resident routing state at the
	// end of the run: demand-driven routing materializes route columns
	// only for destinations the workload actually used, so these measure
	// how much of the domain's reachability the scenario paid for. An
	// entry is a one-byte position in its node's adjacency row, so
	// RouteBytes equals RouteEntries on every GOARCH.
	RouteEntries int   `json:"routeEntries"`
	RouteBytes   int64 `json:"routeBytes"`
}
