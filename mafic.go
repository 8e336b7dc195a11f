// Package mafic is a Go reproduction of MAFIC — MAlicious Flow
// Identification and Cutoff (Chen, Kwok, Hwang; IEEE ICDCS Workshops 2005):
// adaptive packet dropping at attack-transit routers that probes flow
// sources with duplicated ACKs and permanently cuts off the flows that do
// not back off, pushing a DDoS attack away from its victim while sparing
// legitimate TCP traffic.
//
// The package is a façade over the building blocks in internal/: the
// discrete-event network simulator that replaces NS-2, the Durand–Flajolet
// set-union counting layer used for victim detection and ATR identification,
// the MAFIC defender itself, the proportional-dropping baseline, and the
// experiment harness that regenerates every figure of the paper's
// evaluation.
//
// Three entry points cover most uses:
//
//   - NewDefender attaches a MAFIC engine to a router of a simulated
//     topology (see internal/topology and internal/netsim) — use this when
//     composing custom simulations.
//   - Simulate runs a complete scenario (topology + workload + detection +
//     defence) and returns the paper's metrics.
//   - GenerateFigure reproduces a specific figure panel from the paper.
package mafic

import (
	"mafic/internal/core"
	"mafic/internal/experiment"
	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// Core defender types, re-exported for downstream use.
type (
	// Config tunes a MAFIC defender (P_d, probing window, thresholds).
	Config = core.Config
	// Defender is the per-ATR MAFIC engine; it implements the simulator's
	// packet-filter interface.
	Defender = core.Defender
	// Stats aggregates a defender's packet- and flow-level counters.
	Stats = core.Stats
	// DropReason explains an individual packet drop.
	DropReason = core.DropReason
)

// Scenario and figure-reproduction types.
type (
	// Scenario is a complete experiment configuration: topology, traffic
	// mix, detection and defence settings.
	Scenario = experiment.Scenario
	// Result carries the metrics of one scenario run (α, β, θp, θn, L_r).
	Result = experiment.Result
	// Figure is the regenerated data behind one figure of the paper.
	Figure = experiment.Figure
	// FigureID names one reproducible figure (e.g. "3a", "7").
	FigureID = experiment.FigureID
	// SweepOptions controls the resolution of figure parameter sweeps.
	SweepOptions = experiment.SweepOptions
	// DefenseKind selects MAFIC, the proportional baseline, or no defence.
	DefenseKind = experiment.DefenseKind
	// ScenarioEntry is one named scenario in the adversarial workload
	// catalog (see Scenarios).
	ScenarioEntry = experiment.Entry
)

// Defence selection for Scenario.Defense.
const (
	DefenseMAFIC    = experiment.DefenseMAFIC
	DefenseBaseline = experiment.DefenseBaseline
	DefenseNone     = experiment.DefenseNone
)

// Drop reasons reported to drop observers.
const (
	DropIllegalSource = core.DropIllegalSource
	DropPermanent     = core.DropPermanent
	DropProbing       = core.DropProbing
)

// RateScale documents how the paper's packet rates map onto simulated rates;
// see the experiment package for details.
const RateScale = experiment.RateScale

// DefaultConfig returns the paper's default MAFIC parameters (Table II):
// P_d = 90% and a probing window of 2×RTT.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewDefender creates a MAFIC defender bound to a router of a simulated
// network. Pass a nil RNG to derive one from the router's network.
func NewDefender(cfg Config, router *netsim.Router, rng *sim.RNG) (*Defender, error) {
	return core.NewDefender(cfg, router, rng)
}

// DefaultScenario returns the paper's default operating point (Table II):
// P_d = 90%, V_t = 50 flows, Γ = 95% TCP, R = 10⁶ pkt/s (scaled), N = 40
// routers.
func DefaultScenario() Scenario { return experiment.DefaultScenario() }

// Simulate runs one scenario end to end — topology construction, workload
// generation, set-union counting detection, ATR identification, and adaptive
// dropping — and returns its metrics.
func Simulate(s Scenario) (Result, error) { return experiment.Run(s) }

// Scenarios returns the built-in scenario catalog — the paper's Table II
// default plus the adversarial workloads (multi-victim floods, rolling
// pulses, flash crowds, heterogeneous rate mixes, shrew pulses, alternative
// topologies) — sorted by name.
func Scenarios() []ScenarioEntry { return experiment.Entries() }

// LookupScenario returns the catalog entry named name.
func LookupScenario(name string) (ScenarioEntry, bool) { return experiment.LookupScenario(name) }

// QuickScenario returns a scaled-down copy of a scenario that exercises the
// same pipeline in a fraction of the events; the golden-run regression tests
// pin exactly these variants.
func QuickScenario(s Scenario) Scenario { return experiment.Quick(s) }

// GenerateFigure regenerates the named figure panel of the paper's
// evaluation (for example "3a" for the accuracy-versus-volume plot).
func GenerateFigure(id FigureID, opts SweepOptions) (Figure, error) {
	return experiment.Generate(id, opts)
}

// AllFigures lists every reproducible figure identifier in presentation
// order.
func AllFigures() []FigureID { return experiment.AllFigureIDs() }
