package experiment

import (
	"fmt"

	"mafic/internal/sim"
)

// This file is the adversary-search harness, which measures robustness where
// the benchmark measures speed. A SearchSpec spans a deterministic grid of
// attack shapes (rotation period, group count, pulse duty cycle), per-flow
// rate mixes and victim spreads, runs every point under every defence
// configuration through the same RunMany worker pool the figure sweeps use,
// and reports the worst-case accuracy and collateral point per defence — so a
// config's robustness claim is "here is the best attack the grid found
// against it", not "here is one scenario it happens to win".

// AttackShape describes the temporal structure of the attack at one grid
// point. The zero value (no groups, no pulse) is a constant-rate flood.
type AttackShape struct {
	// Name labels the shape in reports.
	Name string `json:"name"`
	// Groups, when greater than one, makes the attack a rolling pulse with
	// this many rotation groups; RotationPeriod is the slot length. The
	// per-flow peak rate is multiplied by Groups so the time-averaged
	// volume matches the constant flood (as the catalog's rolling-pulse
	// scenario does).
	Groups int `json:"groups,omitempty"`
	// RotationPeriod is the rolling pulse's slot length.
	RotationPeriod sim.Time `json:"rotationPeriod,omitempty"`
	// PulsePeriod, when positive (and Groups <= 1), makes every attack
	// flow an on-off pulse with this cycle length.
	PulsePeriod sim.Time `json:"pulsePeriod,omitempty"`
	// DutyCycle is the flooding fraction of each pulse period.
	DutyCycle float64 `json:"dutyCycle,omitempty"`
}

// FaultShape names one failure model under search: the same attack grid is
// re-run under each shape, so a defence's worst case is reported per fault
// environment, not just under ideal conditions.
type FaultShape struct {
	// Name labels the shape in reports.
	Name string `json:"name"`
	// Faults is the failure model applied to every grid point under this
	// shape. The zero value is the fault-free environment.
	Faults FaultSpec `json:"faults,omitempty"`
}

// RateMix names one per-flow rate multiplier pattern.
type RateMix struct {
	// Name labels the mix in reports.
	Name string `json:"name"`
	// Multipliers is applied round-robin across attack flows; empty keeps
	// the uniform rate.
	Multipliers []float64 `json:"multipliers,omitempty"`
}

// DefenceVariant is one defence configuration under search, expressed as a
// transform over the base scenario so variants compose with scenario-specific
// tuning.
type DefenceVariant struct {
	// Name labels the defence in reports.
	Name string
	// Apply rewrites the scenario to use this defence configuration. A nil
	// Apply keeps the scenario unchanged.
	Apply func(Scenario) Scenario
}

// SearchSpec is the full grid: every combination of shape × rate mix ×
// victim spread is materialised as a scenario and run once per defence
// variant.
type SearchSpec struct {
	// Base is the scenario every grid point starts from. Its topology must
	// provide extra victims if any VictimSpread is positive.
	Base Scenario
	// Seed is folded with the point index into each point's scenario seed,
	// so the whole grid is reproducible from one number.
	Seed int64
	// Shapes, RateMixes and VictimSpreads are the grid axes.
	Shapes        []AttackShape
	RateMixes     []RateMix
	VictimSpreads []float64
	// FaultShapes is the failure-model axis; empty means a single
	// fault-free environment, keeping pre-fault specs unchanged.
	FaultShapes []FaultShape
	// Defences are the configurations being compared.
	Defences []DefenceVariant
}

// faultAxis normalises the failure-model axis: an unset axis is the single
// fault-free environment.
func (spec SearchSpec) faultAxis() []FaultShape {
	if len(spec.FaultShapes) == 0 {
		return []FaultShape{{Name: "none"}}
	}
	return spec.FaultShapes
}

// SearchPoint is one cell of the attack grid, before a defence is applied.
type SearchPoint struct {
	// Index is the point's position in enumeration order; it also offsets
	// the point's seed from the spec seed.
	Index int
	// Shape, Mix, Spread and Fault are the point's coordinates.
	Shape  AttackShape
	Mix    RateMix
	Spread float64
	Fault  FaultShape
}

// Grid enumerates the spec's attack points in deterministic nested order:
// fault shapes outermost (so a single-fault spec keeps the historical point
// order), then attack shapes, rate mixes and victim spreads.
func (spec SearchSpec) Grid() []SearchPoint {
	faults := spec.faultAxis()
	points := make([]SearchPoint, 0,
		len(faults)*len(spec.Shapes)*len(spec.RateMixes)*len(spec.VictimSpreads))
	for _, fault := range faults {
		for _, shape := range spec.Shapes {
			for _, mix := range spec.RateMixes {
				for _, spread := range spec.VictimSpreads {
					points = append(points, SearchPoint{
						Index:  len(points),
						Shape:  shape,
						Mix:    mix,
						Spread: spread,
						Fault:  fault,
					})
				}
			}
		}
	}
	return points
}

// scenario materialises one grid point under one defence variant.
func (spec SearchSpec) scenario(def DefenceVariant, p SearchPoint, quick bool) Scenario {
	s := spec.Base
	s.Name = fmt.Sprintf("%s/%s/%s/%s/spread%.2f",
		def.Name, p.Fault.Name, p.Shape.Name, p.Mix.Name, p.Spread)
	s.Seed = spec.Seed + int64(p.Index)
	s.Faults = p.Fault.Faults

	w := &s.Workload
	w.AttackGroups, w.AttackRotationPeriod = 0, 0
	w.AttackPulsePeriod, w.AttackDutyCycle = 0, 0
	switch {
	case p.Shape.Groups > 1:
		w.AttackGroups = p.Shape.Groups
		w.AttackRotationPeriod = p.Shape.RotationPeriod
		// Peak × Groups keeps the time-averaged volume equal to the
		// constant flood, so accuracy is compared at equal attack mass.
		w.AttackRate *= float64(p.Shape.Groups)
	case p.Shape.PulsePeriod > 0:
		w.AttackPulsePeriod = p.Shape.PulsePeriod
		w.AttackDutyCycle = p.Shape.DutyCycle
	}
	w.AttackRateMix = p.Mix.Multipliers
	w.ExtraVictimShare = p.Spread

	if def.Apply != nil {
		s = def.Apply(s)
	}
	if quick {
		s = Quick(s)
	}
	return s
}

// PointOutcome is one (defence, attack point) result with the metrics the
// worst-case selection ranks on.
type PointOutcome struct {
	Name   string  `json:"name"`
	Seed   int64   `json:"seed"`
	Shape  string  `json:"shape"`
	Mix    string  `json:"mix"`
	Spread float64 `json:"victimSpread"`
	Fault  string  `json:"fault,omitempty"`

	Accuracy           float64 `json:"accuracy"`
	LegitimateDropRate float64 `json:"legitimateDropRate"`
	FalsePositiveRate  float64 `json:"falsePositiveRate"`

	Activated          bool `json:"activated"`
	DetectedByPushback bool `json:"detectedByPushback"`
	ATRCount           int  `json:"atrCount"`
	FlowsReprobed      int  `json:"flowsReprobed,omitempty"`
	LegitCondemned     int  `json:"legitFlowsCondemned"`
	AttackForgiven     int  `json:"attackFlowsForgiven"`
}

// DefenceOutcome aggregates one defence variant across the whole grid.
type DefenceOutcome struct {
	Defence string `json:"defence"`
	// WorstAccuracy is the grid point with the lowest attacking-packet
	// dropping accuracy — the best attack the grid found.
	WorstAccuracy PointOutcome `json:"worstAccuracy"`
	// WorstCollateral is the grid point with the highest legitimate packet
	// drop rate.
	WorstCollateral PointOutcome `json:"worstCollateral"`
	// MeanAccuracy averages accuracy over the grid.
	MeanAccuracy float64 `json:"meanAccuracy"`
	// ByFault breaks the worst case down per failure model, in the fault
	// axis's order — the robustness claim under churn, not just in the
	// fault-free environment.
	ByFault []FaultOutcome `json:"byFault,omitempty"`
	// Points holds every grid point's outcome in enumeration order.
	Points []PointOutcome `json:"points"`
}

// FaultOutcome aggregates one defence variant over the grid points sharing a
// failure model.
type FaultOutcome struct {
	Fault string `json:"fault"`
	// WorstAccuracy is the lowest-accuracy point under this failure model.
	WorstAccuracy PointOutcome `json:"worstAccuracy"`
	// MeanAccuracy averages accuracy over this failure model's points.
	MeanAccuracy float64 `json:"meanAccuracy"`
}

// SearchReport is the harness's JSON-serialisable output.
type SearchReport struct {
	Quick    bool             `json:"quick"`
	Seed     int64            `json:"seed"`
	GridSize int              `json:"gridSize"`
	Defences []DefenceOutcome `json:"defences"`
}

// SearchOptions tunes a Search run.
type SearchOptions struct {
	// Quick runs every point through the same scaled-down transform the
	// golden tests pin, turning the full grid into a seconds-long smoke.
	Quick bool
	// Workers caps concurrent runs as in RunMany; zero means GOMAXPROCS.
	Workers int
}

// DefaultSearchSpec returns the standard robustness grid: six attack shapes
// (constant, three rolling-pulse variants, shrew, fast pulse) × two rate
// mixes × two victim spreads, evaluated against the paper-faithful and
// hardened defences. 24 attack points, 48 runs.
func DefaultSearchSpec() SearchSpec {
	base := DefaultScenario()
	base.Topology.ExtraVictims = 2
	base.Workload.TotalFlows = 60
	base.Workload.TCPShare = 0.80
	return SearchSpec{
		Base: base,
		Seed: 1,
		Shapes: []AttackShape{
			{Name: "constant"},
			{Name: "rolling-150ms-3g", Groups: 3, RotationPeriod: 150 * sim.Millisecond},
			{Name: "rolling-60ms-3g", Groups: 3, RotationPeriod: 60 * sim.Millisecond},
			{Name: "rolling-300ms-2g", Groups: 2, RotationPeriod: 300 * sim.Millisecond},
			{Name: "shrew-1s-8pct", PulsePeriod: 1 * sim.Second, DutyCycle: 0.08},
			{Name: "pulse-400ms-25pct", PulsePeriod: 400 * sim.Millisecond, DutyCycle: 0.25},
		},
		RateMixes: []RateMix{
			{Name: "uniform"},
			{Name: "mixed", Multipliers: []float64{0.05, 0.25, 1, 3}},
		},
		VictimSpreads: []float64{0, 0.4},
		// The failure-model axis re-runs the whole attack grid under
		// churn: loaded transit-link flaps mid-attack and a 20%-lossy
		// control plane (link 1-2 carries a seed-1 ingress path and both
		// endpoints stay transit routers in the full 40-router domain and
		// the 16-router quick variant alike).
		FaultShapes: []FaultShape{
			{Name: "none"},
			{Name: "link-flaps", Faults: FaultSpec{LinkFlaps: []LinkFlap{
				{RouterA: 1, RouterB: 2, Start: 800 * sim.Millisecond,
					DownFor: 150 * sim.Millisecond, Period: 400 * sim.Millisecond, Count: 3},
			}}},
			{Name: "lossy-20pct", Faults: FaultSpec{ReportLoss: 0.2}},
		},
		Defences: []DefenceVariant{
			{Name: "paper"},
			{Name: "hardened", Apply: Harden},
		},
	}
}

// QuickSearchSpec returns the tiny smoke grid `make search-smoke` runs: three
// shapes, uniform rates, no victim spread — six quick-mode runs.
func QuickSearchSpec() SearchSpec {
	spec := DefaultSearchSpec()
	spec.Shapes = []AttackShape{
		spec.Shapes[0], // constant
		spec.Shapes[1], // rolling-150ms-3g
		spec.Shapes[4], // shrew
	}
	spec.RateMixes = spec.RateMixes[:1]
	spec.VictimSpreads = []float64{0}
	spec.FaultShapes = []FaultShape{
		spec.FaultShapes[0], // none
		spec.FaultShapes[1], // link-flaps
	}
	return spec
}

// Search runs the full grid under every defence variant and folds the results
// into per-defence worst cases. Point seeds, enumeration order and worst-case
// tie-breaks are all deterministic, and RunMany's parallel execution is
// bit-identical to serial, so the same spec and seed always produce the same
// report regardless of worker count.
func Search(spec SearchSpec, opts SearchOptions) (SearchReport, error) {
	if len(spec.Shapes) == 0 || len(spec.RateMixes) == 0 || len(spec.VictimSpreads) == 0 {
		return SearchReport{}, fmt.Errorf("%w: search grid has an empty axis", ErrScenario)
	}
	if len(spec.Defences) == 0 {
		return SearchReport{}, fmt.Errorf("%w: search needs at least one defence variant", ErrScenario)
	}
	points := spec.Grid()

	scenarios := make([]Scenario, 0, len(spec.Defences)*len(points))
	for _, def := range spec.Defences {
		for _, p := range points {
			s := spec.scenario(def, p, opts.Quick)
			if err := s.Validate(); err != nil {
				return SearchReport{}, fmt.Errorf("point %q: %w", s.Name, err)
			}
			scenarios = append(scenarios, s)
		}
	}

	results, err := RunMany(scenarios, opts.Workers)
	if err != nil {
		return SearchReport{}, err
	}

	report := SearchReport{
		Quick:    opts.Quick,
		Seed:     spec.Seed,
		GridSize: len(points),
		Defences: make([]DefenceOutcome, 0, len(spec.Defences)),
	}
	for di, def := range spec.Defences {
		outcome := DefenceOutcome{
			Defence: def.Name,
			Points:  make([]PointOutcome, 0, len(points)),
		}
		sum := 0.0
		for pi, p := range points {
			res := results[di*len(points)+pi]
			po := PointOutcome{
				Name:               res.Name,
				Seed:               spec.Seed + int64(p.Index),
				Shape:              p.Shape.Name,
				Mix:                p.Mix.Name,
				Spread:             p.Spread,
				Fault:              p.Fault.Name,
				Accuracy:           res.Accuracy,
				LegitimateDropRate: res.LegitimateDropRate,
				FalsePositiveRate:  res.FalsePositiveRate,
				Activated:          res.Activated,
				DetectedByPushback: res.DetectedByPushback,
				ATRCount:           res.ATRCount,
				FlowsReprobed:      int(res.DefenseStats.FlowsReprobed),
				LegitCondemned:     res.LegitFlowsCondemned,
				AttackForgiven:     res.AttackFlowsForgiven,
			}
			outcome.Points = append(outcome.Points, po)
			sum += po.Accuracy
			// Strict comparisons keep the earliest point on ties, so the
			// worst case is deterministic across runs and worker counts.
			if pi == 0 || po.Accuracy < outcome.WorstAccuracy.Accuracy {
				outcome.WorstAccuracy = po
			}
			if pi == 0 || po.LegitimateDropRate > outcome.WorstCollateral.LegitimateDropRate {
				outcome.WorstCollateral = po
			}
		}
		outcome.MeanAccuracy = sum / float64(len(points))
		for _, fault := range spec.faultAxis() {
			fo := FaultOutcome{Fault: fault.Name}
			n, faultSum := 0, 0.0
			for _, po := range outcome.Points {
				if po.Fault != fault.Name {
					continue
				}
				if n == 0 || po.Accuracy < fo.WorstAccuracy.Accuracy {
					fo.WorstAccuracy = po
				}
				faultSum += po.Accuracy
				n++
			}
			if n > 0 {
				fo.MeanAccuracy = faultSum / float64(n)
				outcome.ByFault = append(outcome.ByFault, fo)
			}
		}
		report.Defences = append(report.Defences, outcome)
	}
	return report, nil
}
