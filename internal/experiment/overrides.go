package experiment

import (
	"fmt"

	"mafic/internal/sim"
)

// Overrides names a run the way a user does: a catalog scenario (or the
// paper's Table II default) and the few knobs worth setting from outside.
// maficsim's flag set and maficserve's JSON job spec are views of it. Pointer
// fields distinguish "not set" (keep the scenario's own knob) from an
// explicit zero.
type Overrides struct {
	// Scenario is a catalog name (see maficsim -list). Empty runs the
	// paper-default scenario.
	Scenario string
	// Quick runs the scaled-down variant of a catalog entry. It is applied
	// before the overrides, so an explicit knob survives the scaling.
	Quick bool
	// Hardened applies the robustness hardening after the overrides.
	Hardened bool

	Seed     *int64
	Duration *sim.Time
	Pd       *float64
	Flows    *int
	TCPShare *float64
	// Rate is the attack source rate R in paper-scale packets/s; the
	// simulated rate is Rate / RateScale.
	Rate    *float64
	Routers *int
	// Defense is a ParseDefense name; empty keeps the scenario's own.
	Defense string
}

// Build materializes the overrides into a validated Scenario: catalog lookup,
// Quick before the overrides, Harden after. Every rejection wraps ErrScenario.
func (o Overrides) Build() (Scenario, error) {
	var s Scenario
	if o.Scenario == "" {
		if o.Quick {
			return s, fmt.Errorf("%w: quick scales down a catalog entry; name a scenario", ErrScenario)
		}
		s = DefaultScenario()
	} else {
		e, ok := LookupScenario(o.Scenario)
		if !ok {
			return s, fmt.Errorf("%w: unknown scenario %q (maficsim -list prints the catalog)", ErrScenario, o.Scenario)
		}
		s = e.Build()
		if o.Quick {
			s = Quick(s)
		}
	}
	if o.Seed != nil {
		s.Seed = *o.Seed
	}
	if o.Duration != nil {
		s.Duration = *o.Duration
	}
	if o.Pd != nil {
		s.MAFIC.DropProbability = *o.Pd
	}
	if o.Flows != nil {
		s.Workload.TotalFlows = *o.Flows
	}
	if o.TCPShare != nil {
		s.Workload.TCPShare = *o.TCPShare
	}
	if o.Rate != nil {
		s.Workload.AttackRate = *o.Rate / RateScale
	}
	if o.Routers != nil {
		s.Topology.NumRouters = *o.Routers
	}
	if o.Hardened {
		s = Harden(s)
	}
	if o.Defense != "" {
		kind, err := ParseDefense(o.Defense)
		if err != nil {
			return s, err
		}
		s.Defense = kind
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}
