package experiment

import (
	"errors"
	"reflect"
	"testing"

	"mafic/internal/sim"
)

func ptr[T any](v T) *T { return &v }

// TestOverridesBuild carries the ordering rules of the one override pipeline
// the maficsim flags and the maficserve job spec both go through: Quick before
// the overrides, Harden after them, the paper-scale rate divided by RateScale,
// one name-to-defence mapping, and every rejection an ErrScenario.
func TestOverridesBuild(t *testing.T) {
	t.Parallel()
	shrew := func() Scenario {
		e, ok := LookupScenario("shrew")
		if !ok {
			t.Fatal("shrew not registered")
		}
		return e.Build()
	}
	with := func(s Scenario, edit func(*Scenario)) Scenario {
		edit(&s)
		return s
	}
	cases := []struct {
		name string
		o    Overrides
		want Scenario
	}{
		{"nothing set is the paper default", Overrides{}, DefaultScenario()},
		{"a catalog entry as registered", Overrides{Scenario: "shrew"}, shrew()},
		{"quick is Quick", Overrides{Scenario: "shrew", Quick: true}, Quick(shrew())},
		{"an override survives quick", Overrides{Scenario: "shrew", Quick: true, Flows: ptr(80), Routers: ptr(60), Duration: ptr(5 * sim.Second)},
			with(Quick(shrew()), func(s *Scenario) {
				s.Workload.TotalFlows, s.Topology.NumRouters, s.Duration = 80, 60, 5*sim.Second
			})},
		{"harden after overrides", Overrides{Scenario: "shrew", Hardened: true, Pd: ptr(0.5)},
			Harden(with(shrew(), func(s *Scenario) { s.MAFIC.DropProbability = 0.5 }))},
		{"rate is paper scale", Overrides{Rate: ptr(5e5)},
			with(DefaultScenario(), func(s *Scenario) { s.Workload.AttackRate = 5e5 / RateScale })},
		{"seed, tcp share and defence", Overrides{Seed: ptr(int64(-7)), TCPShare: ptr(0.5), Defense: "proportional"},
			with(DefaultScenario(), func(s *Scenario) {
				s.Seed, s.Workload.TCPShare, s.Defense = -7, 0.5, DefenseBaseline
			})},
		{"no defence", Overrides{Defense: "none"},
			with(DefaultScenario(), func(s *Scenario) { s.Defense = DefenseNone })},
	}
	for _, tc := range cases {
		got, err := tc.o.Build()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		} else if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: built\n%+v\nwant\n%+v", tc.name, got, tc.want)
		}
	}

	rejected := []struct {
		name string
		o    Overrides
	}{
		{"unknown scenario", Overrides{Scenario: "no-such-scenario"}},
		{"quick without a scenario", Overrides{Quick: true}},
		{"unknown defence", Overrides{Defense: "magic"}},
		{"an override that does not validate", Overrides{Scenario: "table2", Duration: ptr(-sim.Second)}},
		{"more flows than source ports", Overrides{Flows: ptr(70000), Routers: ptr(4)}},
	}
	for _, tc := range rejected {
		if _, err := tc.o.Build(); !errors.Is(err, ErrScenario) {
			t.Errorf("%s: got %v, want ErrScenario", tc.name, err)
		}
	}
}
