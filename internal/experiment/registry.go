package experiment

import (
	"slices"
	"strings"

	"mafic/internal/sim"
	"mafic/internal/topology"
)

// Entry is one named, self-describing scenario in the catalog. Build must
// return a fresh Scenario on every call so callers can mutate the result
// freely.
type Entry struct {
	// Name is the catalog key, used by `maficsim -scenario <name>`.
	Name string
	// Description is a one-line summary of the adversary strategy the
	// scenario exercises.
	Description string
	// Build constructs the scenario with its default knobs and seed.
	Build func() Scenario
}

// LookupScenario returns the catalog entry for name.
func LookupScenario(name string) (Entry, bool) {
	i, ok := slices.BinarySearchFunc(catalog, name, func(e Entry, name string) int {
		return strings.Compare(e.Name, name)
	})
	if !ok {
		return Entry{}, false
	}
	return catalog[i], true
}

// Entries returns every catalog entry sorted by name.
func Entries() []Entry { return slices.Clone(catalog) }

// stressScaleRouters marks the boundary between ordinary scenarios and
// scale proofs: at or above this router count the domain size IS the point
// of the scenario, so Quick keeps it and shrinks only time and traffic.
const stressScaleRouters = 600

// Quick returns a scaled-down copy of s that exercises the same pipeline —
// same adversary strategy, same detection and defence path — in a fraction
// of the events. Tests and golden-run fixtures use it so the whole catalog
// re-runs quickly. Stress-class scenarios (router count at or above
// stressScaleRouters) keep their full domain: their quick variant still
// builds and measures a 1000-router network, only the simulated time and
// flow volume shrink.
func Quick(s Scenario) Scenario {
	switch {
	case s.Topology.NumRouters >= stressScaleRouters:
		// Keep the router graph; trim the host population.
		s.Topology.BystanderHosts = 16
	case s.Topology.Style == topology.StyleTransitStub:
		s.Topology.NumRouters = 18
		s.Topology.TransitRouters = 3
		s.Topology.BystanderHosts = 8
	default:
		s.Topology.NumRouters = 16
		s.Topology.ExtraChords = 4
		s.Topology.BystanderHosts = 8
	}
	if s.Workload.TotalFlows > 30 {
		s.Workload.TotalFlows = 30
	}
	if s.Workload.FlashCrowdFlows > 12 {
		s.Workload.FlashCrowdFlows = 12
	}
	if s.Duration > 2*sim.Second {
		s.Duration = 2 * sim.Second
	}
	if s.DetectionFallback > 300*sim.Millisecond {
		s.DetectionFallback = 300 * sim.Millisecond
	}
	return s
}

// builtin assembles a catalog entry whose scenario starts from the paper's
// Table II defaults and applies the given twist.
func builtin(name, description string, twist func(*Scenario)) Entry {
	return Entry{
		Name:        name,
		Description: description,
		Build: func() Scenario {
			s := DefaultScenario()
			s.Name = name
			if twist != nil {
				twist(&s)
			}
			return s
		},
	}
}

// catalog is the built-in scenario catalog, sorted by name: the paper's
// default operating point plus the adversarial workloads the paper never
// tried. Every entry runs through the same Run/RunMany path and emits the same
// Result metrics, so any of them is one `-scenario <name>` away from a
// reproducible, benchmarkable run.
var catalog = []Entry{
	builtin("carpet-bombing",
		"carpet bombing: the flood is spread across eight small victims behind their own routers, so no single |D_j| spikes hard",
		func(s *Scenario) {
			s.Topology.ExtraVictims = 8
			s.Workload.TotalFlows = 70
			s.Workload.TCPShare = 0.70
			s.Workload.ExtraVictimShare = 0.75
		}),

	builtin("coremelt",
		"coremelt-style: most attack flows cross the transit core toward bystander hosts, congesting the victim's links without ever addressing the victim",
		func(s *Scenario) {
			s.Topology = topology.DefaultTransitStubConfig()
			s.Workload.TotalFlows = 60
			s.Workload.TCPShare = 0.80
			s.Workload.CoremeltShare = 0.6
		}),

	// Chaos scenarios (flap-core, lossy-control, partition-heal): the same
	// floods with the fault layer switched on.
	// Fault indices are chosen so the failed elements sit on loaded
	// ingress-to-victim paths and stay transit (never ingress, never the
	// last hop) in both the full 40-router domain and the 16-router quick
	// variant, so the golden fixtures and the full runs churn the same
	// roles: links 1-2 and 8-9 carry the seed-1 shortest paths from the
	// third and ninth ingress routers, and router 7 is the chord hub most
	// ingress paths funnel through.
	builtin("flap-core",
		"chaos: two loaded transit ring links flap repeatedly during the flood (150 ms outages every 400 ms); lazy routing re-converges around every flap while detection and defence keep running",
		func(s *Scenario) {
			s.Faults.LinkFlaps = []LinkFlap{
				{RouterA: 1, RouterB: 2, Start: 800 * sim.Millisecond,
					DownFor: 150 * sim.Millisecond, Period: 400 * sim.Millisecond, Count: 3},
				{RouterA: 8, RouterB: 9, Start: 1000 * sim.Millisecond,
					DownFor: 150 * sim.Millisecond, Period: 400 * sim.Millisecond, Count: 2},
			}
		}),

	builtin("flash-crowd",
		"legitimate TCP flash crowd (no spoofing) arrives with the attack — tests discrimination, not detection",
		func(s *Scenario) {
			s.Workload.FlashCrowdFlows = 25
			s.Workload.FlashCrowdStart = s.Workload.AttackStart
			s.Workload.FlashCrowdWindow = 150 * sim.Millisecond
			s.Workload.FlashCrowdRate = s.Workload.LegitRate
		}),

	builtin("flash-overlap",
		"flash crowd arrives 700 ms after the attack, meeting an already-active defender at first sight — worst case for probing collateral",
		func(s *Scenario) {
			s.Workload.FlashCrowdFlows = 25
			s.Workload.FlashCrowdStart = s.Workload.AttackStart + 700*sim.Millisecond
			s.Workload.FlashCrowdWindow = 150 * sim.Millisecond
			s.Workload.FlashCrowdRate = s.Workload.LegitRate
		}),

	builtin("lossy-control",
		"chaos: the stress-5k flood under a degraded control plane — 20% of epoch reports lost and 10% delayed 20 ms — with the coordinator's staleness timeout and re-fire backoff absorbing the gaps",
		func(s *Scenario) {
			s.Topology.NumRouters = 5000
			s.Topology.NumIngress = 40
			s.Topology.ExtraChords = 1500
			s.Topology.BystanderHosts = 32
			s.Topology.ExtraVictims = 2
			s.Workload.TotalFlows = 80
			s.Workload.TCPShare = 0.80
			s.Workload.ExtraVictimShare = 0.3
			s.Faults.ReportLoss = 0.2
			s.Faults.ReportDelayProb = 0.1
			s.Faults.ReportDelay = 20 * sim.Millisecond
			s.Pushback.StaleEpochs = 4
			s.Pushback.RefireBackoffEpochs = 2
		}),

	builtin("multi-victim",
		"simultaneous floods on the primary victim and two extra victims behind their own last-hop routers",
		func(s *Scenario) {
			s.Topology.ExtraVictims = 2
			s.Workload.TotalFlows = 60
			s.Workload.TCPShare = 0.80
			s.Workload.ExtraVictimShare = 0.4
		}),

	builtin("multihomed-victim",
		"victim is dual-homed, splitting its inbound flood across two last-hop routers",
		func(s *Scenario) {
			s.Topology.MultiHomedVictim = true
		}),

	builtin("partition-heal",
		"chaos: the transit chord hub crashes at 700 ms — cutting every ingress path through it mid-defence — and rejoins at 1.4 s; routing heals both ways and the defence survives the churn",
		func(s *Scenario) {
			s.Faults.RouterCrashes = []RouterCrash{
				{Router: 7, CrashAt: 700 * sim.Millisecond, RestoreAt: 1400 * sim.Millisecond},
			}
		}),

	builtin("rate-mix",
		"heterogeneous attack: per-flow rates span 0.05×–3× R, hiding slow floods behind loud ones",
		func(s *Scenario) {
			s.Workload.TotalFlows = 60
			s.Workload.TCPShare = 0.80
			s.Workload.AttackRateMix = []float64{0.05, 0.25, 1, 3}
		}),

	builtin("rolling-pulse",
		"rotating source groups hand the flooding baton every 150 ms, shifting the hot routers between epochs",
		func(s *Scenario) {
			s.Workload.TotalFlows = 60
			s.Workload.TCPShare = 0.80
			s.Workload.AttackGroups = 3
			s.Workload.AttackRotationPeriod = 150 * sim.Millisecond
			// Each group floods one third of the time; triple the peak
			// rate so the time-averaged volume matches the default flood.
			s.Workload.AttackRate *= 3
		}),

	builtin("shrew",
		"low-rate shrew pulses tuned to the TCP minimum RTO: 80 ms bursts once per second",
		func(s *Scenario) {
			s.Workload.AttackPulsePeriod = 1 * sim.Second
			s.Workload.AttackDutyCycle = 0.08
			s.Workload.TotalFlows = 60
			s.Workload.TCPShare = 0.80
		}),

	builtin("stress-1k",
		"scale proof: 1000-router ring with 300 chords, 40 ingress routers, three simultaneous victims — exercises the topology arena and zero-alloc epoch pipeline at 25x the paper's domain size",
		func(s *Scenario) {
			s.Topology.NumRouters = 1000
			s.Topology.NumIngress = 40
			// Dense chording keeps shortest paths short (tens of hops at
			// most) so per-packet event counts stay bounded while the
			// measurement layer still runs 1000 counters per epoch.
			s.Topology.ExtraChords = 300
			s.Topology.BystanderHosts = 32
			s.Topology.ExtraVictims = 2
			s.Workload.TotalFlows = 80
			s.Workload.TCPShare = 0.80
			s.Workload.ExtraVictimShare = 0.3
		}),

	builtin("stress-50k",
		"scale proof: 50000-router ring with 15000 chords, 40 ingress routers, three simultaneous victims — sparse adjacency rows and the monitored-only traffic matrix keep per-router state O(nodes+links), where the dense adjacency alone would need ~20 GB and the monitor would rotate 200k sketches per epoch",
		func(s *Scenario) {
			s.Topology.NumRouters = 50000
			s.Topology.NumIngress = 40
			// Chord density matches stress-1k/5k (0.3 chords per router):
			// shortest paths stay bounded while the domain is 1250x the
			// paper's.
			s.Topology.ExtraChords = 15000
			s.Topology.BystanderHosts = 32
			s.Topology.ExtraVictims = 2
			s.Workload.TotalFlows = 80
			s.Workload.TCPShare = 0.80
			s.Workload.ExtraVictimShare = 0.3
		}),

	builtin("stress-5k",
		"scale proof: 5000-router ring with 1500 chords, 40 ingress routers, three simultaneous victims — demand-driven two-level routing materializes only the few dozen active destination columns instead of the ~33M-entry all-pairs install",
		func(s *Scenario) {
			s.Topology.NumRouters = 5000
			s.Topology.NumIngress = 40
			// Chord density matches stress-1k (0.3 chords per router):
			// shortest paths stay tens of hops, so per-packet event
			// counts grow slowly while the domain is 125x the paper's.
			s.Topology.ExtraChords = 1500
			s.Topology.BystanderHosts = 32
			s.Topology.ExtraVictims = 2
			s.Workload.TotalFlows = 80
			s.Workload.TCPShare = 0.80
			s.Workload.ExtraVictimShare = 0.3
		}),

	builtin("table2",
		"paper Table II defaults: single pulsing flood, Pd=90%, Vt=50, Γ=95%, N=40",
		nil),

	builtin("transit-stub",
		"default flood on a transit-stub domain: a meshed transit core with stub chains, not the intra-AS ring",
		func(s *Scenario) {
			s.Topology = topology.DefaultTransitStubConfig()
		}),
}
