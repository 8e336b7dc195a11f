package mafic

import (
	"testing"

	"mafic/internal/experiment"
	"mafic/internal/sim"
)

// integrationScenario is a mid-sized scenario used for cross-module
// invariant checks: large enough that detection, probing, classification and
// recovery all happen, small enough to run in well under a second.
func integrationScenario(seed int64) Scenario {
	s := DefaultScenario()
	s.Seed = seed
	s.Topology.NumRouters = 20
	s.Topology.BystanderHosts = 8
	s.Workload.TotalFlows = 25
	s.Duration = 2 * sim.Second
	s.Workload.AttackStart = 600 * sim.Millisecond
	return s
}

// TestIntegrationPacketAccountingInvariants checks conservation-style
// relations between the raw counters of a full run: nothing is dropped that
// never arrived, nothing reaches the victim in excess of what entered the
// domain, and the published rates stay inside [0,1]. The exact balance of
// every packet, over the whole catalog at quick size, needs the network's
// own counters and is internal/experiment's TestPacketLedger.
func TestIntegrationPacketAccountingInvariants(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 5, 8} {
		res, err := Simulate(integrationScenario(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		c := res.Counts

		attackArrived := c.ATRAttackPre + c.ATRAttackPost
		legitArrived := c.ATRLegitPre + c.ATRLegitPost
		if c.DropAttack > attackArrived {
			t.Fatalf("seed %d: dropped more attack packets (%d) than arrived (%d)", seed, c.DropAttack, attackArrived)
		}
		legitDropped := c.DropLegitProbing + c.DropLegitPDT + c.DropLegitIllegal
		if legitDropped > legitArrived {
			t.Fatalf("seed %d: dropped more legit packets (%d) than arrived (%d)", seed, legitDropped, legitArrived)
		}
		if c.VictimAttackPre+c.VictimAttack > attackArrived {
			t.Fatalf("seed %d: victim saw more attack packets than entered the domain", seed)
		}
		// Dropped and delivered attack packets cannot exceed arrivals.
		if c.DropAttack+c.VictimAttack > attackArrived {
			t.Fatalf("seed %d: attack drops (%d) + deliveries (%d) exceed arrivals (%d)",
				seed, c.DropAttack, c.VictimAttack, attackArrived)
		}

		for name, rate := range map[string]float64{
			"accuracy": res.Accuracy,
			"theta_p":  res.FalsePositiveRate,
			"theta_n":  res.FalseNegativeRate,
			"L_r":      res.LegitimateDropRate,
			"beta":     res.TrafficReduction,
		} {
			if rate < 0 || rate > 1 {
				t.Fatalf("seed %d: %s = %v outside [0,1]", seed, name, rate)
			}
		}
		// Accuracy and false negatives partition the post-activation
		// attack traffic. Attack packets that entered the domain just
		// before activation but reached the victim just after it are
		// counted in θn's numerator without appearing in the shared
		// denominator, so allow a small boundary tolerance.
		if res.Accuracy+res.FalseNegativeRate > 1.03 {
			t.Fatalf("seed %d: α (%v) + θn (%v) exceed 1", seed, res.Accuracy, res.FalseNegativeRate)
		}
	}
}

// TestIntegrationFlowTableOutcomes checks the flow-level story of the default
// scenario: every legitimate TCP flow should end in the NFT, every attack
// flow in the PDT, and the defence should never linger in the SFT long after
// the probing windows have closed.
func TestIntegrationFlowTableOutcomes(t *testing.T) {
	res, err := Simulate(integrationScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.LegitFlowsCondemned != 0 {
		t.Fatalf("%d legitimate flows condemned at the default operating point", res.LegitFlowsCondemned)
	}
	if res.AttackFlowsForgiven != 0 {
		t.Fatalf("%d attack flows classified as nice at the default operating point", res.AttackFlowsForgiven)
	}
	if res.DefenseStats.FlowsCondemned == 0 {
		t.Fatal("no flow was ever condemned despite an ongoing attack")
	}
	if res.DefenseStats.FlowsNice == 0 {
		t.Fatal("no legitimate flow was promoted to the NFT")
	}
}

// TestIntegrationLegitimateTrafficRecovers verifies the paper's recovery
// claim end to end: after the attack flows are cut off, the victim's
// legitimate arrival rate returns to (approximately) its pre-attack level.
func TestIntegrationLegitimateTrafficRecovers(t *testing.T) {
	s := integrationScenario(4)
	s.Duration = 3 * sim.Second
	res, err := Simulate(s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Activated {
		t.Fatal("defense never activated")
	}
	// Compare the legitimate delivery rate just before the attack with
	// the final 500 ms of the run.
	var preAttack, tail float64
	var preBins, tailBins int
	for _, bin := range res.Series {
		switch {
		case bin.Time >= 300*sim.Millisecond && bin.Time < 600*sim.Millisecond:
			preAttack += float64(bin.LegitPackets)
			preBins++
		case bin.Time >= s.Duration-500*sim.Millisecond:
			tail += float64(bin.LegitPackets)
			tailBins++
		}
	}
	if preBins == 0 || tailBins == 0 {
		t.Fatal("series does not cover the comparison windows")
	}
	preRate := preAttack / float64(preBins)
	tailRate := tail / float64(tailBins)
	if tailRate < 0.6*preRate {
		t.Fatalf("legitimate traffic did not recover: pre-attack %.1f pkt/bin, tail %.1f pkt/bin", preRate, tailRate)
	}
}

// TestIntegrationHigherPdDropsMoreAggressively checks the key monotone
// relationship behind Figures 3(a), 4(a) and 7: raising P_d increases both
// the attack-dropping accuracy and the legitimate probing losses.
func TestIntegrationHigherPdDropsMoreAggressively(t *testing.T) {
	run := func(pd float64) experiment.Result {
		s := integrationScenario(6)
		s.MAFIC.DropProbability = pd
		res, err := Simulate(s)
		if err != nil {
			t.Fatalf("pd=%v: %v", pd, err)
		}
		return res
	}
	low := run(0.5)
	high := run(0.95)
	if high.Accuracy <= low.Accuracy {
		t.Fatalf("accuracy did not increase with Pd: %.4f (0.95) vs %.4f (0.5)", high.Accuracy, low.Accuracy)
	}
	if high.FalseNegativeRate >= low.FalseNegativeRate {
		t.Fatalf("θn did not decrease with Pd: %.4f (0.95) vs %.4f (0.5)", high.FalseNegativeRate, low.FalseNegativeRate)
	}
}
