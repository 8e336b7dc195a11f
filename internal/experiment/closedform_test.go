package experiment

import (
	"math"
	"testing"
)

// TestProportionalDropIsBinomial compares the proportional baseline with
// arithmetic instead of the engine's own past (PAPER.md, "The proportional
// baseline"). A dropper drops each victim-bound packet it examines on a coin
// flip of its own with probability P_d, whatever the packet's flow, so over n
// examined packets the dropped count is Binomial(n, P_d): dropped / n lies
// within 4σ of P_d, σ = √(P_d(1−P_d)/n), over all packets and within each
// class. The per-class counts come from the metrics layer — the tap's
// post-activation ATR arrivals and the drop observer's DropAttack and
// DropLegitPDT — so the test checks that plumbing end to end as well.
func TestProportionalDropIsBinomial(t *testing.T) {
	for _, pd := range []float64{0.7, 0.9} {
		for seed := int64(1); seed <= 3; seed++ {
			s := table2Quick(t)
			s.Defense = DefenseBaseline
			s.MAFIC.DropProbability = pd
			s.Seed = seed
			var examined, dropped uint64
			res := runInspected(t, s, func(b *builtRun) {
				for _, d := range b.res.droppers {
					examined += d.Stats().Examined
					dropped += d.Stats().Dropped
				}
			})
			n := res.Counts
			// The tap counts every ingress router and the droppers only the
			// ATRs, at the same first hop and from the same instant, so
			// equal totals mean no non-ATR ingress carried victim-bound
			// traffic after activation: the tap's per-class arrivals are then
			// exactly the per-class packets examined.
			if arrived := n.ATRAttackPost + n.ATRLegitPost; arrived != examined {
				t.Fatalf("P_d %v seed %d: tap counted %d post-activation ATR arrivals, droppers examined %d", pd, seed, arrived, examined)
			}
			if n.DropAttack+n.DropLegitPDT != dropped || n.DropLegitProbing+n.DropLegitIllegal != 0 {
				t.Errorf("P_d %v seed %d: metrics counted drops %+v, droppers dropped %d", pd, seed, n, dropped)
			}
			for _, c := range []struct {
				class             string
				dropped, examined uint64
			}{
				{"all", dropped, examined},
				{"attack", n.DropAttack, n.ATRAttackPost},
				{"legitimate", n.DropLegitPDT, n.ATRLegitPost},
			} {
				if c.examined == 0 {
					t.Errorf("P_d %v seed %d: no %s packet examined", pd, seed, c.class)
					continue
				}
				ratio := float64(c.dropped) / float64(c.examined)
				sigma := math.Sqrt(pd * (1 - pd) / float64(c.examined))
				if math.Abs(ratio-pd) > 4*sigma {
					t.Errorf("P_d %v seed %d, %s: dropped %d of %d = %.4f, %.1fσ from P_d (σ = %.4f)",
						pd, seed, c.class, c.dropped, c.examined, ratio, math.Abs(ratio-pd)/sigma, sigma)
				}
			}
		}
	}
}
