package experiment

import (
	"math"
	"reflect"
	"testing"

	"mafic/internal/flowtable"
)

// probeVerdicts tallies how a run's probing windows decided its legitimate
// flows, read from every defender's flow tables when the run ends. A flow in
// an NFT was promoted either by the rate comparison or, with fewer than
// MinProbePackets arrivals in its window, by the sparse-flow branch; a flow
// in a PDT was condemned.
type probeVerdicts struct {
	Rate, Sparse, Condemned int
}

// runVerdicts runs s and classifies its legitimate flows' verdicts, telling
// them from attack flows by Label().Hash(), the key the tables hold. It also
// returns how many legitimate flows the workload made.
func runVerdicts(t *testing.T, s Scenario) (Result, probeVerdicts, int) {
	t.Helper()
	var v probeVerdicts
	legit := make(map[uint64]bool)
	res := runInspected(t, s, func(b *builtRun) {
		for _, f := range b.res.workload.Flows {
			if !f.Malicious() {
				legit[f.Label().Hash()] = true
			}
		}
		for _, d := range b.res.mafic {
			d.Tables().ForEachEntry(func(e *flowtable.Entry) {
				if !legit[e.LabelHash] {
					return
				}
				switch e.State {
				case flowtable.StateNice:
					if e.BaselineCount+e.ResponseCount < s.MAFIC.MinProbePackets {
						v.Sparse++
					} else {
						v.Rate++
					}
				case flowtable.StatePermanentDrop:
					v.Condemned++
				}
			})
		}
	})
	return res, v, len(legit)
}

// TestProbeSeparatesTheFlows pins the finding behind PAPER.md's
// `ablation-probe` row: the duplicated-ACK probe is what separates the flows,
// and the sparse-flow branch (fewer than MinProbePackets arrivals in the
// window) decides nothing, at seed 1.
//
// On full table2 the rate comparison promotes all 48 legitimate flows with
// the probe; without it (DupAcks 0) all 48 are condemned and θp, L_r and α
// read 16.6 %, 98.3 % and 99.6 %. MinProbePackets 0 gives the same Result as
// the default 4 either way.
//
// On the quick probe-window grid the sparse-flow branch promotes no
// legitimate flow at any window length. At 1 × RTT the rate comparison
// condemns 8 of 19, 15 of 57 and 58 of 95 decided legitimate flows; at 2 ×
// and 4 × RTT it condemns none. So the 1 × RTT series is carried by
// legitimate flows that the comparison condemns, not by MinProbePackets.
func TestProbeSeparatesTheFlows(t *testing.T) {
	t.Run("table2", func(t *testing.T) {
		for _, tc := range []struct {
			dupAcks int
			want    probeVerdicts
		}{
			{3, probeVerdicts{Rate: 48}},
			{0, probeVerdicts{Condemned: 48}},
		} {
			var results []Result
			for _, minProbe := range []int{4, 0} {
				s := fullTable2(t)
				s.MAFIC.DupAcks = tc.dupAcks
				s.MAFIC.MinProbePackets = minProbe
				res, got, legit := runVerdicts(t, s)
				if legit != 48 || got != tc.want {
					t.Errorf("DupAcks %d, MinProbePackets %d: %d legitimate flows, verdicts %+v, want 48 and %+v",
						tc.dupAcks, minProbe, legit, got, tc.want)
				}
				results = append(results, res)
			}
			if !reflect.DeepEqual(results[0], results[1]) {
				t.Errorf("DupAcks %d: MinProbePackets 0 changed the result", tc.dupAcks)
			}
			if tc.dupAcks != 0 {
				continue
			}
			// Without the probe, as PAPER.md quotes them (percent, one decimal).
			res := results[0]
			for _, m := range []struct {
				name      string
				got, want float64
			}{
				{"θp", res.FalsePositiveRate, 16.6},
				{"L_r", res.LegitimateDropRate, 98.3},
				{"α", res.Accuracy, 99.6},
			} {
				if math.Round(m.got*1000)/10 != m.want {
					t.Errorf("without the probe %s = %.2f %%, want %.1f %%", m.name, 100*m.got, m.want)
				}
			}
		}
	})

	t.Run("probe windows", func(t *testing.T) {
		g := probeWindows(SweepOptions{Quick: true})
		// Condemned of decided legitimate flows per series, in volume order.
		want := [][][2]int{
			{{8, 19}, {15, 57}, {58, 95}}, // 1 × RTT
			{{0, 19}, {0, 57}, {0, 95}},   // 2 × RTT
			{{0, 19}, {0, 57}, {0, 95}},   // 4 × RTT
		}
		next := make([]int, len(g.labels))
		for _, p := range g.points {
			_, v, _ := runVerdicts(t, p.scenario)
			w := want[p.series][next[p.series]]
			next[p.series]++
			if v.Sparse != 0 {
				t.Errorf("%s at V_t %v: the sparse-flow branch promoted %d legitimate flows", g.labels[p.series], p.x, v.Sparse)
			}
			if got := [2]int{v.Condemned, v.Rate + v.Sparse + v.Condemned}; got != w {
				t.Errorf("%s at V_t %v: condemned %d of %d decided legitimate flows, want %d of %d",
					g.labels[p.series], p.x, got[0], got[1], w[0], w[1])
			}
		}
	})
}
