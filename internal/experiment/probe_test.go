package experiment

import (
	"math"
	"reflect"
	"testing"

	"mafic/internal/flowtable"
	"mafic/internal/netsim"
	"mafic/internal/sim"
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
	t.Parallel()
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

// TestProbeWindowNeedsTheFlowsRTT pins how far θp = 0 depends on headroom
// between the clients' round trips and MAFIC.RTT, the one estimate every
// defender sizes each probing window from. It sweeps the access links' delay
// against MAFIC.RTT on quick table2 (29 legitimate flows, seed 1) and
// measures each client's true round trip: the link delays along its
// forwarding path to the victim and back.
//
// The clients do not share one round trip. At the default 1 ms access delay
// they sit 1, 3 or 4 core hops from the victim, 8, 16 or 20 ms. The longest
// of them decides. θp stays 0 while the longest round trip is at most 0.70 ×
// MAFIC.RTT, and it leaves 0 from 0.725 × MAFIC.RTT on (the grid has nothing
// between). Past the boundary a condemned flow need not be a far one: at
// MAFIC.RTT 20 ms and 1 ms access, 3 of the 8 clients 8 ms away are condemned.
// At 40 ms the partial band is 6 and 7 ms of access delay, and from 8 ms on
// every legitimate flow is condemned.
func TestProbeWindowNeedsTheFlowsRTT(t *testing.T) {
	t.Parallel()
	accessMs := []sim.Time{1, 3, 5, 6, 7, 8, 10, 20}
	for _, tc := range []struct {
		rttMs     sim.Time
		condemned []int // legitimate flows condemned, per access delay
	}{
		{20, []int{9, 29, 29, 29, 29, 29, 29, 29}},
		{40, []int{0, 0, 0, 12, 10, 29, 29, 29}},
		{80, []int{0, 0, 0, 0, 0, 0, 0, 29}},
	} {
		for i, acc := range accessMs {
			s := Quick(fullTable2(t))
			s.Topology.AccessLink.Delay = acc * sim.Millisecond
			s.MAFIC.RTT = tc.rttMs * sim.Millisecond
			var longest sim.Time
			res := runInspected(t, s, func(b *builtRun) {
				n, victim := b.domain.Net, b.domain.Victim
				for _, f := range b.res.workload.Legitimate {
					client := n.Host(n.Owner(f.Label().SrcIP))
					longest = max(longest, oneWayDelay(n, client, victim.ID())+oneWayDelay(n, victim, client.ID()))
				}
				if got := len(b.res.workload.Legitimate); got != 29 {
					t.Fatalf("%d legitimate flows, want 29", got)
				}
			})
			if acc == 1 && longest != 20*sim.Millisecond {
				t.Errorf("at 1 ms access the longest client round trip is %v, want 20 ms", longest)
			}
			ratio := float64(longest) / float64(s.MAFIC.RTT)
			want := tc.condemned[i]
			if res.LegitFlowsCondemned != want || (res.FalsePositiveRate == 0) != (want == 0) {
				t.Errorf("MAFIC.RTT %d ms, access %d ms (ratio %.3f): %d legitimate flows condemned, θp %.4f; want %d",
					tc.rttMs, acc, ratio, res.LegitFlowsCondemned, res.FalsePositiveRate, want)
			}
			if held := want == 0; held != (ratio <= 0.70) {
				t.Errorf("MAFIC.RTT %d ms, access %d ms: ratio %.3f, θp = 0 is %v; the boundary is 0.70 < ratio ≤ 0.725",
					tc.rttMs, acc, ratio, held)
			}
		}
	}
}

// oneWayDelay sums the link delays a packet from host from meets on its way to
// node to: its uplink, then every hop Router.route would take.
func oneWayDelay(n *netsim.Network, from *netsim.Host, to netsim.NodeID) sim.Time {
	d := n.LinkBetween(from.ID(), from.AccessRouter()).Config().Delay
	for at := from.AccessRouter(); at != to; {
		l := n.AttachmentLink(at, to)
		if l == nil {
			l = n.RouteLink(at, to)
		}
		d += l.Config().Delay
		at = l.To()
	}
	return d
}
