package trafficmatrix

import (
	"math"
	"testing"

	"mafic/internal/loglog"
	"mafic/internal/netsim"
	"mafic/internal/sim"
	"mafic/internal/topology"
)

// truthFilter keeps, per router, the exact sets the counter beside it
// sketches — packet IDs by the counter's own rules for S_i and D_j — and the
// test clears them at every epoch boundary.
type truthFilter struct{ src, dst map[uint64]struct{} }

func (f *truthFilter) Name() string { return "truth" }

func (f *truthFilter) Handle(pkt *netsim.Packet, _ sim.Time, at *netsim.Router) netsim.Action {
	if pkt.Kind != netsim.KindControl && pkt.Kind != netsim.KindProbe {
		if pkt.Hops == 0 {
			f.src[pkt.ID] = struct{}{}
		}
		if at.Network().AttachmentLink(at.ID(), pkt.DestOwner(at.Network())) != nil {
			f.dst[pkt.ID] = struct{}{}
		}
	}
	return netsim.ActionForward
}

// TestEstimatesWithinErrorOfExactSets checks the layer against ground truth
// on a 40-router domain, three clients flooding the victim at 5:2:1 over three
// epochs: every |S_i| and |D_j| within 4σ of the exact set size, and every
// cell of the victim's column within the 4σ·(|S_i| + |D_j| + |S_i ∪ D_j|) the
// package comment derives — tight enough here that a flipped sign in a_ij, or
// S_i filled anywhere but at the first hop, fails.
func TestEstimatesWithinErrorOfExactSets(t *testing.T) {
	d, err := topology.Build(topology.DefaultConfig(), sim.NewScheduler(), sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	d.Victim.SetDefaultHandler(func(*netsim.Packet, sim.Time) {})
	const buckets = 4096
	tol := 4 * loglog.RelativeStandardError(buckets)
	truth := map[netsim.NodeID]*truthFilter{}
	victim, cells := d.LastHop.ID(), 0
	mon, err := NewMonitor(d.Net, MonitorConfig{Epoch: 500 * sim.Millisecond, Buckets: buckets}, func(r EpochReport) {
		within := func(what string, i netsim.NodeID, est float64, exact int, bound float64) {
			if math.Abs(est-float64(exact)) > bound {
				t.Errorf("epoch %d router %d: %s estimated %.1f, exactly %d, more than %.1f apart", r.Epoch, i, what, est, exact, bound)
			}
		}
		column := map[netsim.NodeID]float64{}
		for _, c := range r.TopSources(victim) {
			column[c.Source] = c.Packets
		}
		dj := truth[victim].dst
		for _, i := range r.Routers {
			si, both := truth[i].src, 0
			for id := range si {
				if _, ok := dj[id]; ok {
					both++
				}
			}
			within("|S_i|", i, r.SourceEstimate(i), len(si), tol*float64(len(si)))
			within("|D_j|", i, r.DestEstimate(i), len(truth[i].dst), tol*float64(len(truth[i].dst)))
			within("a_ij toward the victim", i, column[i], both, tol*float64(2*(len(si)+len(dj))-both))
			cells += min(both, 1)
		}
		for _, f := range truth {
			clear(f.src)
			clear(f.dst)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range mon.routerIDs {
		truth[id] = &truthFilter{src: map[uint64]struct{}{}, dst: map[uint64]struct{}{}}
		d.Net.Router(id).AttachFilter(truth[id])
	}
	mon.Start()
	for k, count := range []int{3000, 1200, 600} {
		floodFrom(d, d.Clients[k*len(d.Clients)/len(d.Ingress)], count, 1200*sim.Millisecond)
	}
	if err := d.Net.Scheduler().RunUntil(1600 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if cells < 6 {
		t.Fatalf("only %d victim-column cells had traffic behind them: the comparison proved nothing", cells)
	}
}
