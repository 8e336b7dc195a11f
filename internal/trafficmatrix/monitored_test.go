package trafficmatrix

import (
	"slices"
	"testing"

	"mafic/internal/netsim"
	"mafic/internal/sim"
	"mafic/internal/topology"
)

// hostAdjacentRouters computes the expected automatic monitored set the slow
// way, straight from the topology.
func hostAdjacentRouters(net *netsim.Network) map[netsim.NodeID]bool {
	set := make(map[netsim.NodeID]bool)
	net.ForEachNode(func(hid netsim.NodeID, _ *netsim.Router, h *netsim.Host) {
		if h == nil {
			return
		}
		for _, nb := range net.Neighbors(hid) {
			if net.Router(nb) != nil {
				set[nb] = true
			}
		}
	})
	return set
}

// everyRouter lists every router of the network: the explicit monitored set
// the automatic one is compared against.
func everyRouter(net *netsim.Network) []netsim.NodeID {
	var ids []netsim.NodeID
	net.ForEachNode(func(id netsim.NodeID, r *netsim.Router, _ *netsim.Host) {
		if r != nil {
			ids = append(ids, id)
		}
	})
	return ids
}

// TestMonitoredSetDefault pins the automatic monitored set: exactly the
// host-adjacent routers, ascending, strictly fewer than the full router set
// on a transit-stub topology (core routers carry no hosts).
func TestMonitoredSetDefault(t *testing.T) {
	d := smallDomain(t)
	mon, err := NewMonitor(d.Net, MonitorConfig{Epoch: 100 * sim.Millisecond}, nil)
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	want := hostAdjacentRouters(d.Net)
	if len(mon.routerIDs) != len(want) {
		t.Fatalf("monitored %d routers %v, want the %d host-adjacent ones", len(mon.routerIDs), mon.routerIDs, len(want))
	}
	for i, id := range mon.routerIDs {
		if !want[id] {
			t.Fatalf("router %d monitored but has no attached host", id)
		}
		if i > 0 && id <= mon.routerIDs[i-1] {
			t.Fatalf("monitored set not strictly ascending: %v", mon.routerIDs)
		}
	}
	if len(want) >= len(d.Routers) {
		t.Fatalf("test topology has no host-free routers (monitored %d of %d)", len(want), len(d.Routers))
	}
	for _, r := range d.Routers {
		id := r.ID()
		c := mon.Counter(id)
		if want[id] && c == nil {
			t.Fatalf("host-adjacent router %d has no counter", id)
		}
		if !want[id] && c != nil {
			t.Fatalf("host-free router %d has a counter", id)
		}
	}
}

// TestMonitoredSetExplicitAndErrors pins the explicit-set plumbing: the list
// is sorted and deduplicated, and non-router and negative IDs are rejected.
func TestMonitoredSetExplicitAndErrors(t *testing.T) {
	d := smallDomain(t)
	ing := d.Ingress[0].ID()
	last := d.LastHop.ID()

	mon, err := NewMonitor(d.Net, MonitorConfig{Monitored: []netsim.NodeID{last, ing, last}}, nil)
	if err != nil {
		t.Fatalf("explicit set: %v", err)
	}
	wantIDs := []netsim.NodeID{ing, last}
	if last < ing {
		wantIDs = []netsim.NodeID{last, ing}
	}
	if len(mon.routerIDs) != 2 || mon.routerIDs[0] != wantIDs[0] || mon.routerIDs[1] != wantIDs[1] {
		t.Fatalf("explicit set = %v, want sorted dedup %v", mon.routerIDs, wantIDs)
	}
	if mon.Counter(d.Ingress[1].ID()) != nil {
		t.Fatal("router outside the explicit set has a counter")
	}

	hostID := d.Clients[0].ID()
	if _, err := NewMonitor(d.Net, MonitorConfig{Monitored: []netsim.NodeID{hostID}}, nil); err == nil {
		t.Fatal("host ID accepted as a monitored router")
	}
	if err := (MonitorConfig{Monitored: []netsim.NodeID{-3}}).Validate(); err == nil {
		t.Fatal("Validate accepted a negative monitored ID")
	}
}

// TestDefaultSetMatchesEveryRouter is the observational-equivalence pin
// behind the monitored-only default: the same workload on two identical
// domains, one monitored automatically and one with every router listed in
// Monitored, produces bit-identical epoch reports (estimates and matrix
// cells); the every-router run's extra rows are all zero.
func TestDefaultSetMatchesEveryRouter(t *testing.T) {
	run := func(all bool) []EpochReport {
		d := smallDomain(t)
		d.Victim.SetDefaultHandler(func(*netsim.Packet, sim.Time) {})
		cfg := MonitorConfig{Epoch: 100 * sim.Millisecond}
		if all {
			cfg.Monitored = everyRouter(d.Net)
		}
		var reports []EpochReport
		mon, err := NewMonitor(d.Net, cfg,
			func(r EpochReport) { reports = append(reports, r.Clone()) })
		if err != nil {
			t.Fatalf("NewMonitor(all=%v): %v", all, err)
		}
		mon.Start()
		floodFrom(d, d.Clients[0], 400, 250*sim.Millisecond)
		floodFrom(d, d.Zombies[0], 300, 250*sim.Millisecond)
		if err := d.Net.Scheduler().RunUntil(400 * sim.Millisecond); err != nil {
			t.Fatalf("run: %v", err)
		}
		return reports
	}
	monitored := run(false)
	oracle := run(true)

	if len(monitored) == 0 || len(monitored) != len(oracle) {
		t.Fatalf("epoch counts diverge: monitored %d, oracle %d", len(monitored), len(oracle))
	}
	for e := range oracle {
		mr, or := monitored[e], oracle[e]
		if mr.Epoch != or.Epoch || mr.Start != or.Start || mr.End != or.End {
			t.Fatalf("epoch %d bounds diverge: %+v vs %+v", e, mr, or)
		}
		if len(mr.Routers) >= len(or.Routers) {
			t.Fatalf("epoch %d: monitored set %d not smaller than oracle %d", e, len(mr.Routers), len(or.Routers))
		}
		inMonitored := make(map[netsim.NodeID]bool, len(mr.Routers))
		for _, id := range mr.Routers {
			inMonitored[id] = true
		}
		for _, id := range or.Routers {
			if or.SourceEstimate(id) != mr.SourceEstimate(id) {
				t.Fatalf("epoch %d router %d: S_i %v vs %v", e, id, mr.SourceEstimate(id), or.SourceEstimate(id))
			}
			if or.DestEstimate(id) != mr.DestEstimate(id) {
				t.Fatalf("epoch %d router %d: D_j %v vs %v", e, id, mr.DestEstimate(id), or.DestEstimate(id))
			}
			if !inMonitored[id] && (or.SourceEstimate(id) != 0 || or.DestEstimate(id) != 0) {
				t.Fatalf("epoch %d: unmonitored router %d recorded traffic in the oracle", e, id)
			}
		}
		if !slices.Equal(mr.Cells(), or.Cells()) {
			t.Fatalf("epoch %d: matrices diverge: %+v vs %+v", e, mr.Cells(), or.Cells())
		}
	}
}

// dirtyCounters pushes synthetic packet IDs straight into every counter's
// active sketches so a monitor about to be reset carries non-trivial sketch
// state.
func dirtyCounters(m *Monitor) {
	for i := range m.counters {
		c := &m.counters[i]
		for p := uint64(1); p <= 64; p++ {
			c.source.Active().Add(p)
			c.dest.Active().Add(p * 31)
		}
	}
}

// TestMonitorReuseBucketChange pins monitor reuse across a bucket-count
// change: the kept slab's geometry no longer matches, so the counters must
// come up on fresh sketches of the new size with zero estimates.
func TestMonitorReuseBucketChange(t *testing.T) {
	d := smallDomain(t)
	mon, err := NewMonitor(d.Net, MonitorConfig{Buckets: 64}, nil)
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	dirtyCounters(mon)
	if est := mon.Counter(mon.routerIDs[0]).SourceEstimate(); est <= 0 {
		t.Fatalf("dirtying left estimate %v, want > 0", est)
	}

	d2 := smallDomain(t)
	if err := mon.Reset(d2.Net, MonitorConfig{Buckets: 128}, nil); err != nil {
		t.Fatalf("Reset after bucket change: %v", err)
	}
	for _, id := range mon.routerIDs {
		c := mon.Counter(id)
		if c.buckets != 128 || c.source.Active().Buckets() != 128 {
			t.Fatalf("router %d counter kept stale geometry: %d buckets", id, c.source.Active().Buckets())
		}
		if c.SourceEstimate() != 0 || c.DestEstimate() != 0 {
			t.Fatalf("router %d counter serves stale sketch state after bucket change", id)
		}
	}
}

// TestMonitorReuseWidthShrink pins monitor reuse when the router-ID range
// shrinks: counters for the old domain's high IDs must be unreachable, not
// stale pointers left in the kept dense table.
func TestMonitorReuseWidthShrink(t *testing.T) {
	cfg := topology.DefaultConfig()
	cfg.NumRouters = 40
	big, err := topology.Build(cfg, sim.NewScheduler(), sim.NewRNG(3))
	if err != nil {
		t.Fatalf("build big domain: %v", err)
	}
	mon, err := NewMonitor(big.Net, MonitorConfig{Monitored: everyRouter(big.Net)}, nil)
	if err != nil {
		t.Fatalf("NewMonitor big: %v", err)
	}
	dirtyCounters(mon)
	highID := mon.routerIDs[len(mon.routerIDs)-1]

	small := smallDomain(t) // 12 routers: IDs far below highID
	if err := mon.Reset(small.Net, MonitorConfig{Monitored: everyRouter(small.Net)}, nil); err != nil {
		t.Fatalf("Reset small: %v", err)
	}
	if c := mon.Counter(highID); c != nil {
		t.Fatalf("Counter(%d) = %v on the shrunk domain, want nil", highID, c)
	}
	report := mon.Compute(0)
	if got := report.Routers[len(report.Routers)-1]; int(got) >= small.Net.NodeCount() {
		t.Fatalf("report covers router %d outside the shrunk domain", got)
	}
	for _, id := range report.Routers {
		if report.SourceEstimate(id) != 0 || report.DestEstimate(id) != 0 {
			t.Fatalf("router %d inherited sketch state from the big-domain run", id)
		}
	}
}

// TestMonitorReuseAfterFailedConstruction pins the error path: a Reset that
// fails (illegal bucket count, so the slab rebuild errors) must leave the
// monitor fit for the next Reset, which must keep the warm slab and must not
// serve the previous run's sketch contents.
func TestMonitorReuseAfterFailedConstruction(t *testing.T) {
	d := smallDomain(t)
	mon, err := NewMonitor(d.Net, MonitorConfig{Buckets: 64}, nil)
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	dirtyCounters(mon)
	slab := &mon.sketchSlab[0]

	if err := mon.Reset(d.Net, MonitorConfig{Buckets: 24}, nil); err == nil {
		t.Fatal("illegal bucket count accepted")
	}

	d2 := smallDomain(t)
	if err := mon.Reset(d2.Net, MonitorConfig{Buckets: 64}, nil); err != nil {
		t.Fatalf("Reset after a failed one: %v", err)
	}
	if &mon.sketchSlab[0] != slab {
		t.Fatal("the failed Reset dropped the warm sketch slab")
	}
	for _, id := range mon.routerIDs {
		c := mon.Counter(id)
		if c.SourceEstimate() != 0 || c.DestEstimate() != 0 {
			t.Fatalf("router %d counter serves the previous run's sketch state", id)
		}
	}
}

// TestMonitoredEpochRotationZeroAlloc pins that a monitored-only epoch tick —
// rotating every instrumented counter and computing the report from pooled
// buffers — allocates nothing in steady state.
func TestMonitoredEpochRotationZeroAlloc(t *testing.T) {
	d := smallDomain(t)
	d.Victim.SetDefaultHandler(func(*netsim.Packet, sim.Time) {})
	mon, err := NewMonitor(d.Net, MonitorConfig{Epoch: 100 * sim.Millisecond}, nil)
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	mon.Start()
	floodFrom(d, d.Clients[0], 300, 250*sim.Millisecond)
	if err := d.Net.Scheduler().RunUntil(400 * sim.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	// Stop keeps the tick from rescheduling, so the measured body is exactly
	// one rotation plus one report computation over the pooled buffers.
	mon.Stop()
	now := d.Net.Scheduler().Now()
	allocs := testing.AllocsPerRun(50, func() { mon.OnEventArg(now, nil) })
	if allocs != 0 {
		t.Fatalf("monitored epoch rotation allocated %.1f times per tick, want 0", allocs)
	}
}
