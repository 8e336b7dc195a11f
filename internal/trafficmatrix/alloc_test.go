package trafficmatrix

import (
	"runtime"
	"slices"
	"testing"

	"mafic/internal/netsim"
	"mafic/internal/sim"
	"mafic/internal/topology"
)

// TestCounterHandleZeroAlloc pins the per-packet measurement path at zero
// allocations: recording a packet into the epoch sketches must be free of
// heap traffic no matter how many packets flow.
func TestCounterHandleZeroAlloc(t *testing.T) {
	d := smallDomain(t)
	mon, err := NewMonitor(d.Net, MonitorConfig{Epoch: sim.Second}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ingress := d.Ingress[0]
	c := mon.Counter(ingress.ID())
	if c == nil {
		t.Fatal("no counter on ingress router")
	}

	pkt := &netsim.Packet{
		ID:    1,
		Label: netsim.FlowLabel{SrcIP: d.Clients[0].PrimaryIP(), DstIP: d.VictimIP(), SrcPort: 9, DstPort: 80},
		Kind:  netsim.KindData,
		Proto: netsim.ProtoUDP,
		Size:  500,
	}
	// Resolve and cache the destination owner up front, as the forwarding
	// path does before the counter runs.
	pkt.DestOwner(d.Net)

	allocs := testing.AllocsPerRun(1000, func() {
		pkt.ID++
		if c.Handle(pkt, 0, ingress) != netsim.ActionForward {
			t.Fatal("counter must never drop")
		}
	})
	if allocs != 0 {
		t.Fatalf("Counter.Handle allocates %v per packet, want 0", allocs)
	}
}

// TestEpochProcessingZeroAlloc pins the monitor's per-epoch pipeline —
// counter rotation, estimate tables, report delivery, and every column of the
// matrix ranked on demand into a reused buffer — at zero steady-state
// allocations.
func TestEpochProcessingZeroAlloc(t *testing.T) {
	d := smallDomain(t)
	d.Victim.SetDefaultHandler(func(*netsim.Packet, sim.Time) {})

	var sink float64
	var column []Cell
	mon, err := NewMonitor(d.Net, MonitorConfig{Epoch: 50 * sim.Millisecond}, func(r EpochReport) {
		for _, id := range r.Routers {
			sink += r.DestEstimate(id) + r.SourceEstimate(id)
			column = r.AppendTopSources(column[:0], id)
			for _, cell := range column {
				sink += cell.Packets
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	mon.Start()

	// Push real traffic through so the matrix has non-trivial cells, then
	// let a few epochs run to warm the pooled buffers.
	floodFrom(d, d.Zombies[0], 400, 120*sim.Millisecond)
	if err := d.Net.Scheduler().RunUntil(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}

	now := d.Net.Now()
	allocs := testing.AllocsPerRun(20, func() {
		mon.OnEventArg(now, nil)
	})
	if allocs != 0 {
		t.Fatalf("epoch processing allocates %v per epoch, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("callback never saw traffic; the zero-alloc run proved nothing")
	}
}

// TestDelayedEpochsZeroAlloc pins the lossy channel's delayed delivery: once
// a monitor has made as many late reports as are ever in flight at once —
// three here, each arriving two and a half epochs late — a delayed epoch
// refills one of them in place, matrix included, and allocates nothing.
func TestDelayedEpochsZeroAlloc(t *testing.T) {
	d := smallDomain(t)
	const epoch = 10 * sim.Millisecond
	cells := 0
	mon, err := NewMonitor(d.Net, MonitorConfig{Epoch: epoch, ReportDelayProb: 1, ReportDelay: epoch * 5 / 2},
		func(r EpochReport) { cells += len(r.Matrix) })
	if err != nil {
		t.Fatal(err)
	}
	// Packets go straight through the counters of a zombie's access router
	// and the victim's last hop, so every epoch has a matrix cell and the
	// scheduler holds nothing but the monitor's events.
	zombie := d.Zombies[0]
	first := d.Net.Router(zombie.AccessRouter())
	pkt := &netsim.Packet{
		Label: netsim.FlowLabel{SrcIP: zombie.PrimaryIP(), DstIP: d.VictimIP(), SrcPort: 1, DstPort: 80},
		Kind:  netsim.KindData, Proto: netsim.ProtoUDP,
	}
	sched, k := d.Net.Scheduler(), sim.Time(0)
	nextEpoch := func() {
		for i := 0; i < 64; i++ {
			pkt.ID, pkt.Hops = d.Net.NextPacketID(), 0
			mon.Counter(first.ID()).Handle(pkt, sched.Now(), first)
			pkt.Hops = 1
			mon.Counter(d.LastHop.ID()).Handle(pkt, sched.Now(), d.LastHop)
		}
		k++
		if err := sched.RunUntil(k * epoch); err != nil {
			t.Fatal(err)
		}
	}
	mon.Start()
	for k < 6 {
		nextEpoch()
	}
	if allocs := testing.AllocsPerRun(20, nextEpoch); allocs != 0 {
		t.Errorf("a delayed epoch allocates %v, want 0", allocs)
	}
	if len(mon.late) != 3 {
		t.Errorf("the monitor made %d late reports, want the 3 ever in flight at once", len(mon.late))
	}
	if cells == 0 {
		t.Error("no delivered report had a matrix cell; the zero-alloc run proved nothing")
	}
}

// TestMonitorReuseRecyclesSketchSlab pins monitor reuse: resetting a
// monitor onto a fresh same-shaped domain must cost a small fraction of the
// first build's allocations, because the sketch slab — the dominant
// construction cost — is reset rather than reallocated.
func TestMonitorReuseRecyclesSketchSlab(t *testing.T) {
	mallocs := func(fn func() error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	cfg := MonitorConfig{Epoch: sim.Second}
	d := smallDomain(t)
	var mon *Monitor
	first := mallocs(func() (err error) {
		mon, err = NewMonitor(d.Net, cfg, nil)
		return err
	})
	d2 := smallDomain(t)
	second := mallocs(func() error { return mon.Reset(d2.Net, cfg, nil) })
	if second*4 >= first {
		t.Fatalf("monitor reuse saved too little: first build %d mallocs, reset %d", first, second)
	}
}

// TestMonitorReuseLeaksNoCounts verifies reset sketches are cleared: a
// monitor reset onto another domain must estimate zero traffic before any
// packet flows.
func TestMonitorReuseLeaksNoCounts(t *testing.T) {
	d := smallDomain(t)
	mon, err := NewMonitor(d.Net, MonitorConfig{Epoch: 50 * sim.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	floodFrom(d, d.Zombies[0], 200, 60*sim.Millisecond)
	if err := d.Net.Scheduler().RunUntil(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	warm := mon.Compute(d.Net.Now())
	if warm.DestEstimate(d.LastHop.ID()) == 0 {
		t.Fatal("setup monitor saw no traffic; the reuse check would prove nothing")
	}

	d2 := smallDomain(t)
	if err := mon.Reset(d2.Net, MonitorConfig{Epoch: 50 * sim.Millisecond}, nil); err != nil {
		t.Fatal(err)
	}
	report := mon.Compute(d2.Net.Now())
	for _, id := range report.Routers {
		if report.DestEstimate(id) != 0 || report.SourceEstimate(id) != 0 {
			t.Fatalf("reset monitor leaked counts at router %d: dest %v src %v",
				id, report.DestEstimate(id), report.SourceEstimate(id))
		}
	}
}

// referenceReport is the from-scratch, eager reference for the report an epoch
// tick has just delivered: the estimates read off the counters' frozen
// sketches into freshly allocated tables and every cell of the matrix built,
// each union taken by cloning one sketch and merging the other into the
// clone. It is an owned report; it reuses none of the monitor's buffers and
// nothing of the on-demand path but the definition
// a_ij = |S_i| + |D_j| − |S_i ∪ D_j|.
func referenceReport(t *testing.T, m *Monitor, got EpochReport) EpochReport {
	t.Helper()
	ref := EpochReport{Epoch: got.Epoch, Start: got.Start, End: got.End,
		SourceEst: make([]float64, len(m.srcEst)), DestEst: make([]float64, len(m.dstEst))}
	for id := range ref.SourceEst {
		if c := m.Counter(netsim.NodeID(id)); c != nil {
			ref.Routers = append(ref.Routers, netsim.NodeID(id))
			ref.SourceEst[id] = c.source.Shadow().Estimate()
			ref.DestEst[id] = c.dest.Shadow().Estimate()
		}
	}
	for _, i := range ref.Routers {
		for _, j := range ref.Routers {
			if ref.SourceEst[i] < 1 || ref.DestEst[j] < 1 {
				continue
			}
			union := m.Counter(i).source.Shadow().Clone()
			if err := union.Merge(m.Counter(j).dest.Shadow()); err != nil {
				t.Fatal(err)
			}
			if aij := ref.SourceEst[i] + ref.DestEst[j] - union.Estimate(); aij >= 1 {
				ref.Matrix = append(ref.Matrix, Cell{Source: i, Dest: j, Packets: aij})
			}
		}
	}
	return ref
}

// sameReport compares two reports, live or owned, field by field and exactly:
// the vectors, the whole matrix, and every monitored router's ranked column.
func sameReport(a, b EpochReport) bool {
	same := a.Epoch == b.Epoch && a.Start == b.Start && a.End == b.End && slices.Equal(a.Routers, b.Routers) &&
		slices.Equal(a.SourceEst, b.SourceEst) && slices.Equal(a.DestEst, b.DestEst) && slices.Equal(a.Cells(), b.Cells())
	for _, j := range a.Routers {
		same = same && slices.Equal(a.TopSources(j), b.TopSources(j))
	}
	return same
}

// panics reports whether f does.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestPooledReportsMatchFromScratch runs three monitors back to back on the
// one object, reset between them — every router of a 40-router domain with a
// client flooding behind each ingress, the same again over a control channel
// that delays half the reports, then two routers of a 12-router domain — and
// requires every report, at callback time, to equal the eager from-scratch
// reference in its vectors, in every monitored router's ranked column and in
// the whole matrix: nothing of an earlier epoch, and nothing of the earlier
// monitor's wider tables, may show through the reused tables, whether the
// report arrives live or as a delayed owned clone. A report kept with Clone
// must still equal its reference when the run is over, and so must a delayed
// one kept as delivered; a live one kept without Clone must panic when its
// matrix is read after a later tick, or two epochs could mix unnoticed.
func TestPooledReportsMatchFromScratch(t *testing.T) {
	mon := new(Monitor)
	run := func(d *topology.Domain, cfg MonitorConfig, sources []*netsim.Host, until sim.Time) []EpochReport {
		d.Victim.SetDefaultHandler(func(*netsim.Packet, sim.Time) {})
		var raw, cloned, refs []EpochReport
		live := 0
		if err := mon.Reset(d.Net, cfg, func(r EpochReport) {
			if r.live != nil {
				live++
			}
			ref := referenceReport(t, mon, r)
			if !sameReport(r, ref) {
				t.Fatalf("epoch %d: report %+v with cells %+v, from scratch %+v", r.Epoch, r, r.Cells(), ref)
			}
			raw, cloned, refs = append(raw, r), append(cloned, r.Clone()), append(refs, ref)
		}); err != nil {
			t.Fatal(err)
		}
		mon.Start()
		for _, src := range sources {
			floodFrom(d, src, 200, 120*sim.Millisecond)
		}
		if err := d.Net.Scheduler().RunUntil(until); err != nil {
			t.Fatal(err)
		}
		if len(refs) < 3 || len(refs[0].Matrix) == 0 {
			t.Fatalf("%d reports, first with %d cells: the comparison proved nothing", len(refs), len(refs[0].Matrix))
		}
		for e := range refs {
			if cloned[e].live != nil || !sameReport(cloned[e], refs[e]) {
				t.Fatalf("epoch %d: clone did not outlive later epochs: %+v, was %+v", refs[e].Epoch, cloned[e], refs[e])
			}
			// A delayed report is owned, and the last live one is still the
			// monitor's current epoch when the run stops between two ticks.
			if raw[e].live == nil || raw[e].gen == mon.gen {
				if !sameReport(raw[e], refs[e]) {
					t.Fatalf("epoch %d: report still valid after the run reads %+v, was %+v", refs[e].Epoch, raw[e], refs[e])
				}
				continue
			}
			for name, read := range map[string]func(){
				"Cells":      func() { raw[e].Cells() },
				"TopSources": func() { raw[e].TopSources(d.LastHop.ID()) },
				"Clone":      func() { raw[e].Clone() },
			} {
				if !panics(read) {
					t.Fatalf("epoch %d: %s on a live report kept past its callback did not panic", refs[e].Epoch, name)
				}
			}
		}
		// Two live reports make at least one stale one.
		if delayed := cfg.ReportDelayProb > 0; live < 2 || delayed == (live == len(refs)) {
			t.Fatalf("%d of %d reports arrived live with delay probability %v", live, len(refs), cfg.ReportDelayProb)
		}
		return refs
	}

	build := func() (*topology.Domain, []*netsim.Host) {
		big, err := topology.Build(topology.DefaultConfig(), sim.NewScheduler(), sim.NewRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		var perIngress []*netsim.Host
		for i := 0; i < len(big.Clients); i += len(big.Clients) / len(big.Ingress) {
			perIngress = append(perIngress, big.Clients[i])
		}
		return big, perIngress
	}
	big, perIngress := build()
	run(big, MonitorConfig{Epoch: 25 * sim.Millisecond, Monitored: everyRouter(big.Net)}, perIngress, 110*sim.Millisecond)

	// The delay is shorter than the epoch, so a late report still finds its
	// own epoch frozen in the counters for the reference to read.
	big, perIngress = build()
	lossy := MonitorConfig{Epoch: 25 * sim.Millisecond, Monitored: everyRouter(big.Net), ReportDelayProb: 0.5, ReportDelay: 5 * sim.Millisecond}
	// The run stops inside the flood, so the tables are reset dirty.
	refs := run(big, lossy, perIngress, 110*sim.Millisecond)
	dirty := refs[len(refs)-1]

	small := smallDomain(t)
	ends := []netsim.NodeID{small.Ingress[0].ID(), small.LastHop.ID()}
	run(small, MonitorConfig{Epoch: 50 * sim.Millisecond, Monitored: ends}, small.Clients[:1], 400*sim.Millisecond)
	exposed := false
	for id := range mon.srcEst {
		exposed = exposed || (mon.Counter(netsim.NodeID(id)) == nil && dirty.SourceEst[id] != 0)
	}
	if !exposed {
		t.Fatal("no entry the second monitor left non-zero lies outside the third one's set: stale tables would go unnoticed")
	}
}
