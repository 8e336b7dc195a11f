package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"mafic/internal/checkpoint"
	"mafic/internal/core"
	"mafic/internal/experiment"
	"mafic/internal/flowtable"
	"mafic/internal/loglog"
	"mafic/internal/netsim"
	"mafic/internal/pushback"
	"mafic/internal/sim"
	"mafic/internal/topology"
	"mafic/internal/traffic"
	"mafic/internal/trafficmatrix"
)

// probe is the per-layer half of a traced run: one probe job under
// checkpoints for the counts, then a drill per layer. Every drill times a
// public function of its layer in a loop inside one span that records how
// many operations it covered, on objects built for the workload's first
// scenario; a metric is read back from the spans as time over operations.
type probe struct {
	e    *env
	tr   *tracer
	root int
	sc   experiment.Scenario
	vals map[string]float64
	// from is the index of the first span of the current drill pass.
	from int
	// sink takes drill results so the compiler cannot drop the calls.
	sink int
}

// timed runs fn inside a span named name that covers count operations.
func (p *probe) timed(name string, count int, fn func()) {
	sp := p.tr.begin(p.root, name)
	fn()
	p.tr.end(sp, int64(count))
}

// perOp is the cost of one operation of the drill named name in the current
// pass, in nanoseconds: total span time over total operation count.
func (p *probe) perOp(name string) float64 {
	var ns, ops int64
	for _, s := range p.tr.spans[p.from:] {
		if s.Name == name {
			ns += s.durNs()
			ops += s.Count
		}
	}
	if ops == 0 {
		return 0
	}
	return float64(ns) / float64(ops)
}

// mix spreads consecutive integers over the 64-bit space.
func mix(i int) uint64 { return uint64(i+1) * 0x9E3779B97F4A7C15 }

// traced is the traced run: half the jobs of an untraced run, every second
// one with spans recorded, then the probe job and the drills.
func (s *session) traced(n int) error {
	tr := newTracer()
	root := tr.begin(0, "workload")
	loop := closedLoop(s.inst, s.env, s.probe, tr, root, n/2, s.cfg.seconds/2, s.record)
	if loop.infra != nil {
		return loop.infra
	}
	s.rerunFirst()
	plainJobS := loop.best(loop.jobS, func(k int) bool { return !loop.traced(k) })
	tracedJobS := loop.best(loop.jobS, loop.traced)

	scs := s.inst.scenarios()
	p := &probe{e: s.env, tr: tr, root: root, sc: scs[0], vals: make(map[string]float64)}
	job, err := p.runProbeJob(scs, s.env.interval(s.cfg.w.ckptEvery))
	if err != nil {
		return fmt.Errorf("probe job: %w", err)
	}
	if err := p.drillPasses(job); err != nil {
		return err
	}
	p.jobCounts(job)
	if sv, ok := s.inst.(*serveInstance); ok {
		p.serveMetrics(sv)
	}
	tracedJobs := 0
	for k := range loop.jobS {
		if loop.traced(k) {
			tracedJobs++
		}
	}
	tr.end(root, int64(tracedJobs))

	jobs := float64(loop.jobs())
	s.rep.Jobs = loop.jobs()
	s.rep.HostPace = median(loop.pace)
	s.rep.TailPercentile = tailPercentile(loop.jobs())
	p.vals["experiment.job_s_p90"] = percentile(loop.jobS, s.rep.TailPercentile)
	p.vals["experiment.allocs_per_job"] = float64(loop.mallocs) / jobs
	p.vals["experiment.gc_cycles_per_job"] = float64(loop.gcs) / jobs
	p.vals["experiment.trace_overhead"] = median(tracedJobS)/median(plainJobS) - 1
	// The drills price one scenario's operations, so the attribution only
	// holds where a job is a single plain scenario.
	if len(scs) == 1 {
		p.vals["experiment.unattributed_share"] = p.unattributed(job)
	}
	if s.rep.PerLayer, err = fill(perLayer, p.vals, true); err != nil {
		return err
	}
	s.rep.SpanSelfMs = make(map[string]float64)
	for name, ns := range selfByName(tr.spans) {
		s.rep.SpanSelfMs[name] = float64(ns) / 1e6
	}
	if s.cfg.spans != "" {
		return tr.write(s.cfg.spans)
	}
	return nil
}

// drillRounds is how many passes over the drills a traced run makes. Every
// drill metric is a cost, and what disturbs a 50 ms loop on a shared host
// only ever adds to it, so the metric is the lowest cost of the passes.
const drillRounds = 3

func (p *probe) drillPasses(job *probeJob) error {
	rounds := drillRounds
	if p.e.quick {
		rounds = 1
	}
	best := make(map[string]float64)
	for round := 0; round < rounds; round++ {
		p.from, p.vals = len(p.tr.spans), make(map[string]float64)
		for _, drill := range []func() error{
			func() error { return p.checkpointDrills(job) },
			p.simDrills, p.loglogDrills, p.flowtableDrills, p.domainDrills,
		} {
			if err := drill(); err != nil {
				return err
			}
		}
		for name, v := range p.vals {
			if old, ok := best[name]; !ok || v < old {
				best[name] = v
			}
		}
	}
	p.vals = best
	// Per snapshot, a checkpointed run costs its capture and its encode
	// more than a plain one; the encode has a drill, the capture is what
	// remains.
	snaps := float64(len(job.sizes))
	p.vals["checkpoint.overhead_ratio"] = job.ckptS / job.plainS
	p.vals["checkpoint.capture_ms"] = (job.ckptS-job.plainS)*1e3/snaps - p.vals["checkpoint.encode_ms"]
	return nil
}

// holder is the hold model's event: each dispatch schedules one successor,
// so the number of pending events stays where it is — except while it is
// still below want, when a dispatch schedules a second one. Growing the
// queue between dispatches, rather than filling it up front, lets the
// calendar queue retune its bucket width on the way; a bulk insert of 1e5
// events into a queue that has dispatched nothing is quadratic.
type holder struct {
	sched      *sim.Scheduler
	incr       []sim.Time
	next       int
	live, want int
}

func (h *holder) schedule(now sim.Time) {
	h.next++
	h.sched.ScheduleHandlerAt(now+h.incr[h.next%len(h.incr)], h)
}

func (h *holder) OnEvent(now sim.Time) {
	h.schedule(now)
	if h.live < h.want {
		h.live++
		h.schedule(now)
	}
}

// holdDrill measures schedule+dispatch with pending events in the queue,
// their increments drawn from an exponential distribution.
func (p *probe) holdDrill(name string, pending, ops int) error {
	const mean = float64(sim.Millisecond)
	rng := sim.NewRNG(p.e.seed)
	h := &holder{sched: sim.NewScheduler(), incr: make([]sim.Time, 4096), live: 1, want: pending}
	for i := range h.incr {
		h.incr[i] = sim.Time(rng.Exponential(mean)) + 1
	}
	h.schedule(0)
	for h.live < h.want {
		if err := h.sched.RunUntil(h.sched.Now() + sim.Time(mean)); err != nil {
			return err
		}
	}
	// With pending events each rescheduling itself after mean on average,
	// span of virtual time dispatches about pending*span/mean events. One
	// such stretch lets the calendar queue settle, the next is measured.
	span := sim.Time(float64(ops) * mean / float64(pending))
	if err := h.sched.RunUntil(h.sched.Now() + span); err != nil {
		return err
	}
	before := h.sched.Processed()
	sp := p.tr.begin(p.root, name)
	err := h.sched.RunUntil(h.sched.Now() + span)
	p.tr.end(sp, int64(h.sched.Processed()-before))
	return err
}

type nopHandler struct{}

func (nopHandler) OnEvent(sim.Time) {}

func (p *probe) simDrills() error {
	if err := p.holdDrill("sim.hold_p1e3", 1e3, p.e.ops(400_000)); err != nil {
		return err
	}
	if err := p.holdDrill("sim.hold_p1e5", 1e5, p.e.ops(400_000)); err != nil {
		return err
	}

	// Cancel: only the Cancel calls are inside the span; scheduling the
	// batch and letting the queue discard it are not.
	sched := sim.NewScheduler()
	refs := make([]sim.EventRef, 1024)
	for batch := 0; batch < p.e.ops(192); batch++ {
		now := sched.Now()
		for i := range refs {
			refs[i] = sched.ScheduleHandlerAt(now+sim.Time(i+1), nopHandler{})
		}
		p.timed("sim.cancel", len(refs), func() {
			for _, r := range refs {
				r.Cancel()
			}
		})
		if err := sched.RunUntil(now + sim.Time(len(refs)+1)); err != nil {
			return err
		}
	}

	// Every fork joins its root's stream registry, so the forks are spread
	// over a few roots to keep the registries small.
	for batch := 0; batch < 4; batch++ {
		root := sim.NewRNG(p.e.seed + int64(batch))
		p.timed("sim.rng_fork", 2000, func() {
			for i := 0; i < 2000; i++ {
				root.Fork()
			}
		})
	}
	var ffErr error
	for batch := 0; batch < 3; batch++ {
		g := sim.NewRNG(p.e.seed)
		p.timed("sim.rng_ff", 1, func() {
			if err := g.FastForwardStream(0, p.e.seed, 1_000_000); err != nil {
				ffErr = err
			}
		})
	}
	p.vals["sim.hold_ns_p1e3"] = p.perOp("sim.hold_p1e3")
	p.vals["sim.hold_ns_p1e5"] = p.perOp("sim.hold_p1e5")
	p.vals["sim.cancel_ns"] = p.perOp("sim.cancel")
	p.vals["sim.rng_fork_ns"] = p.perOp("sim.rng_fork")
	p.vals["sim.rng_ff_ms_per_mdraw"] = p.perOp("sim.rng_ff") / 1e6
	return ffErr
}

func (p *probe) loglogDrills() error {
	buckets := p.sc.Monitor.Buckets
	if buckets <= 0 {
		buckets = loglog.DefaultBuckets
	}
	slab, err := loglog.NewSlab(3, buckets)
	if err != nil {
		return err
	}
	a, b, scratch := &slab[0], &slab[1], &slab[2]
	adds := p.e.ops(2_000_000)
	p.timed("loglog.add", adds, func() {
		for i := 0; i < adds; i++ {
			a.Add(mix(i))
		}
	})
	for i := 0; i < 100_000; i++ {
		b.Add(mix(adds + i))
	}
	estimates := p.e.ops(20_000)
	var est float64
	p.timed("loglog.estimate", estimates, func() {
		for i := 0; i < estimates; i++ {
			est += a.Estimate()
		}
	})
	p.timed("loglog.union_estimate", estimates, func() {
		for i := 0; i < estimates; i++ {
			u, uerr := loglog.UnionEstimateInto(scratch, a, b)
			if uerr != nil {
				err = uerr
			}
			est += u
		}
	})
	p.sink += int(est)
	p.vals["loglog.add_ns"] = p.perOp("loglog.add")
	p.vals["loglog.estimate_ns"] = p.perOp("loglog.estimate")
	p.vals["loglog.union_estimate_ns"] = p.perOp("loglog.union_estimate")
	return err
}

// flowHashes returns n distinct flow-label hashes, offset apart from other
// calls' ranges.
func flowHashes(n, offset int) []uint64 {
	hs := make([]uint64, n)
	for i := range hs {
		hs[i] = mix(offset + i)
	}
	return hs
}

func (p *probe) flowtableDrills() error {
	flows := max(p.sc.Workload.TotalFlows, 1)
	hs := flowHashes(flows, 0)
	t := flowtable.New(p.sc.MAFIC.TableCapacity)
	for round := 0; round < p.e.ops(200_000)/flows+1; round++ {
		t.Reset()
		p.timed("flowtable.insert", flows, func() {
			for _, h := range hs {
				t.InsertSuspicious(h, 0, sim.Second)
			}
		})
	}
	lookups := p.e.ops(2_000_000)
	p.timed("flowtable.lookup", lookups, func() {
		for i := 0; i < lookups; i++ {
			if e, _ := t.Lookup(hs[i%flows]); e != nil {
				p.sink++
			}
		}
	})
	p.vals["flowtable.insert_ns"] = p.perOp("flowtable.insert")
	p.vals["flowtable.lookup_ns"] = p.perOp("flowtable.lookup")
	return nil
}

// domainDrills builds the scenario's domain the way a run does and drives
// the topology, netsim, trafficmatrix, pushback, core and traffic layers on
// it from outside.
func (p *probe) domainDrills() error {
	cfg := p.sc.Topology
	sched := sim.NewScheduler()
	build := func(arena *topology.Arena) (*topology.Domain, error) {
		sched.Reset()
		return arena.Build(cfg, sched, sim.NewRNG(p.e.seed).Fork())
	}
	var d *topology.Domain
	var err error
	arena := topology.NewArena()
	p.timed("topology.build_cold", 1, func() { d, err = build(arena) })
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	const warmBuilds = 3
	for i := 0; i < warmBuilds; i++ {
		runtime.ReadMemStats(&m0)
		p.timed("topology.build_warm", 1, func() { d, err = build(arena) })
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
	}
	p.vals["topology.build_ms_cold"] = p.perOp("topology.build_cold") / 1e6
	p.vals["topology.build_ms_warm"] = p.perOp("topology.build_warm") / 1e6
	p.vals["topology.build_alloc_bytes"] = float64(m1.TotalAlloc - m0.TotalAlloc)

	p.routeDrills(d)
	if err := p.hopDrill("netsim.hop", d, sched); err != nil {
		return err
	}
	mon, err := trafficmatrix.NewMonitor(d.Net, p.sc.Monitor, nil)
	if err != nil {
		return err
	}
	defer mon.Release()
	if err := p.hopDrill("netsim.hop_filtered", d, sched); err != nil {
		return err
	}
	p.vals["netsim.hop_ns"] = p.perOp("netsim.hop")
	p.vals["netsim.hop_ns_filtered"] = p.perOp("netsim.hop_filtered")

	p.measurementDrills(d, mon, sched.Now())
	if err := p.defenderDrills(d); err != nil {
		return err
	}

	// Last, because the workload installs its handlers on the hosts.
	for i := 0; i < 3; i++ {
		var w *traffic.Workload
		p.timed("traffic.build", 1, func() {
			w, err = traffic.BuildWorkload(p.sc.Workload, d, sim.NewRNG(p.e.seed).Fork())
		})
		if err != nil {
			return err
		}
		w.Release()
	}
	p.vals["traffic.build_ms"] = p.perOp("traffic.build") / 1e6
	return nil
}

// routeDrills measures demand-driven routing on a domain that has routed
// nothing yet: the first lookup toward a router runs one reverse BFS, every
// later one is an indexed load.
func (p *probe) routeDrills(d *topology.Domain) {
	net := d.Net
	from := d.Ingress[0].ID()
	var dests []netsim.NodeID
	for i := 0; i < 40; i++ {
		r := d.Routers[i*len(d.Routers)/40]
		if r.ID() != from && (len(dests) == 0 || dests[len(dests)-1] != r.ID()) {
			dests = append(dests, r.ID())
		}
	}
	before := net.RouteColumns()
	sp := p.tr.begin(p.root, "netsim.route_cold")
	for _, dest := range dests {
		p.sink += int(net.NextHop(from, dest))
	}
	p.tr.end(sp, int64(net.RouteColumns()-before))

	lookups := p.e.ops(2_000_000)
	p.timed("netsim.route_warm", lookups, func() {
		for i := 0; i < lookups; i++ {
			p.sink += int(net.NextHop(from, dests[i%len(dests)]))
		}
	})

	type pair struct{ a, b netsim.NodeID }
	var pairs []pair
	var nbs []netsim.NodeID
	for _, a := range dests {
		nbs = net.AppendNeighbors(nbs[:0], a)
		for _, b := range nbs {
			pairs = append(pairs, pair{a, b})
		}
	}
	p.timed("netsim.linkbetween", lookups, func() {
		for i := 0; i < lookups; i++ {
			pr := pairs[i%len(pairs)]
			if net.LinkBetween(pr.a, pr.b) != nil {
				p.sink++
			}
		}
	})
	p.vals["netsim.route_cold_us"] = p.perOp("netsim.route_cold") / 1e3
	p.vals["netsim.route_warm_ns"] = p.perOp("netsim.route_warm")
	p.vals["netsim.linkbetween_ns"] = p.perOp("netsim.linkbetween")
}

// hopSender emits one packet per firing, round-robin over the client hosts,
// gap apart in virtual time.
type hopSender struct {
	d      *topology.Domain
	sched  *sim.Scheduler
	labels []netsim.FlowLabel
	gap    sim.Time
	sent   int
	left   int
}

func (s *hopSender) OnEvent(now sim.Time) {
	i := s.sent % len(s.d.Clients)
	net := s.d.Net
	pkt := net.NewPacket()
	pkt.ID = net.NextPacketID()
	pkt.Label = s.labels[i]
	pkt.Kind, pkt.Proto, pkt.Size = netsim.KindData, netsim.ProtoUDP, traffic.DefaultDataSize
	s.d.Clients[i].Send(pkt)
	s.sent++
	if s.left--; s.left > 0 {
		s.sched.ScheduleHandlerAt(now+s.gap, s)
	}
}

// hopDrill streams packets from the client hosts to the victim and drains
// the scheduler. Packets leave a little slower than the victim's link
// serialises them, so no queue builds or drops, and the packets in flight
// keep the event queue about as full as a run does. Nothing else is
// scheduled on the domain and a link send is two events (transmit done,
// arrival), so the link sends are half the events dispatched beyond the
// sender's own.
func (p *probe) hopDrill(name string, d *topology.Domain, sched *sim.Scheduler) error {
	packets := p.e.ops(25_000)
	s := &hopSender{d: d, sched: sched, gap: sim.Microsecond, left: packets}
	if bw := p.sc.Topology.VictimLink.BandwidthBps; bw > 0 {
		s.gap = sim.Time(1.25*float64(traffic.DefaultDataSize*8)/bw*float64(sim.Second)) + 1
	}
	for i, c := range d.Clients {
		s.labels = append(s.labels, netsim.FlowLabel{
			SrcIP: c.PrimaryIP(), DstIP: d.VictimIP(), SrcPort: uint16(1024 + i), DstPort: 80,
		})
	}
	before := sched.Processed()
	sp := p.tr.begin(p.root, name)
	sched.ScheduleHandlerAt(sched.Now(), s)
	err := sched.Run()
	p.tr.end(sp, (int64(sched.Processed()-before)-int64(packets))/2)
	return err
}

// measurementDrills times the measurement and detection layers on the
// sketches the filtered hop drill has just filled.
func (p *probe) measurementDrills(d *topology.Domain, mon *trafficmatrix.Monitor, now sim.Time) {
	const epochs = 50
	var rep trafficmatrix.EpochReport
	p.timed("trafficmatrix.epoch", epochs, func() {
		for i := 0; i < epochs; i++ {
			rep = mon.Compute(now)
		}
	})

	ing := d.Ingress[0]
	pkt := &netsim.Packet{
		Label: netsim.FlowLabel{SrcIP: d.Clients[0].PrimaryIP(), DstIP: d.VictimIP(), SrcPort: 1, DstPort: 80},
		Kind:  netsim.KindData, Proto: netsim.ProtoUDP, Size: traffic.DefaultDataSize,
	}
	counter := mon.Counter(ing.ID())
	handles := p.e.ops(2_000_000)
	p.timed("trafficmatrix.counter", handles, func() {
		for i := 0; i < handles; i++ {
			pkt.ID = uint64(i)
			counter.Handle(pkt, now, ing)
		}
	})

	pb := p.sc.Pushback
	for _, r := range d.Ingress {
		pb.Eligible = append(pb.Eligible, r.ID())
	}
	coord := pushback.NewCoordinator(pb, func(pushback.Request) {}, func(netsim.NodeID) {})
	const reports = 2000
	p.timed("pushback.report", reports, func() {
		for i := 0; i < reports; i++ {
			rep.Epoch = i + 1
			coord.HandleReport(rep)
		}
	})
	coord.Release()

	p.vals["trafficmatrix.epoch_us"] = p.perOp("trafficmatrix.epoch") / 1e3
	p.vals["trafficmatrix.counter_ns"] = p.perOp("trafficmatrix.counter")
	p.vals["pushback.report_us"] = p.perOp("pushback.report") / 1e3
}

// defenderDrills times Defender.Handle per packet by the state of the
// packet's flow: defence not active, flow in the nice table, flow in the
// permanent-drop table.
func (p *probe) defenderDrills(d *topology.Domain) error {
	ing := d.Ingress[0]
	def, err := core.NewDefender(p.sc.MAFIC, ing, sim.NewRNG(p.e.seed).Fork())
	if err != nil {
		return err
	}
	defer def.Release()
	pkt := &netsim.Packet{
		Label: netsim.FlowLabel{SrcIP: d.Clients[0].PrimaryIP(), DstIP: d.VictimIP(), SrcPort: 1, DstPort: 80},
		Kind:  netsim.KindData, Proto: netsim.ProtoTCP, Size: traffic.DefaultDataSize,
	}
	flows := max(p.sc.Workload.TotalFlows, 1)
	nice, condemned := flowHashes(flows, 0), flowHashes(flows, flows)
	handles := p.e.ops(2_000_000)
	handle := func(name string, hs []uint64) {
		p.timed(name, handles, func() {
			for i := 0; i < handles; i++ {
				pkt.SetFlowHash(hs[i%flows])
				p.sink += int(def.Handle(pkt, 0, ing))
			}
		})
	}
	handle("core.handle_inactive", nice)
	def.Activate(d.VictimIP())
	tables := def.Tables()
	for i := range nice {
		tables.Promote(tables.InsertSuspicious(nice[i], 0, sim.Second))
		tables.InsertPermanent(condemned[i], 0)
	}
	handle("core.handle_nft", nice)
	handle("core.handle_pdt", condemned)
	p.vals["core.handle_ns_inactive"] = p.perOp("core.handle_inactive")
	p.vals["core.handle_ns_nft"] = p.perOp("core.handle_nft")
	p.vals["core.handle_ns_pdt"] = p.perOp("core.handle_pdt")
	return nil
}

// probeJob is what one pass over the workload's scenarios under checkpoints
// observed.
type probeJob struct {
	plainS, ckptS float64
	results       []experiment.Result
	sizes         []float64
	// sampled are a few evenly spaced snapshots of each scenario, decoded;
	// last are the final snapshots, taken 1 simulated ms before each
	// scenario's end, with lastBytes their encoded form.
	sampled   []*checkpoint.Snapshot
	last      []*checkpoint.Snapshot
	lastBytes [][]byte
}

// snapshotSamples is how many snapshots per scenario the probe job keeps
// for decoding.
const snapshotSamples = 8

// probeRounds is how many times the probe job runs each way, alternating;
// plainS and ckptS are the medians.
const probeRounds = 3

// runProbeJob runs the scenarios plainly and under RunWithCheckpoints at
// every multiple of every plus 1 ms before the end, so that the last
// snapshot holds the counters of all but the whole run and resuming from it
// has next to nothing left to simulate.
func (p *probe) runProbeJob(scs []experiment.Scenario, every sim.Time) (*probeJob, error) {
	job := &probeJob{}
	var plainS, ckptS []float64
	var kept [][]byte
	rounds := probeRounds
	if p.e.quick {
		rounds = 1
	}
	for round := 0; round < rounds; round++ {
		first := round == 0
		sp := p.tr.begin(p.root, "job.plain")
		t0 := time.Now()
		for i, sc := range scs {
			res, err := experiment.Run(sc)
			if err != nil {
				return nil, err
			}
			if first {
				job.results = append(job.results, res)
			} else if err := checkEqual(res, job.results[i]); err != nil {
				return nil, fmt.Errorf("probe job %s: %w", sc.Name, err)
			}
		}
		plainS = append(plainS, time.Since(t0).Seconds())
		p.tr.end(sp, int64(len(scs)))

		snapshots := 0
		sp = p.tr.begin(p.root, "job.checkpointed")
		t0 = time.Now()
		for i, sc := range scs {
			var times []sim.Time
			for t := every; t < sc.Duration-sim.Millisecond; t += every {
				times = append(times, t)
			}
			times = append(times, sc.Duration-sim.Millisecond)
			stride, n := (len(times)+snapshotSamples-1)/snapshotSamples, 0
			var final []byte
			res, err := experiment.RunWithCheckpoints(sc, times, func(_ sim.Time, data []byte) error {
				if first {
					job.sizes = append(job.sizes, float64(len(data)))
					if n%stride == 0 {
						kept = append(kept, data)
					}
				}
				n++
				final = data
				return nil
			})
			if err == nil {
				err = checkEqual(res, job.results[i])
			}
			if err != nil {
				return nil, fmt.Errorf("probe job %s: %w", sc.Name, err)
			}
			if first {
				job.lastBytes = append(job.lastBytes, final)
			}
			snapshots += n
		}
		ckptS = append(ckptS, time.Since(t0).Seconds())
		p.tr.end(sp, int64(snapshots))
	}
	job.plainS, job.ckptS = median(plainS), median(ckptS)

	decode := func(all [][]byte) ([]*checkpoint.Snapshot, error) {
		var out []*checkpoint.Snapshot
		for _, data := range all {
			snap, err := checkpoint.Decode(data)
			if err != nil {
				return nil, err
			}
			out = append(out, snap)
		}
		return out, nil
	}
	var err error
	if job.sampled, err = decode(kept); err != nil {
		return nil, err
	}
	job.last, err = decode(job.lastBytes)
	return job, err
}

// jobCounts reads the count metrics off the probe job: they repeat exactly
// at a fixed seed.
func (p *probe) jobCounts(job *probeJob) {
	var events, examined, probes, atrs, entries, routeBytes float64
	for _, res := range job.results {
		events += float64(res.EventsProcessed)
		examined += float64(res.DefenseStats.Examined)
		probes += float64(res.DefenseStats.ProbesSent)
		atrs += float64(res.ATRCount)
		entries += float64(res.RouteEntries)
		routeBytes += float64(res.RouteBytes)
	}
	var draws, hops, flows, monitored, epochs float64
	for _, snap := range job.last {
		for _, st := range snap.Streams {
			draws += float64(st.Draws)
		}
		for _, l := range snap.Links {
			hops += float64(l.Sent)
		}
		flows += float64(len(snap.Flows))
		monitored += float64(len(snap.Monitor.Counters))
		epochs += float64(snap.Monitor.EpochIndex)
	}
	pending := make([]float64, len(job.sampled))
	for i, snap := range job.sampled {
		pending[i] = float64(len(snap.Events))
	}
	p.vals["sim.events_per_job"] = events
	p.vals["sim.events_per_s"] = events / job.plainS
	p.vals["sim.pending_p50"] = median(pending)
	p.vals["sim.rng_draws_per_job"] = draws
	p.vals["netsim.hops_per_job"] = hops
	p.vals["netsim.route_entries"] = entries
	p.vals["netsim.route_bytes"] = routeBytes
	p.vals["traffic.flows"] = flows
	p.vals["trafficmatrix.monitored"] = monitored
	p.vals["trafficmatrix.epochs_per_job"] = epochs
	p.vals["core.examined_per_job"] = examined
	p.vals["core.probes_per_job"] = probes
	p.vals["pushback.atrs"] = atrs
	p.vals["checkpoint.snapshots_per_job"] = float64(len(job.sizes))
	p.vals["checkpoint.snapshot_bytes_p50"] = median(job.sizes)
}

// checkpointDrills times the checkpoint layer on the probe job's real
// snapshot of the first scenario.
func (p *probe) checkpointDrills(job *probeJob) error {
	data, snap := job.lastBytes[0], job.last[0]
	// About 64 MB through the codec each way, at least three rounds.
	rounds := min(max(p.e.ops(64<<20)/len(data), 3), 200)
	p.timed("checkpoint.encode", rounds, func() {
		for i := 0; i < rounds; i++ {
			p.sink += len(checkpoint.Encode(snap))
		}
	})
	var err error
	p.timed("checkpoint.decode", rounds, func() {
		for i := 0; i < rounds; i++ {
			if _, derr := checkpoint.Decode(data); derr != nil {
				err = derr
			}
		}
	})
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp(p.e.tmp, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := checkpoint.OpenStore(dir, 3)
	if err != nil {
		return err
	}
	const saves = 10
	p.timed("checkpoint.store_save", saves, func() {
		for i := 0; i < saves; i++ {
			if serr := st.Save(snap.Now, data); serr != nil {
				err = serr
			}
		}
	})
	if err != nil {
		return err
	}

	const resumes = 3
	p.timed("checkpoint.resume_fixed", resumes, func() {
		for i := 0; i < resumes; i++ {
			res, rerr := experiment.ResumeControlled(data, experiment.ControlOptions{})
			if rerr == nil {
				rerr = checkEqual(res, job.results[0])
			}
			if rerr != nil {
				err = rerr
			}
		}
	})

	p.vals["checkpoint.encode_ms"] = p.perOp("checkpoint.encode") / 1e6
	p.vals["checkpoint.decode_ms"] = p.perOp("checkpoint.decode") / 1e6
	p.vals["checkpoint.store_save_ms"] = p.perOp("checkpoint.store_save") / 1e6
	p.vals["checkpoint.resume_fixed_ms"] = p.perOp("checkpoint.resume_fixed") / 1e6
	return err
}

// serveMetrics reads the service's view of the jobs the client ran: the
// timestamps of its JobInfo records and its own counters.
func (p *probe) serveMetrics(sv *serveInstance) {
	var wait, run, total []float64
	for _, info := range sv.infos {
		if info.StartedAt == nil || info.FinishedAt == nil {
			continue
		}
		wait = append(wait, float64(info.StartedAt.Sub(info.SubmittedAt))/1e6)
		run = append(run, float64(info.FinishedAt.Sub(*info.StartedAt))/1e6)
		total = append(total, info.FinishedAt.Sub(info.SubmittedAt).Seconds())
	}
	polls := 0
	for _, n := range sv.polls {
		polls += n
	}
	m := sv.sv.Metrics()
	jobs := float64(len(sv.infos))
	p.vals["serve.submit_ms_p50"] = median(sv.submitMs)
	p.vals["serve.queue_wait_ms_p50"] = median(wait)
	p.vals["serve.run_ms_p50"] = median(run)
	p.vals["serve.overhead_ratio"] = median(run) / 1e3 / median(sv.plainS)
	p.vals["serve.snapshots_per_job"] = float64(m.SnapshotsWritten) / jobs
	p.vals["serve.polls_per_job"] = float64(polls) / jobs
	p.vals["serve.shed"] = float64(m.Shed)
	p.vals["serve.job_s_p90"] = percentile(total, tailPercentile(len(total)))
}

// unattributed is the share of the plain job's time the drills do not
// account for: one minus the counted operations priced at their drill costs.
// The hop cost already contains the two scheduler events of a link send, so
// only the remaining events are priced at the hold cost. What is left is the
// work with no outside seam: the traffic sources' per-packet cost, the
// metrics hooks, the probe cycle, run assembly and result extraction.
func (p *probe) unattributed(job *probeJob) float64 {
	v := p.vals
	hold := v["sim.hold_ns_p1e3"]
	if v["sim.pending_p50"] >= 1e4 {
		hold = v["sim.hold_ns_p1e5"]
	}
	hops, epochs := v["netsim.hops_per_job"], v["trafficmatrix.epochs_per_job"]
	ns := v["topology.build_ms_warm"]*1e6 + v["traffic.build_ms"]*1e6 +
		hops*v["netsim.hop_ns_filtered"] +
		max(0, v["sim.events_per_job"]-2*hops)*hold +
		epochs*(v["trafficmatrix.epoch_us"]+v["pushback.report_us"])*1e3 +
		v["core.examined_per_job"]*v["core.handle_ns_nft"]
	return 1 - ns/1e9/job.plainS
}
