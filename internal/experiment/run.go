package experiment

import (
	"fmt"
	"slices"

	"mafic/internal/baseline"
	"mafic/internal/checkpoint"
	"mafic/internal/core"
	"mafic/internal/flowtable"
	"mafic/internal/metrics"
	"mafic/internal/netsim"
	"mafic/internal/pushback"
	"mafic/internal/sim"
	"mafic/internal/topology"
	"mafic/internal/traffic"
	"mafic/internal/trafficmatrix"
)

// runResources is everything a run borrows for its lifetime and hands back in
// one piece, and the one owner of what runs recycle: the topology arena (whose
// network every build resets and rebuilds in place), the scheduler, the engine
// objects every build resets in place on that network — the MAFIC defenders
// and the baseline droppers, the traffic-matrix monitor with its delayed
// reports, the pushback coordinator, the workload with its senders and
// servers, and the metrics collector — the built run itself, the root RNG with
// every stream a run has forked from it, the ingress and ATR id lists buildRun
// refills for every scenario, the callbacks a build wires into the engine,
// and, once a run of it has been checkpointed or resumed, the checkpoint
// session: the one Snapshot every capture refills and every resume decodes
// into, its encode buffer and the capture registry's storage. A recycled
// bundle keeps the arena's backing arrays, the scheduler's event arena and
// queue geometry, the objects' slabs and tables, the streams' sources, the
// lists' backing and the snapshot's lists warm, so a steady-state plain run
// allocates nothing but its Result's series, and a checkpointed or resumed one
// little more. Reuse is bit-invariant: dispatch order depends on none of it, a
// stream reseeded in place draws exactly what a new one would (see
// sim.RNG.Reset), and the invariance suite pins a run on a recycled bundle
// against one on a brand-new bundle for the whole catalog.
type runResources struct {
	arena       *topology.Arena
	sched       *sim.Scheduler
	rng         *sim.RNG
	monitor     *trafficmatrix.Monitor
	coordinator *pushback.Coordinator
	workload    *traffic.Workload
	collector   *metrics.Collector
	// run is the bundle's one built run, which buildRun overwrites.
	run builtRun

	ingressIDs, atrIDs []netsim.NodeID
	// Callbacks a build wires in, bound once to the bundle's objects.
	onReport       func(trafficmatrix.EpochReport)
	onPushback     func(pushback.Request)
	onMAFICDrop    func(*netsim.Packet, core.DropReason, sim.Time)
	onBaselineDrop func(*netsim.Packet, sim.Time)
	// mafic and droppers list the run's defenders in ingress order, so the
	// i-th guards ingressIDs[i]. reset cuts both to length zero and keeps
	// their backing, which holds every defender an earlier run built: a
	// run's i-th ingress resets the i-th of them (see keptAt).
	mafic    []*core.Defender
	droppers []*baseline.Dropper

	// session is the bundle's checkpoint storage (see capture.go), nil until
	// the bundle serves its first snapshot or resume.
	session *captureSession
}

// idleBundles keeps bundles between runs, sequential or the workers of a
// sweep alike. A bundle handed back while it is full falls to the garbage
// collector. 64 slots bound what idle bundles retain — each keeps the largest
// domain it has built and the streams of its most-forking run, 8.9 MB in
// all after a quick stress-50k run (TestStress50kBundleHeap), and, once it
// has served a checkpointed run or a resume, the largest snapshot it has
// held: 22.8 MB more after a quick stress-50k run checkpointed every quarter
// (its 130 000 link and 50 000 node records, the handler map and link list
// over the same links, and the encode buffer), 0.1 MB after a quick table2
// one — and still cover every concurrent run of a sweep on up to 64 CPUs
// (RunMany runs GOMAXPROCS workers by default) or of maficserve (two by
// default).
var idleBundles = make(chan *runResources, 64)

// newRunResources returns a brand-new bundle: what the first run of a process
// gets, and what the invariance tests hand in as their reference.
func newRunResources() *runResources {
	r := &runResources{
		arena:       topology.NewArena(),
		sched:       sim.NewScheduler(),
		rng:         sim.NewRNG(0), // buildRun resets it to the scenario's seed
		monitor:     new(trafficmatrix.Monitor),
		coordinator: new(pushback.Coordinator),
		workload:    new(traffic.Workload),
		collector:   metrics.NewCollector(0),
	}
	r.onReport, r.onPushback = r.coordinator.HandleReport, r.run.pushback
	r.onMAFICDrop, r.onBaselineDrop = r.collector.ObserveMAFICDrop, r.collector.ObserveBaselineDrop
	return r
}

// keptAt returns the defender for a run's i-th ingress, called while list
// holds the run's first i: the one an earlier run left in list's backing, or
// a new one the first time a run has that many ingress routers.
func keptAt[T any](list []*T, i int) *T {
	if i < cap(list) {
		if d := list[:i+1][i]; d != nil {
			return d
		}
	}
	return new(T)
}

// reset empties the bundle for its next run. Resetting the scheduler
// guarantees no event of the finished run can be dispatched afterwards, which
// is what makes the objects it keeps safe to reset for the next build.
func (r *runResources) reset() {
	r.sched.Reset()
	r.ingressIDs = r.ingressIDs[:0]
	r.mafic = r.mafic[:0]
	r.droppers = r.droppers[:0]
}

// builtRun is a fully built scenario that has not finished running yet: the
// checkpoint layer snapshots and restores between buildRun and finish. It is
// the bundle's own, overwritten by the bundle's next build.
type builtRun struct {
	s         Scenario
	res       *runResources
	domain    *topology.Domain
	collector *metrics.Collector
	// buildSeq is the scheduler sequence number recorded immediately after
	// the build completed, before the first RunUntil: events with a lower
	// sequence number were created by the deterministic rebuild, events at
	// or above it were scheduled at runtime and travel in the snapshot.
	buildSeq uint64
	// linked and registered say whether the bundle's capture registry holds
	// this run's links, and its handlers and scenario: each is refilled at
	// the run's first use (see capture.go).
	linked, registered bool
	result             Result
}

// Run executes one scenario and returns its metrics.
func Run(s Scenario) (Result, error) {
	return RunControlled(s, ControlOptions{})
}

// RunWithCheckpoints executes one scenario, pausing at each of the given
// virtual times (which must be ascending and inside (0, Duration)) to take a
// snapshot and hand its encoded bytes to save. data is a fresh buffer on
// every call and save owns it: it may keep it past its return and past the
// end of the run. As with ControlOptions.Save, the snapshot is encoded and
// saved on a helper goroutine while the run goes on: save is called one call
// at a time and in order, its error fails the run at the next checkpoint (or
// at the end), and RunWithCheckpoints returns only after the last call has
// returned. The run's result is bit-identical to an uninterrupted Run: a
// snapshot is a pure read.
func RunWithCheckpoints(s Scenario, times []sim.Time, save func(at sim.Time, data []byte) error) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	for i, t := range times {
		if t <= 0 || t >= s.Duration {
			return Result{}, fmt.Errorf("%w: checkpoint time %v outside (0, %v)", ErrScenario, t, s.Duration)
		}
		if i > 0 && t <= times[i-1] {
			return Result{}, fmt.Errorf("%w: checkpoint times must be strictly ascending", ErrScenario)
		}
	}
	return runPooled(s, ControlOptions{Save: save, at: times})
}

// runPooled validates opts and runs s on a pooled bundle.
// s is validated by the caller, which knows whose fault a bad one is.
func runPooled(s Scenario, opts ControlOptions) (Result, error) {
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	res := takeBundle()
	defer res.giveBack()
	return runWith(s, res, nil, opts)
}

// takeBundle takes an idle bundle, or makes a new one; giveBack hands it
// back. Between the two the caller is the bundle's one owner.
func takeBundle() *runResources {
	select {
	case res := <-idleBundles:
		return res
	default:
		return newRunResources()
	}
}

func (r *runResources) giveBack() {
	select {
	case idleBundles <- r:
	default:
	}
}

// runWith builds s on the given bundle, overlays snap when the run resumes
// one, and drives it to the scenario's end under opts. Whatever happens the
// built run is released and the bundle left empty for its next run. The
// invariance tests call it with a bundle of their own — brand-new, or shared
// by a whole sequence of runs — where the Run family passes an idle one.
func runWith(s Scenario, res *runResources, snap *checkpoint.Snapshot, opts ControlOptions) (Result, error) {
	b, err := buildRun(s, res)
	if err != nil {
		return Result{}, err
	}
	defer b.release()
	if snap != nil {
		if err := b.restore(snap); err != nil {
			return Result{}, fmt.Errorf("%w: %w", ErrSnapshot, err)
		}
	}
	return controlLoop(b, opts)
}

// buildRun constructs every component of a scenario run on the given bundle —
// topology, workload, faults, measurement, detection, defence — schedules the
// build-time events, and records the build/run sequence boundary. It does not
// advance the clock. A failed build releases whatever it had built so far.
func buildRun(s Scenario, res *runResources) (*builtRun, error) {
	res.rng.Reset(s.Seed)
	b := &res.run
	*b = builtRun{
		s:   s,
		res: res,
		result: Result{
			Name:       s.Name,
			Pd:         s.MAFIC.DropProbability,
			Volume:     s.Workload.TotalFlows,
			TCPShare:   s.Workload.TCPShare,
			AttackRate: s.Workload.AttackRate,
			Routers:    s.Topology.NumRouters,
			Defense:    s.Defense.String(),
		},
	}
	if err := b.build(); err != nil {
		b.release()
		return nil, err
	}
	return b, nil
}

// build is buildRun's body. A failure part-way is released like a finished
// run: the next build resets whatever the bundle keeps, half-built or not.
func (b *builtRun) build() error {
	s, res, rng, sched := b.s, b.res, b.res.rng, b.res.sched
	domain, err := res.arena.Build(s.Topology, sched, rng.Fork())
	if err != nil {
		return fmt.Errorf("build topology: %w", err)
	}
	b.domain = domain
	if err := res.workload.Reset(s.Workload, domain, rng.Fork()); err != nil {
		return fmt.Errorf("build workload: %w", err)
	}
	if err := installFaults(s.Faults, domain, sched); err != nil {
		return err
	}

	collector := res.collector
	collector.Reset(s.BinWidth)
	collector.ReserveSeries(s.Duration)
	collector.InstallHooks(domain.Net, domain.Victim.ID())
	for _, ing := range domain.Ingress {
		collector.TapRouter(ing, domain.VictimIP())
	}
	b.collector = collector

	// Per-ingress defences, listed in ingress order.
	switch s.Defense {
	case DefenseMAFIC:
		for i, ing := range domain.Ingress {
			d := keptAt(res.mafic, i)
			if err := d.Reset(s.MAFIC, ing, rng.Fork()); err != nil {
				return fmt.Errorf("defender on %s: %w", ing, err)
			}
			d.SetDropObserver(res.onMAFICDrop)
			res.mafic = append(res.mafic, d)
		}
	case DefenseBaseline:
		for i, ing := range domain.Ingress {
			d := keptAt(res.droppers, i)
			if err := d.Reset(s.MAFIC.DropProbability, ing, rng.Fork()); err != nil {
				return fmt.Errorf("baseline on %s: %w", ing, err)
			}
			d.SetDropObserver(res.onBaselineDrop)
			res.droppers = append(res.droppers, d)
		}
	case DefenseNone:
		// No defence: the run measures the undefended system.
	}

	for _, ing := range domain.Ingress {
		res.ingressIDs = append(res.ingressIDs, ing.ID())
	}

	pbCfg := s.Pushback
	pbCfg.Eligible = res.ingressIDs
	res.coordinator.Reset(pbCfg, res.onPushback)

	if err := res.monitor.Reset(domain.Net, s.Faults.controlPlane(s.Monitor), res.onReport); err != nil {
		return fmt.Errorf("traffic monitor: %w", err)
	}

	// The defence filters attach after the taps and counters so drops are
	// observed by both measurement layers.
	for i, d := range res.mafic {
		domain.Ingress[i].AttachFilter(d)
	}
	for i, d := range res.droppers {
		domain.Ingress[i].AttachFilter(d)
	}

	res.monitor.Start()
	res.workload.StartAll(s.Workload, rng.Fork())

	// Fallback activation covers scenarios where the detection layer is
	// intentionally mistuned or the attack is too small to detect.
	if s.DetectionFallback > 0 && s.Defense != DefenseNone {
		sched.ScheduleArgAt(s.Workload.AttackStart+s.DetectionFallback, b, nil)
	}

	b.buildSeq = sched.Seq()
	return nil
}

// activate turns the defence on at the given routers, and records the run's
// first activation.
func (b *builtRun) activate(now sim.Time, routers []netsim.NodeID, byPushback bool) {
	if len(routers) == 0 {
		return
	}
	if _, already := b.collector.Activated(); !already {
		b.collector.MarkActivation(now)
		b.result.Activated = true
		b.result.ActivationSeconds = now.Seconds()
		b.result.DetectedByPushback = byPushback
	}
	// The i-th defender guards ingressIDs[i]; a run without a defence has
	// none to activate.
	res, victim := b.res, b.domain.VictimIP()
	for _, id := range routers {
		i := slices.Index(res.ingressIDs, id)
		switch {
		case i < 0: // not an ingress router: nothing guards it
		case i < len(res.mafic):
			res.mafic[i].Activate(victim)
		case i < len(res.droppers):
			res.droppers[i].Activate(victim)
		}
	}
	b.result.ATRCount = len(routers)
}

// pushback is the coordinator's callback: the request's ATRs are activated.
func (b *builtRun) pushback(req pushback.Request) {
	atrs := b.res.atrIDs[:0]
	for _, a := range req.ATRs {
		atrs = append(atrs, a.Router)
	}
	b.res.atrIDs = atrs
	b.activate(b.res.sched.Now(), atrs, true)
}

// OnEventArg is the detection fallback, the one event a build schedules on
// the run itself: every ingress router is activated unless detection has
// activated the defence already.
func (b *builtRun) OnEventArg(now sim.Time, _ any) {
	if _, already := b.collector.Activated(); !already {
		b.activate(now, b.res.ingressIDs, false)
	}
}

// release empties the bundle for its next run; its scheduler reset
// guarantees nothing the built run scheduled can be dispatched afterwards.
// The bundle keeps the run's monitor, coordinator, defenders and workload as
// they are, and the next build resets them. It is the one tear-down of a run,
// finished, failed, interrupted or only partly built alike.
func (b *builtRun) release() { b.res.reset() }

// finish stops the measurement and traffic layers and extracts every metric
// into the result. The run's owner releases it afterwards.
func (b *builtRun) finish() (Result, error) {
	s, workload := b.s, b.res.workload
	b.res.monitor.Stop()
	workload.StopAll()

	// Headline metrics.
	collector := b.collector
	b.result.Accuracy = collector.Accuracy()
	b.result.FalsePositiveRate = collector.FalsePositiveRate()
	b.result.FalseNegativeRate = collector.FalseNegativeRate()
	b.result.LegitimateDropRate = collector.LegitimateDropRate()
	b.result.TrafficReduction = collector.TrafficReduction(s.ReductionWindow)
	b.result.Counts = collector.Counts()
	b.result.Series = collector.Series()
	b.result.EventsProcessed = b.res.sched.Processed()

	// Flow-level outcomes from the defenders' tables, looked up by each
	// workload flow's label. No two flows share a label: each has a source
	// port of its own.
	if s.Defense == DefenseMAFIC {
		for _, d := range b.res.mafic {
			st := d.Stats()
			b.result.DefenseStats.Examined += st.Examined
			b.result.DefenseStats.Forwarded += st.Forwarded
			b.result.DefenseStats.Dropped += st.Dropped
			b.result.DefenseStats.DroppedIllegal += st.DroppedIllegal
			b.result.DefenseStats.DroppedPDT += st.DroppedPDT
			b.result.DefenseStats.DroppedProbing += st.DroppedProbing
			b.result.DefenseStats.ProbesSent += st.ProbesSent
			b.result.DefenseStats.FlowsProbed += st.FlowsProbed
			b.result.DefenseStats.FlowsNice += st.FlowsNice
			b.result.DefenseStats.FlowsCondemned += st.FlowsCondemned
			b.result.DefenseStats.FlowsIllegal += st.FlowsIllegal
			b.result.DefenseStats.FlowsReprobed += st.FlowsReprobed
			b.result.DefenseStats.FlowsRepeatCondemned += st.FlowsRepeatCondemned

			tables := d.Tables()
			for _, f := range workload.Legitimate {
				if _, state := tables.Lookup(f.Label().Hash()); state == flowtable.StatePermanentDrop {
					b.result.LegitFlowsCondemned++
				}
			}
			for _, f := range workload.Attack {
				if _, state := tables.Lookup(f.Label().Hash()); state == flowtable.StateNice {
					b.result.AttackFlowsForgiven++
				}
			}
		}
		b.result.FlowsProbed = int(b.result.DefenseStats.FlowsProbed)
	}
	// Routing is demand-driven: the resident route state at the end of the
	// run is exactly the set of destinations the scenario's traffic used.
	b.result.RouteEntries, b.result.RouteBytes = b.domain.Net.RouteStats()
	return b.result, nil
}
