package experiment

import (
	"fmt"

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

// defense abstracts over the MAFIC defender and the proportional baseline so
// the run loop can activate either uniformly.
type defense interface {
	Activate(victim netsim.IP)
}

// runResources is everything a run borrows for its lifetime and hands back in
// one piece, and the one owner of what runs recycle: the topology arena (whose
// network every build resets and rebuilds in place), the scheduler, the engine
// objects every build resets in place on that network — the MAFIC defenders,
// the traffic-matrix monitor, the pushback coordinator and the workload with
// its senders — the root RNG with every stream a run has forked from it, the
// run-scoped lookup tables buildRun refills for every scenario: the
// per-defender dispatch maps and the ground-truth label sets, and, once a run
// of it has been checkpointed or resumed, the checkpoint session: the one
// Snapshot every capture refills and every resume decodes into, its encode
// buffer and the capture registry's storage. A recycled bundle keeps the
// arena's backing arrays, the scheduler's event arena and queue geometry, the
// objects' slabs and tables, the streams' sources, the maps' buckets and the
// snapshot's lists warm, so a steady-state run allocates none of them again,
// checkpointed or resumed alike. Reuse is bit-invariant: dispatch order
// depends on none of it, a stream reseeded in place draws exactly what a new
// one would (see sim.RNG.Reset), and the invariance suite pins a run on a
// recycled bundle against one on a brand-new bundle for the whole catalog.
type runResources struct {
	arena       *topology.Arena
	sched       *sim.Scheduler
	rng         *sim.RNG
	monitor     *trafficmatrix.Monitor
	coordinator *pushback.Coordinator
	workload    *traffic.Workload

	defByRouter  map[netsim.NodeID]defense
	ingressIDs   []netsim.NodeID
	legitLabels  map[uint64]bool
	attackLabels map[uint64]bool
	// mafic and droppers list the run's defenders in ingress order. reset
	// cuts mafic to length zero and keeps its backing, which holds every
	// defender an earlier run built: a MAFIC run's i-th ingress resets the
	// i-th of them (see defender).
	mafic    []*core.Defender
	droppers []*baseline.Dropper

	// session is the bundle's checkpoint storage (see capture.go), nil until
	// the bundle serves its first snapshot or resume.
	session *captureSession
}

// idleBundles keeps bundles between runs, sequential or the workers of a
// sweep alike. A bundle handed back while it is full falls to the garbage
// collector. 64 slots bound what idle bundles retain — each keeps the largest
// domain it has built, 31 MB of arena after a quick stress-50k run, the
// streams of its most-forking run, 0.3 MB for that run's 50, and, once it has
// served a checkpointed run or a resume, the largest snapshot it has held:
// 19 MB more after a checkpointed quick stress-50k run (50 MB in all; its
// 130 000 link and 53 000 node records, the handler map and link list over
// the same links, and the 1.7 MB encode buffer), 0.2 MB after a full table2
// one — and still cover every concurrent run of a sweep on up to 64 CPUs
// (RunMany runs GOMAXPROCS workers by default) or of maficserve (two by
// default).
var idleBundles = make(chan *runResources, 64)

// newRunResources returns a brand-new bundle: what the first run of a process
// gets, and what the invariance tests hand in as their reference.
func newRunResources() *runResources {
	return &runResources{
		arena:        topology.NewArena(),
		sched:        sim.NewScheduler(),
		rng:          sim.NewRNG(0), // buildRun resets it to the scenario's seed
		monitor:      new(trafficmatrix.Monitor),
		coordinator:  new(pushback.Coordinator),
		workload:     new(traffic.Workload),
		defByRouter:  make(map[netsim.NodeID]defense),
		legitLabels:  make(map[uint64]bool),
		attackLabels: make(map[uint64]bool),
	}
}

// defender returns the defender for a MAFIC run's i-th ingress, called while
// mafic holds the run's first i: the one an earlier run left in mafic's
// backing, or a new one the first time a run has that many ingress routers.
func (r *runResources) defender(i int) *core.Defender {
	if i < cap(r.mafic) {
		if d := r.mafic[:i+1][i]; d != nil {
			return d
		}
	}
	return new(core.Defender)
}

// reset empties the bundle for its next run. Resetting the scheduler
// guarantees no event of the finished run can be dispatched afterwards, which
// is what makes the objects it keeps safe to reset for the next build.
func (r *runResources) reset() {
	r.sched.Reset()
	clear(r.defByRouter)
	clear(r.legitLabels)
	clear(r.attackLabels)
	r.ingressIDs = r.ingressIDs[:0]
	r.mafic = r.mafic[:0]
	r.droppers = r.droppers[:0]
}

// builtRun is a fully built scenario that has not finished running yet: the
// checkpoint layer snapshots and restores between buildRun and finish.
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

// RunFromSnapshot decodes a snapshot, rebuilds its scenario deterministically,
// overlays the captured state and runs the remainder of the scenario. The
// returned result is bit-identical to the uninterrupted run's (the
// crash-recovery suite pins this for every catalog scenario). It is
// ResumeControlled without a control surface: no further checkpoints, no
// interruption.
func RunFromSnapshot(data []byte) (Result, error) {
	return ResumeControlled(data, ControlOptions{})
}

// buildRun constructs every component of a scenario run on the given bundle —
// topology, workload, faults, measurement, detection, defence — schedules the
// build-time events, and records the build/run sequence boundary. It does not
// advance the clock. A failed build releases whatever it had built so far.
func buildRun(s Scenario, res *runResources) (*builtRun, error) {
	res.rng.Reset(s.Seed)
	b := &builtRun{
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

	collector := metrics.NewCollector(s.BinWidth)
	collector.ReserveSeries(s.Duration)
	collector.InstallHooks(domain.Net, domain.Victim.ID())
	for _, ing := range domain.Ingress {
		collector.TapRouter(ing, domain.VictimIP())
	}
	b.collector = collector

	// Per-ingress defences, dispatched through the bundle's run-scoped
	// tables.
	defByRouter := res.defByRouter
	switch s.Defense {
	case DefenseMAFIC:
		for i, ing := range domain.Ingress {
			d := res.defender(i)
			if err := d.Reset(s.MAFIC, ing, rng.Fork()); err != nil {
				return fmt.Errorf("defender on %s: %w", ing, err)
			}
			d.SetDropObserver(collector.ObserveMAFICDrop)
			defByRouter[ing.ID()] = d
			res.mafic = append(res.mafic, d)
		}
	case DefenseBaseline:
		for _, ing := range domain.Ingress {
			d, derr := baseline.NewDropper(s.MAFIC.DropProbability, ing, rng.Fork())
			if derr != nil {
				return fmt.Errorf("baseline on %s: %w", ing, derr)
			}
			d.SetDropObserver(collector.ObserveBaselineDrop)
			defByRouter[ing.ID()] = d
			res.droppers = append(res.droppers, d)
		}
	case DefenseNone:
		// No defence: the run measures the undefended system.
	}

	activate := func(now sim.Time, routers []netsim.NodeID, byPushback bool) {
		if len(routers) == 0 {
			return
		}
		if _, already := collector.Activated(); !already {
			collector.MarkActivation(now)
			b.result.Activated = true
			b.result.ActivationSeconds = now.Seconds()
			b.result.DetectedByPushback = byPushback
		}
		for _, id := range routers {
			if d, ok := defByRouter[id]; ok {
				d.Activate(domain.VictimIP())
			}
		}
		b.result.ATRCount = len(routers)
	}

	for _, ing := range domain.Ingress {
		res.ingressIDs = append(res.ingressIDs, ing.ID())
	}
	ingressIDs := res.ingressIDs

	pbCfg := s.Pushback
	pbCfg.Eligible = ingressIDs
	res.coordinator.Reset(pbCfg, func(req pushback.Request) {
		atrs := make([]netsim.NodeID, 0, len(req.ATRs))
		for _, a := range req.ATRs {
			atrs = append(atrs, a.Router)
		}
		activate(sched.Now(), atrs, true)
	})

	if err := res.monitor.Reset(domain.Net, s.Faults.controlPlane(s.Monitor), res.coordinator.HandleReport); err != nil {
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
		at := s.Workload.AttackStart + s.DetectionFallback
		sched.ScheduleAt(at, func(now sim.Time) {
			if _, already := collector.Activated(); already {
				return
			}
			activate(now, ingressIDs, false)
		})
	}

	b.buildSeq = sched.Seq()
	return nil
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

	// Flow-level outcomes from the defenders' tables.
	if s.Defense == DefenseMAFIC {
		legitLabels := b.res.legitLabels
		attackLabels := b.res.attackLabels
		for _, f := range workload.Legitimate {
			legitLabels[f.Label().Hash()] = true
		}
		for _, f := range workload.Attack {
			attackLabels[f.Label().Hash()] = true
		}
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

			d.Tables().Range(func(hash uint64, state flowtable.State) {
				switch {
				case state == flowtable.StatePermanentDrop && legitLabels[hash]:
					b.result.LegitFlowsCondemned++
				case state == flowtable.StateNice && attackLabels[hash]:
					b.result.AttackFlowsForgiven++
				}
			})
		}
		b.result.FlowsProbed = int(b.result.DefenseStats.FlowsProbed)
	}
	// Routing is demand-driven: the resident route state at the end of the
	// run is exactly the set of destinations the scenario's traffic used.
	b.result.RouteEntries, b.result.RouteBytes = b.domain.Net.RouteStats()
	return b.result, nil
}
