package experiment

import (
	"encoding/json"
	"fmt"

	"mafic/internal/baseline"
	"mafic/internal/checkpoint"
	"mafic/internal/core"
	"mafic/internal/flowtable"
	"mafic/internal/metrics"
	"mafic/internal/netsim"
	"mafic/internal/pool"
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
	Deactivate()
}

// resourcePoolCap bounds the run-scoped engine-object pools below; beyond
// it released objects fall to the garbage collector.
const resourcePoolCap = 64

// arenaPool recycles topology arenas across sequential Run calls, so
// repeated standalone runs reuse topology-construction backing the same way
// RunMany's per-worker arenas do. Arena reuse is bit-invariant (the
// invariance suite pins it), so pooling cannot change results.
var arenaPool = pool.FreeList[topology.Arena]{Cap: resourcePoolCap}

// schedPool recycles schedulers. A recycled scheduler is Reset before reuse,
// which keeps its event arena and queue geometry warm; dispatch order does
// not depend on either, so results are unaffected.
var schedPool = pool.FreeList[sim.Scheduler]{Cap: resourcePoolCap}

func getScheduler() *sim.Scheduler {
	if sched := schedPool.Get(); sched != nil {
		return sched
	}
	return sim.NewScheduler()
}

func putScheduler(sched *sim.Scheduler) {
	sched.Reset()
	schedPool.Put(sched)
}

// runScratch holds the run-scoped lookup tables buildRun rebuilds for every
// scenario: the per-defender dispatch maps and the ground-truth label sets.
// Pooling them removes the last ROADMAP-named construction-time allocations
// (the per-defender map headers) from the sweep hot path — cleared maps keep
// their buckets, so a steady-state run allocates no headers at all.
type runScratch struct {
	defByRouter   map[netsim.NodeID]defense
	maficByRouter map[netsim.NodeID]*core.Defender
	ingressIDs    []netsim.NodeID
	legitLabels   map[uint64]bool
	attackLabels  map[uint64]bool
	mafic         []*core.Defender
	droppers      []*baseline.Dropper
}

var scratchPool = pool.FreeList[runScratch]{Cap: resourcePoolCap}

func getScratch() *runScratch {
	s := scratchPool.Get()
	if s == nil {
		return &runScratch{
			defByRouter:   make(map[netsim.NodeID]defense),
			maficByRouter: make(map[netsim.NodeID]*core.Defender),
			legitLabels:   make(map[uint64]bool),
			attackLabels:  make(map[uint64]bool),
		}
	}
	clear(s.defByRouter)
	clear(s.maficByRouter)
	clear(s.legitLabels)
	clear(s.attackLabels)
	s.ingressIDs = s.ingressIDs[:0]
	s.mafic = s.mafic[:0]
	s.droppers = s.droppers[:0]
	return s
}

// builtRun is a fully built scenario that has not finished running yet: the
// checkpoint layer snapshots and restores between buildRun and finish.
type builtRun struct {
	s           Scenario
	sched       *sim.Scheduler
	rng         *sim.RNG
	domain      *topology.Domain
	workload    *traffic.Workload
	collector   *metrics.Collector
	coordinator *pushback.Coordinator
	monitor     *trafficmatrix.Monitor
	scratch     *runScratch
	// buildSeq is the scheduler sequence number at the build/run boundary;
	// see checkpoint.World.
	buildSeq uint64
	// session is the run's capture session, created at the first snapshot:
	// a run that is never checkpointed does not pay for it.
	session *checkpoint.Session
	result  Result
}

// Run executes one scenario and returns its metrics.
func Run(s Scenario) (Result, error) {
	arena := arenaPool.Get()
	if arena == nil {
		arena = topology.NewArena()
	}
	defer arenaPool.Put(arena)
	return runWith(s, arena)
}

// runWith executes one scenario, building its topology through the given
// arena when one is supplied. Sweep workers (RunMany) pass a per-worker arena
// so consecutive points reuse the topology-construction backing arrays; the
// result is bit-identical either way (the golden invariance tests pin this).
func runWith(s Scenario, arena *topology.Arena) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	sched := getScheduler()
	defer putScheduler(sched)
	b, err := buildRun(s, arena, sched)
	if err != nil {
		return Result{}, err
	}
	if err := sched.RunUntil(s.Duration); err != nil {
		// The deferred putScheduler resets the scheduler, so no event can
		// fire after this point and the pooled objects are safe to recycle
		// even though the run aborted.
		b.abort()
		return Result{}, fmt.Errorf("run: %w", err)
	}
	return b.finish()
}

// RunWithCheckpoints executes one scenario, pausing at each of the given
// virtual times (which must be ascending and inside (0, Duration)) to take a
// snapshot and hand its encoded bytes to save. data is a fresh buffer on
// every call and save owns it: it may keep it past its return and past the
// end of the run. The run's result is bit-identical to an uninterrupted Run:
// a snapshot is a pure read.
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
	arena := arenaPool.Get()
	if arena == nil {
		arena = topology.NewArena()
	}
	defer arenaPool.Put(arena)
	sched := getScheduler()
	defer putScheduler(sched)
	b, err := buildRun(s, arena, sched)
	if err != nil {
		return Result{}, err
	}
	for _, t := range times {
		if err := sched.RunUntil(t); err != nil {
			b.abort()
			return Result{}, fmt.Errorf("run: %w", err)
		}
		data, err := b.snapshot()
		if err != nil {
			b.abort()
			return Result{}, err
		}
		if err := save(t, data); err != nil {
			b.abort()
			return Result{}, fmt.Errorf("save checkpoint at %v: %w", t, err)
		}
	}
	if err := sched.RunUntil(s.Duration); err != nil {
		b.abort()
		return Result{}, fmt.Errorf("run: %w", err)
	}
	return b.finish()
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

// world assembles the checkpoint bridge over the built run.
func (b *builtRun) world() *checkpoint.World {
	return &checkpoint.World{
		Sched:       b.sched,
		RNG:         b.rng,
		Net:         b.domain.Net,
		Workload:    b.workload,
		Monitor:     b.monitor,
		Coordinator: b.coordinator,
		Collector:   b.collector,
		MAFIC:       b.scratch.mafic,
		Baseline:    b.scratch.droppers,
		BuildSeq:    b.buildSeq,
		Flags:       b.flags(),
	}
}

// flags is the activation bookkeeping the result holds so far.
func (b *builtRun) flags() checkpoint.RunFlags {
	return checkpoint.RunFlags{
		Activated:          b.result.Activated,
		ActivationSeconds:  b.result.ActivationSeconds,
		DetectedByPushback: b.result.DetectedByPushback,
		ATRCount:           int64(b.result.ATRCount),
	}
}

// snapshot captures and encodes the run's current state. The bytes are a
// fresh buffer the caller may keep; the capture scratch behind them is the
// run's session, reused by the next snapshot.
func (b *builtRun) snapshot() ([]byte, error) {
	if b.session == nil {
		scenarioJSON, err := json.Marshal(b.s)
		if err != nil {
			return nil, fmt.Errorf("encode scenario: %w", err)
		}
		b.session = checkpoint.NewSession(b.world(), scenarioJSON)
	}
	b.session.World.Flags = b.flags()
	snap, err := b.session.Capture()
	if err != nil {
		return nil, err
	}
	return checkpoint.Encode(snap), nil
}

// buildRun constructs every component of a scenario run — topology, workload,
// faults, measurement, detection, defence — schedules the build-time events,
// and records the build/run sequence boundary. It does not advance the clock.
func buildRun(s Scenario, arena *topology.Arena, sched *sim.Scheduler) (*builtRun, error) {
	if arena == nil {
		arena = topology.NewArena()
	}
	rng := sim.NewRNG(s.Seed)

	domain, err := arena.Build(s.Topology, sched, rng.Fork())
	if err != nil {
		return nil, fmt.Errorf("build topology: %w", err)
	}
	workload, err := traffic.BuildWorkload(s.Workload, domain, rng.Fork())
	if err != nil {
		return nil, fmt.Errorf("build workload: %w", err)
	}
	if err := installFaults(s.Faults, domain, sched); err != nil {
		return nil, err
	}

	collector := metrics.NewCollector(s.BinWidth)
	collector.ReserveSeries(s.Duration)
	collector.InstallHooks(domain.Net, domain.Victim.ID())
	for _, ing := range domain.Ingress {
		collector.TapRouter(ing, domain.VictimIP())
	}

	b := &builtRun{
		s:         s,
		sched:     sched,
		rng:       rng,
		domain:    domain,
		workload:  workload,
		collector: collector,
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

	// Per-ingress defences, dispatched through pooled run-scoped tables.
	scratch := getScratch()
	b.scratch = scratch
	defByRouter := scratch.defByRouter
	maficByRouter := scratch.maficByRouter
	switch s.Defense {
	case DefenseMAFIC:
		for _, ing := range domain.Ingress {
			d, derr := core.NewDefender(s.MAFIC, ing, rng.Fork())
			if derr != nil {
				scratchPool.Put(scratch)
				return nil, fmt.Errorf("defender on %s: %w", ing.Name(), derr)
			}
			d.SetDropObserver(collector.ObserveMAFICDrop)
			defByRouter[ing.ID()] = d
			maficByRouter[ing.ID()] = d
			scratch.mafic = append(scratch.mafic, d)
		}
	case DefenseBaseline:
		p := s.BaselineDropProbability
		if p <= 0 {
			p = s.MAFIC.DropProbability
		}
		for _, ing := range domain.Ingress {
			d, derr := baseline.NewDropper(p, ing, rng.Fork())
			if derr != nil {
				scratchPool.Put(scratch)
				return nil, fmt.Errorf("baseline on %s: %w", ing.Name(), derr)
			}
			d.SetDropObserver(collector.ObserveBaselineDrop)
			defByRouter[ing.ID()] = d
			scratch.droppers = append(scratch.droppers, d)
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

	ingressIDs := scratch.ingressIDs
	for _, ing := range domain.Ingress {
		ingressIDs = append(ingressIDs, ing.ID())
	}
	scratch.ingressIDs = ingressIDs

	pbCfg := s.Pushback
	pbCfg.Eligible = ingressIDs
	b.coordinator = pushback.NewCoordinator(pbCfg,
		func(req pushback.Request) {
			atrs := make([]netsim.NodeID, 0, len(req.ATRs))
			for _, a := range req.ATRs {
				atrs = append(atrs, a.Router)
			}
			activate(sched.Now(), atrs, true)
		},
		func(netsim.NodeID) {
			for _, d := range defByRouter {
				d.Deactivate()
			}
		})

	// The fault spec's control-plane knobs ride into the monitor config so
	// a chaos scenario declares its whole failure model in one place; when
	// they are zero the config is untouched and the monitor forks no RNG.
	monCfg := s.Monitor
	if s.Faults.ReportLoss > 0 {
		monCfg.ReportLoss = s.Faults.ReportLoss
	}
	if s.Faults.ReportDelayProb > 0 {
		monCfg.ReportDelayProb = s.Faults.ReportDelayProb
		monCfg.ReportDelay = s.Faults.ReportDelay
	}
	b.monitor, err = trafficmatrix.NewMonitor(domain.Net, monCfg, b.coordinator.HandleReport)
	if err != nil {
		b.coordinator.Release()
		scratchPool.Put(scratch)
		return nil, fmt.Errorf("traffic monitor: %w", err)
	}

	// The defence filters attach after the taps and counters so drops are
	// observed by both measurement layers.
	if s.Defense != DefenseNone {
		for _, ing := range domain.Ingress {
			switch s.Defense {
			case DefenseMAFIC:
				ing.AttachFilter(maficByRouter[ing.ID()])
			case DefenseBaseline:
				d, ok := defByRouter[ing.ID()].(*baseline.Dropper)
				if ok {
					ing.AttachFilter(d)
				}
			}
		}
	}

	b.monitor.Start()
	workload.StartAll(s.Workload, rng.Fork())

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
	return b, nil
}

// abort releases the built run's pooled components after a failed run. The
// caller is responsible for resetting the scheduler (the Run family does it
// through the deferred putScheduler), which guarantees no released object can
// be dispatched to afterwards.
func (b *builtRun) abort() {
	b.monitor.Release()
	b.coordinator.Release()
	b.workload.Release()
	scratchPool.Put(b.scratch)
}

// finish stops the measurement and traffic layers, extracts every metric into
// the result, and releases the pooled engine objects.
func (b *builtRun) finish() (Result, error) {
	s := b.s
	b.monitor.Stop()
	b.workload.StopAll()

	// Headline metrics.
	collector := b.collector
	b.result.Accuracy = collector.Accuracy()
	b.result.FalsePositiveRate = collector.FalsePositiveRate()
	b.result.FalseNegativeRate = collector.FalseNegativeRate()
	b.result.LegitimateDropRate = collector.LegitimateDropRate()
	b.result.TrafficReduction = collector.TrafficReduction(s.ReductionWindow)
	b.result.Counts = collector.Counts()
	b.result.Series = collector.Series()
	b.result.EventsProcessed = b.sched.Processed()

	// Flow-level outcomes from the defenders' tables.
	if s.Defense == DefenseMAFIC {
		legitLabels := b.scratch.legitLabels
		attackLabels := b.scratch.attackLabels
		for _, f := range b.workload.Legitimate {
			legitLabels[f.Label().Hash()] = true
		}
		for _, f := range b.workload.Attack {
			attackLabels[f.Label().Hash()] = true
		}
		for _, d := range b.scratch.mafic {
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
			d.Release()
		}
		b.result.FlowsProbed = int(b.result.DefenseStats.FlowsProbed)
	}
	// Routing is demand-driven: the resident route state at the end of the
	// run is exactly the set of destinations the scenario's traffic used.
	b.result.RouteEntries, b.result.RouteBytes = b.domain.Net.RouteStats()

	// All metrics are extracted; pooled engine objects can go back to
	// their pools for the next run (or the next sweep worker) to reuse.
	b.monitor.Release()
	b.coordinator.Release()
	b.workload.Release()
	scratchPool.Put(b.scratch)
	return b.result, nil
}
