package main

import (
	"errors"
	"fmt"
	"reflect"

	"mafic/internal/experiment"
	"mafic/internal/sim"
)

// env is what a workload instance is opened with: the run's seed, a scratch
// directory inside the working directory, and the tracer (nil when the run
// is untraced). The program under test never sees the seed itself, only the
// scenarios, job specs and snapshot bytes generated from it.
type env struct {
	seed int64
	tmp  string
	tr   *tracer
	// slots is the length of the workload's job cycle: job i is job
	// i mod slots over again, so the timed region makes passes over the same
	// slots jobs and each job's time is the best of several executions.
	slots int
	// quick scales every scenario down with experiment.Quick, shortens the
	// job cycle to two and the drills 64-fold and thins out the checkpoints.
	// It exists for the smoke test; nothing measured under it means anything.
	quick bool
}

// interval is the checkpoint interval used for a nominal interval d.
func (e *env) interval(d sim.Time) sim.Time {
	if e.quick {
		return 10 * d
	}
	return d
}

// ops is how many operations a drill of nominal size n performs.
func (e *env) ops(n int) int {
	if e.quick {
		return n / 64
	}
	return n
}

// workload is one entry of the benchmark's catalog.
type workload struct {
	name string
	// why records the reason the workload exists; BENCHMARK.json carries
	// the same line.
	why string
	// jobs is the timed job count of a fixed-size run (-seconds 0), sized
	// to about ten seconds on the two-core reference host.
	jobs int
	// slots is the length of the job cycle (see env.slots), sized so that
	// ten seconds make three or more passes over it: enough for every job
	// to meet the host in a quiet moment once. The fewer the slots, the
	// fewer distinct seeds a run covers and the more its metrics move with
	// -seed, because a seed moves a run's event count by a tenth — and what
	// a ckpt-10ms job allocates by a twentieth, half of that metric's
	// bound, which is why that workload has six slots and makes one pass.
	slots int
	// rerun makes the runner repeat job 0 after the timed region and
	// require the identical output: the first job ran on empty pools, the
	// repeat on pools every job in between has used.
	rerun bool
	// ckptEvery is the checkpoint interval of the traced run's probe job.
	ckptEvery sim.Time
	open      func(e *env) (instance, error)
}

// instance is one opened workload. Job 0 is the cold job of the set-up;
// jobs 1.. are the timed ones.
type instance interface {
	// start builds what the first job needs beyond its inputs (the
	// service, for serve-1x1). It is timed as part of the set-up.
	start() error
	// prepare generates the inputs and reference results of the jobs after
	// the first. It is input generation, outside every timed region.
	prepare() error
	// run executes job i; parent is the job's span.
	run(i, parent int) (any, error)
	// check reports whether job i's output is correct.
	check(i int, out any) error
	// scenarios are the runs job 0 is made of. The traced run's probe job
	// repeats them under checkpoints; the drills build their objects for
	// the first.
	scenarios() []experiment.Scenario
	close() error
}

var workloads = []workload{
	{
		name:      "paper-table2",
		why:       "the paper's Table II operating point at full size: per-event cost is the whole job, so set-up and routing work must not show here",
		jobs:      100,
		slots:     24,
		rerun:     true,
		ckptEvery: 100 * sim.Millisecond,
		open: func(e *env) (instance, error) {
			sc, err := catalog("table2", e.quick)
			return &runInstance{e: e, legs: []experiment.Scenario{sc}, accuracy: true}, err
		},
	},
	{
		name:      "scale-50k",
		why:       "quick stress-50k: the only workload where topology build, lazy route BFS, sparse adjacency search and the GC are first-order",
		jobs:      30,
		slots:     12,
		rerun:     true,
		ckptEvery: 100 * sim.Millisecond,
		open: func(e *env) (instance, error) {
			name := "stress-50k"
			if e.quick {
				name = "stress-5k"
			}
			sc, err := catalog(name, true)
			return &runInstance{e: e, legs: []experiment.Scenario{sc}, accuracy: true}, err
		},
	},
	{
		name:      "adversary-mix",
		why:       "six hardened adversarial and chaos scenarios back to back, as maficsearch runs them: rotating sources, route invalidation, alternating topologies through the same pools",
		jobs:      12,
		slots:     3,
		rerun:     true,
		ckptEvery: 100 * sim.Millisecond,
		open:      openMix,
	},
	{
		name:      "ckpt-10ms",
		why:       "full stress-1k checkpointed every 10 simulated ms into memory: the write side of the checkpoint layer, where capture and encode are over half the job",
		jobs:      8,
		slots:     6,
		ckptEvery: 10 * sim.Millisecond,
		open: func(e *env) (instance, error) {
			sc, err := catalog("stress-1k", e.quick)
			return &ckptInstance{
				references: references{e: e, sc: sc},
				every:      e.interval(10 * sim.Millisecond),
			}, err
		},
	},
	{
		name:      "resume-late",
		why:       "resume full stress-1k from its 90% snapshot: the read side of the checkpoint layer (decode, rebuild, restore, RNG fast-forward) plus a short tail",
		jobs:      100,
		slots:     8,
		ckptEvery: 100 * sim.Millisecond,
		open:      openResume,
	},
	{
		name:      "serve-1x1",
		why:       "table2 jobs through an in-process maficserve over loopback HTTP, one client and one worker: manifests, fsynced snapshots, JSON and polling around the same run",
		jobs:      50,
		slots:     16,
		ckptEvery: 100 * sim.Millisecond,
		open:      openServe,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// catalog builds a registered scenario, optionally scaled down by Quick.
func catalog(name string, quick bool) (experiment.Scenario, error) {
	entry, ok := experiment.LookupScenario(name)
	if !ok {
		return experiment.Scenario{}, fmt.Errorf("scenario %q is not in the catalog", name)
	}
	sc := entry.Build()
	if quick {
		sc = experiment.Quick(sc)
	}
	return sc, nil
}

// minAccuracy is the dropping accuracy α every table2 and stress-* run must
// reach; the catalog's golden runs sit near 99%.
const minAccuracy = 0.95

func checkDefended(res experiment.Result, accuracy bool) error {
	if !res.Activated {
		return fmt.Errorf("%s: defence never activated", res.Name)
	}
	if accuracy && res.Accuracy < minAccuracy {
		return fmt.Errorf("%s: accuracy %.4f below %.2f", res.Name, res.Accuracy, minAccuracy)
	}
	return nil
}

func checkEqual(got, want any) error {
	if !reflect.DeepEqual(got, want) {
		return errors.New("result differs from the uninterrupted reference run")
	}
	return nil
}

// noSetup is embedded by instances with nothing to start or close.
type noSetup struct{}

func (noSetup) start() error   { return nil }
func (noSetup) prepare() error { return nil }
func (noSetup) close() error   { return nil }

// runInstance runs its scenarios back to back through experiment.Run: leg l
// of job i at seed N + (i mod slots)*legs + l. Every leg of every job has a seed of its
// own because a seed fixes the flow population, and with it how many events
// a run takes (a tenth more or less, one standard deviation): legs sharing a
// seed would all be heavy or all be light together, and a job of six legs
// would vary as much as one leg does.
type runInstance struct {
	noSetup
	e    *env
	legs []experiment.Scenario
	// accuracy makes the check require α ≥ minAccuracy of every leg.
	accuracy bool
}

// openMix builds adversary-mix. rolling-pulse, the leg that works the
// hardened defence hardest, comes first and so is the one the drills build
// for.
func openMix(e *env) (instance, error) {
	m := &runInstance{e: e}
	for _, leg := range []struct {
		name  string
		quick bool
	}{
		{"rolling-pulse", false},
		{"shrew", false},
		{"flash-overlap", false},
		{"flap-core", false},
		{"partition-heal", false},
		{"lossy-control", true},
	} {
		sc, err := catalog(leg.name, leg.quick || e.quick)
		if err != nil {
			return nil, err
		}
		m.legs = append(m.legs, experiment.Harden(sc))
	}
	return m, nil
}

// job returns the scenarios of job i.
func (r *runInstance) job(i int) []experiment.Scenario {
	scs := make([]experiment.Scenario, len(r.legs))
	for l, sc := range r.legs {
		sc.Seed = r.e.seed + int64(i%r.e.slots*len(r.legs)+l)
		scs[l] = sc
	}
	return scs
}

func (r *runInstance) scenarios() []experiment.Scenario { return r.job(0) }

func (r *runInstance) run(i, _ int) (any, error) {
	out := make([]experiment.Result, 0, len(r.legs))
	for _, sc := range r.job(i) {
		res, err := experiment.Run(sc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

func (r *runInstance) check(_ int, out any) error {
	for _, res := range out.([]experiment.Result) {
		if err := checkDefended(res, r.accuracy); err != nil {
			return err
		}
	}
	return nil
}

// references holds the results the checkpointing workloads compare every
// job against, one per slot of the cycle: job i runs at seed N + i mod slots.
type references struct {
	e    *env
	sc   experiment.Scenario
	refs []experiment.Result
}

func (r *references) at(i int) experiment.Scenario {
	sc := r.sc
	sc.Seed = r.e.seed + int64(i%r.e.slots)
	return sc
}

func (r *references) check(i int, res experiment.Result) error {
	return checkEqual(res, r.refs[i%r.e.slots])
}

// plain is an uninterrupted experiment.Run at seed index k.
func (r *references) plain(k int) (experiment.Result, error) {
	res, err := experiment.Run(r.at(k))
	if err != nil {
		return res, fmt.Errorf("reference run %d: %w", k, err)
	}
	return res, checkDefended(res, true)
}

// ckptInstance runs the scenario under RunControlled with a periodic
// checkpoint into an in-memory sink that keeps the newest snapshot.
type ckptInstance struct {
	noSetup
	references
	every sim.Time
	// last is the sink: it holds on to the newest snapshot, as a store
	// that keeps one would.
	last []byte
}

func (c *ckptInstance) scenarios() []experiment.Scenario { return []experiment.Scenario{c.at(0)} }

func (c *ckptInstance) prepare() error {
	for k := 0; k < c.e.slots; k++ {
		res, err := c.plain(k)
		if err != nil {
			return err
		}
		c.refs = append(c.refs, res)
	}
	return nil
}

type ckptOut struct {
	Result    experiment.Result
	Snapshots int
}

func (c *ckptInstance) run(i, parent int) (any, error) {
	tr := c.e.tr
	out := ckptOut{}
	seg := tr.begin(parent, "segment")
	res, err := experiment.RunControlled(c.at(i), experiment.ControlOptions{
		CheckpointEvery: c.every,
		Save: func(_ sim.Time, data []byte) error {
			tr.end(seg, 1)
			sv := tr.begin(parent, "save")
			c.last = data
			out.Snapshots++
			tr.end(sv, int64(len(data)))
			seg = tr.begin(parent, "segment")
			return nil
		},
	})
	tr.end(seg, 1)
	out.Result = res
	return out, err
}

func (c *ckptInstance) check(i int, out any) error {
	o := out.(ckptOut)
	if want := int((c.sc.Duration - 1) / c.every); o.Snapshots != want {
		return fmt.Errorf("took %d snapshots, want %d", o.Snapshots, want)
	}
	return c.references.check(i, o.Result)
}

// resumeInstance resumes the scenario from a snapshot taken at 90% of its
// duration, cycling over one snapshot per seed. The reference of a seed is
// the result of the very run its snapshot was taken from — a run that went
// from start to finish without resuming — which saves a second full run per
// seed; one plain experiment.Run at the first seed pins that taking the
// snapshot did not disturb that run either.
type resumeInstance struct {
	noSetup
	references
	snaps [][]byte
}

func openResume(e *env) (instance, error) {
	sc, err := catalog("stress-1k", e.quick)
	if err != nil {
		return nil, err
	}
	r := &resumeInstance{references: references{e: e, sc: sc}}
	// The cold job needs its snapshot; the other seeds wait for prepare.
	return r, r.generate(1)
}

func (r *resumeInstance) scenarios() []experiment.Scenario { return []experiment.Scenario{r.at(0)} }

func (r *resumeInstance) generate(n int) error {
	at := r.sc.Duration / 10 * 9
	for k := len(r.snaps); k < n; k++ {
		var snap []byte
		res, err := experiment.RunWithCheckpoints(r.at(k), []sim.Time{at},
			func(_ sim.Time, data []byte) error { snap = data; return nil })
		if err != nil {
			return fmt.Errorf("snapshot run %d: %w", k, err)
		}
		r.snaps = append(r.snaps, snap)
		r.refs = append(r.refs, res)
	}
	return nil
}

func (r *resumeInstance) prepare() error {
	if err := r.generate(r.e.slots); err != nil {
		return err
	}
	plain, err := r.plain(0)
	if err != nil {
		return err
	}
	return checkEqual(r.refs[0], plain)
}

func (r *resumeInstance) run(i, _ int) (any, error) {
	return experiment.ResumeControlled(r.snaps[i%r.e.slots], experiment.ControlOptions{})
}

func (r *resumeInstance) check(i int, out any) error {
	return r.references.check(i, out.(experiment.Result))
}
