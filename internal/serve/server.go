package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mafic/internal/checkpoint"
	"mafic/internal/experiment"
	"mafic/internal/sim"
)

// Config shapes a Server. Zero values get conservative defaults; see New.
type Config struct {
	// Dir is the service's on-disk root: per-job directories (manifest,
	// snapshots, result) live under Dir/jobs.
	Dir string
	// QueueCap bounds how many submitted-but-not-running jobs the server
	// buffers before shedding with ErrQueueFull. Default 16.
	QueueCap int
	// Workers is the number of concurrent job runners. Default 2.
	Workers int
	// CheckpointEvery is the simulated-time interval between automatic
	// snapshots of each running job (per-job override via
	// JobSpec.CheckpointEveryMs). Default 100 simulated milliseconds.
	CheckpointEvery sim.Time
	// Keep bounds the snapshot store rotation per job. Default 3.
	Keep int
	// JobTimeout is the wall-clock budget for one attempt; a job that
	// exceeds it fails terminally (timed out, not retried). Zero disables.
	JobTimeout time.Duration
	// MaxRetries bounds retry attempts after a transient failure: a job
	// runs at most MaxRetries+1 times. Zero means no retries.
	MaxRetries int
	// RetryBackoff is the first retry delay; it doubles per retry.
	// Default 250ms.
	RetryBackoff time.Duration
	// Log receives service logs. Default log.Default().
	Log *log.Logger
}

// Server is the supervised job queue. Create with New, launch workers with
// Start, stop with Shutdown (drains: every in-flight job saves a final
// snapshot and is resumed by the next process).
type Server struct {
	cfg Config
	log *log.Logger

	mu      sync.Mutex
	jobs    map[uint64]*job
	order   []uint64 // ascending submission order
	nextID  uint64
	drained bool // draining state, guarded by mu (drainCh is the signal)
	m       Metrics

	queue   chan *job
	drainCh chan struct{}
	drainOn sync.Once
	wg      sync.WaitGroup

	// Test seams. Production values are set by New; package tests replace
	// them between New and Start to make time and run outcomes scripted.
	runner func(s experiment.Scenario, resume []byte, opts experiment.ControlOptions) (experiment.Result, error)
	save   func(st *checkpoint.Store, at sim.Time, data []byte) error
	sleep  func(d time.Duration) bool // false: drain interrupted the sleep
	now    func() time.Time
	after  func(d time.Duration) <-chan time.Time
	hooks  struct {
		beforeAttempt func(id uint64, attempt int)
		afterSave     func(id uint64, at sim.Time)
	}
}

// New builds a Server rooted at cfg.Dir and runs startup recovery: every
// job directory is scanned, corrupt manifests are skipped loudly, and jobs
// left queued or running by the previous process are re-enqueued (their
// runners resume from the newest valid snapshot). Workers do not start until
// Start is called.
func New(cfg Config) (*Server, error) {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 100 * sim.Millisecond
	}
	if cfg.Keep <= 0 {
		cfg.Keep = 3
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 250 * time.Millisecond
	}
	if cfg.Log == nil {
		cfg.Log = log.Default()
	}
	sv := &Server{
		cfg:     cfg,
		log:     cfg.Log,
		jobs:    make(map[uint64]*job),
		nextID:  1,
		drainCh: make(chan struct{}),
		save:    (*checkpoint.Store).Save,
		now:     time.Now,
		after:   func(d time.Duration) <-chan time.Time { return time.After(d) },
	}
	sv.runner = func(s experiment.Scenario, resume []byte, opts experiment.ControlOptions) (experiment.Result, error) {
		if resume != nil {
			return experiment.ResumeControlled(resume, opts)
		}
		return experiment.RunControlled(s, opts)
	}
	sv.sleep = func(d time.Duration) bool {
		select {
		case <-time.After(d):
			return true
		case <-sv.drainCh:
			return false
		}
	}
	pending, err := sv.recover()
	if err != nil {
		return nil, err
	}
	// The queue must hold every recovered job on top of the configured
	// capacity, or recovery itself could shed work that was already accepted.
	sv.queue = make(chan *job, cfg.QueueCap+len(pending))
	for _, j := range pending {
		sv.queue <- j
	}
	return sv, nil
}

// Start launches the worker pool.
func (sv *Server) Start() {
	sv.wg.Add(sv.cfg.Workers)
	for i := 0; i < sv.cfg.Workers; i++ {
		go sv.worker()
	}
}

// Drain begins shutdown: no new submissions are accepted, sleeping retries
// wake up and park, and every in-flight job is interrupted at its next
// checkpoint boundary with a final snapshot saved. Idempotent.
func (sv *Server) Drain() {
	sv.drainOn.Do(func() {
		sv.mu.Lock()
		sv.drained = true
		sv.mu.Unlock()
		sv.log.Printf("drain: shedding new work, snapshotting in-flight jobs")
		close(sv.drainCh)
	})
}

// DrainRequested is closed once a drain has begun (via Drain, Shutdown, or
// the POST /drain endpoint); process mains select on it to know when to stop
// serving.
func (sv *Server) DrainRequested() <-chan struct{} { return sv.drainCh }

// Shutdown drains and waits for every worker to park, bounded by ctx.
func (sv *Server) Shutdown(ctx context.Context) error {
	sv.Drain()
	done := make(chan struct{})
	go func() {
		sv.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("drain incomplete: %w", ctx.Err())
	}
}

// Submit validates a spec and enqueues it. The queue is bounded: a full
// queue returns ErrQueueFull (the HTTP layer's 503) instead of buffering.
func (sv *Server) Submit(spec JobSpec) (JobInfo, error) {
	if _, err := spec.BuildScenario(); err != nil {
		return JobInfo{}, err
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.drained {
		return JobInfo{}, ErrDraining
	}
	if len(sv.queue) == cap(sv.queue) {
		sv.m.Shed++
		return JobInfo{}, ErrQueueFull
	}
	j := &job{
		id:        sv.nextID,
		spec:      spec,
		state:     StateQueued,
		submitted: sv.now(),
		cancel:    make(chan struct{}),
	}
	if err := os.MkdirAll(sv.jobDir(j.id), 0o755); err != nil {
		return JobInfo{}, err
	}
	if err := sv.persistLocked(j); err != nil {
		return JobInfo{}, err
	}
	sv.nextID++
	sv.jobs[j.id] = j
	sv.order = append(sv.order, j.id)
	sv.m.Submitted++
	// Cannot block: capacity was checked above and sends happen only under mu.
	sv.queue <- j
	return sv.infoLocked(j), nil
}

// Job returns the current view of one job.
func (sv *Server) Job(id uint64) (JobInfo, bool) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	j, ok := sv.jobs[id]
	if !ok {
		return JobInfo{}, false
	}
	return sv.infoLocked(j), true
}

// Jobs returns every job in submission order.
func (sv *Server) Jobs() []JobInfo {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	out := make([]JobInfo, 0, len(sv.order))
	for _, id := range sv.order {
		out = append(out, sv.infoLocked(sv.jobs[id]))
	}
	return out
}

// Metrics returns a snapshot of the service counters.
func (sv *Server) Metrics() Metrics {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.m
}

// Cancel stops a job: a queued job is canceled immediately, a running job is
// interrupted at its next checkpoint boundary. Finished jobs return
// ErrConflict.
func (sv *Server) Cancel(id uint64) (JobInfo, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	j, ok := sv.jobs[id]
	if !ok {
		return JobInfo{}, ErrUnknownJob
	}
	switch j.state {
	case StateQueued:
		j.canceled = true
		j.state = StateCanceled
		j.finished = sv.now()
		sv.m.Canceled++
		if err := sv.persistLocked(j); err != nil {
			return sv.infoLocked(j), err
		}
	case StateRunning:
		if !j.canceled {
			j.canceled = true
			close(j.cancel)
		}
	default:
		return sv.infoLocked(j), ErrConflict
	}
	return sv.infoLocked(j), nil
}

// ResultBytes returns the raw result.json of a completed job — the exact
// bytes on disk, so clients can bit-compare runs.
func (sv *Server) ResultBytes(id uint64) ([]byte, error) {
	sv.mu.Lock()
	j, ok := sv.jobs[id]
	var state JobState
	if ok {
		state = j.state
	}
	sv.mu.Unlock()
	if !ok {
		return nil, ErrUnknownJob
	}
	if state != StateCompleted {
		return nil, fmt.Errorf("%w: job %d is %s, not completed", ErrConflict, id, state)
	}
	return os.ReadFile(filepath.Join(sv.jobDir(id), "result.json"))
}

func (sv *Server) jobDir(id uint64) string {
	return filepath.Join(sv.cfg.Dir, "jobs", fmt.Sprintf("%06d", id))
}

// persistLocked writes the job's manifest atomically. Callers hold sv.mu.
func (sv *Server) persistLocked(j *job) error {
	m := manifest{
		ID:          j.id,
		Spec:        j.spec,
		State:       j.state,
		Error:       j.errMsg,
		Attempts:    j.attempts,
		SubmittedAt: j.submitted,
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return checkpoint.WriteFileAtomic(filepath.Join(sv.jobDir(j.id), "job.json"), append(data, '\n'), 0o644)
}

// persistOrLogLocked is persistLocked for a job's final state, which has no
// caller to hand the error to: unwritten, the job runs again after a restart.
func (sv *Server) persistOrLogLocked(j *job) {
	if err := sv.persistLocked(j); err != nil {
		sv.log.Printf("job %d: persist manifest: %v", j.id, err)
	}
}

func (sv *Server) infoLocked(j *job) JobInfo {
	info := JobInfo{
		ID:          j.id,
		Spec:        j.spec,
		State:       j.state,
		Error:       j.errMsg,
		Attempts:    j.attempts,
		Snapshots:   j.snapshots,
		SubmittedAt: j.submitted,
		Result:      j.result,
	}
	if j.lastCheckpoint > 0 {
		info.LastCheckpointMs = float64(j.lastCheckpoint) / float64(sim.Millisecond)
	}
	if j.resumed {
		ms := float64(j.resumedFrom) / float64(sim.Millisecond)
		info.ResumedFromMs = &ms
	}
	if !j.started.IsZero() {
		t := j.started
		info.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		info.FinishedAt = &t
	}
	return info
}

// recover scans Dir/jobs and rebuilds the job table from manifests. Jobs the
// previous process left queued or running are returned for re-enqueueing, in
// submission order. Corrupt manifests are logged and skipped — recovery
// never refuses to start over one damaged record.
func (sv *Server) recover() ([]*job, error) {
	root := filepath.Join(sv.cfg.Dir, "jobs")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("open job store: %w", err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("open job store: %w", err)
	}
	var pending []*job
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		path := filepath.Join(root, e.Name(), "job.json")
		data, err := os.ReadFile(path)
		if err != nil {
			sv.log.Printf("recovery: skipping %s: %v", e.Name(), err)
			continue
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil || m.ID == 0 {
			sv.log.Printf("recovery: CORRUPT manifest %s; skipping", path)
			continue
		}
		j := &job{
			id:        m.ID,
			spec:      m.Spec,
			state:     m.State,
			errMsg:    m.Error,
			attempts:  m.Attempts,
			submitted: m.SubmittedAt,
			cancel:    make(chan struct{}),
		}
		dir := filepath.Join(root, e.Name())
		switch {
		case m.State == StateCompleted:
			j.result = loadResult(dir)
		case m.State.terminal():
		default:
			st, serr := checkpoint.OpenStore(dir, sv.cfg.Keep) // also sweeps temp leftovers
			// completeJob writes result.json, clears the snapshots and only
			// then marks the manifest completed, so a crash in between leaves
			// a finished job under a running manifest. Its result stands:
			// adopt it rather than run the job again from t=0.
			if j.result = loadResult(dir); j.result != nil {
				sv.log.Printf("recovery: job %d has a complete result.json under a %q manifest; adopting it as completed", j.id, m.State)
				j.state = StateCompleted
				if serr == nil {
					serr = st.Clear()
				}
				if serr != nil {
					sv.log.Printf("job %d: clearing snapshots: %v", j.id, serr)
				}
				sv.persistOrLogLocked(j) // New has started no goroutine yet
				break
			}
			j.state = StateQueued
			// Count the snapshots already on disk so status reflects what
			// the resume will work from.
			if serr == nil {
				j.snapshots = st.Count()
			}
			pending = append(pending, j)
		}
		sv.jobs[m.ID] = j
		if m.ID >= sv.nextID {
			sv.nextID = m.ID + 1
		}
	}
	for id := range sv.jobs {
		sv.order = append(sv.order, id)
	}
	sort.Slice(sv.order, func(i, k int) bool { return sv.order[i] < sv.order[k] })
	sort.Slice(pending, func(i, k int) bool { return pending[i].id < pending[k].id })
	for _, j := range pending {
		sv.m.Recovered++
		sv.log.Printf("recovery: job %d (%s) re-enqueued with %d snapshot(s)", j.id, j.spec.Scenario, j.snapshots)
	}
	return pending, nil
}

// loadResult reads a job directory's result.json; nil if it is missing or
// does not parse. The file is only ever written whole (WriteFileAtomic), by
// completeJob, so one that parses is the result of a finished run.
func loadResult(dir string) *experiment.Result {
	data, err := os.ReadFile(filepath.Join(dir, "result.json"))
	if err != nil {
		return nil
	}
	var res experiment.Result
	if json.Unmarshal(data, &res) != nil {
		return nil
	}
	return &res
}

// worker drains the job queue until a drain begins. A job received in the
// same instant the drain fires is put back conceptually: it stays queued on
// disk, so the next process re-enqueues it.
func (sv *Server) worker() {
	defer sv.wg.Done()
	for {
		select {
		case <-sv.drainCh:
			return
		case j := <-sv.queue:
			select {
			case <-sv.drainCh:
				return
			default:
			}
			sv.runJob(j)
		}
	}
}

// runJob supervises one job end to end: attempts, retries with doubling
// backoff, timeout, cancellation, drain.
func (sv *Server) runJob(j *job) {
	sv.mu.Lock()
	if j.state == StateCanceled {
		sv.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = sv.now()
	spec := j.spec
	if err := sv.persistLocked(j); err != nil {
		sv.mu.Unlock()
		sv.failJob(j, fmt.Sprintf("persist manifest: %v", err))
		return
	}
	sv.mu.Unlock()

	s, err := spec.BuildScenario()
	if err != nil {
		sv.failJob(j, err.Error())
		return
	}
	st, err := checkpoint.OpenStore(sv.jobDir(j.id), sv.cfg.Keep)
	if err != nil {
		sv.failJob(j, fmt.Sprintf("open snapshot store: %v", err))
		return
	}

	backoff := sv.cfg.RetryBackoff
	for attempt := 1; ; attempt++ {
		sv.mu.Lock()
		j.attempts = attempt
		j.stopReason = stopNone
		sv.mu.Unlock()
		if h := sv.hooks.beforeAttempt; h != nil {
			h(j.id, attempt)
		}

		res, err := sv.attempt(j, s, st)
		if err == nil {
			sv.completeJob(j, st, res)
			return
		}
		if errors.Is(err, experiment.ErrInterrupted) {
			sv.mu.Lock()
			reason := j.stopReason
			sv.mu.Unlock()
			switch reason {
			case stopCancel:
				sv.log.Printf("job %d: canceled (%v)", j.id, err)
				sv.mu.Lock()
				j.state = StateCanceled
				j.finished = sv.now()
				sv.m.Canceled++
				sv.persistOrLogLocked(j)
				sv.mu.Unlock()
				return
			case stopDrain:
				// The manifest stays "running": the next process resumes
				// this job from the final snapshot the interrupt saved.
				sv.log.Printf("job %d: drained with final snapshot; will resume on restart", j.id)
				sv.mu.Lock()
				sv.m.Drained++
				sv.mu.Unlock()
				return
			case stopTimeout:
				sv.mu.Lock()
				sv.m.TimedOut++
				sv.mu.Unlock()
				sv.failJob(j, fmt.Sprintf("timed out after %v (attempt %d)", sv.cfg.JobTimeout, attempt))
				return
			}
			// stopNone: an interrupt the supervisor did not order — fall
			// through and treat it as a transient failure.
		}
		if attempt > sv.cfg.MaxRetries {
			sv.failJob(j, fmt.Sprintf("giving up after %d attempt(s): %v", attempt, err))
			return
		}
		sv.log.Printf("job %d: attempt %d failed (%v); retrying in %v", j.id, attempt, err, backoff)
		sv.mu.Lock()
		sv.m.Retried++
		sv.mu.Unlock()
		if !sv.sleep(backoff) {
			// Drain interrupted the backoff; leave the manifest "running"
			// so the next process picks the job back up.
			sv.log.Printf("job %d: drain during retry backoff; will resume on restart", j.id)
			sv.mu.Lock()
			sv.m.Drained++
			sv.mu.Unlock()
			return
		}
		backoff *= 2
	}
}

// attempt executes one run attempt under the control surface: periodic
// snapshots written into the job's store (the control loop saves them behind
// the run, one at a time), interruption wired to cancel/drain/timeout, and
// resume from the newest valid snapshot with loud fallback past corrupt or
// unrestorable ones. The runner returns only after its last save has: the
// attempt (and after it completeJob) touches the store only with no write
// pending.
func (sv *Server) attempt(j *job, s experiment.Scenario, st *checkpoint.Store) (experiment.Result, error) {
	stop := make(chan struct{})
	attemptDone := make(chan struct{})
	defer close(attemptDone)
	var timeoutC <-chan time.Time
	if sv.cfg.JobTimeout > 0 {
		timeoutC = sv.after(sv.cfg.JobTimeout)
	}
	go func() {
		var reason stopReason
		select {
		case <-attemptDone:
			return
		case <-j.cancel:
			reason = stopCancel
		case <-sv.drainCh:
			reason = stopDrain
		case <-timeoutC:
			reason = stopTimeout
		}
		sv.mu.Lock()
		j.stopReason = reason
		sv.mu.Unlock()
		close(stop)
	}()

	every := sv.cfg.CheckpointEvery
	if j.spec.CheckpointEveryMs != nil {
		every = sim.Time(*j.spec.CheckpointEveryMs * float64(sim.Millisecond))
	}
	opts := experiment.ControlOptions{
		CheckpointEvery: every,
		Interrupt:       stop,
		// Save is the durable write. Everything a client can see of a
		// snapshot — the job's count and last checkpoint, SnapshotsWritten,
		// the hook — moves only once the file is durable, so none of it ever
		// counts an unwritten one. A write that fails after the run's last
		// checkpoint boundary fails the run at its end.
		Save: func(at sim.Time, data []byte) error {
			if err := sv.save(st, at, data); err != nil {
				sv.log.Printf("job %d: snapshot at t=%v NOT written: %v", j.id, at, err)
				return fmt.Errorf("write snapshot at %v: %w", at, err)
			}
			sv.mu.Lock()
			j.snapshots = st.Count()
			j.lastCheckpoint = at
			sv.m.SnapshotsWritten++
			sv.mu.Unlock()
			if h := sv.hooks.afterSave; h != nil {
				h(j.id, at)
			}
			return nil
		},
		Stalled: func(d time.Duration) {
			sv.mu.Lock()
			sv.m.SnapshotWaits++
			sv.m.SnapshotWaitMs += float64(d) / float64(time.Millisecond)
			sv.mu.Unlock()
		},
	}
	run := func(resume []byte) (experiment.Result, error) { return sv.runner(s, resume, opts) }

	for {
		data, info, skipped, err := st.LatestValid()
		for _, sk := range skipped {
			sv.log.Printf("job %d: snapshot %s is CORRUPT; falling back past it", j.id, sk.Name)
			sv.mu.Lock()
			sv.m.SnapshotsCorrupt++
			sv.mu.Unlock()
		}
		if err != nil {
			if !errors.Is(err, checkpoint.ErrNoSnapshot) {
				return experiment.Result{}, err
			}
			if len(skipped) > 0 {
				sv.log.Printf("job %d: no valid snapshot survives; starting fresh", j.id)
			}
			return run(nil)
		}
		sv.mu.Lock()
		j.resumed = true
		j.resumedFrom = info.At
		sv.m.Resumed++
		sv.mu.Unlock()
		sv.log.Printf("job %d: resuming from snapshot %s (t=%v)", j.id, info.Name, info.At)
		res, err := run(data)
		if err != nil && errors.Is(err, experiment.ErrSnapshot) {
			// Decoded but did not restore: deeper corruption than the
			// store's validation can see. Drop the file and fall back.
			sv.log.Printf("job %d: snapshot %s FAILED to restore (%v); removing and falling back", j.id, info.Name, err)
			sv.mu.Lock()
			sv.m.SnapshotsCorrupt++
			sv.mu.Unlock()
			if rerr := st.Remove(info); rerr != nil {
				return experiment.Result{}, rerr
			}
			continue
		}
		return res, err
	}
}

// completeJob persists result.json atomically, clears the job's snapshots,
// and marks it completed.
func (sv *Server) completeJob(j *job, st *checkpoint.Store, res experiment.Result) {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		sv.failJob(j, fmt.Sprintf("encode result: %v", err))
		return
	}
	if err := checkpoint.WriteFileAtomic(filepath.Join(sv.jobDir(j.id), "result.json"), append(data, '\n'), 0o644); err != nil {
		sv.failJob(j, fmt.Sprintf("write result: %v", err))
		return
	}
	if err := st.Clear(); err != nil {
		sv.log.Printf("job %d: clearing snapshots: %v", j.id, err)
	}
	sv.mu.Lock()
	j.state = StateCompleted
	j.result = &res
	j.finished = sv.now()
	j.snapshots = 0
	sv.m.Completed++
	sv.persistOrLogLocked(j)
	sv.mu.Unlock()
	sv.log.Printf("job %d: completed after %d attempt(s)", j.id, j.attempts)
}

func (sv *Server) failJob(j *job, msg string) {
	sv.mu.Lock()
	j.state = StateFailed
	j.errMsg = msg
	j.finished = sv.now()
	sv.m.Failed++
	sv.persistOrLogLocked(j)
	sv.mu.Unlock()
	sv.log.Printf("job %d: FAILED: %s", j.id, msg)
}
