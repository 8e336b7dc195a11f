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
)

// Config shapes a Server. Zero values get conservative defaults; see New.
type Config struct {
	// Dir is the service's on-disk root: per-job directories (manifest,
	// result) live under Dir/jobs.
	Dir string
	// QueueCap bounds how many submitted-but-not-running jobs the server
	// buffers before shedding with ErrQueueFull. Default 16.
	QueueCap int
	// Workers is the number of concurrent job runners. Default 2.
	Workers int
	// JobTimeout is the wall-clock budget for one job run; a job that
	// exceeds it fails (timed out, not hung). Zero disables.
	JobTimeout time.Duration
	// Log receives service logs. Default log.Default().
	Log *log.Logger
}

// Server is the supervised job queue. Create with New, launch workers with
// Start, stop with Shutdown (drains: every in-flight job stops, and the next
// process runs it again).
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
	runner func(s experiment.Scenario, opts experiment.ControlOptions) (experiment.Result, error)
	now    func() time.Time
	after  func(d time.Duration) <-chan time.Time
	hooks  struct {
		beforeRun func(id uint64)
	}
}

// New builds a Server rooted at cfg.Dir and runs startup recovery: every
// job directory is scanned, corrupt manifests are skipped loudly, and jobs
// left queued or running by the previous process are re-enqueued, to run from
// their scenario again. Workers do not start until Start is called.
func New(cfg Config) (*Server, error) {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
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
		runner:  experiment.RunControlled,
		now:     time.Now,
		after:   func(d time.Duration) <-chan time.Time { return time.After(d) },
	}
	pending, err := sv.recover()
	if err != nil {
		return nil, err
	}
	// The channel also holds every recovered job, or recovery could shed work
	// already accepted; Submit sheds at QueueCap, so a send never blocks.
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

// Drain begins shutdown: no new submissions are accepted, and every in-flight
// job is interrupted, its manifest left running for the next process to run
// it again. Idempotent.
func (sv *Server) Drain() {
	sv.drainOn.Do(func() {
		sv.mu.Lock()
		sv.drained = true
		sv.mu.Unlock()
		sv.log.Printf("drain: shedding new work, stopping in-flight jobs")
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

// Submit validates a spec and enqueues it. With QueueCap jobs queued, recovered
// ones included, it sheds with ErrQueueFull (the HTTP layer's 503).
func (sv *Server) Submit(spec JobSpec) (JobInfo, error) {
	if _, err := spec.BuildScenario(); err != nil {
		return JobInfo{}, err
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.drained {
		return JobInfo{}, ErrDraining
	}
	if len(sv.queue) >= sv.cfg.QueueCap {
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
	// Cannot block: len < QueueCap <= cap, and sends happen only under mu.
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
// interrupted at its run's next poll. Finished jobs return ErrConflict.
func (sv *Server) Cancel(id uint64) (JobInfo, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	j, ok := sv.jobs[id]
	if !ok {
		return JobInfo{}, ErrUnknownJob
	}
	switch j.state {
	case StateQueued:
		sv.dequeueLocked(j)
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

// dequeueLocked takes j out of the queue, the others keeping their order, so
// that QueueCap and queueDepth count only jobs that will run. Every send is
// made under mu, so emptying the channel and refilling it never blocks.
func (sv *Server) dequeueLocked(j *job) {
	var rest []*job
	for more := true; more; {
		select {
		case q := <-sv.queue:
			rest = append(rest, q)
		default:
			more = false
		}
	}
	for _, q := range rest {
		if q != j {
			sv.queue <- q
		}
	}
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
		SubmittedAt: j.submitted,
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
			submitted: m.SubmittedAt,
			cancel:    make(chan struct{}),
		}
		if !m.State.terminal() {
			// completeJob writes result.json and only then marks the manifest
			// completed, so a crash in between leaves a finished job under a
			// running manifest. Its result stands: adopt it rather than run
			// the job again.
			if hasResult(filepath.Join(root, e.Name())) {
				sv.log.Printf("recovery: job %d has a complete result.json under a %q manifest; adopting it as completed", j.id, m.State)
				j.state = StateCompleted
				sv.persistOrLogLocked(j) // New has started no goroutine yet
			} else {
				j.state = StateQueued
				pending = append(pending, j)
			}
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
		sv.log.Printf("recovery: job %d (%s) re-enqueued to run again", j.id, j.spec.Scenario)
	}
	return pending, nil
}

// hasResult reports whether a job directory holds a result.json that parses.
// The file is only ever written whole (WriteFileAtomic), by completeJob, so
// one that parses is the result of a finished run.
func hasResult(dir string) bool {
	data, err := os.ReadFile(filepath.Join(dir, "result.json"))
	if err != nil {
		return false
	}
	var res experiment.Result
	return json.Unmarshal(data, &res) == nil
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

// runJob runs one job once, from time zero, its interruption wired to
// cancel, drain and timeout. A run that returns a result completes the job;
// one that returns ErrInterrupted ends it by the order that stopped it; any
// other error fails it. A failed run is not retried: the run is deterministic
// and does no I/O, so it would fail the same way again.
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
	if h := sv.hooks.beforeRun; h != nil {
		h(j.id)
	}

	// The stopper writes reason before it closes stop, and a run returns
	// ErrInterrupted only after it sees stop closed, so reason is read only
	// then; after any other return the stopper may still write it, unread.
	stop := make(chan struct{})
	runDone := make(chan struct{})
	var timeoutC <-chan time.Time
	if sv.cfg.JobTimeout > 0 {
		timeoutC = sv.after(sv.cfg.JobTimeout)
	}
	var reason stopReason
	go func() {
		select {
		case <-runDone:
			return
		case <-j.cancel:
			reason = stopCancel
		case <-sv.drainCh:
			reason = stopDrain
		case <-timeoutC:
			reason = stopTimeout
		}
		close(stop)
	}()
	res, err := sv.runner(s, experiment.ControlOptions{Interrupt: stop})
	close(runDone)

	interrupted := errors.Is(err, experiment.ErrInterrupted)
	switch {
	case err == nil:
		sv.completeJob(j, res)
	case interrupted && reason == stopCancel:
		sv.log.Printf("job %d: canceled (%v)", j.id, err)
		sv.mu.Lock()
		j.state = StateCanceled
		j.finished = sv.now()
		sv.m.Canceled++
		sv.persistOrLogLocked(j)
		sv.mu.Unlock()
	case interrupted && reason == stopDrain:
		// The manifest stays "running": the next process runs this job again.
		sv.log.Printf("job %d: drained; will run again on restart", j.id)
		sv.mu.Lock()
		sv.m.Drained++
		sv.mu.Unlock()
	case interrupted && reason == stopTimeout:
		sv.mu.Lock()
		sv.m.TimedOut++
		sv.mu.Unlock()
		sv.failJob(j, fmt.Sprintf("timed out after %v", sv.cfg.JobTimeout))
	default:
		sv.failJob(j, err.Error())
	}
}

// completeJob persists result.json atomically and marks the job completed.
func (sv *Server) completeJob(j *job, res experiment.Result) {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		sv.failJob(j, fmt.Sprintf("encode result: %v", err))
		return
	}
	if err := checkpoint.WriteFileAtomic(filepath.Join(sv.jobDir(j.id), "result.json"), append(data, '\n'), 0o644); err != nil {
		sv.failJob(j, fmt.Sprintf("write result: %v", err))
		return
	}
	sv.mu.Lock()
	j.state = StateCompleted
	j.finished = sv.now()
	sv.m.Completed++
	sv.persistOrLogLocked(j)
	sv.mu.Unlock()
	sv.log.Printf("job %d: completed", j.id)
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
