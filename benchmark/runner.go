package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	w    *workload
	seed int64
	// seconds > 0 measures for that long; otherwise the timed region is
	// the workload's catalogued job count, or jobs jobs where the smoke
	// test sets it.
	seconds float64
	jobs    int
	traced  bool
	// tmp is the scratch directory, inside the working directory.
	tmp string
	// quick is the smoke test's scale-down; see env.
	quick bool
	// spans, when set, is where the traced run writes its spans.
	spans string
}

// workloadReport is what one run of one workload produced.
type workloadReport struct {
	Name      string `json:"name"`
	Seed      int64  `json:"seed"`
	Jobs      int    `json:"jobs"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// FailFrac is Failed over Attempted: jobs that errored, were shed or
	// refused, or failed the correctness check.
	FailFrac float64 `json:"fail_frac"`
	// ResultDigest is the SHA-256 over the jobs' outputs in job order. A
	// change that only speeds the simulator up leaves it identical at the
	// same seed and job count.
	ResultDigest string `json:"result_digest"`
	// TailPercentile is the percentile the *_p90 metrics actually report:
	// the highest with at least ten samples beyond it.
	TailPercentile float64   `json:"tail_percentile,omitempty"`
	EndToEnd       metricSet `json:"end_to_end,omitempty"`
	PerLayer       metricSet `json:"per_layer,omitempty"`
	// SpanSelfMs is the traced run's self time per span name, in
	// milliseconds: where the traced jobs, the probe job and each drill
	// spent their own time, children excluded.
	SpanSelfMs map[string]float64 `json:"span_self_ms,omitempty"`
	// PeakRSSMode says what peak_rss_mb is in this run: rssPerJob, the
	// median of the jobs' own high-water marks, or rssProcess, the mark of
	// the whole process where the kernel would not reset it. The two are
	// different quantities and -compare does not judge one against the other.
	PeakRSSMode string `json:"peak_rss_mode,omitempty"`
	// HostPace is the median pace the probe found around the timed jobs: 1
	// on an undisturbed reference host. The timings are already divided by
	// the pace around each job; multiply by this for roughly what a
	// stopwatch saw.
	HostPace float64  `json:"host_pace,omitempty"`
	Failures []string `json:"failures,omitempty"`
}

// Where the resident-set high-water mark comes from; see rssMeter.
const (
	rssPerJob  = "per-job"
	rssProcess = "process"
)

// loopStats is the measurement of one closed-loop region. Every figure
// covers the jobs alone: the clocks and counters are read immediately around
// each job, so what the harness does between two jobs (checking and digesting
// the output, reading /proc, probing the host's pace) is in none of them.
type loopStats struct {
	// slots is the length of the job cycle: entry k of the per-execution
	// series belongs to slot k mod slots, pass k / slots.
	slots int
	// pace is the host's pace around each job; jobS is the job's wall time
	// and cpuS the process's CPU time spent while it ran, both divided by
	// that pace; allocB is the bytes allocated meanwhile.
	pace   []float64
	jobS   []float64
	cpuS   []float64
	allocB []float64
	// peakMB is the resident-set high-water mark of each job (rssPerJob),
	// or of the whole process, one entry (rssProcess).
	peakMB  []float64
	rssMode string
	mallocs uint64
	gcs     uint32
	// infra is a failure of the measurement itself, not of a job.
	infra error
}

func (l *loopStats) jobs() int { return len(l.jobS) }

// best returns, for every slot of the job cycle, the lowest value the slot's
// executions took in xs (one of the per-execution series), over the
// executions keep admits (all of them when keep is nil). A job is
// deterministic, so what one execution of it takes longer than another is the
// host's doing — on the shared reference host a busy neighbour adds a fifth or
// a half for a second or two, up to half of the time — and the lowest of a few
// executions seconds apart is the one the host left alone. Memory likewise:
// what one execution allocates or keeps resident beyond another is the
// collector's timing.
func (l *loopStats) best(xs []float64, keep func(k int) bool) []float64 {
	best := make([]float64, l.slots)
	seen := make([]bool, l.slots)
	for k, x := range xs {
		if keep != nil && !keep(k) {
			continue
		}
		if slot := k % l.slots; !seen[slot] || x < best[slot] {
			best[slot], seen[slot] = x, true
		}
	}
	out := best[:0]
	for slot, ok := range seen {
		if ok {
			out = append(out, best[slot])
		}
	}
	return out
}

// traced says whether execution k is traced in a traced run: every second
// one, the other way round in every second pass, so that two passes execute
// every job both ways and traced and untraced executions see the same drift
// of a shared host.
func (l *loopStats) traced(k int) bool { return (k%l.slots+k/l.slots)%2 == 1 }

// cpuSeconds is the process's user plus system CPU time: it counts GC and
// helper threads and does not count CPU the host gave to someone else.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// rssMeter reads the process's resident-set high-water mark (VmHWM) and,
// where the kernel lets it (Linux 4.0 and later, see proc(5) on clear_refs),
// restarts the mark from the current resident set before each job. A run is
// in one mode from its first job to its last, and its report says which.
type rssMeter struct {
	status *os.File
	buf    [4096]byte
	mode   string
}

func openRSSMeter() (*rssMeter, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return nil, err
	}
	m := &rssMeter{status: f, mode: rssProcess}
	if m.reset() == nil {
		m.mode = rssPerJob
	}
	return m, nil
}

func (m *rssMeter) reset() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func (m *rssMeter) peakMB() (float64, error) {
	n, err := m.status.ReadAt(m.buf[:], 0)
	if n == 0 {
		return 0, fmt.Errorf("read /proc/self/status: %w", err)
	}
	_, rest, ok := bytes.Cut(m.buf[:n], []byte("VmHWM:"))
	if !ok {
		return 0, errors.New("VmHWM not found in /proc/self/status")
	}
	line, _, _ := bytes.Cut(rest, []byte("\n"))
	kb, err := strconv.ParseFloat(string(bytes.TrimSuffix(bytes.TrimSpace(line), []byte(" kB"))), 64)
	if err != nil {
		return 0, fmt.Errorf("parse VmHWM: %w", err)
	}
	return kb / 1024, nil
}

// closedLoop runs jobs 1, 2, ... one after the other — the next starts only
// when the previous has returned and been handed to record — until seconds
// have elapsed or, with seconds 0, for n jobs; in either case for at least
// one pass over the job cycle. Given a tracer it records spans for the
// executions loopStats.traced names.
func closedLoop(inst instance, e *env, probe *paceProbe, tr *tracer, root, n int, seconds float64, record func(i int, out any, err error)) loopStats {
	least := e.slots
	st := loopStats{slots: e.slots}
	rss, err := openRSSMeter()
	if err != nil {
		st.infra = err
		return st
	}
	defer rss.status.Close()
	st.rssMode = rss.mode
	var m0, m1 runtime.MemStats
	runtime.GC()
	before := probe.run()
	t0 := time.Now()
	for k := 0; ; k++ {
		if seconds > 0 {
			if k >= least && time.Since(t0).Seconds() >= seconds {
				break
			}
		} else if k >= max(n, least) {
			break
		}
		e.tr = nil
		if st.traced(k) {
			e.tr = tr
		}
		if rss.mode == rssPerJob {
			st.infra = errors.Join(st.infra, rss.reset())
		}
		runtime.ReadMemStats(&m0)
		cpu0 := cpuSeconds()
		sp := e.tr.begin(root, "job")
		j0 := time.Now()
		out, err := inst.run(1+k, sp)
		dt := time.Since(j0).Seconds()
		e.tr.end(sp, 1)
		cpu := cpuSeconds() - cpu0
		runtime.ReadMemStats(&m1)
		st.allocB = append(st.allocB, float64(m1.TotalAlloc-m0.TotalAlloc))
		st.mallocs += m1.Mallocs - m0.Mallocs
		st.gcs += m1.NumGC - m0.NumGC
		if rss.mode == rssPerJob {
			peak, rerr := rss.peakMB()
			st.peakMB = append(st.peakMB, peak)
			st.infra = errors.Join(st.infra, rerr)
		}
		record(1+k, out, err)
		after := probe.run()
		p := pace(before, after)
		st.pace, st.jobS, st.cpuS = append(st.pace, p), append(st.jobS, dt/p), append(st.cpuS, cpu/p)
		before = after
	}
	e.tr = nil
	if rss.mode == rssProcess {
		peak, rerr := rss.peakMB()
		st.peakMB = []float64{peak}
		st.infra = errors.Join(st.infra, rerr)
	}
	return st
}

// outputBytes is the form of a job's output that the digest covers.
func outputBytes(out any) ([]byte, error) {
	if b, ok := out.([]byte); ok {
		return b, nil
	}
	return json.Marshal(out)
}

// session is an opened workload whose set-up (start plus the cold job 0)
// has run.
type session struct {
	cfg   runConfig
	env   *env
	inst  instance
	probe *paceProbe
	// setupS is the set-up's time at the reference pace.
	setupS float64
	out0   any
	rep    *workloadReport
	digest hash.Hash
}

// record checks one job's outcome and folds it into the report.
func (s *session) record(i int, out any, err error) {
	s.rep.Attempted++
	if err == nil {
		err = s.inst.check(i, out)
	}
	var data []byte
	if err == nil {
		data, err = outputBytes(out)
	}
	if err != nil {
		s.rep.Failed++
		if len(s.rep.Failures) < 8 {
			s.rep.Failures = append(s.rep.Failures, fmt.Sprintf("job %d: %v", i, err))
		}
		return
	}
	s.digest.Write(data)
}

// openSession opens the workload and times its set-up: whatever start
// builds plus the cold job, on the empty pools of a process that has run no
// simulation yet — except for resume-late, whose first snapshot has to be
// generated by a full run in this process first.
func openSession(cfg runConfig) (*session, error) {
	e := &env{seed: cfg.seed, tmp: cfg.tmp, slots: cfg.w.slots, quick: cfg.quick}
	if cfg.quick {
		e.slots = 2
	}
	inst, err := cfg.w.open(e)
	if err != nil {
		return nil, err
	}
	s := &session{
		cfg: cfg, env: e, inst: inst, probe: newPaceProbe(),
		rep:    &workloadReport{Name: cfg.w.name, Seed: cfg.seed},
		digest: sha256.New(),
	}
	before := s.probe.run()
	t0 := time.Now()
	if err := inst.start(); err != nil {
		inst.close()
		return nil, fmt.Errorf("start: %w", err)
	}
	out0, err0 := inst.run(0, 0)
	s.setupS = time.Since(t0).Seconds()
	s.setupS /= pace(before, s.probe.run())
	s.out0 = out0
	if err0 != nil {
		inst.close()
		return nil, fmt.Errorf("cold job: %w", err0)
	}
	return s, nil
}

// setupRuns is how many set-ups setup_s is the median of. A single cold
// set-up is one interval of a tenth of a second to two seconds on a shared
// host, and ten of them spread by a quarter of their median.
const setupRuns = 3

// runSetupOnly is the child-process half of setup_s: set up, print how long
// it took, leave.
func runSetupOnly(cfg runConfig) error {
	s, err := openSession(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("setup_s s %v\n", s.setupS)
	return s.inst.close()
}

// childSetup times one more set-up. It takes a fresh process, because the
// pools under internal/ are process-global and only start empty once.
func childSetup(cfg runConfig) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-workload", cfg.w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-tmp", cfg.tmp, "-setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	var v float64
	if _, err := fmt.Sscanf(string(out), "setup_s s %g", &v); err != nil {
		return 0, fmt.Errorf("set-up child printed %q", out)
	}
	return v, nil
}

// runWorkload performs one run — untraced for the end-to-end metrics,
// traced for the per-layer ones — and returns its report.
func runWorkload(cfg runConfig) (rep *workloadReport, err error) {
	s, err := openSession(cfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := s.inst.close(); err == nil && cerr != nil {
			rep, err = nil, fmt.Errorf("close: %w", cerr)
		}
	}()
	if err := s.inst.prepare(); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	s.record(0, s.out0, nil)

	n := cfg.jobs
	if n <= 0 {
		n = cfg.w.jobs
	}
	if cfg.traced {
		err = s.traced(n)
	} else {
		err = s.untraced(n)
	}
	if err != nil {
		return nil, err
	}
	s.rep.FailFrac = float64(s.rep.Failed) / float64(s.rep.Attempted)
	s.rep.ResultDigest = hex.EncodeToString(s.digest.Sum(nil))
	return s.rep, nil
}

// rerunFirst repeats job 0 on the now well-used pools and requires the
// output of the cold run.
func (s *session) rerunFirst() {
	if !s.cfg.w.rerun {
		return
	}
	out, err := s.inst.run(0, 0)
	if err == nil && !reflect.DeepEqual(out, s.out0) {
		err = errors.New("repeat of job 0 on used pools differs from its cold run")
	}
	s.record(0, out, err)
}

func (s *session) untraced(n int) error {
	// The smoke test runs inside a test binary, which cannot re-execute
	// itself as the benchmark; its setup_s is the one set-up of its process.
	setups := []float64{s.setupS}
	for !s.cfg.quick && len(setups) < setupRuns {
		v, err := childSetup(s.cfg)
		if err != nil {
			return err
		}
		setups = append(setups, v)
	}

	st := closedLoop(s.inst, s.env, s.probe, nil, 0, n, s.cfg.seconds, s.record)
	if st.infra != nil {
		return st.infra
	}
	s.rerunFirst()

	s.rep.Jobs = st.jobs()
	s.rep.PeakRSSMode = st.rssMode
	s.rep.HostPace = median(st.pace)
	jobS, passS := st.best(st.jobS, nil), 0.0
	for _, t := range jobS {
		passS += t
	}
	peakMB := st.peakMB
	if st.rssMode == rssPerJob {
		peakMB = st.best(peakMB, nil)
	}
	var err error
	s.rep.EndToEnd, err = fill(endToEnd, map[string]float64{
		"setup_s":             median(setups),
		"job_s_p50":           median(jobS),
		"jobs_per_s":          float64(len(jobS)) / passS,
		"cpu_s_per_job":       median(st.best(st.cpuS, nil)),
		"alloc_bytes_per_job": median(st.best(st.allocB, nil)),
		"peak_rss_mb":         median(peakMB),
	}, false)
	return err
}
