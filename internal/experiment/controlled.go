package experiment

import (
	"encoding/json"
	"errors"
	"fmt"

	"mafic/internal/checkpoint"
	"mafic/internal/sim"
)

// ErrInterrupted reports that a controlled run was interrupted through
// ControlOptions.Interrupt before reaching its scenario duration. Nothing is
// saved at the stop: a caller that wants the job finished runs it again, and
// the engine being deterministic, the rerun reaches the uninterrupted run's
// result.
var ErrInterrupted = errors.New("experiment: run interrupted")

// ErrSnapshot marks resume failures whose cause is the snapshot itself —
// undecodable bytes, an embedded scenario that no longer validates, or
// restore-time divergence from the rebuilt world. Errors past the restore
// phase are genuine run failures and are not wrapped.
var ErrSnapshot = errors.New("experiment: snapshot unusable")

// ControlOptions shapes a controlled (long-running, supervisable) run.
type ControlOptions struct {
	// CheckpointEvery takes a snapshot at every multiple of this virtual
	// time inside (0, Duration). Zero disables periodic checkpoints.
	// Checkpoints require a Save sink: a positive interval with a nil Save
	// is rejected with ErrScenario.
	CheckpointEvery sim.Time
	// Save receives each encoded snapshot. data is a fresh buffer on every
	// call and the callee owns it: it may keep it past its return and past
	// the end of the run. The snapshot is captured at its boundary on the
	// run's goroutine, but encoded and saved on a helper goroutine while the
	// next segment runs: Save is called one call at a time, in checkpoint
	// order, and the run returns only after the last call has returned. An
	// error aborts the run at the end of that segment, as "save checkpoint
	// at T".
	Save func(at sim.Time, data []byte) error
	// Interrupt, when it becomes receivable (normally by closing the
	// channel), stops the run: the control loop polls it at every multiple of
	// interruptEvery of simulated time and at every checkpoint boundary, and
	// returns ErrInterrupted at the first poll that finds it receivable. No
	// snapshot is taken for the stop. A nil channel never interrupts, and the
	// run is then not polled at all.
	Interrupt <-chan struct{}

	// at, when set, is RunWithCheckpoints' explicit schedule: snapshots at
	// exactly these ascending times instead of at multiples of
	// CheckpointEvery.
	at []sim.Time
}

// interruptEvery is how often, in simulated time, a run with an Interrupt
// channel stops to poll it. Ending a segment is a pure read of the run
// (TestRunControlledMatchesRun), so the poll moves no result; it bounds the
// latency of a cancel, drain or timeout to the wall time of 10 simulated ms.
const interruptEvery = 10 * sim.Millisecond

// RunControlled executes one scenario under the given control surface. With
// zero options it is exactly Run; with an Interrupt channel it is the
// service-mode run loop, which stops on request; with a checkpoint interval it
// also snapshots periodically, to resume later bit-identically (snapshots are
// pure reads, pinned by the kill-and-resume suite).
func RunControlled(s Scenario, opts ControlOptions) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	return runPooled(s, opts)
}

// ResumeControlled decodes a snapshot, rebuilds its embedded scenario
// deterministically, overlays the captured dynamic state and continues the
// run under the given control surface. Periodic checkpoints resume on the
// original schedule (the next multiple of CheckpointEvery after the snapshot
// time). Failures caused by the snapshot itself are wrapped in ErrSnapshot.
// With zero options the run completes with no further checkpoint, and its
// result is bit-identical to the uninterrupted run's (the crash-recovery
// suite pins this for every catalog scenario).
func ResumeControlled(data []byte, opts ControlOptions) (Result, error) {
	res := takeBundle()
	defer res.giveBack()
	return resumeWith(data, res, opts)
}

// resumeWith is ResumeControlled on the given bundle: the snapshot is decoded
// into the bundle's own Snapshot, which the resumed run's captures refill.
func resumeWith(data []byte, res *runResources, opts ControlOptions) (Result, error) {
	snap, s, err := decodeResume(data, res)
	if err != nil {
		return Result{}, err
	}
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	return runWith(s, res, snap, opts)
}

// decodeResume decodes a snapshot into the bundle's own Snapshot and its
// embedded scenario, which must pass refuseRetiredOptions and Validate.
// Failures are wrapped in ErrSnapshot.
func decodeResume(data []byte, res *runResources) (*checkpoint.Snapshot, Scenario, error) {
	snap := &res.checkpointSession().snap
	if err := checkpoint.DecodeInto(snap, data); err != nil {
		return nil, Scenario{}, fmt.Errorf("%w: %w", ErrSnapshot, err)
	}
	var s Scenario
	if err := json.Unmarshal(snap.Scenario, &s); err != nil {
		return nil, Scenario{}, fmt.Errorf("%w: decode snapshot scenario: %w", ErrSnapshot, err)
	}
	if err := refuseRetiredOptions(snap.Scenario, s); err != nil {
		return nil, Scenario{}, fmt.Errorf("%w: %w", ErrSnapshot, err)
	}
	if err := s.Validate(); err != nil {
		return nil, Scenario{}, fmt.Errorf("%w: %w", ErrSnapshot, err)
	}
	return snap, s, nil
}

// refuseRetiredOptions refuses an embedded scenario that sets a deleted option
// to a value the engine no longer implements. A file written while the options
// existed carries their keys, and json.Unmarshal ignores them: without this
// check such a file would resume with other behaviour than it was written
// with. The values every catalog run has — no absolute or relative detector,
// no ATR cap, withdrawal disabled, the proportional dropper at P_d, legitimate
// flows starting at 0, no legitimate UDP flows — are the behaviour the engine
// has, and pass.
func refuseRetiredOptions(raw []byte, s Scenario) error {
	var old struct {
		BaselineDropProbability float64
		Workload                struct {
			LegitStart sim.Time
			UDPShare   float64
		}
		Pushback struct {
			AbsoluteThreshold, RelativeFactor float64
			MaxATRs                           int
			DisableWithdraw                   *bool
		}
	}
	if err := json.Unmarshal(raw, &old); err != nil {
		return fmt.Errorf("decode snapshot scenario: %w", err)
	}
	pb := old.Pushback
	for _, o := range []struct {
		key   string
		value any
		inUse bool
	}{
		{"Pushback.AbsoluteThreshold", pb.AbsoluteThreshold, pb.AbsoluteThreshold != 0},
		{"Pushback.RelativeFactor", pb.RelativeFactor, pb.RelativeFactor != 0},
		{"Pushback.MaxATRs", pb.MaxATRs, pb.MaxATRs != 0},
		{"Pushback.DisableWithdraw", false, pb.DisableWithdraw != nil && !*pb.DisableWithdraw},
		{"BaselineDropProbability", old.BaselineDropProbability, s.Defense == DefenseBaseline &&
			old.BaselineDropProbability != 0 && old.BaselineDropProbability != s.MAFIC.DropProbability},
		{"Workload.LegitStart", old.Workload.LegitStart, old.Workload.LegitStart != 0},
		{"Workload.UDPShare", old.Workload.UDPShare, old.Workload.UDPShare != 0},
	} {
		if o.inUse {
			return fmt.Errorf("scenario sets the deleted option %s to %v, which the engine no longer implements", o.key, o.value)
		}
	}
	return nil
}

// validate rejects option combinations the control loop cannot honour.
func (o ControlOptions) validate() error {
	if o.CheckpointEvery < 0 {
		return fmt.Errorf("%w: checkpoint interval must not be negative", ErrScenario)
	}
	if o.CheckpointEvery > 0 && o.Save == nil {
		return fmt.Errorf("%w: a checkpoint interval needs a Save sink", ErrScenario)
	}
	return nil
}

// interrupted reports whether the control surface has asked the run to stop.
func interrupted(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// nextStop is where the segment starting at now ends: the next checkpoint
// after now that falls inside the run, else the run's end.
func (o ControlOptions) nextStop(now, end sim.Time) sim.Time {
	for _, t := range o.at {
		if t > now {
			return t
		}
	}
	if o.CheckpointEvery > 0 {
		if t := (now/o.CheckpointEvery + 1) * o.CheckpointEvery; t < end {
			return t
		}
	}
	return end
}

// controlLoop advances a built (or rebuilt-and-restored) run to its scenario
// duration in segments, each ending at the next checkpoint or the run's end,
// and, when the run has an Interrupt channel, at the next multiple of
// interruptEvery before that. At each boundary it polls for interruption; at
// a checkpoint it captures the run and hands the snapshot to a helper
// goroutine that encodes and saves it while the next segment runs; the end of
// that segment joins the save. So nothing is in flight whenever the loop
// returns or captures, and its caller releases the built run, whichever way
// the loop returns.
func controlLoop(b *builtRun, opts ControlOptions) (Result, error) {
	s := b.s
	sched := b.res.sched
	behind := saveBehind{save: opts.Save}
	for atCheckpoint := false; ; {
		if opts.Interrupt != nil && interrupted(opts.Interrupt) {
			return Result{}, fmt.Errorf("%w at t=%v", ErrInterrupted, sched.Now())
		}
		if atCheckpoint {
			snap, err := b.capture()
			if err != nil {
				return Result{}, err
			}
			behind.start(sched.Now(), snap)
		}
		stop := opts.nextStop(sched.Now(), s.Duration)
		next := stop
		if opts.Interrupt != nil {
			next = min(stop, (sched.Now()/interruptEvery+1)*interruptEvery)
		}
		err := sched.RunUntil(next)
		if serr := behind.join(); serr != nil {
			return Result{}, serr
		}
		if err != nil {
			return Result{}, fmt.Errorf("run: %w", err)
		}
		if next >= s.Duration {
			return b.finish()
		}
		atCheckpoint = next == stop
	}
}

// errSaveExited is what a save that ended its goroutine without returning
// (runtime.Goexit, as a test's FailNow does) reports, so the join does not
// wait for it forever.
var errSaveExited = errors.New("save exited without returning")

// saveBehind runs a run's checkpoint saves on a helper goroutine, one at a
// time: start hands it a captured snapshot to encode and save, and join
// waits for that save to return. Both belong to the run's goroutine, and
// between a start and its join the snapshot belongs to the helper.
type saveBehind struct {
	save func(at sim.Time, data []byte) error

	at   sim.Time
	done chan error // the save in flight; nil when there is none
}

// start encodes and saves snap behind the run. No save may be pending.
func (sb *saveBehind) start(at sim.Time, snap *checkpoint.Snapshot) {
	save, done := sb.save, make(chan error, 1)
	sb.at, sb.done = at, done
	go func() {
		err := errSaveExited
		defer func() { done <- err }()
		err = save(at, checkpoint.Encode(snap))
	}()
}

// join waits for the pending save, if any, and returns its error as the
// checkpoint's.
func (sb *saveBehind) join() error {
	if sb.done == nil {
		return nil
	}
	err := <-sb.done
	sb.done = nil
	if err != nil {
		return fmt.Errorf("save checkpoint at %v: %w", sb.at, err)
	}
	return nil
}
