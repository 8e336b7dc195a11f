package experiment

import (
	"encoding/json"
	"errors"
	"fmt"

	"mafic/internal/checkpoint"
	"mafic/internal/sim"
)

// ErrInterrupted reports that a controlled run was interrupted through
// ControlOptions.Interrupt before reaching its scenario duration. When a Save
// sink is configured and the run had made any progress, a final snapshot was
// handed to it first, so the run can be resumed later with ResumeControlled.
var ErrInterrupted = errors.New("experiment: run interrupted")

// ErrSnapshot marks resume failures whose cause is the snapshot itself —
// undecodable bytes, an embedded scenario that no longer validates, or
// restore-time divergence from the rebuilt world. Callers holding several
// snapshots (the serve recovery path) use it to fall back to an older one;
// errors past the restore phase are genuine run failures and are not wrapped.
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
	// the end of the run. An error aborts the run.
	Save func(at sim.Time, data []byte) error
	// Interrupt, when it becomes receivable (normally by closing the
	// channel), pauses the run at the next checkpoint boundary: a final
	// snapshot is saved (if Save is set and the clock has advanced) and the
	// run returns ErrInterrupted. A nil channel never interrupts. Interrupt
	// latency is bounded by the checkpoint interval — with no checkpoints
	// configured the run is a single uninterruptible segment.
	Interrupt <-chan struct{}

	// at, when set, is RunWithCheckpoints' explicit schedule: snapshots at
	// exactly these ascending times instead of at multiples of
	// CheckpointEvery.
	at []sim.Time
}

// RunControlled executes one scenario under the given control surface. With
// zero options it is exactly Run; with a checkpoint interval it is the
// service-mode run loop: snapshot periodically, pause on interrupt, resume
// later bit-identically (snapshots are pure reads, pinned by the
// kill-and-resume suite).
func RunControlled(s Scenario, opts ControlOptions) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	return runPooled(s, nil, opts)
}

// ResumeControlled decodes a snapshot, rebuilds its embedded scenario
// deterministically, overlays the captured dynamic state and continues the
// run under the given control surface. Periodic checkpoints resume on the
// original schedule (the next multiple of CheckpointEvery after the snapshot
// time). Failures caused by the snapshot itself are wrapped in ErrSnapshot.
func ResumeControlled(data []byte, opts ControlOptions) (Result, error) {
	snap, err := checkpoint.Decode(data)
	if err != nil {
		return Result{}, fmt.Errorf("%w: %w", ErrSnapshot, err)
	}
	var s Scenario
	if err := json.Unmarshal(snap.Scenario, &s); err != nil {
		return Result{}, fmt.Errorf("%w: decode snapshot scenario: %w", ErrSnapshot, err)
	}
	if err := refuseRetiredOptions(snap.Scenario, s); err != nil {
		return Result{}, fmt.Errorf("%w: %w", ErrSnapshot, err)
	}
	if err := s.Validate(); err != nil {
		return Result{}, fmt.Errorf("%w: %w", ErrSnapshot, err)
	}
	return runPooled(s, snap, opts)
}

// refuseRetiredOptions refuses an embedded scenario that sets a deleted option
// to a value the engine no longer implements. A file written while the options
// existed carries their keys, and json.Unmarshal ignores them: without this
// check such a file would resume with other behaviour than it was written
// with. The values every catalog run has — no absolute or relative detector,
// no ATR cap, withdrawal disabled, the proportional dropper at P_d, legitimate
// flows starting at 0 — are the behaviour the engine has, and pass.
func refuseRetiredOptions(raw []byte, s Scenario) error {
	var old struct {
		BaselineDropProbability float64
		Workload                struct{ LegitStart sim.Time }
		Pushback                struct {
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
// duration in checkpoint-bounded segments, saving a snapshot after each
// segment and checking for interruption between them. Its caller releases
// the built run, whichever way the loop returns.
func controlLoop(b *builtRun, opts ControlOptions) (Result, error) {
	s := b.s
	sched := b.res.sched
	for {
		if opts.Interrupt != nil && interrupted(opts.Interrupt) {
			// Pause at the current event boundary. If the run has made any
			// progress and there is somewhere to save it, take a final
			// snapshot so the interruption loses nothing.
			if opts.Save != nil && sched.Now() > 0 {
				data, err := b.snapshot()
				if err != nil {
					return Result{}, err
				}
				if err := opts.Save(sched.Now(), data); err != nil {
					return Result{}, fmt.Errorf("save final snapshot at %v: %w", sched.Now(), err)
				}
			}
			return Result{}, fmt.Errorf("%w at t=%v", ErrInterrupted, sched.Now())
		}
		next := opts.nextStop(sched.Now(), s.Duration)
		if err := sched.RunUntil(next); err != nil {
			return Result{}, fmt.Errorf("run: %w", err)
		}
		if next >= s.Duration {
			return b.finish()
		}
		data, err := b.snapshot()
		if err != nil {
			return Result{}, err
		}
		if err := opts.Save(next, data); err != nil {
			return Result{}, fmt.Errorf("save checkpoint at %v: %w", next, err)
		}
	}
}
