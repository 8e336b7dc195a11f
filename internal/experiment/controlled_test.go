package experiment

import (
	"errors"
	"reflect"
	"testing"

	"mafic/internal/sim"
)

// TestRunControlledMatchesRun pins that the controlled run loop — periodic
// snapshots included — produces a Result bit-identical to a plain Run, and
// that the checkpoint schedule lands on ascending multiples of the interval.
func TestRunControlledMatchesRun(t *testing.T) {
	t.Parallel()
	s := Quick(Entries()[0].Build())
	want, err := Run(s)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	every := s.Duration / 5
	var times []sim.Time
	var last []byte
	got, err := RunControlled(s, ControlOptions{
		CheckpointEvery: every,
		Save: func(at sim.Time, data []byte) error {
			times = append(times, at)
			last = append(last[:0], data...)
			return nil
		},
	})
	if err != nil {
		t.Fatalf("controlled run: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		diffResults(t, "controlled vs plain", want, got)
	}
	if len(times) == 0 {
		t.Fatal("no checkpoints were taken")
	}
	for i, at := range times {
		if at != sim.Time(i+1)*every {
			t.Errorf("checkpoint %d at %v, want %v", i, at, sim.Time(i+1)*every)
		}
		if at <= 0 || at >= s.Duration {
			t.Errorf("checkpoint %d at %v outside (0, %v)", i, at, s.Duration)
		}
	}

	// The last periodic snapshot must resume to the same result.
	resumed, err := ResumeControlled(last, ControlOptions{})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(want, resumed) {
		diffResults(t, "resume of last periodic snapshot", want, resumed)
	}
}

// TestRunControlledInterruptSavesFinalSnapshot drives the drain path: the
// interrupt fires mid-run, the loop takes one final snapshot at the pause
// point, returns ErrInterrupted, and the saved snapshot resumes to a result
// bit-identical to the uninterrupted run.
func TestRunControlledInterruptSavesFinalSnapshot(t *testing.T) {
	t.Parallel()
	s := Quick(Entries()[0].Build())
	want, err := Run(s)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	interrupt := make(chan struct{})
	every := s.Duration / 10
	var saves []sim.Time
	var last []byte
	_, err = RunControlled(s, ControlOptions{
		CheckpointEvery: every,
		Interrupt:       interrupt,
		Save: func(at sim.Time, data []byte) error {
			saves = append(saves, at)
			last = append(last[:0], data...)
			if len(saves) == 2 {
				close(interrupt) // seen at the next boundary
			}
			return nil
		},
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	// Two periodic snapshots plus the final pause snapshot. The second save
	// runs behind the segment after its boundary, so the interrupt it raises
	// is seen one boundary later, which is still within the one-interval
	// latency ControlOptions.Interrupt promises; the pause point is saved
	// once, by the final snapshot.
	if len(saves) != 3 {
		t.Fatalf("saves %v, want 2 periodic + 1 final", saves)
	}
	if saves[2] != saves[1]+every {
		t.Errorf("final snapshot at %v, want the boundary after the second checkpoint, %v", saves[2], saves[1]+every)
	}

	resumed, err := ResumeControlled(last, ControlOptions{})
	if err != nil {
		t.Fatalf("resume after interrupt: %v", err)
	}
	if !reflect.DeepEqual(want, resumed) {
		diffResults(t, "interrupt-resume", want, resumed)
	}

	// The interrupted run left its bundle clean: a fresh run on the same
	// bundle must still match the reference.
	again, err := Run(s)
	if err != nil {
		t.Fatalf("run after interrupt: %v", err)
	}
	if !reflect.DeepEqual(want, again) {
		diffResults(t, "pooled objects after interrupt", want, again)
	}
}

// TestRunControlledInterruptBeforeStart pins that an interrupt delivered
// before the clock advances returns ErrInterrupted without inventing a
// snapshot — there is no progress to save, the job simply restarts later.
func TestRunControlledInterruptBeforeStart(t *testing.T) {
	t.Parallel()
	s := Quick(Entries()[0].Build())
	interrupt := make(chan struct{})
	close(interrupt)
	saves := 0
	_, err := RunControlled(s, ControlOptions{
		CheckpointEvery: s.Duration / 4,
		Interrupt:       interrupt,
		Save:            func(sim.Time, []byte) error { saves++; return nil },
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if saves != 0 {
		t.Errorf("%d snapshots saved for a run that never started", saves)
	}
}

// TestResumeControlledCheckpointScheduleContinues pins that a resumed run
// keeps checkpointing on the original schedule: the next snapshot lands on
// the first multiple of the interval after the snapshot time.
func TestResumeControlledCheckpointScheduleContinues(t *testing.T) {
	t.Parallel()
	s := Quick(Entries()[0].Build())
	every := s.Duration / 8
	data, want := snapshotMidRun(t, s, s.Duration/2)

	var times []sim.Time
	got, err := ResumeControlled(data, ControlOptions{
		CheckpointEvery: every,
		Save: func(at sim.Time, data []byte) error {
			times = append(times, at)
			return nil
		},
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		diffResults(t, "resume with checkpoints", want, got)
	}
	if len(times) == 0 {
		t.Fatal("resumed run took no checkpoints")
	}
	first := (s.Duration/2/every + 1) * every
	if times[0] != first {
		t.Errorf("first post-resume checkpoint at %v, want %v", times[0], first)
	}
	for _, at := range times {
		if at <= s.Duration/2 || at >= s.Duration {
			t.Errorf("post-resume checkpoint at %v outside (%v, %v)", at, s.Duration/2, s.Duration)
		}
	}
}

// TestResumeControlledClassifiesSnapshotErrors pins the ErrSnapshot contract
// the serve recovery fallback depends on: garbage and truncation are the
// snapshot's fault, so they must carry the sentinel.
func TestResumeControlledClassifiesSnapshotErrors(t *testing.T) {
	t.Parallel()
	if _, err := ResumeControlled([]byte("not a snapshot"), ControlOptions{}); !errors.Is(err, ErrSnapshot) {
		t.Errorf("garbage: want ErrSnapshot, got %v", err)
	}
	s := Quick(Entries()[0].Build())
	data, _ := snapshotMidRun(t, s, s.Duration/2)
	if _, err := ResumeControlled(data[:len(data)/2], ControlOptions{}); !errors.Is(err, ErrSnapshot) {
		t.Errorf("truncation: want ErrSnapshot, got %v", err)
	}
	if _, err := ResumeControlled(data, ControlOptions{CheckpointEvery: -1}); !errors.Is(err, ErrScenario) {
		t.Errorf("negative interval: want ErrScenario, got %v", err)
	}
}

// TestRunControlledRejectsNegativeInterval pins option validation.
func TestRunControlledRejectsNegativeInterval(t *testing.T) {
	t.Parallel()
	s := Quick(Entries()[0].Build())
	if _, err := RunControlled(s, ControlOptions{CheckpointEvery: -1}); !errors.Is(err, ErrScenario) {
		t.Errorf("want ErrScenario, got %v", err)
	}
}

// TestRunControlledRejectsIntervalWithoutSave pins that a checkpoint interval
// with nowhere to save is refused up front, on both entry points, rather than
// silently running as one uninterruptible, never-checkpointed segment.
func TestRunControlledRejectsIntervalWithoutSave(t *testing.T) {
	t.Parallel()
	s := Quick(Entries()[0].Build())
	opts := ControlOptions{CheckpointEvery: s.Duration / 4}
	if _, err := RunControlled(s, opts); !errors.Is(err, ErrScenario) {
		t.Errorf("run: want ErrScenario, got %v", err)
	}
	data, _ := snapshotMidRun(t, s, s.Duration/2)
	if _, err := ResumeControlled(data, opts); !errors.Is(err, ErrScenario) {
		t.Errorf("resume: want ErrScenario, got %v", err)
	}
}
