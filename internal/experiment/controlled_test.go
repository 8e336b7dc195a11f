package experiment

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mafic/internal/sim"
)

// TestRunControlledMatchesRun pins that the controlled run loop — periodic
// snapshots and interrupt polls included — produces a Result bit-identical to
// a plain Run, that the checkpoint schedule lands on ascending multiples of
// the interval whatever the polls in between, and that an Interrupt that
// never fires, which ends a segment at every multiple of interruptEvery,
// changes no quick catalog entry's result: a segment boundary is a pure read.
func TestRunControlledMatchesRun(t *testing.T) {
	t.Parallel()
	s := Quick(Entries()[0].Build())
	want, err := Run(s)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	never := make(chan struct{})
	every := s.Duration / 5
	var times []sim.Time
	var last []byte
	got, err := RunControlled(s, ControlOptions{
		CheckpointEvery: every,
		Interrupt:       never,
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

	for _, e := range Entries() {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			s := Quick(e.Build())
			got, err := RunControlled(s, ControlOptions{Interrupt: never})
			if err != nil {
				t.Fatalf("polled run: %v", err)
			}
			requireSameResult(t, "polled vs plain", plainResult(t, e.Name, s), got)
		})
	}
}

// TestRunControlledInterruptStopsAtNextPoll closes Interrupt from an event
// handler at simulated time t, between two polls and after three
// checkpoints. The run must return ErrInterrupted with its clock at the
// first multiple of interruptEvery after t, having saved the three
// checkpoints before t and nothing after: an interrupted run takes no final
// snapshot.
func TestRunControlledInterruptStopsAtNextPoll(t *testing.T) {
	t.Parallel()
	s := Quick(Entries()[0].Build())
	every := s.Duration / 10
	at := 3*every + interruptEvery/2 + 7*sim.Microsecond
	wantStop := (at/interruptEvery + 1) * interruptEvery
	if every <= 2*interruptEvery || wantStop >= 4*every {
		t.Fatalf("checkpoints every %v leave no poll between t=%v and the next checkpoint", every, at)
	}

	b, err := buildRun(s, newRunResources())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer b.release()
	interrupt := make(chan struct{})
	sched := b.res.sched
	sched.ScheduleAt(at, func(sim.Time) { close(interrupt) })
	b.buildSeq = sched.Seq() // a build event, so the snapshots before it can be taken
	var saves []sim.Time
	_, err = controlLoop(b, ControlOptions{
		CheckpointEvery: every,
		Interrupt:       interrupt,
		Save: func(at sim.Time, _ []byte) error {
			saves = append(saves, at)
			return nil
		},
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if now := sched.Now(); now != wantStop || !strings.Contains(err.Error(), fmt.Sprintf("at t=%v", wantStop)) {
		t.Errorf("stopped at %v (%v), want the next poll after t=%v, %v", now, err, at, wantStop)
	}
	if want := []sim.Time{every, 2 * every, 3 * every}; !reflect.DeepEqual(saves, want) {
		t.Errorf("saves %v, want the checkpoints before the interrupt, %v, and none after", saves, want)
	}
}

// TestRunControlledInterruptBeforeStart pins that an interrupt delivered
// before the clock advances returns ErrInterrupted without a snapshot.
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

// TestResumeControlledClassifiesSnapshotErrors pins the ErrSnapshot contract:
// garbage and truncation are the snapshot's fault, so they must carry the
// sentinel.
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
// silently running as a never-checkpointed run.
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
