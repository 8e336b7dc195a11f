package experiment

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mafic/internal/sim"
)

// The control loop captures a snapshot at each checkpoint boundary and hands
// its encoding and ControlOptions.Save to a helper goroutine that runs behind
// the next segment. These tests pin the contract that leaves the caller:
// saves never overlap and come in order, a failed save fails the run at the
// next boundary, and the run never returns while a save is running. The two
// that wait on the clock for a save that must not come stay sequential, so
// no parallel test slows the run they time.

// waitFor receives from ch, failing the test if nothing comes within 30 s.
func waitFor[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(30 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// TestSaveBehindOneSaveInFlight holds every save until the test lets it go:
// while one is held no other starts and the run does not return, the saves
// see the checkpoints in order, and the result is a plain Run's.
func TestSaveBehindOneSaveInFlight(t *testing.T) {
	s := Quick(Entries()[0].Build())
	want, err := Run(s)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	every := s.Duration / 5
	var inFlight atomic.Int32
	entered := make(chan sim.Time)
	release := make(chan error)
	ret := make(chan error, 1)
	var got Result
	go func() {
		var err error
		got, err = RunControlled(s, ControlOptions{
			CheckpointEvery: every,
			Save: func(at sim.Time, data []byte) error {
				if n := inFlight.Add(1); n != 1 {
					t.Errorf("%d saves in flight", n)
				}
				defer inFlight.Add(-1)
				if len(data) == 0 {
					t.Errorf("save of t=%v handed no bytes", at)
				}
				entered <- at
				return <-release
			},
		})
		ret <- err
	}()
	for k := sim.Time(1); k < 5; k++ {
		if at := waitFor(t, entered, "a save"); at != k*every {
			t.Fatalf("save %d is of t=%v, want %v", k, at, k*every)
		}
		select {
		case at := <-entered:
			t.Fatalf("save of t=%v started with the one of t=%v still in flight", at, k*every)
		case err := <-ret:
			t.Fatalf("run returned (%v) with the save of t=%v still in flight", err, k*every)
		case <-time.After(50 * time.Millisecond):
		}
		release <- nil
	}
	if err := waitFor(t, ret, "the run to return"); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		diffResults(t, "saved behind vs plain", want, got)
	}
}

// TestSaveBehindFailureFailsTheNextBoundary fails one save. The run stops at
// the boundary after it (at its end, for the last checkpoint) with the failed
// checkpoint's time, and takes no snapshot past that boundary.
func TestSaveBehindFailureFailsTheNextBoundary(t *testing.T) {
	t.Parallel()
	s := Quick(Entries()[0].Build())
	every := s.Duration / 5
	boom := errors.New("disk full")
	for _, failAt := range []sim.Time{2 * every, 4 * every} {
		t.Run(fmt.Sprintf("at_%v", failAt), func(t *testing.T) {
			var saves []sim.Time
			res, err := RunControlled(s, ControlOptions{
				CheckpointEvery: every,
				Save: func(at sim.Time, _ []byte) error {
					saves = append(saves, at)
					if at == failAt {
						return boom
					}
					return nil
				},
			})
			if !errors.Is(err, boom) || !strings.Contains(err.Error(), fmt.Sprintf("save checkpoint at %v", failAt)) {
				t.Fatalf("run returned %v, want the save's error as the checkpoint at %v's", err, failAt)
			}
			if !reflect.DeepEqual(res, Result{}) {
				t.Errorf("a failed run returned a result: %+v", res)
			}
			if n := int(failAt / every); len(saves) != n || saves[n-1] != failAt {
				t.Errorf("saves %v, want every checkpoint up to the failed one at %v and none after", saves, failAt)
			}
		})
	}
}

// TestSaveBehindBlockedSaveHoldsEveryReturn blocks one save on a channel and
// drives the run to each way it can return — finishing, a failed save, an
// interrupt, a run error — while it is blocked: the run must not return until
// the save does, and no checkpoint is saved twice.
func TestSaveBehindBlockedSaveHoldsEveryReturn(t *testing.T) {
	s := Quick(Entries()[0].Build())
	every := s.Duration / 5
	boom := errors.New("disk full")
	for _, tc := range []struct {
		name      string
		hold      sim.Time // the checkpoint whose save blocks
		holdErr   error    // what it returns when let go
		interrupt bool     // it raises the interrupt before blocking
		stopAt    sim.Time // a build-time event stops the scheduler here
		wantErr   error
		wantSaves []sim.Time
	}{
		{name: "finish", hold: 4 * every, wantSaves: []sim.Time{every, 2 * every, 3 * every, 4 * every}},
		{name: "save error", hold: 4 * every, holdErr: boom, wantErr: boom,
			wantSaves: []sim.Time{every, 2 * every, 3 * every, 4 * every}},
		// Raised inside the save of 2·every, the interrupt is seen at the
		// next boundary, whose final snapshot is the third save.
		{name: "interrupt", hold: 2 * every, interrupt: true, wantErr: ErrInterrupted,
			wantSaves: []sim.Time{every, 2 * every, 3 * every}},
		{name: "run error", hold: 2 * every, stopAt: 2*every + every/2, wantErr: sim.ErrStopped,
			wantSaves: []sim.Time{every, 2 * every}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			interrupt := make(chan struct{})
			entered, release := make(chan struct{}), make(chan struct{})
			var saves []sim.Time
			opts := ControlOptions{
				CheckpointEvery: every,
				Interrupt:       interrupt,
				Save: func(at sim.Time, _ []byte) error {
					saves = append(saves, at)
					if at != tc.hold {
						return nil
					}
					if tc.interrupt {
						close(interrupt)
					}
					close(entered)
					<-release
					return tc.holdErr
				},
			}
			ret := make(chan error, 1)
			if tc.stopAt == 0 {
				go func() {
					_, err := RunControlled(s, opts)
					ret <- err
				}()
			} else {
				b, err := buildRun(s, newRunResources())
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				defer b.release()
				sched := b.res.sched
				sched.ScheduleAt(tc.stopAt, func(sim.Time) { sched.Stop() })
				b.buildSeq = sched.Seq() // a build event, so the snapshots before it can be taken
				go func() {
					_, err := controlLoop(b, opts)
					ret <- err
				}()
			}
			waitFor(t, entered, "the held save")
			select {
			case err := <-ret:
				t.Fatalf("run returned (%v) with a save blocked", err)
			case <-time.After(50 * time.Millisecond):
			}
			close(release)
			err := waitFor(t, ret, "the run to return")
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("run returned %v, want %v", err, tc.wantErr)
			}
			if !reflect.DeepEqual(saves, tc.wantSaves) {
				t.Errorf("saves %v, want %v", saves, tc.wantSaves)
			}
		})
	}
}
