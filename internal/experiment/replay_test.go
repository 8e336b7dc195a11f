package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"mafic/internal/checkpoint"
	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// This file is resume by replay, the alternative to restore that ROADMAP item
// 17 weighs and decides for (its numbers are there). The engine is
// deterministic, so a snapshot's scenario and time determine the run's whole
// state there: a fresh build run to the snapshot's Now reaches the state a
// restore overlays, and what the file records of the run's progress is a
// check of that, not an input. resumeByReplay is shaped as ResumeControlled's
// body, so that deleting restore moves it into controlled.go as it stands;
// until then it is test-only and no production path reaches it.

// resumeByReplay resumes a snapshot on the given bundle by replaying its
// scenario from time zero instead of restoring its state: the snapshot is
// decoded and its embedded scenario checked as resumeWith does
// (decodeResume); a fresh build runs to the snapshot's Now, where its
// progress must equal the file's (replayProgress); and the run then continues
// through controlLoop under opts, as a restored one does, so periodic
// checkpoints keep the original schedule and Interrupt pauses it. Failures
// caused by the snapshot are wrapped in ErrSnapshot.
func resumeByReplay(data []byte, res *runResources, opts ControlOptions) (Result, error) {
	snap, s, err := decodeResume(data, res)
	if err != nil {
		return Result{}, err
	}
	if snap.Now <= 0 || snap.Now >= s.Duration {
		return Result{}, fmt.Errorf("%w: snapshot time %v outside the run's (0, %v)", ErrSnapshot, snap.Now, s.Duration)
	}
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	b, err := buildRun(s, res)
	if err != nil {
		return Result{}, err
	}
	defer b.release()
	if err := b.res.sched.RunUntil(snap.Now); err != nil {
		return Result{}, fmt.Errorf("run: %w", err)
	}
	if err := replayProgress(b, snap); err != nil {
		return Result{}, fmt.Errorf("%w: %w", ErrSnapshot, err)
	}
	return controlLoop(b, opts)
}

// replayProgress compares a run replayed to a snapshot's Now with the
// progress the snapshot records there: the build boundary, the events
// processed and the next sequence number, every RNG stream's seed and draws,
// the packet IDs issued, and the collector's counts and activation flags. A
// file written by this build of the same scenario matches; a difference means
// the file was not, or the engine is not deterministic.
func replayProgress(b *builtRun, snap *checkpoint.Snapshot) error {
	sched, rng := b.res.sched, b.res.rng
	differs := func(what string, got, want any) error {
		return fmt.Errorf("replayed to %v, the run's %s is %v, the snapshot recorded %v", snap.Now, what, got, want)
	}
	var net netsim.NetworkState
	b.domain.Net.CheckpointState(&net)
	flags := checkpoint.RunFlags{
		Activated:          b.result.Activated,
		ActivationSeconds:  b.result.ActivationSeconds,
		DetectedByPushback: b.result.DetectedByPushback,
		ATRCount:           int64(b.result.ATRCount),
	}
	switch {
	case b.buildSeq != snap.BuildSeq:
		return differs("build boundary", b.buildSeq, snap.BuildSeq)
	case sched.Processed() != snap.Processed:
		return differs("processed event count", sched.Processed(), snap.Processed)
	case sched.Seq() != snap.NextSeq:
		return differs("next sequence number", sched.Seq(), snap.NextSeq)
	case rng.StreamCount() != len(snap.Streams):
		return differs("rng stream count", rng.StreamCount(), len(snap.Streams))
	case net.NextPktID != snap.Network.NextPktID:
		return differs("last packet ID", net.NextPktID, snap.Network.NextPktID)
	case b.collector.Counts() != snap.Collector.Counts:
		return differs("collector counts", b.collector.Counts(), snap.Collector.Counts)
	case flags != snap.Flags:
		return differs("activation flags", flags, snap.Flags)
	}
	for i, want := range snap.Streams {
		if seed, draws := rng.StreamState(i); seed != want.Seed || draws != want.Draws {
			return differs(fmt.Sprintf("rng stream %d", i), checkpoint.StreamState{Seed: seed, Draws: draws}, want)
		}
	}
	return nil
}

// replayedResult resumes data by replay on a pooled bundle, as
// ResumeControlled resumes it by restore.
func replayedResult(data []byte, opts ControlOptions) (Result, error) {
	res := takeBundle()
	defer res.giveBack()
	return resumeByReplay(data, res, opts)
}

// savedSnapshot is one call of a Save sink: when and what.
type savedSnapshot struct {
	at   sim.Time
	data []byte
}

// inSeqOrderBytes re-encodes a snapshot file with its pending events in
// sequence order (inSeqOrder).
func inSeqOrderBytes(t *testing.T, data []byte) []byte {
	t.Helper()
	snap, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	inSeqOrder(snap)
	return checkpoint.Encode(snap)
}

// TestResumeByReplay runs quick table2's half-way snapshot through both
// resumes under one control surface and requires the same behaviour of each:
// "control surface" checkpoints every eighth of the run, starting from the
// first multiple after the snapshot, and its second save raises Interrupt,
// which pauses the run at the boundary after it with a final snapshot; both
// resumes must save the same snapshots at the same times, the same bytes once
// their events are in sequence order, and return the same error. "progress"
// replays the run to the snapshot's Now once and requires replayProgress to
// accept the file as written and to refuse it, naming the field, with any one
// progress field changed. (TestKillAndResumeEquivalence replays every catalog
// entry to its end.)
func TestResumeByReplay(t *testing.T) {
	t.Parallel()
	e, ok := LookupScenario("table2")
	if !ok {
		t.Fatal("table2 not registered")
	}
	s := Quick(e.Build())
	data, _ := snapshotMidRun(t, s, s.Duration/2)

	t.Run("control surface", func(t *testing.T) {
		t.Parallel()
		every := s.Duration / 8
		resume := func(how func([]byte, ControlOptions) (Result, error)) ([]savedSnapshot, error) {
			var saved []savedSnapshot
			interrupt := make(chan struct{})
			_, err := how(data, ControlOptions{
				CheckpointEvery: every,
				Interrupt:       interrupt,
				Save: func(at sim.Time, data []byte) error {
					saved = append(saved, savedSnapshot{at, data})
					if len(saved) == 2 {
						close(interrupt)
					}
					return nil
				},
			})
			return saved, err
		}
		restored, rerr := resume(ResumeControlled)
		replayed, err := resume(replayedResult)
		if !errors.Is(rerr, ErrInterrupted) {
			t.Fatalf("restore: want ErrInterrupted, got %v", rerr)
		}
		if err == nil || err.Error() != rerr.Error() {
			t.Errorf("replay returned %v, restore %v", err, rerr)
		}
		// Checkpoints at 5/8 and 6/8 of the run, the second raising the
		// interrupt, then the final snapshot at 7/8, where the run pauses.
		if len(restored) != 3 || restored[0].at != 5*every || restored[2].at != 7*every {
			t.Fatalf("restore saved %d snapshots, want three at %v, %v and %v", len(restored), 5*every, 6*every, 7*every)
		}
		if len(replayed) != len(restored) {
			t.Fatalf("replay saved %d snapshots, restore %d", len(replayed), len(restored))
		}
		// A capture lists pending events in the order the scheduler's arena
		// holds them, which a restore does not reproduce, so the files are
		// compared with their events in sequence order.
		for i, want := range restored {
			got := replayed[i]
			if g, w := inSeqOrderBytes(t, got.data), inSeqOrderBytes(t, want.data); got.at != want.at || !bytes.Equal(g, w) {
				t.Errorf("snapshot %d: replay saved %d bytes at %v, restore %d bytes at %v, equal in sequence order: %v",
					i, len(got.data), got.at, len(want.data), want.at, bytes.Equal(g, w))
			}
		}
	})

	t.Run("progress", func(t *testing.T) {
		t.Parallel()
		snap, err := checkpoint.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildRun(s, newRunResources())
		if err != nil {
			t.Fatal(err)
		}
		defer b.release()
		if err := b.res.sched.RunUntil(snap.Now); err != nil {
			t.Fatal(err)
		}
		if err := replayProgress(b, snap); err != nil {
			t.Fatalf("the file as written: %v", err)
		}
		if !snap.Flags.Activated || len(snap.Streams) < 2 {
			t.Fatalf("the half-way snapshot is not activated or has %d streams: the flag and stream cases test nothing", len(snap.Streams))
		}
		last := len(snap.Streams) - 1
		for _, tc := range []struct {
			field string
			edit  func(*checkpoint.Snapshot)
		}{
			{"build boundary", func(s *checkpoint.Snapshot) { s.BuildSeq-- }},
			{"processed event count", func(s *checkpoint.Snapshot) { s.Processed++ }},
			{"next sequence number", func(s *checkpoint.Snapshot) { s.NextSeq++ }},
			{"rng stream count", func(s *checkpoint.Snapshot) { s.Streams = s.Streams[:last] }},
			{"rng stream 1", func(s *checkpoint.Snapshot) { s.Streams[1].Seed++ }},
			{fmt.Sprintf("rng stream %d", last), func(s *checkpoint.Snapshot) { s.Streams[last].Draws++ }},
			{"last packet ID", func(s *checkpoint.Snapshot) { s.Network.NextPktID++ }},
			{"collector counts", func(s *checkpoint.Snapshot) { s.Collector.Counts.QueueDrops++ }},
			{"activation flags", func(s *checkpoint.Snapshot) { s.Flags.ATRCount++ }},
		} {
			edited, err := checkpoint.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(edited)
			err = replayProgress(b, edited)
			if err == nil || !strings.Contains(err.Error(), "run's "+tc.field+" is") {
				t.Errorf("%s changed: replayProgress returned %v", tc.field, err)
			}
		}
	})
}
