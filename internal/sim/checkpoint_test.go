package sim

import (
	"testing"
)

// TestRNGDrawDoesNotAllocate pins that the draw-counting wrapper behind the
// checkpoint layer adds no allocation to the RNG hot path: every simulation
// draw funnels through countingSource.Uint64, which must stay free.
func TestRNGDrawDoesNotAllocate(t *testing.T) {
	rng := NewRNG(7)
	fork := rng.Fork()
	allocs := testing.AllocsPerRun(200, func() {
		_ = rng.Float64()
		_ = rng.Intn(17)
		_ = rng.Uint64()
		_ = fork.Exponential(2.0)
		_ = fork.Bool(0.5)
	})
	if allocs != 0 {
		t.Fatalf("rng draws allocated %.1f times per op with the counting wrapper", allocs)
	}
}

// TestCheckpointSurfaceDoesNotDisturbHotPath pins that merely having the
// checkpoint read API available changes nothing: walking pending events and
// reading the clock allocates nothing and leaves dispatch untouched.
func TestCheckpointSurfaceDoesNotDisturbHotPath(t *testing.T) {
	s := NewScheduler()
	h := &schedulingHandler{s: s, left: 64}
	s.ScheduleHandlerAt(1, h)
	if err := s.Run(); err != nil {
		t.Fatalf("warmup run: %v", err)
	}
	s.ScheduleHandlerAt(s.Now()+1, &schedulingHandler{s: s, left: 1})
	allocs := testing.AllocsPerRun(100, func() {
		n := 0
		s.ForEachPending(func(PendingEvent) { n++ })
		_ = s.Seq()
		_ = s.Processed()
	})
	if allocs != 0 {
		t.Fatalf("checkpoint read surface allocated %.1f times per walk", allocs)
	}
}

// TestReconcileAndRestoreRoundTrip exercises the checkpoint scheduler
// surface end to end at unit scale: schedule build-time events, drop the one
// a snapshot says was already consumed, land the clock, re-insert a runtime
// event with an explicit sequence number, and verify (time, seq) dispatch
// order across the mix.
func TestReconcileAndRestoreRoundTrip(t *testing.T) {
	s := NewScheduler()
	var fired []int
	mk := func(id int) Handler { return func(Time) { fired = append(fired, id) } }

	// Build-time events receive seqs 0, 1, 2 in schedule order.
	s.ScheduleAt(10, mk(1)) // kept
	s.ScheduleAt(20, mk(2)) // consumed before the snapshot: cancelled below
	s.ScheduleAt(30, mk(3)) // kept
	bound := s.Seq()

	s.ReconcilePending(bound, func(seq uint64) bool { return seq != 1 })
	s.RestoreClock(5, bound+10, 7)

	if got := s.Now(); got != 5 {
		t.Fatalf("restored clock at %v, want 5", got)
	}
	if got := s.Processed(); got != 7 {
		t.Fatalf("restored processed %d, want 7", got)
	}

	// A runtime event restored at the same timestamp as a kept build event:
	// the build event carries the lower sequence number and must fire first.
	s.InsertKeyed(30, bound+1, mk(4), nil, nil, nil)

	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 3 || fired[2] != 4 {
		t.Fatalf("dispatched %v, want [1 3 4] (cancelled event skipped, tie at t=30 broken by seq)", fired)
	}
	if s.Seq() <= bound {
		t.Fatalf("sequence counter went backwards: %d <= %d", s.Seq(), bound)
	}
	if got := s.Processed(); got != 7+3 {
		t.Fatalf("processed %d after run, want %d", got, 7+3)
	}
}

// TestFastForwardStreamValidation pins the RNG restore error paths: a seed
// mismatch, a draw-count regression and an out-of-range stream index must all
// fail loudly instead of silently desynchronizing the resumed run.
func TestFastForwardStreamValidation(t *testing.T) {
	rng := NewRNG(42)
	fork := rng.Fork()
	for i := 0; i < 5; i++ {
		_ = fork.Uint64()
	}
	seed, draws := rng.StreamState(1)
	if draws != 5 {
		t.Fatalf("fork recorded %d draws, want 5", draws)
	}
	if err := rng.FastForwardStream(1, seed+1, draws); err == nil {
		t.Error("seed mismatch accepted")
	}
	if err := rng.FastForwardStream(1, seed, draws-1); err == nil {
		t.Error("draw-count regression accepted")
	}
	if err := rng.FastForwardStream(rng.StreamCount(), seed, draws); err == nil {
		t.Error("out-of-range stream index accepted")
	}
	if err := rng.FastForwardStream(1, seed, draws+3); err != nil {
		t.Fatalf("legitimate fast-forward rejected: %v", err)
	}
	if _, got := rng.StreamState(1); got != draws+3 {
		t.Fatalf("fast-forward landed on %d draws, want %d", got, draws+3)
	}
}
