package sim

import (
	"math"
	"slices"
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

	s.ReconcilePending(bound, func(_ Time, seq uint64) bool { return seq != 1 })
	s.RestoreClock(5, bound+10, 7)

	if got := s.Now(); got != 5 {
		t.Fatalf("restored clock at %v, want 5", got)
	}
	if got := s.Processed(); got != 7 {
		t.Fatalf("restored processed %d, want 7", got)
	}

	// A runtime event restored at the same timestamp as a kept build event:
	// the build event carries the lower sequence number and must fire first.
	s.InsertKeyed(30, bound+1, mk(4), nil)

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

// drawShape forks n streams off root, every third of them with a fork of its
// own, draws from each stream and from root a number that depends on its
// position, and returns every value drawn followed by every stream's seed
// and draw count: a run's worth of stream use, in creation order.
func drawShape(root *RNG, n int) []uint64 {
	streams := []*RNG{root}
	for i := 0; i < n; i++ {
		f := root.Fork()
		streams = append(streams, f)
		if i%3 == 0 {
			streams = append(streams, f.Fork())
		}
	}
	var out []uint64
	for i, g := range streams {
		for k := 0; k <= i%5; k++ {
			out = append(out, math.Float64bits(g.Float64()), uint64(g.Intn(1000)), g.Uint64(),
				math.Float64bits(g.Exponential(2)))
		}
	}
	for i := 0; i < root.StreamCount(); i++ {
		seed, draws := root.StreamState(i)
		out = append(out, uint64(seed), draws)
	}
	return out
}

// TestResetRootReseedsKeptStreams pins the steady state of a recycled root:
// after Reset, its forks reuse the streams an earlier run forked, in creation
// order, and draw exactly what NewRNG(seed)'s forks draw, with the same seeds
// and draw counts, whether the earlier run forked more streams or fewer. A
// reuse that skipped the reseed would continue each stream where the earlier
// run left it, and fails here. Within the earlier run's count, a reset run
// forks without allocating.
func TestResetRootReseedsKeptStreams(t *testing.T) {
	for _, tc := range []struct {
		name          string
		before, after int
	}{
		{"after a run that forked more", 12, 7},
		{"after a run that forked fewer", 4, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := NewRNG(5)
			drawShape(root, tc.before)
			root.Reset(99)
			got := drawShape(root, tc.after)
			want := drawShape(NewRNG(99), tc.after)
			if !slices.Equal(got, want) {
				i := 0
				for i < min(len(got), len(want)) && got[i] == want[i] {
					i++
				}
				t.Fatalf("a reset root's streams gave %d values and states, NewRNG's %d: the first difference is at %d", len(got), len(want), i)
			}
		})
	}
	root := NewRNG(1)
	for i := 0; i < 8; i++ {
		root.Fork()
	}
	if allocs := testing.AllocsPerRun(20, func() {
		root.Reset(2)
		for i := 0; i < 8; i++ {
			root.Fork()
		}
	}); allocs != 0 {
		t.Fatalf("a reset root's forks allocated %.1f times per run, want reuse", allocs)
	}
}
