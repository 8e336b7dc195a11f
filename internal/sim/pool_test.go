package sim

import (
	"testing"
	"unsafe"
)

// TestStaleRefCannotCancelRecycledSlot guards the generation counter: after
// an event fires, its arena slot is recycled; a ref to the fired event must
// not be able to cancel the slot's next occupant.
func TestStaleRefCannotCancelRecycledSlot(t *testing.T) {
	s := NewScheduler()

	fired1 := false
	ref1 := s.ScheduleAt(1, func(Time) { fired1 = true })
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !fired1 {
		t.Fatal("first event did not fire")
	}
	if ref1.Pending() {
		t.Fatal("ref to fired event still pending")
	}

	fired2 := false
	ref2 := s.ScheduleAt(2, func(Time) { fired2 = true })
	if ref2.idx != ref1.idx {
		t.Fatalf("expected slot reuse: first %d, second %d", ref1.idx, ref2.idx)
	}
	// The stale ref addresses the same slot but an older generation.
	ref1.Cancel()
	if !ref2.Pending() {
		t.Fatal("stale Cancel cancelled the slot's new occupant")
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !fired2 {
		t.Fatal("second event did not fire")
	}
}

// TestCancelledSlotRecycled verifies a cancelled event's slot returns to the
// free list once the queue discards it, and that cancelling twice is safe.
func TestCancelledSlotRecycled(t *testing.T) {
	s := NewScheduler()
	fired := false
	ref := s.ScheduleAt(5, func(Time) { fired = true })
	ref.Cancel()
	ref.Cancel() // idempotent
	if ref.Pending() {
		t.Fatal("cancelled event still pending")
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	if s.freeHead < 0 {
		t.Fatal("cancelled event's slot was not recycled")
	}
}

// schedulingHandler reschedules itself a fixed number of times, modelling a
// periodic timer driven through the allocation-free EventHandler interface.
type schedulingHandler struct {
	s     *Scheduler
	left  int
	fired int
}

func (h *schedulingHandler) OnEvent(now Time) {
	h.fired++
	if h.left--; h.left > 0 {
		h.s.ScheduleHandlerAt(now+1, h)
	}
}

// TestScheduleHandlerSteadyStateDoesNotAllocate pins the zero-allocation
// claim: once the arena and queue storage are warm (the
// calendar queue's first width retune included), an interface-based
// schedule/fire cycle performs no heap allocation.
func TestScheduleHandlerSteadyStateDoesNotAllocate(t *testing.T) {
	t.Run("calendar", func(t *testing.T) {
		s := NewScheduler()
		// Warm up the arena and queue storage; running past
		// calRetunePops settles the calendar width for the uniform
		// spacing the measured loop uses.
		warm := &schedulingHandler{s: s, left: calRetunePops + 64}
		s.ScheduleHandlerAt(1, warm)
		if err := s.Run(); err != nil {
			t.Fatalf("warmup run: %v", err)
		}

		h := &schedulingHandler{s: s, left: 1}
		allocs := testing.AllocsPerRun(100, func() {
			h.left = 1
			s.ScheduleHandlerAt(s.Now()+1, h)
			if err := s.Run(); err != nil {
				t.Fatalf("run: %v", err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state schedule/fire allocated %.1f times per op", allocs)
		}
	})
}

// TestEventSlotSize pins the arena slot: an event holds its key, one
// ArgHandler and its payload, and the free-list fields. A second dispatch
// target would push it past a cache line.
func TestEventSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got > 64 {
		t.Fatalf("sim.event is %d bytes, want at most 64", got)
	}
}

// TestOrderingStress verifies the queue yields events in (time, FIFO) order
// under a large interleaved workload.
func TestOrderingStress(t *testing.T) {
	t.Run("calendar", func(t *testing.T) {
		s := NewScheduler()
		rng := NewRNG(42)
		const n = 5000

		type stamp struct {
			at  Time
			seq int
		}
		var fired []stamp
		for i := 0; i < n; i++ {
			at := Time(rng.Intn(100))
			seq := i
			s.ScheduleAt(at, func(now Time) {
				fired = append(fired, stamp{at: now, seq: seq})
			})
		}
		if err := s.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		if len(fired) != n {
			t.Fatalf("fired %d of %d events", len(fired), n)
		}
		for i := 1; i < len(fired); i++ {
			prev, cur := fired[i-1], fired[i]
			if cur.at < prev.at {
				t.Fatalf("event %d fired at %v after %v", i, cur.at, prev.at)
			}
			if cur.at == prev.at && cur.seq < prev.seq {
				t.Fatalf("FIFO violated at %v: seq %d before %d", cur.at, prev.seq, cur.seq)
			}
		}
	})
}

// TestArgHandlerPayload verifies ScheduleArgAt delivers the payload pointer
// unchanged.
type payloadRecorder struct{ got []any }

func (r *payloadRecorder) OnEventArg(_ Time, arg any) { r.got = append(r.got, arg) }

func TestArgHandlerPayload(t *testing.T) {
	s := NewScheduler()
	r := &payloadRecorder{}
	a, b := new(int), new(int)
	s.ScheduleArgAt(2, r, b)
	s.ScheduleArgAt(1, r, a)
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(r.got) != 2 || r.got[0] != a || r.got[1] != b {
		t.Fatalf("payloads delivered wrong: %v", r.got)
	}
}
