package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// refEnt is one pending event of the reference queue: its dispatch key and
// its creation-order identity in the script.
type refEnt struct {
	at  Time
	seq uint64
	id  int
}

// refQueue is the ordering reference the scheduler is tested against: a
// container/heap binary heap over (at, seq) that shares nothing with the
// calendar queue. Cancellation is a mark in dead (indexed by id), skipped
// when popping.
type refQueue struct {
	ents []refEnt
	dead []bool
}

func (q *refQueue) Len() int      { return len(q.ents) }
func (q *refQueue) Swap(i, j int) { q.ents[i], q.ents[j] = q.ents[j], q.ents[i] }
func (q *refQueue) Push(x any)    { q.ents = append(q.ents, x.(refEnt)) }
func (q *refQueue) Less(i, j int) bool {
	a, b := q.ents[i], q.ents[j]
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}
func (q *refQueue) Pop() any {
	last := q.ents[len(q.ents)-1]
	q.ents = q.ents[:len(q.ents)-1]
	return last
}

// push adds a live entry; ids are handed out in creation order.
func (q *refQueue) push(e refEnt) {
	q.dead = append(q.dead, false)
	heap.Push(q, e)
}

// peekLive returns the minimal live entry without removing it, discarding
// cancelled entries in front of it.
func (q *refQueue) peekLive() (refEnt, bool) {
	for len(q.ents) > 0 && q.dead[q.ents[0].id] {
		heap.Pop(q)
	}
	if len(q.ents) == 0 {
		return refEnt{}, false
	}
	return q.ents[0], true
}

// runEquivScript drives a pseudo-random event workload — initial burst,
// events scheduling further events, same-timestamp bursts, and random
// cancellations — through a scheduler and, in lock-step, through the
// reference queue: every dispatch must be the reference's minimal live entry,
// key and identity, and dispatched keys must be strictly increasing over the
// whole run. Every random choice is drawn from one RNG consumed in dispatch
// order, so the first divergence fails on the spot.
//
// Events also reserve a key now and insert under it later, the way a link
// keeps only its first packet in flight in the calendar: a dispatched event
// reserves (at, seq) ahead of the clock and schedules a carrier before at, and
// the carrier inserts the reserved key when it fires (InsertKeyed), perhaps
// slices later, or never if it is cancelled.
//
// With slice zero the script is one Run. With a positive slice it is a series
// of RunUntil calls, each of which must stop with the clock on its deadline
// and the reference's minimum beyond it; between slices, while the budget
// lasts, the script reserves a key on the clock, schedules behind and on the
// clock, then inserts the reserved key, re-inserts events under explicit keys
// in reverse sequence order (InsertKeyed + RestoreClock) and cancels by
// sequence number (ReconcilePending) — the calls a snapshot restore makes. A
// sliced script must get to make them at least once.
func runEquivScript(t *testing.T, seed int64, spread int, slice Time) {
	t.Helper()
	s := NewScheduler()
	rng := NewRNG(seed)
	ref := &refQueue{}

	var refs []EventRef
	var last refEnt
	fired := 0
	// Script length varies with the seed, 2000 to 12500 events: the long
	// ones cross several width-retune checks, the short ones keep 300
	// scripts affordable.
	budget := 1500 << (seed % 4)

	// carried maps a carrier's id to the key it inserts when it fires.
	carried := map[int]refEnt{}
	var newEvent func(at Time)
	var insertKeyed func(key refEnt)
	fire := func(id int, seq uint64) Handler {
		return func(now Time) {
			got := refEnt{at: now, seq: seq, id: id}
			if want, _ := ref.peekLive(); want != got {
				t.Fatalf("dispatch %d: scheduler fired %+v, reference minimum is %+v", fired, got, want)
			}
			heap.Pop(ref)
			if fired > 0 && !(last.at < now || (last.at == now && last.seq < seq)) {
				t.Fatalf("dispatch %d: key %+v does not follow %+v", fired, got, last)
			}
			last = got
			fired++
			// Chain: most events schedule successors, stressing inserts
			// into an actively draining queue.
			for k := rng.Intn(3); k > 0 && budget > 0; k-- {
				budget--
				newEvent(now + Time(rng.Intn(spread)))
			}
			// Same-timestamp burst: FIFO tie-breaking must hold.
			if rng.Intn(4) == 0 && budget > 0 {
				budget--
				newEvent(now)
			}
			// Reserve a key ahead of the clock and a carrier before it.
			if rng.Intn(5) == 0 && budget > 0 {
				budget -= 2
				key := refEnt{seq: s.Reserve(), at: now + 1 + Time(rng.Intn(spread))}
				carried[len(refs)] = key
				newEvent(now + Time(rng.Intn(int(key.at-now))))
			}
			if key, ok := carried[id]; ok {
				insertKeyed(key)
			}
			// Random cancellation, including of already-fired refs
			// (which must be a no-op).
			if rng.Intn(3) == 0 {
				victim := rng.Intn(len(refs))
				refs[victim].Cancel()
				ref.dead[victim] = true
			}
		}
	}
	newEvent = func(at Time) {
		id, seq := len(refs), s.Seq()
		refs = append(refs, s.ScheduleAt(at, fire(id, seq)))
		// The scheduler's rule, restated: nothing is scheduled in the past.
		ref.push(refEnt{at: max(at, s.Now()), seq: seq, id: id})
	}
	insertKeyed = func(key refEnt) {
		id := len(refs)
		refs = append(refs, s.InsertKeyed(key.at, key.seq, fire(id, key.seq), nil))
		ref.push(refEnt{at: key.at, seq: key.seq, id: id})
	}
	for i := 0; i < 500; i++ {
		newEvent(Time(rng.Intn(spread)))
	}
	// The regime a script starts in (see TestBackendEquivalence): the
	// calendar has grown its bucket count without a gap to measure, so a
	// burst narrower than the initial window shares one chain, and a wider
	// one spreads over many.
	occupied := 0
	for _, head := range s.cal.buckets {
		if head != calNil {
			occupied++
		}
	}
	if s.cal.width != calInitialWidth {
		t.Fatalf("the opening burst over %d ns retuned the width to %d, want the initial %d", spread, s.cal.width, calInitialWidth)
	}
	if narrow := Time(spread) < calInitialWidth; narrow && occupied != 1 || !narrow && occupied < 2 {
		t.Fatalf("the opening burst over %d ns occupies %d buckets of width %d, want 1 if narrower than a bucket and more if wider",
			spread, occupied, s.cal.width)
	}

	if slice == 0 {
		if err := s.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	restores := 0
	for deadline := slice; slice > 0 && s.Len() > 0; deadline += slice {
		if err := s.RunUntil(deadline); err != nil {
			t.Fatalf("run until %v: %v", deadline, err)
		}
		if s.Now() != deadline {
			t.Fatalf("RunUntil(%v) left the clock at %v", deadline, s.Now())
		}
		if e, ok := ref.peekLive(); ok && e.at <= deadline {
			t.Fatalf("RunUntil(%v) returned with %+v due in the reference", deadline, e)
		}
		if budget <= 0 {
			continue
		}
		restores++
		budget -= 5
		// A key reserved on the clock and inserted after two events that
		// were scheduled behind it: it fires first of the three.
		onClock := refEnt{at: deadline, seq: s.Reserve()}
		newEvent(deadline - Time(rng.Intn(spread))) // clamped onto the clock
		newEvent(deadline)
		insertKeyed(onClock)
		// Two restored events share an instant and go in higher sequence
		// number first: the key decides, not the insertion order.
		base := s.Seq()
		shared := deadline + Time(rng.Intn(spread))
		for k := uint64(2); k > 0; k-- {
			insertKeyed(refEnt{at: shared, seq: base + k - 1})
		}
		s.RestoreClock(deadline, base+2, s.Processed())
		if rng.Intn(4) == 0 {
			bound := base - uint64(rng.Intn(32))
			keep := func(seq uint64) bool { return seq%3 != 0 }
			s.ReconcilePending(bound, func(_ Time, seq uint64) bool { return keep(seq) })
			for _, e := range ref.ents {
				if e.seq < bound && !keep(e.seq) {
					ref.dead[e.id] = true
				}
			}
		}
	}
	if e, ok := ref.peekLive(); ok {
		t.Fatalf("scheduler drained after %d dispatches with %+v still live in the reference", fired, e)
	}
	if slice > 0 && restores == 0 {
		t.Fatalf("%d ns slices of a %d ns spread ran the script's whole budget in the first: no restore calls between slices", int64(slice), spread)
	}
	if s.Processed() != uint64(fired) {
		t.Fatalf("Processed() = %d, script saw %d dispatches", s.Processed(), fired)
	}
}

// TestBackendEquivalence is the scheduler-level property test: seeded random
// event sequences (inserts, cancellations, same-timestamp bursts, dynamic
// rescheduling, sliced dispatch, restored and reconciled events) must leave
// the calendar queue in the reference queue's order.
//
// The first three spreads (50 ns, 5 µs, 200 µs) are narrower than the
// calendar's initial window (calInitialWidth, 2^19 ns ≈ 524 µs), and the
// opening burst lands in a single chain (runEquivScript asserts it). The
// scripts then keep several hundred events within a window or two: counted on
// an instrumented copy, an insert walks 340–375 chain steps on every spread (a
// real run walks under 2.5), a pop crosses 0.01 (dense) to 0.26 windows with
// nothing due, and a spread's 50 scripts of one slice mode see 0–5
// direct-search jumps and 0–19 width retunes between them. These are the
// long-chain tests. The last two spreads, 100 and 10 000 initial windows
// (52 ms, 5.2 s), are the sparse calendar: the opening burst spreads over many
// buckets (asserted too), an insert walks 3.6 and 0.7 steps, and the second
// crosses 2.6 empty windows a pop.
//
// A sliced script runs in slices of a quarter of its spread, and makes the
// restore calls between slices at least twice (five times on average). At
// four spreads a slice, the first slice dispatched the whole budget, and
// none of the 150 sliced scripts made them. Each script owns its scheduler,
// so the subtests run in parallel.
func TestBackendEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		for _, spread := range []int{50, 5000, 200_000, 100 * int(calInitialWidth), 10_000 * int(calInitialWidth)} {
			t.Run(fmt.Sprintf("seed%d_spread%d", seed, spread), func(t *testing.T) {
				t.Parallel()
				runEquivScript(t, seed, spread, 0)
				runEquivScript(t, seed, spread, Time(spread/4))
			})
		}
	}
}

// TestScanRewindAfterRunUntil pins the calendar queue's re-anchoring path:
// peeking at a far-future event advances the window scan; an event scheduled
// afterwards at an earlier time must still fire first.
func TestScanRewindAfterRunUntil(t *testing.T) {
	t.Run("calendar", func(t *testing.T) {
		s := NewScheduler()
		var fired []Time
		record := func(now Time) { fired = append(fired, now) }
		s.ScheduleAt(10*Second, record)
		if err := s.RunUntil(1 * Second); err != nil {
			t.Fatalf("run until: %v", err)
		}
		if len(fired) != 0 || s.Now() != 1*Second {
			t.Fatalf("after RunUntil: fired %v, now %v", fired, s.Now())
		}
		s.ScheduleAt(1500*Millisecond, record)
		if err := s.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		want := []Time{1500 * Millisecond, 10 * Second}
		if len(fired) != 2 || fired[0] != want[0] || fired[1] != want[1] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	})
}

// TestResetRecyclesScheduler verifies Reset discards pending events,
// invalidates outstanding refs, restarts the clock, and leaves the scheduler
// fully usable.
func TestResetRecyclesScheduler(t *testing.T) {
	t.Run("calendar", func(t *testing.T) {
		s := NewScheduler()
		stale := false
		ref := s.ScheduleAt(5, func(Time) { stale = true })
		s.ScheduleAt(1, func(Time) {})
		if err := s.RunUntil(2); err != nil {
			t.Fatalf("run until: %v", err)
		}

		s.Reset()
		if s.Now() != 0 || s.Len() != 0 || s.Processed() != 0 {
			t.Fatalf("after reset: now %v len %d processed %d", s.Now(), s.Len(), s.Processed())
		}
		if ref.Pending() {
			t.Fatal("ref to discarded event still pending")
		}
		ref.Cancel() // must be a detected-stale no-op

		fired := false
		s.ScheduleAt(3, func(Time) { fired = true })
		if err := s.Run(); err != nil {
			t.Fatalf("run after reset: %v", err)
		}
		if stale {
			t.Fatal("event discarded by Reset fired anyway")
		}
		if !fired || s.Now() != 3 {
			t.Fatalf("post-reset event: fired %v now %v", fired, s.Now())
		}
	})
}
