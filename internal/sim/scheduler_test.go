package sim

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeConversions(t *testing.T) {
	tests := []struct {
		name string
		give time.Duration
		want Time
	}{
		{name: "zero", give: 0, want: 0},
		{name: "one millisecond", give: time.Millisecond, want: Millisecond},
		{name: "one second", give: time.Second, want: Second},
		{name: "composite", give: 2*time.Second + 500*time.Millisecond, want: 2*Second + 500*Millisecond},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := FromDuration(tt.give)
			if got != tt.want {
				t.Fatalf("FromDuration(%v) = %v, want %v", tt.give, got, tt.want)
			}
			if got.Duration() != tt.give {
				t.Fatalf("round trip mismatch: %v != %v", got.Duration(), tt.give)
			}
		})
	}
}

func TestTimeSeconds(t *testing.T) {
	if got := (2*Second + 500*Millisecond).Seconds(); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("Seconds() = %v, want 2.5", got)
	}
}

func TestTimeComparisons(t *testing.T) {
	a, b := Time(10), Time(20)
	if !a.Before(b) || b.Before(a) {
		t.Fatal("Before comparison wrong")
	}
	if !b.After(a) || a.After(b) {
		t.Fatal("After comparison wrong")
	}
	if a.Add(10) != b {
		t.Fatal("Add wrong")
	}
	if b.Sub(a) != 10 {
		t.Fatal("Sub wrong")
	}
}

func TestRate(t *testing.T) {
	tests := []struct {
		name       string
		count      float64
		start, end Time
		want       float64
	}{
		{name: "simple", count: 100, start: 0, end: Second, want: 100},
		{name: "half second", count: 50, start: 0, end: 500 * Millisecond, want: 100},
		{name: "empty window", count: 50, start: Second, end: Second, want: 0},
		{name: "inverted window", count: 50, start: 2 * Second, end: Second, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Rate(tt.count, tt.start, tt.end); math.Abs(got-tt.want) > 1e-9 {
				t.Fatalf("Rate = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSchedulerOrdersEventsByTime(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	s.ScheduleAt(30, func(now Time) { fired = append(fired, now) })
	s.ScheduleAt(10, func(now Time) { fired = append(fired, now) })
	s.ScheduleAt(20, func(now Time) { fired = append(fired, now) })

	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Time{10, 20, 30}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("event %d fired at %v, want %v", i, fired[i], want[i])
		}
	}
}

func TestSchedulerFIFOWithinSameInstant(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.ScheduleAt(5, func(Time) { order = append(order, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-instant events fired out of order: %v", order)
	}
}

func TestSchedulerScheduleAfter(t *testing.T) {
	s := NewScheduler()
	var at Time
	s.ScheduleAt(100, func(now Time) {
		s.ScheduleAfter(50, func(inner Time) { at = inner })
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 150 {
		t.Fatalf("nested event fired at %v, want 150", at)
	}
}

func TestSchedulerPastEventsClampToNow(t *testing.T) {
	s := NewScheduler()
	var at Time
	s.ScheduleAt(100, func(now Time) {
		s.ScheduleAt(10, func(inner Time) { at = inner })
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 100 {
		t.Fatalf("past-dated event fired at %v, want clamp to 100", at)
	}
	if s.Now() != 100 {
		t.Fatalf("clock = %v, want 100", s.Now())
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	ref := s.ScheduleAt(10, func(Time) { fired = true })
	if !ref.Pending() {
		t.Fatal("event should be pending before run")
	}
	ref.Cancel()
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	if ref.Pending() {
		t.Fatal("cancelled event still reports pending")
	}
}

func TestSchedulerCancelZeroRef(t *testing.T) {
	var ref EventRef
	ref.Cancel() // must not panic
	if ref.Pending() {
		t.Fatal("zero ref reports pending")
	}
}

func TestSchedulerStop(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 0; i < 10; i++ {
		s.ScheduleAt(Time(i), func(Time) {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	err := s.Run()
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("Run returned %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Fatalf("processed %d events before stop, want 3", count)
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		s.ScheduleAt(at, func(now Time) { fired = append(fired, now) })
	}
	if err := s.RunUntil(25); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if s.Now() != 25 {
		t.Fatalf("clock = %v, want 25", s.Now())
	}
	// Resume and drain the rest.
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
	if s.Processed() != 4 {
		t.Fatalf("Processed() = %d, want 4", s.Processed())
	}
}

// TestSchedulerRunUntilCancelledEventDoesNotOvershoot pins a fixed bug: a
// cancelled event sitting before the deadline must not be mistaken for
// runnable work. RunUntil used to see its timestamp, call step, and step —
// which skips cancelled slots but always fires one live event — would then
// execute an event PAST the deadline, overshooting the clock.
func TestSchedulerRunUntilCancelledEventDoesNotOvershoot(t *testing.T) {
	s := NewScheduler()
	fired := false
	ref := s.ScheduleAt(20, func(Time) { t.Error("cancelled event fired") })
	s.ScheduleAt(40, func(Time) { fired = true })
	ref.Cancel()

	if err := s.RunUntil(30); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if fired {
		t.Fatal("event at t=40 fired during RunUntil(30)")
	}
	if s.Now() != 30 {
		t.Fatalf("clock = %v, want 30", s.Now())
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Fatal("event at t=40 lost")
	}
}

func TestSchedulerRunUntilAdvancesIdleClock(t *testing.T) {
	s := NewScheduler()
	if err := s.RunUntil(5 * Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if s.Now() != 5*Second {
		t.Fatalf("clock = %v, want 5s", s.Now())
	}
}

func TestSchedulerNilHandlerIgnored(t *testing.T) {
	s := NewScheduler()
	ref := s.ScheduleAt(10, nil)
	if ref.Pending() {
		t.Fatal("nil handler should not be queued")
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSchedulerNegativeDelayClamps(t *testing.T) {
	s := NewScheduler()
	var at Time = -1
	s.ScheduleAfter(-5*Second, func(now Time) { at = now })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 0 {
		t.Fatalf("event fired at %v, want 0", at)
	}
}

// TestSchedulerMonotonicClockProperty checks that no matter what mixture of
// event times is scheduled, events always fire in non-decreasing time order.
func TestSchedulerMonotonicClockProperty(t *testing.T) {
	prop := func(offsets []uint16) bool {
		s := NewScheduler()
		var fired []Time
		for _, off := range offsets {
			at := Time(off)
			s.ScheduleAt(at, func(now Time) { fired = append(fired, now) })
		}
		if err := s.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(offsets)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced diverging streams")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGBoolEdges(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 100; i++ {
		if g.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !g.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestRNGBoolFrequency(t *testing.T) {
	g := NewRNG(7)
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			hits++
		}
	}
	freq := float64(hits) / n
	if math.Abs(freq-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v, want ~0.3", freq)
	}
}

func TestRNGIntnNonPositive(t *testing.T) {
	g := NewRNG(1)
	if g.Intn(0) != 0 || g.Intn(-3) != 0 {
		t.Fatal("Intn of non-positive bound should be 0")
	}
}

func TestRNGExponentialMean(t *testing.T) {
	g := NewRNG(11)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g.Exponential(2.0)
	}
	mean := sum / n
	if math.Abs(mean-2.0) > 0.05 {
		t.Fatalf("exponential sample mean = %v, want ~2.0", mean)
	}
	if g.Exponential(-1) != 0 {
		t.Fatal("Exponential with non-positive mean should be 0")
	}
}

func TestRNGJitterBounds(t *testing.T) {
	g := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := g.Jitter(100, 0.1)
		if v < 90 || v > 110 {
			t.Fatalf("Jitter sample %v outside [90,110]", v)
		}
	}
	if g.Jitter(100, 0) != 100 {
		t.Fatal("Jitter with zero fraction should return base")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(123)
	child := parent.Fork()
	// The child must be usable and deterministic given the parent's seed.
	p1, p2 := NewRNG(123), NewRNG(123)
	c1, c2 := p1.Fork(), p2.Fork()
	for i := 0; i < 100; i++ {
		if c1.Float64() != c2.Float64() {
			t.Fatal("forked streams from identical parents diverged")
		}
	}
	_ = child.Float64()
}

// TestFiredFollowsDispatchOrder pins the predicate components settle lazy
// state with: an event keyed (at, seq) has fired exactly when the dispatch
// order says so, inside the loop, between RunUntil calls, after a drain,
// after Stop and after RestoreClock.
func TestFiredFollowsDispatchOrder(t *testing.T) {
	t.Run("calendar", func(t *testing.T) {
		s := NewScheduler()
		check := func(where string, at Time, seq uint64, want bool) {
			t.Helper()
			if got := s.Fired(at, seq); got != want {
				t.Fatalf("%s: Fired(%v, %d) = %v, want %v", where, at, seq, got, want)
			}
		}
		check("fresh", 0, 0, false)

		seqA := s.Seq()
		s.ScheduleAt(10, func(Time) {})
		seqB := s.Seq()
		var seqInner uint64
		s.ScheduleAt(10, func(Time) {
			check("in B", 9, 1<<40, true)
			check("in B", 10, seqA, true)
			check("in B", 10, seqB, true) // the event being dispatched
			check("in B", 10, seqB+1, false)
			check("in B", 11, 0, false)
			seqInner = s.Seq()
			s.ScheduleAt(10, func(Time) { check("in inner", 10, seqInner, true) })
		})
		seqC := s.Seq()
		s.ScheduleAt(10, func(Time) { check("in C", 10, seqInner, false) })

		if err := s.RunUntil(10); err != nil {
			t.Fatal(err)
		}
		// Everything up to the deadline has fired; what is scheduled now
		// for the same instant has not, until the loop runs again.
		check("after RunUntil", 10, seqC, true)
		check("after RunUntil", 10, seqInner, true)
		seqD := s.Seq()
		check("after RunUntil", 10, seqD, false)
		s.ScheduleAt(10, func(Time) { s.Stop() })
		seqE := s.Seq()
		s.ScheduleAt(10, func(Time) {})
		check("D pending", 10, seqD, false)
		if err := s.RunUntil(10); err != ErrStopped {
			t.Fatalf("RunUntil = %v, want ErrStopped", err)
		}
		// A stopped run leaves the bound on the event that stopped it.
		check("stopped", 10, seqD, true)
		check("stopped", 10, seqE, false)
		seqF := s.Seq()
		s.ScheduleAt(10, func(Time) { t.Error("cancelled event fired") }).Cancel()
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		// A drain passes every allocated number, dispatched or cancelled.
		check("drained", 10, seqE, true)
		check("drained", 10, seqF, true)
		check("drained", 10, s.Seq(), false)

		// An idle RunUntil to the current instant moves nothing back.
		if err := s.RunUntil(5); err != nil {
			t.Fatal(err)
		}
		check("past deadline", 10, seqE, true)

		s.RestoreClock(20, 100, 0)
		check("restored", 20, 99, true)
		check("restored", 20, 100, false)
		check("restored", 19, 1<<40, true)

		s.Reset()
		check("reset", 0, 0, false)
	})
}
