package sim

import (
	"errors"
)

// ErrStopped is returned by Run when the scheduler is halted via Stop before
// the event queue drains.
var ErrStopped = errors.New("sim: scheduler stopped")

// Handler is the callback invoked when an event fires. The scheduler passes
// the current virtual time so handlers never need to capture the scheduler
// just to read the clock.
type Handler func(now Time)

// OnEventArg implements ArgHandler, so a closure is queued as itself: a func
// value is one pointer, and storing it in the event's handler slot does not
// allocate.
func (fn Handler) OnEventArg(now Time, _ any) { fn(now) }

// ArgHandler is what every event holds: OnEventArg is called with the time
// it fires at and the payload it was scheduled with (for example a link
// delivering a specific packet). A component implements it once and
// schedules itself; storing a pointer-shaped payload does not allocate.
type ArgHandler interface {
	OnEventArg(now Time, arg any)
}

// EventHandler is the payload-free interface of callers outside the engine,
// scheduled through ScheduleHandlerAt. The scheduler queues it as the payload
// of a zero-size dispatcher, so it too is an ArgHandler event.
type EventHandler interface {
	OnEvent(now Time)
}

// handlerDispatch is the ArgHandler every ScheduleHandlerAt event holds; its
// payload is the EventHandler to call. It has no fields, so storing it in an
// interface does not allocate, and neither does storing an EventHandler as
// any.
type handlerDispatch struct{}

func (handlerDispatch) OnEventArg(now Time, arg any) { arg.(EventHandler).OnEvent(now) }

// event slot states.
const (
	eventFree uint8 = iota
	eventQueued
	eventStopped
)

// event is one slot of the scheduler's pooled event arena. Slots are recycled
// through a free list; gen increments on every release so that stale
// EventRefs can never cancel or observe a slot's next occupant.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among events scheduled for the same instant

	// The event fires as ah.OnEventArg(now, arg).
	ah  ArgHandler
	arg any

	gen      uint32
	state    uint8
	nextFree int32 // next slot in the free list when state == eventFree
}

// EventRef identifies a scheduled event so it can be cancelled. The zero
// value is inert: cancelling it is a no-op. A ref to an event that already
// fired (or whose slot has been recycled) is detected via the slot's
// generation counter and ignored.
type EventRef struct {
	s   *Scheduler
	idx int32
	gen uint32
}

// Cancel prevents the referenced event from firing. Cancelling an event that
// already fired, a recycled slot, or a zero EventRef is safe and does nothing.
func (r EventRef) Cancel() {
	if r.s == nil {
		return
	}
	ev := &r.s.events[r.idx]
	if ev.gen != r.gen || ev.state != eventQueued {
		return
	}
	ev.state = eventStopped
}

// Pending reports whether the referenced event is still queued and will fire.
func (r EventRef) Pending() bool {
	if r.s == nil {
		return false
	}
	ev := &r.s.events[r.idx]
	return ev.gen == r.gen && ev.state == eventQueued
}

// timedEnt is one priority-queue entry. The sort key (at, seq) is stored
// inline so comparisons never chase into the event arena.
type timedEnt struct {
	at  Time
	seq uint64
	idx int32
}

// entLess orders queue entries by (time, sequence number).
func entLess(a, b timedEnt) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Scheduler is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; the simulation model is single-threaded by design,
// which keeps runs deterministic.
//
// Events live in a pooled arena and are recycled through a free list, so a
// steady-state simulation schedules and fires events without allocating.
type Scheduler struct {
	now Time

	events   []event
	freeHead int32

	// cal is the pending-event queue; see calendarQueue.
	cal calendarQueue

	seq     uint64
	stopped bool

	// horizon is the sequence-number bound of "has fired" at the current
	// instant: an event keyed (now, seq) has been dispatched iff seq <
	// horizon. See Fired.
	horizon uint64

	// processed counts events that have fired, for instrumentation.
	processed uint64
}

// NewScheduler returns a scheduler with its clock at zero and an empty queue.
func NewScheduler() *Scheduler {
	return &Scheduler{freeHead: -1}
}

// Reset returns the scheduler to its initial state — clock at zero, empty
// queue, sequence counter restarted — while keeping the event arena and
// queue storage (and the calendar queue's tuned geometry) for reuse. Any
// still-pending events are discarded; every outstanding EventRef is
// invalidated via the usual generation bump. Callers that recycle
// schedulers across simulation runs use this to amortise the arena away.
func (s *Scheduler) Reset() {
	s.freeHead = -1
	for i := len(s.events) - 1; i >= 0; i-- {
		ev := &s.events[i]
		if ev.state != eventFree {
			ev.gen++
		}
		ev.state = eventFree
		ev.ah, ev.arg = nil, nil
		ev.nextFree = s.freeHead
		s.freeHead = int32(i)
	}
	s.cal.reset()
	s.now = 0
	s.seq = 0
	s.horizon = 0
	s.stopped = false
	s.processed = 0
}

// Now reports the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Len reports the number of pending events (including cancelled ones that
// have not yet been discarded).
func (s *Scheduler) Len() int { return s.cal.count }

// peekMin returns the minimal live pending entry without removing it,
// discarding any cancelled entries in front of it. A cancelled timestamp
// must not be reported as pending: RunUntil bounds its deadline check on
// this peek, and treating a cancelled slot as runnable work would let it
// fire the next live event even when that event lies past the deadline.
func (s *Scheduler) peekMin() (timedEnt, bool) {
	for {
		top, ok := s.cal.peek()
		if !ok {
			return timedEnt{}, false
		}
		if s.events[top.idx].state == eventQueued {
			return top, true
		}
		s.cal.remove(top)
		s.release(top.idx)
	}
}

// Processed reports how many events have fired so far.
func (s *Scheduler) Processed() uint64 { return s.processed }

// alloc pops a slot off the free list, growing the arena when it is empty.
func (s *Scheduler) alloc() int32 {
	if s.freeHead >= 0 {
		idx := s.freeHead
		s.freeHead = s.events[idx].nextFree
		return idx
	}
	s.events = append(s.events, event{})
	return int32(len(s.events) - 1)
}

// release recycles a slot. The generation bump invalidates every outstanding
// EventRef to the old occupant; clearing the handler and payload drops their
// references so the arena does not pin garbage.
func (s *Scheduler) release(idx int32) {
	ev := &s.events[idx]
	ev.gen++
	ev.state = eventFree
	ev.ah, ev.arg = nil, nil
	ev.nextFree = s.freeHead
	s.freeHead = idx
}

// schedule inserts one event under the next sequence number, never before
// the clock.
func (s *Scheduler) schedule(at Time, h ArgHandler, arg any) EventRef {
	return s.InsertKeyed(max(at, s.now), s.Reserve(), h, arg)
}

// Reserve takes the next sequence number without scheduling anything: the
// caller inserts its event under it later with InsertKeyed, and in the
// meantime events scheduled after the reservation are ordered behind it at
// equal times, exactly as if it had been scheduled now.
func (s *Scheduler) Reserve() uint64 {
	seq := s.seq
	s.seq++
	return seq
}

// InsertKeyed queues h.OnEventArg(now, arg) under an explicit dispatch key:
// at is not clamped to the clock and no sequence number is consumed. seq must
// come from Reserve, or from a snapshot the caller finishes restoring with
// RestoreClock; the key must not lie behind the event being dispatched. It is
// the one insert path: the Schedule methods are InsertKeyed under a fresh
// reservation.
func (s *Scheduler) InsertKeyed(at Time, seq uint64, h ArgHandler, arg any) EventRef {
	idx := s.alloc()
	ev := &s.events[idx]
	ev.at = at
	ev.seq = seq
	ev.ah, ev.arg = h, arg
	ev.state = eventQueued
	s.cal.insert(timedEnt{at: at, seq: seq, idx: idx})
	return EventRef{s: s, idx: idx, gen: ev.gen}
}

// ScheduleAt queues fn to run at the absolute virtual time at. Events
// scheduled in the past run at the current time instead; the clock never
// moves backwards.
func (s *Scheduler) ScheduleAt(at Time, fn Handler) EventRef {
	if fn == nil {
		return EventRef{}
	}
	return s.schedule(at, fn, nil)
}

// ScheduleHandlerAt queues h.OnEvent to run at the absolute virtual time at,
// as the payload of the scheduler's dispatcher; it does not allocate.
func (s *Scheduler) ScheduleHandlerAt(at Time, h EventHandler) EventRef {
	if h == nil {
		return EventRef{}
	}
	return s.schedule(at, handlerDispatch{}, h)
}

// ScheduleArgAt queues h.OnEventArg(now, arg) to run at the absolute virtual
// time at. Passing a pointer as arg does not allocate, so hot callers can
// attach a payload to the event for free.
func (s *Scheduler) ScheduleArgAt(at Time, h ArgHandler, arg any) EventRef {
	if h == nil {
		return EventRef{}
	}
	return s.schedule(at, h, arg)
}

// Stop halts the run loop after the currently executing event returns.
func (s *Scheduler) Stop() { s.stopped = true }

// dispatch removes the live entry top, which the caller has just peeked, from
// the queue — it is not searched a second time — and fires it.
func (s *Scheduler) dispatch(top timedEnt) {
	s.cal.remove(top)
	ev := &s.events[top.idx]
	// Copy the handler and payload before releasing: the handler may
	// schedule new events, reusing (or growing) the arena.
	ah, arg := ev.ah, ev.arg
	s.release(top.idx)
	s.now = top.at
	s.horizon = top.seq + 1
	s.processed++
	ah.OnEventArg(s.now, arg)
}

// Fired reports whether an event keyed (at, seq) would already have been
// dispatched, whether or not such an event was ever scheduled: everything
// before the current instant has, and at the current instant everything up
// to and including the event being dispatched. Outside the run loop nothing
// scheduled since the loop returned has. See "Fired" in the package
// documentation for when the bound moves.
func (s *Scheduler) Fired(at Time, seq uint64) bool {
	return at < s.now || (at == s.now && seq < s.horizon)
}

// Run executes events until the queue drains or Stop is called. It returns
// ErrStopped in the latter case so callers can distinguish the two.
func (s *Scheduler) Run() error {
	s.stopped = false
	for !s.stopped {
		top, ok := s.peekMin()
		if !ok {
			s.horizon = s.seq
			return nil
		}
		s.dispatch(top)
	}
	return ErrStopped
}

// RunUntil executes events with timestamps up to and including deadline and
// then advances the clock to the deadline. Later events stay queued so the
// simulation can be resumed.
func (s *Scheduler) RunUntil(deadline Time) error {
	s.stopped = false
	for !s.stopped {
		top, ok := s.peekMin()
		if !ok || top.at > deadline {
			break
		}
		s.dispatch(top)
	}
	if s.stopped {
		return ErrStopped
	}
	if s.now <= deadline {
		// Everything up to the deadline has fired; whatever is scheduled
		// from here on, even for this very instant, has not.
		s.now = deadline
		s.horizon = s.seq
	}
	return nil
}
