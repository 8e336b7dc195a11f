package sim

// This file is the scheduler's checkpoint surface. A snapshot never
// serializes the event arena or queue geometry directly: the restore path
// rebuilds the scenario deterministically (recreating every build-time event
// with its original sequence number), then uses ReconcilePending to cancel
// build-time events that had already fired before the snapshot, InsertKeyed
// to re-insert events that were scheduled at runtime, and RestoreClock to
// land the clock, sequence counter and processed-event count on the
// checkpointed values. Queue geometry may differ after a restore, but the
// queue always dispatches the globally minimal (time, seq) entry, so the
// difference is unobservable.

// PendingEvent describes one queued event to a checkpoint capture: it fires
// as H.OnEventArg(now, Arg). A closure scheduled with ScheduleAt is H itself,
// recognisable as H.(Handler).
type PendingEvent struct {
	At  Time
	Seq uint64
	H   ArgHandler
	Arg any
}

// Seq reports the sequence number the next scheduled event will receive.
// Recording it at the build/run boundary lets a checkpoint distinguish
// build-time events (recreated by rebuilding the scenario) from runtime
// events (re-inserted explicitly).
func (s *Scheduler) Seq() uint64 { return s.seq }

// ForEachPending calls fn for every queued, non-cancelled event, in arena
// order. Callers needing a deterministic order sort by Seq afterwards.
func (s *Scheduler) ForEachPending(fn func(PendingEvent)) {
	for i := range s.events {
		ev := &s.events[i]
		if ev.state != eventQueued {
			continue
		}
		fn(PendingEvent{At: ev.at, Seq: ev.seq, H: ev.ah, Arg: ev.arg})
	}
}

// ReconcilePending cancels every queued event whose sequence number is below
// bound and for which keep reports false. A rebuild schedules every
// build-time event again; the ones the original run had already dispatched
// before the snapshot must not fire twice, so the restore cancels them. The
// queue discards cancelled entries silently, without touching the
// processed-event count.
func (s *Scheduler) ReconcilePending(bound uint64, keep func(seq uint64) bool) {
	for i := range s.events {
		ev := &s.events[i]
		if ev.state == eventQueued && ev.seq < bound && !keep(ev.seq) {
			ev.state = eventStopped
		}
	}
}

// RestoreClock force-sets the clock, the next sequence number and the
// processed-event count to checkpointed values. Every pending event must lie
// at or after now. A snapshot is taken between RunUntil calls, where the
// Fired bound rests on the next unallocated sequence number, so that is where
// it lands here too.
func (s *Scheduler) RestoreClock(now Time, nextSeq, processed uint64) {
	s.now = now
	s.seq = nextSeq
	s.horizon = nextSeq
	s.processed = processed
}
