// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine replaces the role NS-2 plays in the original MAFIC evaluation:
// it maintains a virtual clock, an ordered event queue, and a seeded source
// of randomness so that every experiment in this repository is reproducible
// bit-for-bit from its configuration.
//
// # Event pooling
//
// Events live in a pooled arena and are recycled through a free list the
// moment an event fires or a cancelled event is discarded, so a steady-state
// simulation schedules without allocating. Every slot carries a generation
// counter: an EventRef captures the generation at scheduling time, which
// makes cancelling an already-fired (and possibly re-occupied) slot a
// detectable no-op rather than a use-after-free on the next occupant.
//
// Every event holds one ArgHandler and its payload, and fires as
// h.OnEventArg(now, arg); dispatch is one interface call. An engine
// component implements ArgHandler once and schedules itself with ScheduleArgAt
// at now plus its delay, using the now it is handed, attaching a pointer
// payload for free. A closure Handler is an ArgHandler too, stored as itself,
// and ScheduleHandlerAt queues an EventHandler as the payload of a zero-size
// dispatcher; neither allocates. A checkpoint capture therefore classifies a
// pending event by its handler alone.
//
// # Calendar-queue scheduling
//
// The priority queue is a calendar queue (R. Brown, CACM 1988):
// virtual time is divided into fixed-width windows mapped round-robin onto a
// power-of-two number of buckets, each bucket holding its events sorted by
// (time, sequence). Inserting indexes straight into the destination bucket
// and popping scans forward from the current window, so both operations are
// O(1) amortized — unlike a binary heap's O(log n) — which matters because
// event dispatch itself was the dominant CPU cost of large runs.
//
// Bucket sizing is self-tuning. The bucket count tracks the pending-event
// count (growing past two entries per bucket, shrinking below a quarter,
// with a power-of-two floor), keeping average occupancy near one. The bucket
// width tracks the average inter-event spacing observed at dequeue, checked
// every few thousand pops and rebuilt only when it has drifted at least 2x,
// so a workload with stable spacing settles after one retune and never
// rebuilds again; it is kept a power of two, which makes timestamp-to-bucket
// a shift. Both decisions are pure functions of the operation
// sequence — no wall clock, no randomness — so runs stay deterministic.
//
// # Fired: state settled lazily instead of by an event
//
// A component whose event would do nothing but update a counter can skip the
// event and settle the counter when it is next read, provided "has that
// event fired yet?" has the dispatch order's answer, ties included.
// Scheduler.Fired(at, seq) is that answer for an event keyed (at, seq),
// whether or not one was ever scheduled: true if at lies before the clock,
// or at equals the clock and seq lies below the horizon. The horizon is one
// past the sequence number of the event being dispatched, so inside a
// handler everything ordered up to and including that event has fired and
// nothing after it has. When Run drains the queue or RunUntil reaches its
// deadline the horizon moves to the next unallocated sequence number:
// everything up to the deadline has fired, and an event scheduled afterwards
// for that same instant has not, until the loop runs again. RestoreClock puts
// it there too, since snapshots are taken between RunUntil calls. A run
// halted by Stop leaves it on the event that called Stop: the events behind
// it at that instant are still pending. A caller keys its virtual event with
// a sequence number taken from Seq at the point where the real event would
// have been scheduled; removing events from a run renumbers the rest but
// keeps their relative order, which is all the comparison uses. netsim's
// links retire transmitted packets this way (see "Link occupancy" there),
// which halves the events of a run.
//
// # Reserve and the keyed insert: an event's place taken before it is queued
//
// Scheduler.Reserve hands out the next sequence number and queues nothing;
// Scheduler.InsertKeyed later queues an event under an explicit (time,
// sequence) key. Between the two the reserved number orders like any other:
// an event scheduled afterwards for the same instant fires behind it. So a
// component that knows several future events will fire in key order can keep
// only the earliest in the calendar and insert each of the others when its
// predecessor fires, and dispatch is the same as if all had been queued at
// once — only the calendar is smaller. netsim's links do this with the
// packets in flight on them (see "Link occupancy" there): a busy link holds
// one calendar entry, not one per packet. The Schedule methods are
// InsertKeyed under a fresh reservation, and a snapshot restore re-inserts
// its runtime events with InsertKeyed under their recorded keys; there is no
// other insert path. A keyed insert must not lie behind the event being
// dispatched, or it would fire out of order.
//
// # Determinism rules
//
// Dispatch order is total: events fire in ascending (time, sequence) order,
// where the sequence number is assigned at scheduling time (or reservation).
// Ties at the same instant therefore fire in FIFO scheduling order. The
// reference for that order is test-only: equivalence_test.go drives seeded
// random scripts (inserts, cancellations, same-instant bursts, sliced
// dispatch, keys reserved now and inserted later, restored events) through
// the scheduler and through a container/heap queue of the same keys, and
// requires identical dispatch.
package sim
