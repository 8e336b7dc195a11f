// Package checkpoint serializes the live state of a running simulation into
// a self-describing binary snapshot and restores it into a freshly built
// world, such that the resumed run is bit-identical to one that was never
// interrupted.
//
// # Design: deterministic rebuild + dynamic-state overlay
//
// A snapshot does not try to serialize every object graph edge. The engine is
// deliberately deterministic — a Scenario's seed fully determines its outcome
// — so the restore path first *rebuilds* the scenario through the exact same
// construction path as the original run (same topology, same RNG fork order,
// same build-time event sequence numbers), then *overlays* the dynamic state
// the snapshot captured: clocks, counters, flow tables, sketches, pushback
// hysteresis, in-flight packets and the pending event queue. Rebuilding
// reproduces every pointer topology for free; the overlay only carries plain
// values.
//
// Pending events are the delicate part. Events scheduled during construction
// ("build events", sequence numbers below World.BuildSeq) are recreated by
// the rebuild itself; the restore cancels the ones the original run had
// already consumed (sim.Scheduler.ReconcilePending) and leaves the rest.
// Events scheduled while the simulation was running ("runtime events") are
// captured by classifying their handlers against a closed registry — link
// arrivals, flow send/phase/end, monitor ticks, probe timers — and
// re-inserted with their original timestamps and sequence numbers
// (sim.Scheduler.InsertKeyed) against the rebuilt objects. An event whose
// handler cannot be classified fails the capture loudly rather than
// producing a snapshot that cannot resume.
//
// Link arrivals are the exception in the calendar, not on the wire. A busy
// link keeps only its in-flight chain's head queued (see "Link occupancy" in
// netsim), so the capture, on meeting a head's arrival, walks the chain behind
// it with netsim.Link.NextInFlight and lists one EvLinkArrive per packet, with
// the key the packet's arrival will fire under. A snapshot's Events therefore
// hold each head followed by its followers, in the order the calendar's
// arena yields the heads; Restore sorts them by sequence number as before,
// and netsim.Link.RestoreInFlight relinks each link's packets in that order
// and queues the head's arrival itself. The file carries the same events as
// when every arrival was queued, and files written either way restore alike.
//
// RNG streams are restored by fast-forward: the rebuild recreates every
// stream with its original seed (verified), then each stream replays draws
// until it reaches the checkpointed draw count (sim.RNG.FastForwardStream).
// Restore first bounds what there is to replay: the draws a file claims beyond
// the rebuilt streams' own, summed, may not exceed 16 for every event it says
// was processed — the catalog's runs make at most 0.2 — so a file cannot buy
// an hour of spinning with one large number.
//
// # Wire format
//
// A snapshot is a byte stream: the magic "MAFICSNP", SnapshotVersion as a
// fixed little-endian u32, then a sequence of sections, each (kind u8 | length
// fixed u32 | payload). Inside a payload integers are varints and floats their
// 8-byte bit patterns; format.go lists the primitives. Every section appears
// exactly once; unknown or duplicate sections, truncations and trailing bytes
// are decode errors. codec.go holds the layout once: a table of the fifteen
// section kinds, and per snapshotted type one walk function that names each
// field through a pointer, in wire order. Encode runs the walks writing and
// Decode runs the same walks reading, and a list's count is believed only as
// far as the payload could hold that many of what a zero element encodes to,
// measured by that same walk — so the two directions and the allocation bounds
// cannot drift apart. The scenario itself travels as a JSON blob inside the
// snapshot, so a snapshot file is fully self-describing: Decode + the
// experiment package's rebuild are all that is needed to resume. For a file
// this package wrote Encode(Decode(b)) is byte-identical, pinned by test, so
// snapshot files can be copied and inspected without drift.
//
// # Version 3: write what moved
//
// Version 2 wrote every integer at full width and every sketch at a byte a
// bucket, and was 85–90 % zero bytes. Version 3 carries the same fields in
// the same order, smaller: unsigned integers are LEB128 varints and signed
// ones (times included) zigzag varints, floats and the file and section
// headers stay fixed; a sketch with no adds — all-zero by construction — is
// captured and written in the empty form (no buckets, zero adds: two bytes)
// and restored as a reset, any other travels with its buckets raw; a packet's
// kind and protocol are a byte each. A table2 snapshot went from 142 KB to 43
// KB, a stress-1k one from 673 KB to 202 KB. Pending events are listed in
// capture order (the order the scheduler's arena holds them, each link's
// chain behind its head), and Restore sorts them by sequence number: once per
// resume instead of once per snapshot.
// Restore also refuses a packet of unknown kind or protocol or negative size
// or hop count, and a sketch with buckets set but no adds, or the reverse.
//
// A version 2 file is refused like a version 1 file (ErrVersion) — read as
// varints its fields would be garbage that might pass the checks — and the
// service re-runs such a job from time zero, to the same result.json.
//
// # Version 2: link occupancy is derived, not carried
//
// Version 1 snapshots held one transmit-done event per packet in
// transmission (event kind 2, now retired and never reused). The engine no
// longer schedules that event: a link settles its occupancy lazily from a
// chain of its in-flight packets (see "Link occupancy" in netsim). Version 2
// is version 1 without those events, with Processed counted without them —
// nothing new is on the wire. The chain and its cursor are a function of what
// is already there: Restore re-inserts the runtime events in sequence order
// after RestoreClock, so each EvLinkArrive event re-links its packet under
// the key (At − Delay, Seq) Send gave it, and whether its transmission counts
// as retired falls out of sim.Scheduler.Fired. Restore checks rather than
// trusts: a link's arrivals must come in send order, and the recount must
// equal the recorded LinkState.Queued, else the snapshot is refused.
//
// A version 1 file is refused too (ErrVersion, which is also an ErrCorrupt),
// not migrated: dropping its transmit-done events would be easy, but its
// sequence numbers and Processed count are on the old scale, and a resumed
// run is promised bit-identical to an uninterrupted one of the same build.
// Store.LatestValid walks past such files like any other it cannot decode,
// so a maficserve store left by a version 1 build re-runs its unfinished
// jobs from time zero.
//
// # Coverage guard
//
// Every stateful engine package exports a CheckpointTypes list, and the
// guard test in this package reflects over each listed struct's fields
// against a pinned manifest. Adding a field anywhere in the live-state
// surface fails the guard until the manifest — and, when the wire format is
// affected, SnapshotVersion — is updated deliberately. New state cannot
// silently miss the snapshot.
//
// An engine object whose run state has its record's shape holds the *State
// record as one field and runs on it, so its capture is a copy of the record
// and its overlay an assignment after the refusals: links, routers, hosts,
// flows, victim servers, droppers, the pushback coordinator and the metrics
// collector. Adding a field that travels to one of them: (1) the field in the
// *State struct, which the object then holds; (2) one line in the type's walk
// in codec.go, at the end of the struct's fields; (3) the manifest row in
// guard_test.go; (4) SnapshotVersion and manifestVersion, and the retired
// version in the ErrVersion tests. Capture and overlay need no edit unless a
// value no run produces must be refused. The rest — a defender's probing
// memory is a map, a monitor's counters are sketches, the network's route
// columns are rematerialized — copy field by field, and a field there is also
// a line in its CheckpointState and its RestoreState. `make snap-diff` will
// say the files moved, as they should; experiment.TestDecodeInvertsEncode
// fails if step 2 is missed.
//
// # Cost and lifetime
//
// A run that checkpoints often takes every snapshot through one Session, so
// that a snapshot repeats none of the work of the one before it. The session
// caches what cannot change while the run is alive — the handler registry and
// the link list (rebuilt only if the world's link, flow or defender count
// differs from the one they were built for) and the scenario JSON — and owns
// one scratch Snapshot that every Capture refills in place: each slice is
// truncated and re-appended, the per-counter sketch bucket arrays, collector
// bins, route destinations, coordinator tables, flow-table entries, probing
// memory and the probe-record dedupe map keep their backing, pending events
// are appended as the scheduler's arena yields them, and a sketch nothing was
// added to is not even read. The engine packages' capture methods all fill a
// destination the caller supplies for that reason: CaptureFlowState and the
// CheckpointState of a link, router, host, victim server or dropper copy the
// held record whole, the coordinator's and the collector's copy theirs with
// its tables appended into dst's backing, and the rest (the CheckpointState
// of a defender, monitor or network, CapturePacket, …) fill dst field by
// field. Once warm, a capture
// allocates nothing, unless the run holds more state than at any earlier
// snapshot and a scratch slice has to grow.
//
// The price is lifetime: the *Snapshot a Session returns is the session's
// own and is valid only until that session's next Capture. Encode it (or copy
// what you need) first. Nothing in it aliases the live run — every slice is
// the session's copy — so it may be encoded on another goroutine while the run
// goes on, as long as the next Capture waits for that encode: the experiment
// package's control loop does exactly this. The one-shot Capture function is a fresh session's
// first capture, so its Snapshot stays valid for as long as it is referenced.
// A session must not outlive its run: the registry holds the run's objects
// by identity, and the next run resets those same objects in place.
//
// Encode walks the snapshot once, into a scratch buffer that belongs to the
// Snapshot — so to the session, for a run's snapshots — and is written over
// by the next Encode; what it returns is a copy, a single allocation of
// exactly the encoded size. Save callbacks own the bytes they are handed —
// the tests and the benchmark's in-memory sinks keep the slices across calls,
// as anything holding "the newest snapshot" would — so recycling the output
// would silently corrupt kept snapshots, and the experiment package pins the
// contract with a test that retains every snapshot of a run and checks them
// after it has finished. The output buffer is therefore the one allocation a
// steady-state snapshot makes, and the floor of what checkpointing costs in
// memory traffic.
//
// The experiment package owns the harness entry points, which are one loop:
// a run is built on a recycled bundle — arena, scheduler, lookup tables and
// the defenders, monitor, coordinator and workload it resets for each run —
// advanced in checkpoint-bounded segments and torn down in one place.
// RunControlled pauses at every multiple of an interval, RunWithCheckpoints at
// requested virtual times, and each hands every encoded snapshot to a save
// callback; ResumeControlled (RunFromSnapshot without a control surface)
// decodes, rebuilds, overlays and continues the same loop to completion.
// Only the capture is on the run's goroutine: at each boundary the loop
// captures, then hands Encode and the save callback to one helper goroutine
// that works behind the next segment, and the boundary after joins it before
// capturing again, so the session's snapshot is never captured into while it
// is being encoded. (The final snapshot of an interrupted run is the
// exception: it is encoded and saved before the run returns, on its own
// goroutine.)
package checkpoint
