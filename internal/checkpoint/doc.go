// Package checkpoint is the snapshot of a running simulation as data: the
// Snapshot and its record types, the binary wire format that carries them,
// and the Store that keeps a run's snapshot files on disk.
//
// What goes into a Snapshot, and how one is laid back onto a rebuilt run, is
// the experiment package's: it builds the run, so it alone knows what a run
// consists of (see its capture.go). A snapshot holds the scenario the run was
// built from and the dynamic state a deterministic rebuild does not
// reproduce — clocks, counters, flow tables, sketches, pushback hysteresis,
// in-flight packets, pending events and the position of every RNG stream.
//
// # Resume by replay: the decision of ROADMAP item 17
//
// The decision is replay: this package's records and codec, the experiment
// package's capture.go, the per-package checkpoint.go files and the
// draw-counting RNG are to be deleted (item 17(b)), and a snapshot is then
// its scenario, its time and a digest of the run's progress there. The
// reason: the engine is deterministic, so a fresh build run to the snapshot's
// time reaches the state a restore overlays, and restore's 2 915 lines buy
// only a faster resume. That is a trade, not a gain — a replayed resume costs
// up to a whole run, and a file from a build whose run goes differently is
// refused — and ROADMAP item 17 prices both sides, lists every resume path
// and what 17(b) deletes. Until 17(b) lands, what follows describes the
// format every snapshot is still written in, and no change adds to it.
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
// # Decoding into a kept Snapshot
//
// There is one decoder, DecodeInto, and Decode is DecodeInto on a new
// Snapshot. DecodeInto overwrites every field of the Snapshot it is handed
// and keeps what it can of its storage, so that a holder that decodes file
// after file into one Snapshot — the experiment package's run bundle, whose
// resumes decode into the Snapshot its captures refill — stops allocating: a
// list keeps its backing when it is long enough and each element's walk
// overwrites what was there, nested lists included; a byte string is copied
// into the backing it already has; and a union walk clears its other arms
// first — an event's packet, index, probe and report, a node's router or host
// half, the defender and dropper lists — so nothing of the snapshot decoded
// there before survives. The late report is the one record held by pointer:
// few events carry one, so a pending event is 112 bytes, not 224. Every late
// event has one, and decoding gives each a new record rather than keep the
// one at its place, which an earlier and longer capture may have left at
// another place as well. Nothing decoded aliases the input, and a holder must not let anything it restores alias
// the Snapshot, which its next decode or capture writes over.
// FuzzSnapshotDecode decodes every input both ways and requires the same
// outcome.
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
// chain behind its head), and a restore sorts them by sequence number: once per
// resume instead of once per snapshot.
// A restore also refuses a packet of unknown kind or protocol or negative size
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
// is already there: the restore re-inserts the runtime events in sequence order
// after RestoreClock, so each EvLinkArrive event re-links its packet under
// the key (At − Delay, Seq) Send gave it, and whether its transmission counts
// as retired falls out of sim.Scheduler.Fired. The restore checks rather than
// trusts: a link's arrivals must come in send order, and the recount must
// equal the recorded LinkState.Queued, else the snapshot is refused.
//
// A version 1 file is refused too (ErrVersion, which is also an ErrCorrupt),
// not migrated: dropping its transmit-done events would be easy, but its
// sequence numbers and Processed count are on the old scale, and a resumed
// run is promised bit-identical to an uninterrupted one of the same build.
// maficserve reads no snapshot, so a store left by a version 1 build re-runs
// its unfinished jobs from time zero.
package checkpoint
