package experiment

// This file is a built run's state walk: capture copies the live run into a
// checkpoint.Snapshot, restore overlays one onto a freshly rebuilt run, such
// that the resumed run is bit-identical to one that was never interrupted.
// The checkpoint package owns the snapshot's records, its wire format and the
// store; what a run consists of is known here, where the run is built.
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
// ("build events", sequence numbers below builtRun.buildSeq) are recreated by
// the rebuild itself; the restore cancels the ones the original run had
// already consumed (sim.Scheduler.ReconcilePending) and leaves the rest,
// refusing a snapshot that keeps one the clock has passed or one the rebuild
// does not have pending.
// Events scheduled while the simulation was running ("runtime events") are
// captured by classifying their handlers (an event holds one sim.ArgHandler
// and its payload) against a closed registry — link arrivals, flow
// send/phase/end, monitor ticks and delayed reports, probe timers — and
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
// arena yields the heads; restore sorts them by sequence number, and
// netsim.Link.RestoreInFlight relinks each link's packets in that order and
// queues the head's arrival itself. The file carries the same events as when
// every arrival was queued, and files written either way restore alike.
//
// RNG streams are restored by fast-forward: the rebuild recreates every
// stream with its original seed (verified; on a recycled bundle it reseeds
// the streams the bundle keeps, see sim.RNG.Reset), then each stream replays
// draws until it reaches the checkpointed draw count
// (sim.RNG.FastForwardStream).
// Restore first bounds what there is to replay: the draws a file claims beyond
// the rebuilt streams' own, summed, may not exceed 16 for every event it says
// was processed — the catalog's runs make at most 0.2 — so a file cannot buy
// an hour of spinning with one large number.
//
// Every other component is one line of walkState, which pairs its capture
// with its restore as the checkpoint codec pairs Encode with Decode: the
// links, nodes, network, monitor, coordinator, collector, defenders or
// droppers, flows and victim servers. Capturing, the walk sizes each record
// list to the run and fills it; restoring, it refuses a list of another
// length, a node of another identity or a defender of another kind than the
// rebuild made, and overlays the rest.
//
// # Coverage guard
//
// TestStateCoverageGuard (guard_test.go in this package) reflects over every
// struct reachable from runResources, builtRun, checkpoint.Snapshot and the
// payloads the scheduler carries as any, and pins each one's field list in a
// manifest. Adding a field anywhere in the live-state surface fails the guard
// until the manifest — and, when the wire format is affected,
// SnapshotVersion — is updated deliberately. New state cannot silently miss
// the snapshot.
//
// An engine object whose run state has its record's shape holds the *State
// record as one field and runs on it, so its capture is a copy of the record
// and its overlay an assignment after the refusals: links, routers, hosts,
// flows, victim servers, droppers, the pushback coordinator and the metrics
// collector. Adding a field that travels to one of them: (1) the field in the
// *State struct, which the object then holds; (2) one line in the type's walk
// in checkpoint/codec.go, at the end of the struct's fields; (3) the manifest
// row in guard_test.go here; (4) SnapshotVersion and manifestVersion, and the
// retired version in the ErrVersion tests. Capture and overlay need no edit
// unless a value no run produces must be refused. The rest — a defender's
// probing memory is a map, a monitor's counters are sketches, the network's
// route columns are rematerialized — copy field by field, and a field there is
// also a line in its CheckpointState and its RestoreState. `make result-diff`
// will say the files moved, as they should; TestDecodeInvertsEncode fails if
// step 2 is missed.
//
// # Cost and lifetime
//
// Checkpoint storage belongs to the run bundle, not to a run: its
// captureSession, made at the first snapshot or resume the bundle serves, holds
// the one Snapshot, the buffer Encode writes into (Snapshot.scratch), and the
// storage of the capture registry — the handler map, the link list, the
// probe-record index and the owned copies of delayed reports. What the
// registry holds belongs to the run: a run's first capture refills it with
// that run's objects and scenario JSON (a restore lists the links it needs),
// and the registry holds the run's objects by identity, which the next run
// resets in place. So a snapshot repeats none of the work of the
// one before it, and a checkpointed job none of the allocation of the job
// before it on the bundle.
//
// Every capture refills the Snapshot in place: each slice is truncated and
// re-appended, the per-counter sketch bucket arrays, collector bins, route
// destinations, coordinator tables, flow-table entries, probing memory and
// the probe-record dedupe map keep their backing, pending events are appended
// as the scheduler's arena yields them, and a sketch nothing was added to is
// not even read. The engine packages' capture methods all fill a destination
// the caller supplies for that reason: CaptureFlowState and the
// CheckpointState of a link, router, host, victim server or dropper copy the
// held record whole, the coordinator's and the collector's copy theirs with
// its tables appended into dst's backing, and the rest (the CheckpointState
// of a defender, monitor or network, CapturePacket, …) fill dst field by
// field. Once warm, a capture allocates nothing, unless the run holds more
// state than any snapshot the bundle took before and a list has to grow, or
// the run has handler objects no run before it on the bundle had.
//
// A resume decodes into the same Snapshot (checkpoint.DecodeInto), which
// keeps its lists' backing the same way, and restore reads it without
// allocating: events are sorted with a typed sort, the build events to keep
// are found by binary search over them, and the links and the re-bound probe
// records are listed into the session. Nothing restore builds aliases the
// Snapshot — every overlay copies, a delayed report included — because the
// resumed run's first capture writes over it.
//
// The price is lifetime: the *Snapshot capture returns is the bundle's own
// and is valid only until the next capture or resume on that bundle. Encode
// it (or copy what you need) first. Nothing in it aliases the live run —
// every slice is the session's copy — so it may be encoded on another
// goroutine while the run goes on, as long as the next capture waits for
// that encode: the control loop does exactly this, and joins the last encode
// before the run returns and hands the bundle back.
//
// Encode walks the snapshot once, into the scratch buffer, which the next
// Encode writes over; what it returns is a copy, a single allocation of
// exactly the encoded size. Save callbacks own the bytes they are handed —
// the tests and the benchmark's in-memory sinks keep the slices across calls,
// as anything holding "the newest snapshot" would — so recycling the output
// would silently corrupt kept snapshots, and TestRetainedSnapshotsStayValid
// pins the contract. The output buffer is therefore the one allocation a
// steady-state snapshot makes, and the floor of what checkpointing costs in
// memory traffic. TestRecycledRunAllocations pins a second checkpointed run
// and a second resume on one bundle for every catalog entry.
//
// The harness entry points are one loop: a run is built on a recycled bundle —
// arena, scheduler, lookup tables and the defenders, monitor, coordinator and
// workload it resets for each run — advanced in checkpoint-bounded segments
// and torn down in one place. RunControlled pauses at every multiple of an
// interval, RunWithCheckpoints at requested virtual times, and each hands
// every encoded snapshot to a save callback; ResumeControlled takes a bundle,
// decodes into its Snapshot, rebuilds, overlays and continues the same loop
// to completion. Only the
// capture is on the run's goroutine: at each checkpoint the loop captures, then
// hands Encode and the save callback to one helper goroutine that works
// behind the run, and the next checkpoint joins it before capturing again, so
// the session's snapshot is never captured into while it is being encoded.

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"

	"mafic/internal/baseline"
	"mafic/internal/checkpoint"
	"mafic/internal/core"
	"mafic/internal/netsim"
	"mafic/internal/sim"
	"mafic/internal/traffic"
	"mafic/internal/trafficmatrix"
)

// handlerRole classifies a scheduled handler identity during capture.
type handlerRole struct {
	kind  uint8 // the event kind; EvMonitorTick for the monitor, which capture turns into EvMonitorLate when the event carries a report
	index uint32
	run   uint32 // the registration that wrote it: an entry an earlier run's left is no role
}

// captureSession is the bundle's checkpoint storage, made at the first
// snapshot or resume a bundle serves: a bundle whose runs are never
// checkpointed does not pay for it. It holds the one Snapshot every capture
// refills and every resume decodes into, and the capture registry: the
// storage belongs to the bundle, what the registry holds to the run that
// filled it (see builtRun.linked and builtRun.registered).
type captureSession struct {
	snap checkpoint.Snapshot

	// The handler identity registry: every object runtime events can dispatch
	// through, keyed by the ArgHandler the scheduler holds, one entry per
	// object (the monitor's ticks and its delayed reports share one and are
	// told apart by the payload), and the links in ForEachLink order. Each
	// registration bumps run and overwrites the entries of the run's objects,
	// which the bundle reuses from run to run; entries it leaves belong to
	// objects the run does not use. The map is never cleared, because clear
	// re-seeds it and the refill would regrow its tables every job.
	handlers map[sim.ArgHandler]handlerRole
	run      uint32
	links    []*netsim.Link

	// Per-capture scratch: the probe-record dedupe table and the owned copies
	// of delayed epoch reports, which the late events of snap point at. A
	// restore lists the probe records it re-binds in probes.
	probeIdx map[any]uint32
	reports  []*trafficmatrix.EpochReportState
	probes   []any
}

// checkpointSession returns the bundle's checkpoint storage, making it the
// first time.
func (r *runResources) checkpointSession() *captureSession {
	if r.session == nil {
		r.session = &captureSession{
			handlers: make(map[sim.ArgHandler]handlerRole),
			probeIdx: make(map[any]uint32),
		}
	}
	return r.session
}

// links lists the network's links in ForEachLink order, the order a
// snapshot's Links and an event's link index follow, into the session's link
// list at the run's first call.
func (b *builtRun) links() []*netsim.Link {
	cs := b.res.checkpointSession()
	if !b.linked {
		cs.links = cs.links[:0]
		b.domain.Net.ForEachLink(func(l *netsim.Link) { cs.links = append(cs.links, l) })
		b.linked = true
	}
	return cs.links
}

// register refills the session's handler registry with every handler identity
// of the run, and encodes its scenario for the snapshots to carry.
func (b *builtRun) register() error {
	cs := b.res.checkpointSession()
	scenarioJSON, err := json.Marshal(b.s)
	if err != nil {
		return fmt.Errorf("encode scenario: %w", err)
	}
	cs.snap.Scenario = scenarioJSON
	cs.run++
	run := cs.run
	for i, l := range b.links() {
		cs.handlers[l] = handlerRole{kind: checkpoint.EvLinkArrive, index: uint32(i), run: run}
	}
	for i, f := range b.res.workload.Flows {
		if h := traffic.SendHandler(f); h != nil {
			cs.handlers[h] = handlerRole{kind: checkpoint.EvFlowSend, index: uint32(i), run: run}
		}
		if ph, eh := traffic.PhaseHandlers(f); ph != nil {
			cs.handlers[ph] = handlerRole{kind: checkpoint.EvFlowPhase, index: uint32(i), run: run}
			cs.handlers[eh] = handlerRole{kind: checkpoint.EvFlowEnd, index: uint32(i), run: run}
		}
	}
	cs.handlers[b.res.monitor] = handlerRole{kind: checkpoint.EvMonitorTick, run: run}
	for i, d := range b.res.mafic {
		ps, we := d.ProbeHandlers()
		cs.handlers[ps] = handlerRole{kind: checkpoint.EvProbeSend, index: uint32(i), run: run}
		cs.handlers[we] = handlerRole{kind: checkpoint.EvWindowEnd, index: uint32(i), run: run}
	}
	b.registered = true
	return nil
}

// capture walks the live run and refills the bundle's Snapshot. The run must
// be paused at an event boundary (between RunUntil calls); capture only
// reads. The returned Snapshot is the bundle's own and is overwritten by the
// next capture or resume.
func (b *builtRun) capture() (*checkpoint.Snapshot, error) {
	if !b.registered {
		if err := b.register(); err != nil {
			return nil, err
		}
	}
	sched, snap := b.res.sched, &b.res.session.snap
	snap.BuildSeq = b.buildSeq
	snap.Now = sched.Now()
	snap.NextSeq = sched.Seq()
	snap.Processed = sched.Processed()
	snap.Flags = checkpoint.RunFlags{
		Activated:          b.result.Activated,
		ActivationSeconds:  b.result.ActivationSeconds,
		DetectedByPushback: b.result.DetectedByPushback,
		ATRCount:           int64(b.result.ATRCount),
	}

	snap.Streams = snap.Streams[:0]
	for i := 0; i < b.res.rng.StreamCount(); i++ {
		seed, draws := b.res.rng.StreamState(i)
		snap.Streams = append(snap.Streams, checkpoint.StreamState{Seed: seed, Draws: draws})
	}
	if err := b.captureEvents(); err != nil {
		return nil, err
	}
	if err := b.walkState(snap, b.res.session.links, false); err != nil {
		return nil, err
	}
	return snap, nil
}

// captureEvents classifies every pending event against the registry into
// snap.Events, in the order the scheduler's arena holds them, each link
// arrival followed by the arrivals chained behind it on its link: restore is
// what puts them in sequence order. Probe records are numbered in the same
// order.
func (b *builtRun) captureEvents() error {
	cs := b.res.session
	snap := &cs.snap
	snap.Events = snap.Events[:0]
	snap.ProbeRecs = snap.ProbeRecs[:0]
	clear(cs.probeIdx)
	reports := 0

	var captureErr error
	b.res.sched.ForEachPending(func(ev sim.PendingEvent) {
		if captureErr != nil {
			return
		}
		if ev.Seq < b.buildSeq {
			snap.Events = append(snap.Events, checkpoint.EventState{At: ev.At, Seq: ev.Seq, Kind: checkpoint.EvBuild})
			return
		}
		if _, ok := ev.H.(sim.Handler); ok {
			captureErr = fmt.Errorf("checkpoint: runtime event %d at %v dispatches a closure and cannot be captured", ev.Seq, ev.At)
			return
		}
		role, ok := cs.handlers[ev.H]
		if !ok || role.run != cs.run {
			captureErr = fmt.Errorf("checkpoint: runtime event %d at %v has unrecognised handler %T", ev.Seq, ev.At, ev.H)
			return
		}
		snap.Events = append(snap.Events, checkpoint.EventState{At: ev.At, Seq: ev.Seq, Kind: role.kind, Index: role.index})
		st := &snap.Events[len(snap.Events)-1]
		switch role.kind {
		case checkpoint.EvLinkArrive:
			pkt, ok := ev.Arg.(*netsim.Packet)
			if !ok {
				captureErr = fmt.Errorf("checkpoint: link arrival event %d carries %T, not a packet", ev.Seq, ev.Arg)
				return
			}
			netsim.CapturePacket(pkt, &st.Packet)
			// The packet heads its link's in-flight chain; the arrivals
			// behind it are not in the calendar yet, and follow it here.
			l := cs.links[role.index]
			for p, at, seq := l.NextInFlight(pkt); p != nil; p, at, seq = l.NextInFlight(p) {
				snap.Events = append(snap.Events, checkpoint.EventState{At: at, Seq: seq, Kind: checkpoint.EvLinkArrive, Index: role.index})
				netsim.CapturePacket(p, &snap.Events[len(snap.Events)-1].Packet)
			}
		case checkpoint.EvMonitorTick:
			if ev.Arg != nil {
				st.Kind = checkpoint.EvMonitorLate
				if reports == len(cs.reports) {
					cs.reports = append(cs.reports, new(trafficmatrix.EpochReportState))
				}
				st.Report = cs.reports[reports]
				reports++
				if captureErr = b.res.monitor.CaptureEpochReport(ev.Arg, st.Report); captureErr != nil {
					return
				}
			}
		case checkpoint.EvProbeSend, checkpoint.EvWindowEnd:
			idx, seen := cs.probeIdx[ev.Arg]
			if !seen {
				idx = uint32(len(snap.ProbeRecs))
				snap.ProbeRecs = append(snap.ProbeRecs, checkpoint.ProbeRec{Def: role.index})
				if captureErr = b.res.mafic[role.index].CaptureProbeRecord(ev.Arg, &snap.ProbeRecs[idx].State); captureErr != nil {
					return
				}
				cs.probeIdx[ev.Arg] = idx
			}
			st.Probe = idx
		}
	})
	return captureErr
}

// resize returns s with length n, keeping the elements (and whatever backing
// they own) it already holds within its capacity.
func resize[T any](s []T, n int) []T {
	if n > cap(s) {
		s = slices.Grow(s[:cap(s)], n-cap(s))
	}
	return s[:n]
}

// restore overlays a snapshot onto the freshly built run. The rebuild must
// have followed the exact build path of the original run (same scenario, same
// RNG fork order, same build-time event sequence) — restore verifies the
// build boundary and the RNG stream layout and fails loudly on divergence.
// After restore returns, resuming the scheduler continues the simulation
// bit-identically to the uninterrupted run. A snapshot lists its pending
// events in whatever order the capture met them; restore sorts snap.Events by
// sequence number, in place.
func (b *builtRun) restore(snap *checkpoint.Snapshot) error {
	sched, mafic, flows := b.res.sched, b.res.mafic, b.res.workload.Flows
	if b.buildSeq != snap.BuildSeq {
		return fmt.Errorf("checkpoint: rebuild scheduled %d build events, snapshot recorded %d — the builds diverged",
			b.buildSeq, snap.BuildSeq)
	}
	if got, want := b.res.rng.StreamCount(), len(snap.Streams); got != want {
		return fmt.Errorf("checkpoint: rebuild created %d rng streams, snapshot recorded %d", got, want)
	}
	// Fast-forwarding replays draws one by one, so what the file claims is
	// bounded before it is believed: no handler makes more than a few draws a
	// dispatch (the catalog's runs make 0.03–0.2 an event), and a well-formed
	// file claiming 2^40 would spin for most of an hour.
	budget := 16 * (min(snap.Processed, 1<<59) + 1)
	for i, st := range snap.Streams {
		if _, built := b.res.rng.StreamState(i); st.Draws > built {
			if st.Draws-built > budget {
				return fmt.Errorf("checkpoint: rng stream %d claims %d draws since the build, more than %d events could have made",
					i, st.Draws-built, snap.Processed)
			}
			budget -= st.Draws - built
		}
		if err := b.res.rng.FastForwardStream(i, st.Seed, st.Draws); err != nil {
			return err
		}
	}

	links := b.links()
	if err := b.walkState(snap, links, true); err != nil {
		return err
	}

	// Probe records are re-bound against the already-restored flow tables.
	cs := b.res.session
	cs.probes = cs.probes[:0]
	for i, pr := range snap.ProbeRecs {
		if int(pr.Def) >= len(mafic) {
			return fmt.Errorf("checkpoint: probe record %d names defender %d of %d", i, pr.Def, len(mafic))
		}
		rec, err := mafic[pr.Def].RestoreProbeRecord(pr.State)
		if err != nil {
			return err
		}
		cs.probes = append(cs.probes, rec)
	}
	probeRecs := cs.probes

	// Event reconciliation: cancel the rebuilt build-time events the
	// original run had already consumed, land the clock, then re-insert the
	// runtime events in sequence order. None may lie before the clock, the
	// build events kept included: the scheduler would run it, and time would
	// go backwards. Every build event the snapshot keeps must be one the
	// rebuild has pending.
	events := snap.Events
	slices.SortFunc(events, func(a, b checkpoint.EventState) int { return cmp.Compare(a.Seq, b.Seq) })
	var kept, listed int
	var early error
	sched.ReconcilePending(snap.BuildSeq, func(at sim.Time, seq uint64) bool {
		i, _ := slices.BinarySearchFunc(events, seq, func(ev checkpoint.EventState, seq uint64) int { return cmp.Compare(ev.Seq, seq) })
		for ; i < len(events) && events[i].Seq == seq; i++ {
			if events[i].Kind != checkpoint.EvBuild {
				continue
			}
			if at < snap.Now && early == nil {
				early = fmt.Errorf("checkpoint: build event %d is kept at %v, before the snapshot's Now %v", seq, at, snap.Now)
			}
			kept++
			return true
		}
		return false
	})
	if early != nil {
		return early
	}
	sched.RestoreClock(snap.Now, snap.NextSeq, snap.Processed)

	for i := range events {
		ev := &events[i]
		if ev.Kind == checkpoint.EvBuild {
			listed++
			continue
		}
		if ev.At < snap.Now {
			return fmt.Errorf("checkpoint: event %d has At %v, before the snapshot's Now %v", ev.Seq, ev.At, snap.Now)
		}
		switch ev.Kind {
		case checkpoint.EvLinkArrive:
			if int(ev.Index) >= len(links) {
				return fmt.Errorf("checkpoint: event %d names link %d of %d", ev.Seq, ev.Index, len(links))
			}
			pkt, err := b.domain.Net.RestorePacket(ev.Packet)
			if err != nil {
				return err
			}
			// The link queues the arrival itself if the packet heads its chain.
			if err := links[ev.Index].RestoreInFlight(pkt, ev.At, ev.Seq); err != nil {
				return err
			}
		case checkpoint.EvFlowSend, checkpoint.EvFlowPhase, checkpoint.EvFlowEnd:
			if int(ev.Index) >= len(flows) {
				return fmt.Errorf("checkpoint: event %d names flow %d of %d", ev.Seq, ev.Index, len(flows))
			}
			f := flows[ev.Index]
			switch ev.Kind {
			case checkpoint.EvFlowSend:
				traffic.SetSendEvent(f, sched.InsertKeyed(ev.At, ev.Seq, traffic.SendHandler(f), nil))
			case checkpoint.EvFlowPhase:
				ph, _ := traffic.PhaseHandlers(f)
				if ph == nil {
					return fmt.Errorf("checkpoint: event %d schedules a phase on flow %d, which has none", ev.Seq, ev.Index)
				}
				traffic.SetPhaseEvent(f, sched.InsertKeyed(ev.At, ev.Seq, ph, nil))
			default:
				_, eh := traffic.PhaseHandlers(f)
				if eh == nil {
					return fmt.Errorf("checkpoint: event %d schedules a phase end on flow %d, which has none", ev.Seq, ev.Index)
				}
				sched.InsertKeyed(ev.At, ev.Seq, eh, nil)
			}
		case checkpoint.EvMonitorTick:
			sched.InsertKeyed(ev.At, ev.Seq, b.res.monitor, nil)
		case checkpoint.EvMonitorLate:
			sched.InsertKeyed(ev.At, ev.Seq, b.res.monitor, b.res.monitor.RestoreEpochReport(ev.Report))
		case checkpoint.EvProbeSend, checkpoint.EvWindowEnd:
			if int(ev.Index) >= len(mafic) {
				return fmt.Errorf("checkpoint: event %d names defender %d of %d", ev.Seq, ev.Index, len(mafic))
			}
			if int(ev.Probe) >= len(probeRecs) {
				return fmt.Errorf("checkpoint: event %d names probe record %d of %d", ev.Seq, ev.Probe, len(probeRecs))
			}
			ps, we := mafic[ev.Index].ProbeHandlers()
			ah := ps
			if ev.Kind == checkpoint.EvWindowEnd {
				ah = we
			}
			sched.InsertKeyed(ev.At, ev.Seq, ah, probeRecs[ev.Probe])
		default:
			return fmt.Errorf("checkpoint: unknown event kind %d", ev.Kind)
		}
	}
	if listed != kept {
		return fmt.Errorf("checkpoint: snapshot keeps %d build events, the rebuild has %d of them pending", listed, kept)
	}
	// Link occupancy is not trusted from the file: it was recounted above from
	// the packets actually in flight, and must agree with what was recorded.
	for i, l := range links {
		if got, want := l.QueueLen(), int(snap.Links[i].Queued); got != want {
			return fmt.Errorf("checkpoint: %v holds %d packets still being transmitted, snapshot recorded %d", l, got, want)
		}
	}
	b.result.Activated = snap.Flags.Activated
	b.result.ActivationSeconds = snap.Flags.ActivationSeconds
	b.result.DetectedByPushback = snap.Flags.DetectedByPushback
	b.result.ATRCount = int(snap.Flags.ATRCount)
	return nil
}

// stateWalk is the direction walkState runs in, and the first refusal a
// restore met; after it the walk does nothing more.
type stateWalk struct {
	restore bool
	err     error
}

// record pairs one component with its record: capturing copies the
// component's state into st, restoring overlays st onto the component.
func record[S any](w *stateWalk, st *S, capture func(*S), restore func(S) error) {
	switch {
	case w.err != nil:
	case w.restore:
		w.err = restore(*st)
	default:
		capture(st)
	}
}

// records pairs n components with a list of records, through pair on each
// index: capturing sizes the list to n, restoring refuses a list of another
// length.
func records[S any](w *stateWalk, what string, list *[]S, n int, pair func(i int, st *S)) {
	switch {
	case w.err != nil:
		return
	case !w.restore:
		*list = resize(*list, n)
	case len(*list) != n:
		w.err = fmt.Errorf("checkpoint: rebuild has %d %s, snapshot recorded %d", n, what, len(*list))
		return
	}
	for i := range *list {
		pair(i, &(*list)[i])
	}
}

// walkState pairs the capture of every component the rebuild does not
// reproduce with its restore, in one walk: the links (in links' order),
// nodes, network, monitor, coordinator, collector, defenders or droppers,
// flows and victim servers. Restoring, the defenders come after the network
// whose routers they filter and before the flows whose probe records they
// re-bind.
func (b *builtRun) walkState(snap *checkpoint.Snapshot, links []*netsim.Link, restore bool) error {
	w := &stateWalk{restore: restore}
	net, res := b.domain.Net, b.res
	records(w, "links", &snap.Links, len(links), func(i int, st *netsim.LinkState) {
		if restore {
			links[i].RestoreState(*st)
		} else {
			links[i].CheckpointState(st)
		}
	})

	// Nodes are listed in ascending ID order; a restore refuses a node whose
	// ID or kind is not the rebuild's.
	if !restore {
		snap.Nodes = snap.Nodes[:0]
	}
	nodeAt := 0
	net.ForEachNode(func(id netsim.NodeID, r *netsim.Router, h *netsim.Host) {
		switch {
		case w.err != nil:
			return
		case !restore:
			snap.Nodes = append(snap.Nodes, checkpoint.NodeState{ID: id, Router: r != nil})
		case nodeAt == len(snap.Nodes):
			w.err = fmt.Errorf("checkpoint: rebuild has more nodes than the snapshot's %d", len(snap.Nodes))
			return
		case snap.Nodes[nodeAt].ID != id || snap.Nodes[nodeAt].Router != (r != nil):
			ns := snap.Nodes[nodeAt]
			w.err = fmt.Errorf("checkpoint: node %d of the rebuild (%d, router=%v) does not match the snapshot (%d, router=%v)",
				nodeAt, id, r != nil, ns.ID, ns.Router)
			return
		}
		ns := &snap.Nodes[nodeAt]
		nodeAt++
		switch {
		case r != nil && restore:
			r.RestoreState(ns.R)
		case r != nil:
			r.CheckpointState(&ns.R)
		case restore:
			h.RestoreState(ns.H)
		default:
			h.CheckpointState(&ns.H)
		}
	})
	if w.err == nil && nodeAt != len(snap.Nodes) {
		w.err = fmt.Errorf("checkpoint: snapshot has %d nodes, rebuild has %d", len(snap.Nodes), nodeAt)
	}

	record(w, &snap.Network, net.CheckpointState, net.RestoreState)
	record(w, &snap.Monitor, res.monitor.CheckpointState, res.monitor.RestoreState)
	record(w, &snap.Coordinator, res.coordinator.CheckpointState, res.coordinator.RestoreState)
	record(w, &snap.Collector, b.collector.CheckpointState, b.collector.RestoreState)

	// The defender kind follows from the rebuild: a restore refuses a
	// snapshot that says otherwise, and a defender list the rebuild has none
	// of. The defender records keep their probing-memory and table-entry
	// backing from the previous capture; CheckpointState overwrites every
	// field.
	kind := checkpoint.DefNone
	switch {
	case len(res.mafic) > 0:
		kind = checkpoint.DefMAFIC
	case len(res.droppers) > 0:
		kind = checkpoint.DefBaseline
	}
	switch {
	case w.err != nil:
	case !restore:
		snap.DefKind = kind
	case snap.DefKind != kind:
		w.err = fmt.Errorf("checkpoint: snapshot recorded defender kind %d, the rebuild has kind %d", snap.DefKind, kind)
	}
	records(w, "MAFIC defenders", &snap.Defenders, len(res.mafic), func(i int, st *core.DefenderState) {
		record(w, st, res.mafic[i].CheckpointState, res.mafic[i].RestoreState)
	})
	records(w, "baseline droppers", &snap.Droppers, len(res.droppers), func(i int, st *baseline.DropperState) {
		if restore {
			res.droppers[i].RestoreState(*st)
		} else {
			res.droppers[i].CheckpointState(st)
		}
	})

	flows := res.workload.Flows
	records(w, "flows", &snap.Flows, len(flows), func(i int, st *traffic.FlowState) {
		switch {
		case w.err != nil:
		case restore:
			w.err = traffic.RestoreFlowState(flows[i], *st)
		default:
			w.err = traffic.CaptureFlowState(flows[i], st)
		}
	})
	victims := res.workload.ExtraServers
	records(w, "victim servers", &snap.Victims, 1+len(victims), func(i int, st *traffic.VictimServerState) {
		v := res.workload.Victim
		if i > 0 {
			v = victims[i-1]
		}
		if restore {
			v.RestoreState(*st)
		} else {
			v.CheckpointState(st)
		}
	})
	return w.err
}
