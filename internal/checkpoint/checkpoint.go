package checkpoint

import (
	"fmt"
	"slices"
	"sort"

	"mafic/internal/baseline"
	"mafic/internal/core"
	"mafic/internal/metrics"
	"mafic/internal/netsim"
	"mafic/internal/pushback"
	"mafic/internal/sim"
	"mafic/internal/traffic"
	"mafic/internal/trafficmatrix"
)

// World is the bridge between the experiment run loop and the checkpoint
// layer: every live component of a built run, plus the build/run sequence
// boundary. The experiment package fills it in (avoiding an import cycle —
// this package knows the stateful engine packages, the experiment package
// knows this one).
type World struct {
	Sched       *sim.Scheduler
	RNG         *sim.RNG // the run's root stream; the fork registry hangs off it
	Net         *netsim.Network
	Workload    *traffic.Workload
	Monitor     *trafficmatrix.Monitor
	Coordinator *pushback.Coordinator
	Collector   *metrics.Collector
	// MAFIC and Baseline list the per-ingress defenders in ascending
	// ingress order; at most one of them is non-empty.
	MAFIC    []*core.Defender
	Baseline []*baseline.Dropper
	// BuildSeq is the scheduler sequence number recorded immediately after
	// the build completed, before the first RunUntil: events with a lower
	// sequence number were created by the deterministic rebuild, events at
	// or above it were scheduled at runtime and travel in the snapshot.
	BuildSeq uint64
	// Flags carries the run-level bookkeeping the activation callback has
	// written into the result so far.
	Flags RunFlags
}

// RunFlags is the run-level activation bookkeeping that lives in the result
// struct rather than in any engine component.
type RunFlags struct {
	Activated          bool
	ActivationSeconds  float64
	DetectedByPushback bool
	ATRCount           int64
}

// Event kinds. EvBuild marks a still-pending build-time event (the rebuild
// recreates it; the restore merely keeps it); every other kind is a
// runtime-scheduled event re-inserted explicitly. The runtime kinds form a
// closed set — Capture fails loudly on an unrecognised handler rather than
// silently dropping an event.
const (
	EvBuild uint8 = iota + 1
	_             // 2 was EvLinkTx, snapshot v1's per-packet transmit-done event: retired, not to be reused
	EvLinkArrive
	EvFlowSend
	EvFlowPhase
	EvFlowEnd
	EvMonitorTick
	EvMonitorLate
	EvProbeSend
	EvWindowEnd
)

// EventState is one pending event in a snapshot.
type EventState struct {
	At   sim.Time
	Seq  uint64
	Kind uint8
	// Index identifies the handler owner by kind: the link index (in
	// Network.ForEachLink order) for link events, the flow index (in
	// Workload.Flows order) for flow events, the defender index (ascending
	// ingress order) for probe-cycle events.
	Index uint32
	// Probe is the probe-record table index for EvProbeSend / EvWindowEnd;
	// the two events of one probe cycle share one record.
	Probe uint32
	// Packet is the in-flight payload of an EvLinkArrive event.
	Packet netsim.PacketState
	// Report is the owned payload of an EvMonitorLate delayed report.
	Report trafficmatrix.EpochReportState
}

// ProbeRec is one entry of the deduplicated probe-record table.
type ProbeRec struct {
	Def   uint32
	State core.ProbeRecordState
}

// StreamState is the position of one RNG stream.
type StreamState struct {
	Seed  int64
	Draws uint64
}

// NodeState is the per-node dynamic state, exactly one of Router/Host valid.
type NodeState struct {
	ID     netsim.NodeID
	Router bool
	R      netsim.RouterState
	H      netsim.HostState
}

// Defender kinds in a snapshot.
const (
	DefNone     uint8 = 0
	DefMAFIC    uint8 = 1
	DefBaseline uint8 = 2
)

// Snapshot is the decoded in-memory form of one checkpoint: the scenario
// (JSON, so a resume can rebuild the run from nothing but the snapshot file)
// plus every piece of dynamic state the rebuild does not reproduce.
type Snapshot struct {
	Scenario []byte

	BuildSeq  uint64
	Now       sim.Time
	NextSeq   uint64
	Processed uint64

	Streams []StreamState

	Events    []EventState
	ProbeRecs []ProbeRec

	Links   []netsim.LinkState
	Nodes   []NodeState
	Network netsim.NetworkState

	Monitor     trafficmatrix.MonitorState
	Coordinator pushback.CoordinatorState
	Collector   metrics.CollectorState

	DefKind   uint8
	Defenders []core.DefenderState
	Droppers  []baseline.DropperState

	Flows   []traffic.FlowState
	Victims []traffic.VictimServerState

	Flags RunFlags

	// scratch is the codec Encode walks this snapshot with, and through it the
	// buffer the file is written into before it is copied out; it is kept
	// between calls and never part of the snapshot.
	scratch codec
}

// CheckpointTypes lists this package's own snapshot-carrying structs; the
// coverage guard watches them like every engine package's, so the wire format
// cannot silently drift from the in-memory snapshot layout.
var CheckpointTypes = []any{
	Snapshot{},
	EventState{},
	ProbeRec{},
	StreamState{},
	NodeState{},
	RunFlags{},
	World{},
	Session{},
	writer{},
}

// handlerRole classifies a scheduled handler identity during capture.
type handlerRole struct {
	kind  uint8 // the event kind; EvMonitorTick for the monitor, whose ArgHandler face is EvMonitorLate
	index uint32
}

// Session captures one run repeatedly. Everything about a run whose shape
// does not change between snapshots — the handler registry, the link list,
// the scenario JSON — is computed once, and every capture refills the same
// scratch Snapshot in place, so a steady-state capture allocates nothing.
// See the package documentation ("Cost and lifetime") for what that implies
// for the returned Snapshot.
type Session struct {
	// World is the run being captured. The owner updates World.Flags before
	// each Capture; every other field is fixed for the session's lifetime.
	World *World

	snap Snapshot

	// The handler identity registry: every object runtime events can dispatch
	// through, keyed by the exact interface value the scheduler holds, and
	// the links in ForEachLink order. Both are rebuilt when the world's
	// link, flow or defender count differs from the one they were built for.
	handlers map[any]handlerRole
	links    []*netsim.Link
	builtFor [3]int

	// Per-capture scratch: the probe-record dedupe table and the owned copies
	// of delayed epoch reports (an EventState only holds their slice headers).
	probeIdx map[any]uint32
	reports  []trafficmatrix.EpochReportState
}

// NewSession returns a capture session over the given run. scenarioJSON is
// the serialized Scenario the resume path will rebuild from.
func NewSession(w *World, scenarioJSON []byte) *Session {
	return &Session{
		World:    w,
		snap:     Snapshot{Scenario: scenarioJSON},
		handlers: make(map[any]handlerRole),
		builtFor: [3]int{-1}, // no world has this shape: the first capture builds the registry
		probeIdx: make(map[any]uint32),
	}
}

// Capture is the one-shot form: a fresh session's first capture.
func Capture(w *World, scenarioJSON []byte) (*Snapshot, error) {
	return NewSession(w, scenarioJSON).Capture()
}

// shape is what the handler registry depends on.
func (s *Session) shape() [3]int {
	w := s.World
	return [3]int{w.Net.LinkTotal(), len(w.Workload.Flows), len(w.MAFIC)}
}

// buildRegistry indexes every handler identity of the world.
func (s *Session) buildRegistry() {
	w := s.World
	clear(s.handlers)
	s.links = s.links[:0]
	w.Net.ForEachLink(func(l *netsim.Link) {
		s.handlers[l] = handlerRole{kind: EvLinkArrive, index: uint32(len(s.links))}
		s.links = append(s.links, l)
	})
	for i, f := range w.Workload.Flows {
		if h := traffic.SendHandler(f); h != nil {
			s.handlers[h] = handlerRole{kind: EvFlowSend, index: uint32(i)}
		}
		if ph, eh := traffic.PhaseHandlers(f); ph != nil {
			s.handlers[ph] = handlerRole{kind: EvFlowPhase, index: uint32(i)}
			s.handlers[eh] = handlerRole{kind: EvFlowEnd, index: uint32(i)}
		}
	}
	if w.Monitor != nil {
		s.handlers[w.Monitor] = handlerRole{kind: EvMonitorTick}
	}
	for i, d := range w.MAFIC {
		ps, we := d.ProbeHandlers()
		s.handlers[ps] = handlerRole{kind: EvProbeSend, index: uint32(i)}
		s.handlers[we] = handlerRole{kind: EvWindowEnd, index: uint32(i)}
	}
	s.builtFor = s.shape()
}

// Capture walks the live run and refills the session's Snapshot. The run must
// be paused at an event boundary (between RunUntil calls); Capture only
// reads. The returned Snapshot is the session's own and is overwritten by the
// next Capture.
func (s *Session) Capture() (*Snapshot, error) {
	w := s.World
	snap := &s.snap
	snap.BuildSeq = w.BuildSeq
	snap.Now = w.Sched.Now()
	snap.NextSeq = w.Sched.Seq()
	snap.Processed = w.Sched.Processed()
	snap.Flags = w.Flags

	snap.Streams = snap.Streams[:0]
	for i := 0; i < w.RNG.StreamCount(); i++ {
		seed, draws := w.RNG.StreamState(i)
		snap.Streams = append(snap.Streams, StreamState{Seed: seed, Draws: draws})
	}

	if s.builtFor != s.shape() {
		s.buildRegistry()
	}
	if err := s.captureEvents(); err != nil {
		return nil, err
	}

	snap.Links = resize(snap.Links, len(s.links))
	for i, l := range s.links {
		l.CheckpointState(&snap.Links[i])
	}
	snap.Nodes = snap.Nodes[:0]
	w.Net.ForEachNode(func(id netsim.NodeID, r *netsim.Router, h *netsim.Host) {
		snap.Nodes = append(snap.Nodes, NodeState{ID: id, Router: r != nil})
		ns := &snap.Nodes[len(snap.Nodes)-1]
		if r != nil {
			r.CheckpointState(&ns.R)
		} else {
			h.CheckpointState(&ns.H)
		}
	})
	w.Net.CheckpointState(&snap.Network)

	if w.Monitor != nil {
		w.Monitor.CheckpointState(&snap.Monitor)
	}
	if w.Coordinator != nil {
		w.Coordinator.CheckpointState(&snap.Coordinator)
	}
	if w.Collector != nil {
		w.Collector.CheckpointState(&snap.Collector)
	}

	// The defender records keep their probing-memory and table-entry backing
	// from the previous capture; CheckpointState overwrites every field.
	snap.DefKind = DefNone
	snap.Defenders = resize(snap.Defenders, len(w.MAFIC))
	snap.Droppers = resize(snap.Droppers, len(w.Baseline))
	switch {
	case len(w.MAFIC) > 0:
		snap.DefKind = DefMAFIC
	case len(w.Baseline) > 0:
		snap.DefKind = DefBaseline
	}
	for i, d := range w.MAFIC {
		d.CheckpointState(&snap.Defenders[i])
	}
	for i, d := range w.Baseline {
		d.CheckpointState(&snap.Droppers[i])
	}

	snap.Flows = resize(snap.Flows, len(w.Workload.Flows))
	for i, f := range w.Workload.Flows {
		if err := traffic.CaptureFlowState(f, &snap.Flows[i]); err != nil {
			return nil, err
		}
	}
	snap.Victims = resize(snap.Victims, 1+len(w.Workload.ExtraServers))
	w.Workload.Victim.CheckpointState(&snap.Victims[0])
	for i, v := range w.Workload.ExtraServers {
		v.CheckpointState(&snap.Victims[1+i])
	}

	return snap, nil
}

// captureEvents classifies every pending event against the registry into
// snap.Events, in the order the scheduler's arena holds them, each link
// arrival followed by the arrivals chained behind it on its link: Restore is
// what puts them in sequence order. Probe records are numbered in the same
// order.
func (s *Session) captureEvents() error {
	w := s.World
	snap := &s.snap
	snap.Events = snap.Events[:0]
	snap.ProbeRecs = snap.ProbeRecs[:0]
	clear(s.probeIdx)
	s.reports = s.reports[:0]

	var captureErr error
	w.Sched.ForEachPending(func(ev sim.PendingEvent) {
		if captureErr != nil {
			return
		}
		if ev.Seq < w.BuildSeq {
			snap.Events = append(snap.Events, EventState{At: ev.At, Seq: ev.Seq, Kind: EvBuild})
			return
		}
		if ev.Closure {
			captureErr = fmt.Errorf("checkpoint: runtime event %d at %v dispatches a closure and cannot be captured", ev.Seq, ev.At)
			return
		}
		var key any = ev.H
		if key == nil {
			key = ev.ArgH
		}
		role, ok := s.handlers[key]
		if !ok {
			captureErr = fmt.Errorf("checkpoint: runtime event %d at %v has unrecognised handler %T", ev.Seq, ev.At, key)
			return
		}
		snap.Events = append(snap.Events, EventState{At: ev.At, Seq: ev.Seq, Kind: role.kind, Index: role.index})
		st := &snap.Events[len(snap.Events)-1]
		switch role.kind {
		case EvLinkArrive:
			pkt, ok := ev.Arg.(*netsim.Packet)
			if !ok {
				captureErr = fmt.Errorf("checkpoint: link arrival event %d carries %T, not a packet", ev.Seq, ev.Arg)
				return
			}
			netsim.CapturePacket(pkt, &st.Packet)
			// The packet heads its link's in-flight chain; the arrivals
			// behind it are not in the calendar yet, and follow it here.
			l := s.links[role.index]
			for p, at, seq := l.NextInFlight(pkt); p != nil; p, at, seq = l.NextInFlight(p) {
				snap.Events = append(snap.Events, EventState{At: at, Seq: seq, Kind: EvLinkArrive, Index: role.index})
				netsim.CapturePacket(p, &snap.Events[len(snap.Events)-1].Packet)
			}
		case EvMonitorTick:
			if ev.ArgH != nil {
				st.Kind = EvMonitorLate
				s.reports = resize(s.reports, len(s.reports)+1)
				rep := &s.reports[len(s.reports)-1]
				if captureErr = w.Monitor.CaptureEpochReport(ev.Arg, rep); captureErr != nil {
					return
				}
				st.Report = *rep
			}
		case EvProbeSend, EvWindowEnd:
			idx, seen := s.probeIdx[ev.Arg]
			if !seen {
				idx = uint32(len(snap.ProbeRecs))
				snap.ProbeRecs = append(snap.ProbeRecs, ProbeRec{Def: role.index})
				if captureErr = w.MAFIC[role.index].CaptureProbeRecord(ev.Arg, &snap.ProbeRecs[idx].State); captureErr != nil {
					return
				}
				s.probeIdx[ev.Arg] = idx
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

// Restore overlays a snapshot onto a freshly rebuilt world. The rebuild must
// have followed the exact build path of the original run (same scenario, same
// RNG fork order, same build-time event sequence) — Restore verifies the
// build boundary and the RNG stream layout and fails loudly on divergence.
// After Restore returns, resuming the scheduler continues the simulation
// bit-identically to the uninterrupted run. A snapshot lists its pending
// events in whatever order the capture met them; Restore sorts snap.Events by
// sequence number, in place.
func Restore(w *World, snap *Snapshot) error {
	if w.BuildSeq != snap.BuildSeq {
		return fmt.Errorf("checkpoint: rebuild scheduled %d build events, snapshot recorded %d — the builds diverged",
			w.BuildSeq, snap.BuildSeq)
	}
	if got, want := w.RNG.StreamCount(), len(snap.Streams); got != want {
		return fmt.Errorf("checkpoint: rebuild created %d rng streams, snapshot recorded %d", got, want)
	}
	// Fast-forwarding replays draws one by one, so what the file claims is
	// bounded before it is believed: no handler makes more than a few draws a
	// dispatch (the catalog's runs make 0.03–0.2 an event), and a well-formed
	// file claiming 2^40 would spin for most of an hour.
	budget := 16 * (min(snap.Processed, 1<<59) + 1)
	for i, st := range snap.Streams {
		if _, built := w.RNG.StreamState(i); st.Draws > built {
			if st.Draws-built > budget {
				return fmt.Errorf("checkpoint: rng stream %d claims %d draws since the build, more than %d events could have made",
					i, st.Draws-built, snap.Processed)
			}
			budget -= st.Draws - built
		}
		if err := w.RNG.FastForwardStream(i, st.Seed, st.Draws); err != nil {
			return err
		}
	}

	links := make([]*netsim.Link, 0, w.Net.LinkTotal())
	w.Net.ForEachLink(func(l *netsim.Link) { links = append(links, l) })
	if len(links) != len(snap.Links) {
		return fmt.Errorf("checkpoint: rebuild has %d links, snapshot recorded %d", len(links), len(snap.Links))
	}
	for i, l := range links {
		l.RestoreState(snap.Links[i])
	}
	var nodeErr error
	nodeAt := 0
	w.Net.ForEachNode(func(id netsim.NodeID, r *netsim.Router, h *netsim.Host) {
		if nodeErr != nil {
			return
		}
		if nodeAt >= len(snap.Nodes) {
			nodeErr = fmt.Errorf("checkpoint: rebuild has more nodes than the snapshot's %d", len(snap.Nodes))
			return
		}
		ns := snap.Nodes[nodeAt]
		nodeAt++
		if ns.ID != id || ns.Router != (r != nil) {
			nodeErr = fmt.Errorf("checkpoint: node %d of the rebuild (%d, router=%v) does not match the snapshot (%d, router=%v)",
				nodeAt-1, id, r != nil, ns.ID, ns.Router)
			return
		}
		if r != nil {
			r.RestoreState(ns.R)
		} else {
			h.RestoreState(ns.H)
		}
	})
	if nodeErr != nil {
		return nodeErr
	}
	if nodeAt != len(snap.Nodes) {
		return fmt.Errorf("checkpoint: snapshot has %d nodes, rebuild has %d", len(snap.Nodes), nodeAt)
	}
	if err := w.Net.RestoreState(snap.Network); err != nil {
		return err
	}

	if w.Monitor != nil {
		if err := w.Monitor.RestoreState(snap.Monitor); err != nil {
			return err
		}
	}
	if w.Coordinator != nil {
		if err := w.Coordinator.RestoreState(snap.Coordinator); err != nil {
			return err
		}
	}
	if w.Collector != nil {
		if err := w.Collector.RestoreState(snap.Collector); err != nil {
			return err
		}
	}

	switch snap.DefKind {
	case DefMAFIC:
		if len(w.MAFIC) != len(snap.Defenders) {
			return fmt.Errorf("checkpoint: rebuild has %d MAFIC defenders, snapshot recorded %d",
				len(w.MAFIC), len(snap.Defenders))
		}
		for i, d := range w.MAFIC {
			if err := d.RestoreState(snap.Defenders[i]); err != nil {
				return err
			}
		}
	case DefBaseline:
		if len(w.Baseline) != len(snap.Droppers) {
			return fmt.Errorf("checkpoint: rebuild has %d baseline droppers, snapshot recorded %d",
				len(w.Baseline), len(snap.Droppers))
		}
		for i, d := range w.Baseline {
			d.RestoreState(snap.Droppers[i])
		}
	}

	if len(w.Workload.Flows) != len(snap.Flows) {
		return fmt.Errorf("checkpoint: rebuild has %d flows, snapshot recorded %d",
			len(w.Workload.Flows), len(snap.Flows))
	}
	for i, f := range w.Workload.Flows {
		if err := traffic.RestoreFlowState(f, snap.Flows[i]); err != nil {
			return err
		}
	}
	if want := 1 + len(w.Workload.ExtraServers); want != len(snap.Victims) {
		return fmt.Errorf("checkpoint: rebuild has %d victim servers, snapshot recorded %d", want, len(snap.Victims))
	}
	w.Workload.Victim.RestoreState(snap.Victims[0])
	for i, v := range w.Workload.ExtraServers {
		v.RestoreState(snap.Victims[1+i])
	}

	// Probe records are re-bound against the already-restored flow tables.
	probeRecs := make([]any, len(snap.ProbeRecs))
	for i, pr := range snap.ProbeRecs {
		if int(pr.Def) >= len(w.MAFIC) {
			return fmt.Errorf("checkpoint: probe record %d names defender %d of %d", i, pr.Def, len(w.MAFIC))
		}
		rec, err := w.MAFIC[pr.Def].RestoreProbeRecord(pr.State)
		if err != nil {
			return err
		}
		probeRecs[i] = rec
	}

	// Event reconciliation: cancel the rebuilt build-time events the
	// original run had already consumed, land the clock, then re-insert the
	// runtime events in sequence order. None may lie before the clock: the
	// scheduler would run it, and time would go backwards.
	sort.Slice(snap.Events, func(i, j int) bool { return snap.Events[i].Seq < snap.Events[j].Seq })
	keep := make(map[uint64]bool, len(snap.Events))
	for _, ev := range snap.Events {
		if ev.Kind == EvBuild {
			keep[ev.Seq] = true
		}
	}
	w.Sched.ReconcilePending(snap.BuildSeq, func(seq uint64) bool { return keep[seq] })
	w.Sched.RestoreClock(snap.Now, snap.NextSeq, snap.Processed)

	for i := range snap.Events {
		ev := &snap.Events[i]
		if ev.Kind == EvBuild {
			continue
		}
		if ev.At < snap.Now {
			return fmt.Errorf("checkpoint: event %d has At %v, before the snapshot's Now %v", ev.Seq, ev.At, snap.Now)
		}
		switch ev.Kind {
		case EvLinkArrive:
			if int(ev.Index) >= len(links) {
				return fmt.Errorf("checkpoint: event %d names link %d of %d", ev.Seq, ev.Index, len(links))
			}
			pkt, err := w.Net.RestorePacket(ev.Packet)
			if err != nil {
				return err
			}
			// The link queues the arrival itself if the packet heads its chain.
			if err := links[ev.Index].RestoreInFlight(pkt, ev.At, ev.Seq); err != nil {
				return err
			}
		case EvFlowSend, EvFlowPhase, EvFlowEnd:
			if int(ev.Index) >= len(w.Workload.Flows) {
				return fmt.Errorf("checkpoint: event %d names flow %d of %d", ev.Seq, ev.Index, len(w.Workload.Flows))
			}
			f := w.Workload.Flows[ev.Index]
			switch ev.Kind {
			case EvFlowSend:
				h := traffic.SendHandler(f)
				traffic.SetSendEvent(f, w.Sched.InsertKeyed(ev.At, ev.Seq, nil, nil, nil, h))
			case EvFlowPhase:
				ph, _ := traffic.PhaseHandlers(f)
				if ph == nil {
					return fmt.Errorf("checkpoint: event %d schedules a phase on flow %d, which has none", ev.Seq, ev.Index)
				}
				traffic.SetPhaseEvent(f, w.Sched.InsertKeyed(ev.At, ev.Seq, nil, nil, nil, ph))
			default:
				_, eh := traffic.PhaseHandlers(f)
				if eh == nil {
					return fmt.Errorf("checkpoint: event %d schedules a phase end on flow %d, which has none", ev.Seq, ev.Index)
				}
				w.Sched.InsertKeyed(ev.At, ev.Seq, nil, nil, nil, eh)
			}
		case EvMonitorTick:
			w.Sched.InsertKeyed(ev.At, ev.Seq, nil, nil, nil, w.Monitor)
		case EvMonitorLate:
			w.Sched.InsertKeyed(ev.At, ev.Seq, nil, w.Monitor, w.Monitor.RestoreEpochReport(ev.Report), nil)
		case EvProbeSend, EvWindowEnd:
			if int(ev.Index) >= len(w.MAFIC) {
				return fmt.Errorf("checkpoint: event %d names defender %d of %d", ev.Seq, ev.Index, len(w.MAFIC))
			}
			if int(ev.Probe) >= len(probeRecs) {
				return fmt.Errorf("checkpoint: event %d names probe record %d of %d", ev.Seq, ev.Probe, len(probeRecs))
			}
			ps, we := w.MAFIC[ev.Index].ProbeHandlers()
			ah := ps
			if ev.Kind == EvWindowEnd {
				ah = we
			}
			w.Sched.InsertKeyed(ev.At, ev.Seq, nil, ah, probeRecs[ev.Probe], nil)
		default:
			return fmt.Errorf("checkpoint: unknown event kind %d", ev.Kind)
		}
	}
	// Link occupancy is not trusted from the file: it was recounted above from
	// the packets actually in flight, and must agree with what was recorded.
	for i, l := range links {
		if got, want := l.QueueLen(), int(snap.Links[i].Queued); got != want {
			return fmt.Errorf("checkpoint: %v holds %d packets still being transmitted, snapshot recorded %d", l, got, want)
		}
	}
	w.Flags = snap.Flags
	return nil
}
