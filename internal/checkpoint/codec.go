package checkpoint

import (
	"fmt"

	"mafic/internal/baseline"
	"mafic/internal/core"
	"mafic/internal/flowtable"
	"mafic/internal/loglog"
	"mafic/internal/metrics"
	"mafic/internal/netsim"
	"mafic/internal/traffic"
	"mafic/internal/trafficmatrix"
)

// Encode serializes a snapshot into the sectioned wire format. The encoders
// run once, into a scratch buffer the snapshot keeps for its next Encode — a
// Session refills one Snapshot for the whole run, so the buffer is grown by
// the first snapshots and written over by the rest. What is returned is a
// copy of exactly the encoded size, a fresh one on every call: callers hand
// it to sinks that keep it. Encode must not run concurrently on one Snapshot.
func Encode(snap *Snapshot) []byte {
	w := &writer{b: snap.scratch[:0]}
	encodeSnapshot(w, snap)
	snap.scratch = w.b
	return append(make([]byte, 0, len(w.b)), w.b...)
}

func encodeSnapshot(w *writer, snap *Snapshot) {
	w.raw(snapshotMagic[:])
	w.fixed32(SnapshotVersion)

	w.section(secScenario, func(w *writer) { w.bytes(snap.Scenario) })

	w.section(secClock, func(w *writer) {
		w.u64(snap.BuildSeq)
		w.time(snap.Now)
		w.u64(snap.NextSeq)
		w.u64(snap.Processed)
	})

	w.section(secRNG, func(w *writer) {
		w.u32(uint32(len(snap.Streams)))
		for _, st := range snap.Streams {
			w.i64(st.Seed)
			w.u64(st.Draws)
		}
	})

	w.section(secEvents, func(w *writer) {
		w.u32(uint32(len(snap.Events)))
		for i := range snap.Events {
			encodeEvent(w, &snap.Events[i])
		}
	})

	w.section(secProbeRecs, func(w *writer) {
		w.u32(uint32(len(snap.ProbeRecs)))
		for _, pr := range snap.ProbeRecs {
			w.u32(pr.Def)
			w.boolean(pr.State.Live)
			w.u64(pr.State.EntryHash)
			encodeLabel(w, pr.State.Label)
			w.u8(uint8(pr.State.Proto))
			w.i64(pr.State.Seq)
		}
	})

	w.section(secLinks, func(w *writer) {
		w.u32(uint32(len(snap.Links)))
		for _, l := range snap.Links {
			w.time(l.NextFree)
			w.i64(l.Queued)
			w.boolean(l.Down)
			w.u64(l.Sent)
			w.u64(l.Dropped)
			w.u64(l.FaultDrops)
		}
	})

	w.section(secNodes, func(w *writer) {
		w.u32(uint32(len(snap.Nodes)))
		for _, n := range snap.Nodes {
			w.i64(int64(n.ID))
			w.boolean(n.Router)
			if n.Router {
				w.boolean(n.R.Down)
				w.u64(n.R.Forwarded)
				w.u64(n.R.Dropped)
				w.u64(n.R.FaultDrops)
			} else {
				w.u64(n.H.Received)
				w.u64(n.H.Sent)
			}
		}
	})

	w.section(secNetwork, func(w *writer) {
		w.u64(snap.Network.NextPktID)
		w.u64(snap.Network.TopoVersion)
		w.u64(snap.Network.FaultDrops)
		w.u32(uint32(len(snap.Network.RouteDests)))
		for _, d := range snap.Network.RouteDests {
			w.i64(int64(d))
		}
	})

	w.section(secMonitor, func(w *writer) {
		w.i64(snap.Monitor.EpochIndex)
		w.time(snap.Monitor.EpochStart)
		w.boolean(snap.Monitor.Stop)
		w.boolean(snap.Monitor.Running)
		w.u32(uint32(len(snap.Monitor.Counters)))
		for i := range snap.Monitor.Counters {
			c := &snap.Monitor.Counters[i]
			encodePair(w, c.Source)
			encodePair(w, c.Dest)
			w.u64(c.SourcePkts)
			w.u64(c.DestPkts)
			w.u64(c.Transit)
		}
	})

	w.section(secCoordinator, func(w *writer) {
		st := &snap.Coordinator
		w.u32(uint32(len(st.History)))
		for _, v := range st.History {
			w.f64(v)
		}
		w.u32(uint32(len(st.HistoryOK)))
		for _, v := range st.HistoryOK {
			w.boolean(v)
		}
		w.i64(st.HistorySeen)
		w.u32(uint32(len(st.ATRScore)))
		for _, v := range st.ATRScore {
			w.f64(v)
		}
		w.u32(uint32(len(st.IdentifiedATR)))
		for _, v := range st.IdentifiedATR {
			w.boolean(v)
		}
		w.i64(st.Identified)
		w.boolean(st.Active)
		w.i64(int64(st.ActiveVictim))
		w.f64(st.TriggerLoad)
		w.i64(st.CalmEpochs)
		w.i64(st.RequestsFired)
		w.i64(st.LastEpoch)
		w.i64(st.LastFireEpoch)
		w.boolean(st.PendingRefire)
	})

	w.section(secCollector, func(w *writer) {
		st := &snap.Collector
		w.boolean(st.Activated)
		w.time(st.ActivationAt)
		encodeCounts(w, st.Counts)
		w.u32(uint32(len(st.Bins)))
		for _, b := range st.Bins {
			w.time(b.Time)
			w.u64(b.LegitPackets)
			w.u64(b.AttackPackets)
			w.u64(b.Bytes)
		}
	})

	w.section(secDefenders, func(w *writer) {
		w.u8(snap.DefKind)
		switch snap.DefKind {
		case DefMAFIC:
			w.u32(uint32(len(snap.Defenders)))
			for i := range snap.Defenders {
				encodeDefender(w, &snap.Defenders[i])
			}
		case DefBaseline:
			w.u32(uint32(len(snap.Droppers)))
			for _, d := range snap.Droppers {
				w.boolean(d.Active)
				w.u32(uint32(d.VictimIP))
				w.u64(d.Stats.Examined)
				w.u64(d.Stats.Dropped)
				w.u64(d.Stats.Forwarded)
			}
		}
	})

	w.section(secFlows, func(w *writer) {
		w.u32(uint32(len(snap.Flows)))
		for _, f := range snap.Flows {
			w.u8(uint8(f.Kind))
			w.boolean(f.Running)
			w.boolean(f.InBurst)
			w.f64(f.Cwnd)
			w.f64(f.Ssthresh)
			w.i64(f.Seq)
			w.i64(f.LastAcked)
			w.i64(f.DupAcks)
			w.time(f.LastAckAt)
			w.u64(f.Sent)
			w.u64(f.Acked)
			w.u64(f.Timeouts)
			w.u64(f.FastRetx)
			w.u64(f.ProbeSeen)
			w.u64(f.Bursts)
		}
	})

	w.section(secVictims, func(w *writer) {
		w.u32(uint32(len(snap.Victims)))
		for _, v := range snap.Victims {
			w.u64(v.Received)
			w.u64(v.ReceivedBad)
			w.u64(v.ReceivedGood)
			w.u64(v.AcksGenerated)
		}
	})

	w.section(secFlags, func(w *writer) {
		w.boolean(snap.Flags.Activated)
		w.f64(snap.Flags.ActivationSeconds)
		w.boolean(snap.Flags.DetectedByPushback)
		w.i64(snap.Flags.ATRCount)
	})
}

func encodeLabel(w *writer, l netsim.FlowLabel) {
	w.u32(uint32(l.SrcIP))
	w.u32(uint32(l.DstIP))
	w.u16(l.SrcPort)
	w.u16(l.DstPort)
}

func encodeSketch(w *writer, s loglog.SketchState) {
	w.bytes(s.Buckets)
	w.u64(s.Adds)
}

func encodePair(w *writer, p loglog.PairState) {
	encodeSketch(w, p.Active)
	encodeSketch(w, p.Shadow)
}

func encodeCounts(w *writer, c metrics.Counts) {
	w.u64(c.ATRLegitPre)
	w.u64(c.ATRLegitPost)
	w.u64(c.ATRAttackPre)
	w.u64(c.ATRAttackPost)
	w.u64(c.DropLegitProbing)
	w.u64(c.DropLegitPDT)
	w.u64(c.DropLegitIllegal)
	w.u64(c.DropAttack)
	w.u64(c.DropAttackPDT)
	w.u64(c.VictimLegitPre)
	w.u64(c.VictimLegit)
	w.u64(c.VictimAttackPre)
	w.u64(c.VictimAttack)
	w.u64(c.QueueDrops)
	w.u64(c.FaultDrops)
}

func encodeDefender(w *writer, d *core.DefenderState) {
	w.boolean(d.Active)
	w.u32(uint32(d.VictimIP))
	w.u64(d.Stats.Examined)
	w.u64(d.Stats.Forwarded)
	w.u64(d.Stats.Dropped)
	w.u64(d.Stats.DroppedIllegal)
	w.u64(d.Stats.DroppedPDT)
	w.u64(d.Stats.DroppedProbing)
	w.u64(d.Stats.ProbesSent)
	w.u64(d.Stats.FlowsProbed)
	w.u64(d.Stats.FlowsNice)
	w.u64(d.Stats.FlowsCondemned)
	w.u64(d.Stats.FlowsIllegal)
	w.u64(d.Stats.FlowsReprobed)
	w.u64(d.Stats.FlowsRepeatCondemned)
	w.u64(d.ProbeSeqs)
	w.u32(uint32(len(d.ProbeMemory)))
	for _, pm := range d.ProbeMemory {
		w.u64(pm.LabelHash)
		w.u16(pm.Count)
	}
	w.u32(uint32(len(d.Tables.Entries)))
	for i := range d.Tables.Entries {
		e := &d.Tables.Entries[i]
		w.u64(e.LabelHash)
		w.i64(int64(e.State))
		w.u32(e.Gen)
		w.time(e.FirstSeen)
		w.time(e.LastSeen)
		w.time(e.ProbeStart)
		w.time(e.ProbeDeadline)
		w.i64(int64(e.BaselineCount))
		w.i64(int64(e.ResponseCount))
		w.u64(e.Packets)
		w.u64(e.Dropped)
	}
	w.u64(d.Tables.Evictions)
	w.u32(uint32(len(d.Tables.Transitions)))
	for _, t := range d.Tables.Transitions {
		w.u64(t)
	}
}

func encodeEvent(w *writer, ev *EventState) {
	w.time(ev.At)
	w.u64(ev.Seq)
	w.u8(ev.Kind)
	switch ev.Kind {
	case EvBuild, EvMonitorTick:
	case EvFlowSend, EvFlowPhase, EvFlowEnd:
		w.u32(ev.Index)
	case EvLinkArrive:
		w.u32(ev.Index)
		p := &ev.Packet
		w.u64(p.ID)
		encodeLabel(w, p.Label)
		w.u8(uint8(p.Kind))
		w.u8(uint8(p.Proto))
		w.i64(p.Seq)
		w.i64(p.Size)
		w.i64(p.SentAt)
		w.i64(p.Hops)
		w.i64(p.FlowID)
		w.boolean(p.Malicious)
	case EvMonitorLate:
		rep := &ev.Report
		w.i64(rep.Epoch)
		w.time(rep.Start)
		w.time(rep.End)
		w.u32(uint32(len(rep.Routers)))
		for _, id := range rep.Routers {
			w.i64(int64(id))
		}
		w.u32(uint32(len(rep.SourceEst)))
		for _, v := range rep.SourceEst {
			w.f64(v)
		}
		w.u32(uint32(len(rep.DestEst)))
		for _, v := range rep.DestEst {
			w.f64(v)
		}
		w.u32(uint32(len(rep.Matrix)))
		for _, c := range rep.Matrix {
			w.i64(int64(c.Source))
			w.i64(int64(c.Dest))
			w.f64(c.Packets)
		}
	case EvProbeSend, EvWindowEnd:
		w.u32(ev.Index)
		w.u32(ev.Probe)
	}
}

// Decode parses an encoded snapshot, validating every length against the
// input before trusting it. Arbitrary input yields a wrapped ErrCorrupt,
// never a panic.
func Decode(data []byte) (*Snapshot, error) {
	r := &reader{b: data}
	magic := r.take(len(snapshotMagic))
	if r.err != nil {
		return nil, r.err
	}
	if string(magic) != string(snapshotMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := r.fixed32(); r.err == nil && v != SnapshotVersion {
		return nil, fmt.Errorf("%w: file is version %d, this build reads %d", ErrVersion, v, SnapshotVersion)
	}
	if r.err != nil {
		return nil, r.err
	}

	snap := &Snapshot{}
	seen := make(map[uint8]bool)
	for r.remaining() > 0 {
		kind := r.u8()
		payload := r.take(int(r.fixed32()))
		if r.err != nil {
			return nil, r.err
		}
		if seen[kind] {
			return nil, fmt.Errorf("%w: duplicate section %d", ErrCorrupt, kind)
		}
		seen[kind] = true
		sr := &reader{b: payload}
		decodeSection(sr, kind, snap)
		if sr.err != nil {
			return nil, fmt.Errorf("section %d: %w", kind, sr.err)
		}
		if sr.remaining() != 0 {
			return nil, fmt.Errorf("%w: section %d has %d trailing bytes", ErrCorrupt, kind, sr.remaining())
		}
	}
	for _, k := range []uint8{
		secScenario, secClock, secRNG, secEvents, secProbeRecs, secLinks,
		secNodes, secNetwork, secMonitor, secCoordinator, secCollector,
		secDefenders, secFlows, secVictims, secFlags,
	} {
		if !seen[k] {
			return nil, fmt.Errorf("%w: missing section %d", ErrCorrupt, k)
		}
	}
	return snap, nil
}

func decodeSection(r *reader, kind uint8, snap *Snapshot) {
	switch kind {
	case secScenario:
		snap.Scenario = r.bytes()

	case secClock:
		snap.BuildSeq = r.u64()
		snap.Now = r.time()
		snap.NextSeq = r.u64()
		snap.Processed = r.u64()

	case secRNG:
		n := r.count(2)
		snap.Streams = make([]StreamState, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			snap.Streams = append(snap.Streams, StreamState{Seed: r.i64(), Draws: r.u64()})
		}

	case secEvents:
		n := r.count(3)
		snap.Events = make([]EventState, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			snap.Events = append(snap.Events, decodeEvent(r))
		}

	case secProbeRecs:
		n := r.count(9)
		snap.ProbeRecs = make([]ProbeRec, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			pr := ProbeRec{Def: r.u32()}
			pr.State.Live = r.boolean()
			pr.State.EntryHash = r.u64()
			pr.State.Label = decodeLabel(r)
			pr.State.Proto = netsim.Protocol(r.u8())
			pr.State.Seq = r.i64()
			snap.ProbeRecs = append(snap.ProbeRecs, pr)
		}

	case secLinks:
		n := r.count(6)
		snap.Links = make([]netsim.LinkState, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			snap.Links = append(snap.Links, netsim.LinkState{
				NextFree:   r.time(),
				Queued:     r.i64(),
				Down:       r.boolean(),
				Sent:       r.u64(),
				Dropped:    r.u64(),
				FaultDrops: r.u64(),
			})
		}

	case secNodes:
		n := r.count(4)
		snap.Nodes = make([]NodeState, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			ns := NodeState{ID: netsim.NodeID(r.i64()), Router: r.boolean()}
			if ns.Router {
				ns.R = netsim.RouterState{
					Down:       r.boolean(),
					Forwarded:  r.u64(),
					Dropped:    r.u64(),
					FaultDrops: r.u64(),
				}
			} else {
				ns.H = netsim.HostState{Received: r.u64(), Sent: r.u64()}
			}
			snap.Nodes = append(snap.Nodes, ns)
		}

	case secNetwork:
		snap.Network.NextPktID = r.u64()
		snap.Network.TopoVersion = r.u64()
		snap.Network.FaultDrops = r.u64()
		n := r.count(1)
		snap.Network.RouteDests = make([]netsim.NodeID, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			snap.Network.RouteDests = append(snap.Network.RouteDests, netsim.NodeID(r.i64()))
		}

	case secMonitor:
		snap.Monitor.EpochIndex = r.i64()
		snap.Monitor.EpochStart = r.time()
		snap.Monitor.Stop = r.boolean()
		snap.Monitor.Running = r.boolean()
		n := r.count(11)
		snap.Monitor.Counters = make([]trafficmatrix.CounterState, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			snap.Monitor.Counters = append(snap.Monitor.Counters, trafficmatrix.CounterState{
				Source:     decodePair(r),
				Dest:       decodePair(r),
				SourcePkts: r.u64(),
				DestPkts:   r.u64(),
				Transit:    r.u64(),
			})
		}

	case secCoordinator:
		st := &snap.Coordinator
		st.History = decodeF64s(r)
		st.HistoryOK = decodeBools(r)
		st.HistorySeen = r.i64()
		st.ATRScore = decodeF64s(r)
		st.IdentifiedATR = decodeBools(r)
		st.Identified = r.i64()
		st.Active = r.boolean()
		st.ActiveVictim = netsim.NodeID(r.i64())
		st.TriggerLoad = r.f64()
		st.CalmEpochs = r.i64()
		st.RequestsFired = r.i64()
		st.LastEpoch = r.i64()
		st.LastFireEpoch = r.i64()
		st.PendingRefire = r.boolean()

	case secCollector:
		st := &snap.Collector
		st.Activated = r.boolean()
		st.ActivationAt = r.time()
		st.Counts = decodeCounts(r)
		n := r.count(4)
		st.Bins = make([]metrics.BandwidthPoint, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			st.Bins = append(st.Bins, metrics.BandwidthPoint{
				Time:          r.time(),
				LegitPackets:  r.u64(),
				AttackPackets: r.u64(),
				Bytes:         r.u64(),
			})
		}

	case secDefenders:
		snap.DefKind = r.u8()
		switch snap.DefKind {
		case DefNone:
		case DefMAFIC:
			n := r.count(20)
			snap.Defenders = make([]core.DefenderState, 0, n)
			for i := 0; i < n && r.err == nil; i++ {
				snap.Defenders = append(snap.Defenders, decodeDefender(r))
			}
		case DefBaseline:
			n := r.count(5)
			snap.Droppers = make([]baseline.DropperState, 0, n)
			for i := 0; i < n && r.err == nil; i++ {
				d := baseline.DropperState{Active: r.boolean(), VictimIP: netsim.IP(r.u32())}
				d.Stats.Examined = r.u64()
				d.Stats.Dropped = r.u64()
				d.Stats.Forwarded = r.u64()
				snap.Droppers = append(snap.Droppers, d)
			}
		default:
			r.fail("unknown defender kind %d", snap.DefKind)
		}

	case secFlows:
		n := r.count(29)
		snap.Flows = make([]traffic.FlowState, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			snap.Flows = append(snap.Flows, traffic.FlowState{
				Kind:      traffic.FlowKind(r.u8()),
				Running:   r.boolean(),
				InBurst:   r.boolean(),
				Cwnd:      r.f64(),
				Ssthresh:  r.f64(),
				Seq:       r.i64(),
				LastAcked: r.i64(),
				DupAcks:   r.i64(),
				LastAckAt: r.time(),
				Sent:      r.u64(),
				Acked:     r.u64(),
				Timeouts:  r.u64(),
				FastRetx:  r.u64(),
				ProbeSeen: r.u64(),
				Bursts:    r.u64(),
			})
		}

	case secVictims:
		n := r.count(4)
		snap.Victims = make([]traffic.VictimServerState, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			snap.Victims = append(snap.Victims, traffic.VictimServerState{
				Received:      r.u64(),
				ReceivedBad:   r.u64(),
				ReceivedGood:  r.u64(),
				AcksGenerated: r.u64(),
			})
		}

	case secFlags:
		snap.Flags.Activated = r.boolean()
		snap.Flags.ActivationSeconds = r.f64()
		snap.Flags.DetectedByPushback = r.boolean()
		snap.Flags.ATRCount = r.i64()

	default:
		r.fail("unknown section kind %d", kind)
	}
}

func decodeLabel(r *reader) netsim.FlowLabel {
	return netsim.FlowLabel{
		SrcIP:   netsim.IP(r.u32()),
		DstIP:   netsim.IP(r.u32()),
		SrcPort: r.u16(),
		DstPort: r.u16(),
	}
}

func decodeSketch(r *reader) loglog.SketchState {
	return loglog.SketchState{Buckets: r.bytes(), Adds: r.u64()}
}

func decodePair(r *reader) loglog.PairState {
	return loglog.PairState{Active: decodeSketch(r), Shadow: decodeSketch(r)}
}

func decodeF64s(r *reader) []float64 {
	n := r.count(8)
	out := make([]float64, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.f64())
	}
	return out
}

func decodeBools(r *reader) []bool {
	n := r.count(1)
	out := make([]bool, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.boolean())
	}
	return out
}

func decodeCounts(r *reader) metrics.Counts {
	return metrics.Counts{
		ATRLegitPre:      r.u64(),
		ATRLegitPost:     r.u64(),
		ATRAttackPre:     r.u64(),
		ATRAttackPost:    r.u64(),
		DropLegitProbing: r.u64(),
		DropLegitPDT:     r.u64(),
		DropLegitIllegal: r.u64(),
		DropAttack:       r.u64(),
		DropAttackPDT:    r.u64(),
		VictimLegitPre:   r.u64(),
		VictimLegit:      r.u64(),
		VictimAttackPre:  r.u64(),
		VictimAttack:     r.u64(),
		QueueDrops:       r.u64(),
		FaultDrops:       r.u64(),
	}
}

func decodeDefender(r *reader) core.DefenderState {
	d := core.DefenderState{}
	d.Active = r.boolean()
	d.VictimIP = netsim.IP(r.u32())
	d.Stats.Examined = r.u64()
	d.Stats.Forwarded = r.u64()
	d.Stats.Dropped = r.u64()
	d.Stats.DroppedIllegal = r.u64()
	d.Stats.DroppedPDT = r.u64()
	d.Stats.DroppedProbing = r.u64()
	d.Stats.ProbesSent = r.u64()
	d.Stats.FlowsProbed = r.u64()
	d.Stats.FlowsNice = r.u64()
	d.Stats.FlowsCondemned = r.u64()
	d.Stats.FlowsIllegal = r.u64()
	d.Stats.FlowsReprobed = r.u64()
	d.Stats.FlowsRepeatCondemned = r.u64()
	d.ProbeSeqs = r.u64()
	n := r.count(2)
	if n > 0 {
		d.ProbeMemory = make([]core.ProbeMemoryEntry, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		d.ProbeMemory = append(d.ProbeMemory, core.ProbeMemoryEntry{LabelHash: r.u64(), Count: r.u16()})
	}
	n = r.count(11)
	if n > 0 {
		d.Tables.Entries = make([]flowtable.Entry, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		d.Tables.Entries = append(d.Tables.Entries, flowtable.Entry{
			LabelHash:     r.u64(),
			State:         flowtable.State(r.i64()),
			Gen:           r.u32(),
			FirstSeen:     r.time(),
			LastSeen:      r.time(),
			ProbeStart:    r.time(),
			ProbeDeadline: r.time(),
			BaselineCount: int(r.i64()),
			ResponseCount: int(r.i64()),
			Packets:       r.u64(),
			Dropped:       r.u64(),
		})
	}
	d.Tables.Evictions = r.u64()
	tn := r.count(1)
	if r.err == nil && tn != len(d.Tables.Transitions) {
		r.fail("transition table has %d counters, expected %d", tn, len(d.Tables.Transitions))
	}
	for i := 0; i < len(d.Tables.Transitions) && r.err == nil; i++ {
		d.Tables.Transitions[i] = r.u64()
	}
	return d
}

func decodeEvent(r *reader) EventState {
	ev := EventState{At: r.time(), Seq: r.u64(), Kind: r.u8()}
	switch ev.Kind {
	case EvBuild, EvMonitorTick:
	case EvFlowSend, EvFlowPhase, EvFlowEnd:
		ev.Index = r.u32()
	case EvLinkArrive:
		ev.Index = r.u32()
		ev.Packet.ID = r.u64()
		ev.Packet.Label = decodeLabel(r)
		ev.Packet.Kind = netsim.PacketKind(r.u8())
		ev.Packet.Proto = netsim.Protocol(r.u8())
		ev.Packet.Seq = r.i64()
		ev.Packet.Size = r.i64()
		ev.Packet.SentAt = r.i64()
		ev.Packet.Hops = r.i64()
		ev.Packet.FlowID = r.i64()
		ev.Packet.Malicious = r.boolean()
	case EvMonitorLate:
		ev.Report.Epoch = r.i64()
		ev.Report.Start = r.time()
		ev.Report.End = r.time()
		n := r.count(1)
		ev.Report.Routers = make([]netsim.NodeID, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			ev.Report.Routers = append(ev.Report.Routers, netsim.NodeID(r.i64()))
		}
		ev.Report.SourceEst = decodeF64s(r)
		ev.Report.DestEst = decodeF64s(r)
		n = r.count(10)
		ev.Report.Matrix = make([]trafficmatrix.Cell, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			ev.Report.Matrix = append(ev.Report.Matrix, trafficmatrix.Cell{
				Source:  netsim.NodeID(r.i64()),
				Dest:    netsim.NodeID(r.i64()),
				Packets: r.f64(),
			})
		}
	case EvProbeSend, EvWindowEnd:
		ev.Index = r.u32()
		ev.Probe = r.u32()
	default:
		r.fail("unknown event kind %d", ev.Kind)
	}
	return ev
}
