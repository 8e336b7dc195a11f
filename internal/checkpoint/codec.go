package checkpoint

import (
	"encoding/binary"
	"fmt"

	"mafic/internal/baseline"
	"mafic/internal/core"
	"mafic/internal/flowtable"
	"mafic/internal/loglog"
	"mafic/internal/metrics"
	"mafic/internal/netsim"
	"mafic/internal/pushback"
	"mafic/internal/traffic"
	"mafic/internal/trafficmatrix"
)

// codec walks a snapshot in one of two directions. Every snapshotted type has
// one walk function that names each of its fields once, in wire order, through
// a pointer; the primitives below write what the pointer holds or fill it from
// the input, so Encode, Decode and the list bounds cannot disagree about a
// layout. The writer accumulates the file; the reader is the section being
// decoded and carries the sticky error.
type codec struct {
	dec bool
	w   writer
	r   reader
}

func (c *codec) u64(p *uint64) {
	if c.dec {
		*p = c.r.u64()
	} else {
		c.w.u64(*p)
	}
}

func (c *codec) u16(p *uint16) {
	if c.dec {
		*p = c.r.u16()
	} else {
		c.w.u16(*p)
	}
}

func (c *codec) boolean(p *bool) {
	if c.dec {
		*p = c.r.boolean()
	} else {
		c.w.boolean(*p)
	}
}

func (c *codec) f64(p *float64) {
	if c.dec {
		*p = c.r.f64()
	} else {
		c.w.f64(*p)
	}
}

func (c *codec) bytes(p *[]byte) {
	if c.dec {
		*p = c.r.bytes((*p)[:0])
	} else {
		c.w.bytes(*p)
	}
}

// The three helpers below carry the named integer types (packet kinds, IPs,
// node IDs, times, …), so that no field is cast once to be written and once
// more to be read.

func u8of[T ~uint8](c *codec, p *T) {
	if c.dec {
		*p = T(c.r.u8())
	} else {
		c.w.u8(uint8(*p))
	}
}

func u32of[T ~uint32](c *codec, p *T) {
	if c.dec {
		*p = T(c.r.u32())
	} else {
		c.w.u32(uint32(*p))
	}
}

// i64of refuses, decoding, a value T cannot hold.
func i64of[T ~int | ~int32 | ~int64](c *codec, p *T) {
	if c.dec {
		v := c.r.i64()
		if *p = T(v); int64(*p) != v {
			c.r.fail("value %d overflows %T", v, *p)
		}
	} else {
		c.w.i64(int64(*p))
	}
}

// fail refuses the input; a walk that is writing has nothing to refuse.
func (c *codec) fail(format string, args ...any) {
	if c.dec {
		c.r.fail(format, args...)
	}
}

// list walks a count and that many elements. Decoding believes the count only
// as far as the bytes behind it could hold that many of the smallest element,
// which bounds the allocation by the input, and fills the elements in place:
// a list whose backing is long enough keeps it, and each element's walk
// overwrites what an earlier decode left there, nested backing included; a
// count of zero empties the list (a nil one stays nil). The smallest element
// is what a zero T encodes to — every varint one byte, every nested list
// empty, a union on its cheaper arm — measured by turning the codec around
// for one walk, into its otherwise idle writer.
func list[T any](c *codec, s *[]T, walk func(*codec, *T)) {
	if !c.dec {
		c.w.u32(uint32(len(*s)))
		for i := range *s {
			walk(c, &(*s)[i])
		}
		return
	}
	var zero T
	c.dec, c.w.b = false, c.w.b[:0]
	walk(c, &zero)
	c.dec = true
	n := c.r.count(len(c.w.b))
	if n > cap(*s) {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	for i := 0; i < n && c.r.err == nil; i++ {
		walk(c, &(*s)[i])
	}
}

// sections is the file layout: the walk of each section kind, which count from
// 1 without a gap, in the order Encode writes them. Decode takes them in any
// order, each exactly once.
var sections = [...]func(*codec, *Snapshot){
	secScenario: func(c *codec, s *Snapshot) { c.bytes(&s.Scenario) },
	secClock: func(c *codec, s *Snapshot) {
		c.u64(&s.BuildSeq)
		i64of(c, &s.Now)
		c.u64(&s.NextSeq)
		c.u64(&s.Processed)
	},
	secRNG:         func(c *codec, s *Snapshot) { list(c, &s.Streams, walkStream) },
	secEvents:      func(c *codec, s *Snapshot) { list(c, &s.Events, walkEvent) },
	secProbeRecs:   func(c *codec, s *Snapshot) { list(c, &s.ProbeRecs, walkProbeRec) },
	secLinks:       func(c *codec, s *Snapshot) { list(c, &s.Links, walkLink) },
	secNodes:       func(c *codec, s *Snapshot) { list(c, &s.Nodes, walkNode) },
	secNetwork:     func(c *codec, s *Snapshot) { walkNetwork(c, &s.Network) },
	secMonitor:     func(c *codec, s *Snapshot) { walkMonitor(c, &s.Monitor) },
	secCoordinator: func(c *codec, s *Snapshot) { walkCoordinator(c, &s.Coordinator) },
	secCollector:   func(c *codec, s *Snapshot) { walkCollector(c, &s.Collector) },
	secDefenders:   walkDefenders,
	secFlows:       func(c *codec, s *Snapshot) { list(c, &s.Flows, walkFlow) },
	secVictims:     func(c *codec, s *Snapshot) { list(c, &s.Victims, walkVictim) },
	secFlags:       func(c *codec, s *Snapshot) { walkFlags(c, &s.Flags) },
}

// Encode serializes a snapshot into the sectioned wire format. The walk runs
// once, into a buffer the snapshot keeps for its next Encode — a run bundle
// refills one Snapshot from capture to capture and from job to job, so the
// buffer is grown by the first snapshots and written over by the rest. What is
// returned is a copy of exactly the encoded size, a fresh one on every call:
// callers hand it to sinks that keep it. Encode must not run concurrently
// with another Encode or a DecodeInto on one Snapshot.
func Encode(snap *Snapshot) []byte {
	c := &snap.scratch
	c.w.b = append(c.w.b[:0], snapshotMagic[:]...)
	c.w.fixed32(SnapshotVersion)
	for i, walk := range sections[1:] {
		c.w.u8(uint8(i + 1))
		lenAt := len(c.w.b)
		c.w.fixed32(0) // the payload's length, known once it is written
		walk(c, snap)
		binary.LittleEndian.PutUint32(c.w.b[lenAt:], uint32(len(c.w.b)-lenAt-4))
	}
	return append(make([]byte, 0, len(c.w.b)), c.w.b...)
}

// Decode parses an encoded snapshot into a new Snapshot: DecodeInto on a
// zero one.
func Decode(data []byte) (*Snapshot, error) {
	snap := new(Snapshot)
	if err := DecodeInto(snap, data); err != nil {
		return nil, err
	}
	return snap, nil
}

// DecodeInto parses an encoded snapshot into snap, validating every length
// against the input before trusting it. Arbitrary input yields a wrapped
// ErrCorrupt, never a panic. Whatever snap held before is overwritten, every
// field of it, and its lists and byte strings keep their backing where it is
// long enough, so a Snapshot decoded into again and again stops allocating;
// nothing in it aliases data. After an error snap holds a mix of the two
// snapshots and is fit only to be decoded or captured into again.
func DecodeInto(snap *Snapshot, data []byte) error {
	r := &reader{b: data}
	if magic := r.take(len(snapshotMagic)); r.err == nil && string(magic) != string(snapshotMagic[:]) {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := r.fixed32(); r.err == nil && v != SnapshotVersion {
		return fmt.Errorf("%w: file is version %d, this build reads %d", ErrVersion, v, SnapshotVersion)
	}
	if r.err != nil {
		return r.err
	}

	c := &codec{dec: true}
	var seen [len(sections)]bool
	for r.remaining() > 0 {
		kind := r.u8()
		payload := r.take(int(r.fixed32()))
		if r.err != nil {
			return r.err
		}
		if kind == 0 || int(kind) >= len(sections) {
			return fmt.Errorf("%w: unknown section kind %d", ErrCorrupt, kind)
		}
		if seen[kind] {
			return fmt.Errorf("%w: duplicate section %d", ErrCorrupt, kind)
		}
		seen[kind] = true
		c.r = reader{b: payload}
		sections[kind](c, snap)
		if c.r.err != nil {
			return fmt.Errorf("section %d: %w", kind, c.r.err)
		}
		if c.r.remaining() != 0 {
			return fmt.Errorf("%w: section %d has %d trailing bytes", ErrCorrupt, kind, c.r.remaining())
		}
	}
	for kind := 1; kind < len(sections); kind++ {
		if !seen[kind] {
			return fmt.Errorf("%w: missing section %d", ErrCorrupt, kind)
		}
	}
	return nil
}

func walkStream(c *codec, st *StreamState) {
	i64of(c, &st.Seed)
	c.u64(&st.Draws)
}

// walkEvent is a union on the event kind, walked before it is switched on so
// that one switch serves both directions. Decoding clears every arm first,
// so that nothing of an event decoded into the same place before survives,
// and gives a late event a report record of its own: the one a capture left
// at that place may be left at another place too, by an earlier and longer
// capture, and two late events decoded into one record would share it.
func walkEvent(c *codec, ev *EventState) {
	i64of(c, &ev.At)
	c.u64(&ev.Seq)
	u8of(c, &ev.Kind)
	if c.dec {
		*ev = EventState{At: ev.At, Seq: ev.Seq, Kind: ev.Kind}
		if ev.Kind == EvMonitorLate {
			ev.Report = new(trafficmatrix.EpochReportState)
		}
	}
	switch ev.Kind {
	case EvBuild, EvMonitorTick:
	case EvFlowSend, EvFlowPhase, EvFlowEnd:
		u32of(c, &ev.Index)
	case EvLinkArrive:
		u32of(c, &ev.Index)
		p := &ev.Packet
		c.u64(&p.ID)
		walkLabel(c, &p.Label)
		u8of(c, &p.Kind)
		u8of(c, &p.Proto)
		i64of(c, &p.Seq)
		i64of(c, &p.Size)
		i64of(c, &p.SentAt)
		i64of(c, &p.Hops)
		i64of(c, &p.FlowID)
		c.boolean(&p.Malicious)
	case EvMonitorLate:
		rep := ev.Report
		i64of(c, &rep.Epoch)
		i64of(c, &rep.Start)
		i64of(c, &rep.End)
		list(c, &rep.Routers, i64of[netsim.NodeID])
		list(c, &rep.SourceEst, (*codec).f64)
		list(c, &rep.DestEst, (*codec).f64)
		list(c, &rep.Matrix, walkCell)
	case EvProbeSend, EvWindowEnd:
		u32of(c, &ev.Index)
		u32of(c, &ev.Probe)
	default:
		c.fail("unknown event kind %d", ev.Kind)
	}
}

func walkLabel(c *codec, l *netsim.FlowLabel) {
	u32of(c, &l.SrcIP)
	u32of(c, &l.DstIP)
	c.u16(&l.SrcPort)
	c.u16(&l.DstPort)
}

func walkCell(c *codec, cell *trafficmatrix.Cell) {
	i64of(c, &cell.Source)
	i64of(c, &cell.Dest)
	c.f64(&cell.Packets)
}

func walkProbeRec(c *codec, pr *ProbeRec) {
	u32of(c, &pr.Def)
	c.boolean(&pr.State.Live)
	c.u64(&pr.State.EntryHash)
	walkLabel(c, &pr.State.Label)
	u8of(c, &pr.State.Proto)
	i64of(c, &pr.State.Seq)
}

func walkLink(c *codec, l *netsim.LinkState) {
	i64of(c, &l.NextFree)
	i64of(c, &l.Queued)
	c.boolean(&l.Down)
	c.u64(&l.Sent)
	c.u64(&l.Dropped)
	c.u64(&l.FaultDrops)
}

// walkNode is a union on Router: exactly one of R and H travels, and
// decoding clears the other.
func walkNode(c *codec, n *NodeState) {
	i64of(c, &n.ID)
	c.boolean(&n.Router)
	if c.dec {
		n.R, n.H = netsim.RouterState{}, netsim.HostState{}
	}
	if n.Router {
		c.boolean(&n.R.Down)
		c.u64(&n.R.Forwarded)
		c.u64(&n.R.Dropped)
		c.u64(&n.R.FaultDrops)
	} else {
		c.u64(&n.H.Received)
		c.u64(&n.H.Sent)
	}
}

func walkNetwork(c *codec, n *netsim.NetworkState) {
	c.u64(&n.NextPktID)
	c.u64(&n.TopoVersion)
	c.u64(&n.FaultDrops)
	list(c, &n.RouteDests, i64of[netsim.NodeID])
}

func walkMonitor(c *codec, m *trafficmatrix.MonitorState) {
	i64of(c, &m.EpochIndex)
	i64of(c, &m.EpochStart)
	c.boolean(&m.Stop)
	c.boolean(&m.Running)
	list(c, &m.Counters, walkCounter)
}

func walkCounter(c *codec, ctr *trafficmatrix.CounterState) {
	for _, s := range [...]*loglog.SketchState{&ctr.Source.Active, &ctr.Source.Shadow, &ctr.Dest.Active, &ctr.Dest.Shadow} {
		c.bytes(&s.Buckets)
		c.u64(&s.Adds)
	}
	c.u64(&ctr.SourcePkts)
	c.u64(&ctr.DestPkts)
	c.u64(&ctr.Transit)
}

func walkCoordinator(c *codec, st *pushback.CoordinatorState) {
	list(c, &st.History, (*codec).f64)
	list(c, &st.HistoryOK, (*codec).boolean)
	i64of(c, &st.HistorySeen)
	list(c, &st.ATRScore, (*codec).f64)
	list(c, &st.IdentifiedATR, (*codec).boolean)
	i64of(c, &st.Identified)
	c.boolean(&st.Active)
	i64of(c, &st.ActiveVictim)
	c.f64(&st.TriggerLoad)
	i64of(c, &st.CalmEpochs)
	i64of(c, &st.RequestsFired)
	i64of(c, &st.LastEpoch)
	i64of(c, &st.LastFireEpoch)
	c.boolean(&st.PendingRefire)
}

func walkCollector(c *codec, st *metrics.CollectorState) {
	c.boolean(&st.Activated)
	i64of(c, &st.ActivationAt)
	n := &st.Counts
	c.u64(&n.ATRLegitPre)
	c.u64(&n.ATRLegitPost)
	c.u64(&n.ATRAttackPre)
	c.u64(&n.ATRAttackPost)
	c.u64(&n.DropLegitProbing)
	c.u64(&n.DropLegitPDT)
	c.u64(&n.DropLegitIllegal)
	c.u64(&n.DropAttack)
	c.u64(&n.DropAttackPDT)
	c.u64(&n.VictimLegitPre)
	c.u64(&n.VictimLegit)
	c.u64(&n.VictimAttackPre)
	c.u64(&n.VictimAttack)
	c.u64(&n.QueueDrops)
	c.u64(&n.FaultDrops)
	list(c, &st.Bins, walkBin)
}

func walkBin(c *codec, b *metrics.BandwidthPoint) {
	i64of(c, &b.Time)
	c.u64(&b.LegitPackets)
	c.u64(&b.AttackPackets)
	c.u64(&b.Bytes)
}

// walkDefenders is a union on the defender kind: MAFIC defenders, baseline
// droppers or neither. Decoding empties both lists first.
func walkDefenders(c *codec, s *Snapshot) {
	u8of(c, &s.DefKind)
	if c.dec {
		s.Defenders, s.Droppers = s.Defenders[:0], s.Droppers[:0]
	}
	switch s.DefKind {
	case DefNone:
	case DefMAFIC:
		list(c, &s.Defenders, walkDefender)
	case DefBaseline:
		list(c, &s.Droppers, walkDropper)
	default:
		c.fail("unknown defender kind %d", s.DefKind)
	}
}

func walkDefender(c *codec, d *core.DefenderState) {
	c.boolean(&d.Active)
	u32of(c, &d.VictimIP)
	c.u64(&d.Stats.Examined)
	c.u64(&d.Stats.Forwarded)
	c.u64(&d.Stats.Dropped)
	c.u64(&d.Stats.DroppedIllegal)
	c.u64(&d.Stats.DroppedPDT)
	c.u64(&d.Stats.DroppedProbing)
	c.u64(&d.Stats.ProbesSent)
	c.u64(&d.Stats.FlowsProbed)
	c.u64(&d.Stats.FlowsNice)
	c.u64(&d.Stats.FlowsCondemned)
	c.u64(&d.Stats.FlowsIllegal)
	c.u64(&d.Stats.FlowsReprobed)
	c.u64(&d.Stats.FlowsRepeatCondemned)
	c.u64(&d.ProbeSeqs)
	list(c, &d.ProbeMemory, walkProbeMemory)
	list(c, &d.Tables.Entries, walkEntry)
	c.u64(&d.Tables.Evictions)
	// A fixed-size table that travels with its count, which must be this build's.
	tn := uint32(len(d.Tables.Transitions))
	u32of(c, &tn)
	if int(tn) != len(d.Tables.Transitions) {
		c.fail("transition table has %d counters, expected %d", tn, len(d.Tables.Transitions))
	}
	for i := range d.Tables.Transitions {
		c.u64(&d.Tables.Transitions[i])
	}
}

func walkProbeMemory(c *codec, pm *core.ProbeMemoryEntry) {
	c.u64(&pm.LabelHash)
	c.u16(&pm.Count)
}

func walkEntry(c *codec, e *flowtable.Entry) {
	c.u64(&e.LabelHash)
	i64of(c, &e.State)
	u32of(c, &e.Gen)
	i64of(c, &e.FirstSeen)
	i64of(c, &e.LastSeen)
	i64of(c, &e.ProbeStart)
	i64of(c, &e.ProbeDeadline)
	i64of(c, &e.BaselineCount)
	i64of(c, &e.ResponseCount)
	c.u64(&e.Packets)
	c.u64(&e.Dropped)
}

func walkDropper(c *codec, d *baseline.DropperState) {
	c.boolean(&d.Active)
	u32of(c, &d.VictimIP)
	c.u64(&d.Stats.Examined)
	c.u64(&d.Stats.Dropped)
	c.u64(&d.Stats.Forwarded)
}

func walkFlow(c *codec, f *traffic.FlowState) {
	u8of(c, &f.Kind)
	c.boolean(&f.Running)
	c.boolean(&f.InBurst)
	c.f64(&f.Cwnd)
	c.f64(&f.Ssthresh)
	i64of(c, &f.Seq)
	i64of(c, &f.LastAcked)
	i64of(c, &f.DupAcks)
	i64of(c, &f.LastAckAt)
	c.u64(&f.Sent)
	c.u64(&f.Acked)
	c.u64(&f.Timeouts)
	c.u64(&f.FastRetx)
	c.u64(&f.ProbeSeen)
	c.u64(&f.Bursts)
}

func walkVictim(c *codec, v *traffic.VictimServerState) {
	c.u64(&v.Received)
	c.u64(&v.ReceivedBad)
	c.u64(&v.ReceivedGood)
	c.u64(&v.AcksGenerated)
}

func walkFlags(c *codec, f *RunFlags) {
	c.boolean(&f.Activated)
	c.f64(&f.ActivationSeconds)
	c.boolean(&f.DetectedByPushback)
	i64of(c, &f.ATRCount)
}
