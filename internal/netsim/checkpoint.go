package netsim

import (
	"fmt"

	"mafic/internal/sim"
)

// This file is the network's checkpoint surface. A snapshot never serializes
// the graph: the restore path rebuilds the topology deterministically and
// then overlays the dynamic state captured here — per-link transmitter and
// queue occupancy, per-node counters, fault flags, the packet-ID allocator
// and the set of materialized route columns. Fault flags are restored by
// writing the fields directly rather than through SetDown / FailRouter: the
// fault API bumps TopoVersion per flip, and the restore must land on the
// checkpointed version exactly.

// LinkState is the dynamic state of one link, held in its run state once it
// has one. Queued is narrow so that the run state keeps to eight words.
type LinkState struct {
	NextFree   sim.Time
	Queued     int32
	Down       bool
	Sent       uint64
	Dropped    uint64
	FaultDrops uint64
}

// CheckpointState captures the link's dynamic state into dst, its occupancy
// settled first. The in-flight chain does not travel as such: a snapshot
// lists one arrival event per packet on it, the head's from the calendar and
// the rest through NextInFlight.
func (l *Link) CheckpointState(dst *LinkState) {
	l.x.reap()
	*dst = l.x.st
}

// NextInFlight returns the packet sent on the link after p, which must be in
// flight on it, and the key (arrival instant, sequence number) its arrival
// will be dispatched under; nil when p is the last one sent. Only the head of
// the chain has its arrival in the calendar, so a capture walks the rest from
// the head's event.
func (l *Link) NextInFlight(p *Packet) (next *Packet, arrive sim.Time, seq uint64) {
	if next = p.inNext; next == nil {
		return nil, 0, 0
	}
	return next, next.txDone + l.x.cfg.Delay, next.txSeq
}

// RestoreState overlays captured dynamic state onto a rebuilt link, all but
// st.Queued: RestoreInFlight recounts occupancy from the packets in flight,
// and the caller compares QueueLen with st.Queued once they are all back.
// The caller finishes with Network.RestoreState, which recounts the
// network-wide fault bookkeeping from the restored flags. Restoring the zero
// state onto a link with no run state gives it none.
func (l *Link) RestoreState(st LinkState) {
	st.Queued = l.x.st.Queued
	if l.idle() && st == (LinkState{}) {
		return
	}
	l.own().st = st
}

// RestoreInFlight puts pkt back in flight on the link, arriving under the key
// (arrive, seq): it rejoins the chain under the key Send gave it, counts as
// queued unless its transmission had already been retired, and if it heads
// the chain its arrival is queued here — the caller inserts no event for it.
// The scheduler's clock must have been restored, and a link's packets must
// come back in send order, as sorting a snapshot's events by sequence number
// puts them; anything else is refused.
func (l *Link) RestoreInFlight(pkt *Packet, arrive sim.Time, seq uint64) error {
	run := l.own()
	txDone := arrive - run.cfg.Delay
	if t := run.inTail; t != nil && (seq <= t.txSeq || txDone < t.txDone) {
		return fmt.Errorf("netsim: %v: in-flight packet %d (arrival %v, seq %d) is not behind packet %d (arrival %v, seq %d)",
			l, pkt.ID, arrive, seq, t.ID, t.txDone+run.cfg.Delay, t.txSeq)
	}
	l.enchainArrival(run, pkt, txDone, seq, !run.cfg.net.scheduler.Fired(txDone, seq))
	return nil
}

// RouterState is the dynamic state of one router: the fault flag the router
// holds inline and the counters its record holds. The route table and filter
// chain are rebuild-covered.
type RouterState struct {
	Down       bool
	Forwarded  uint64
	Dropped    uint64
	FaultDrops uint64
}

// CheckpointState captures the router's dynamic state into dst.
func (r *Router) CheckpointState(dst *RouterState) {
	x := r.x
	*dst = RouterState{Down: r.down, Forwarded: x.forwarded, Dropped: x.dropped, FaultDrops: x.faultDrops}
}

// RestoreState overlays captured dynamic state onto a rebuilt router.
// Restoring zero counters onto a router with no record gives it none.
func (r *Router) RestoreState(st RouterState) {
	r.down = st.Down
	if r.idle() && st.Forwarded == 0 && st.Dropped == 0 && st.FaultDrops == 0 {
		return
	}
	x := r.own()
	x.forwarded, x.dropped, x.faultDrops = st.Forwarded, st.Dropped, st.FaultDrops
}

// HostState is the dynamic state of one host, held by the host as it runs.
// Addresses, attachment records and packet handlers are rebuild-covered.
type HostState struct {
	Received uint64
	Sent     uint64
}

// CheckpointState captures the host's dynamic counters into dst.
func (h *Host) CheckpointState(dst *HostState) { *dst = h.st }

// RestoreState overlays captured counters onto a rebuilt host.
func (h *Host) RestoreState(st HostState) { h.st = st }

// ForEachLink visits every link in deterministic order — ascending source
// node, then ascending target node. Checkpoint capture and restore both rely
// on this order.
func (n *Network) ForEachLink(fn func(l *Link)) {
	for id := range n.sparse {
		for _, e := range n.row(NodeID(id)) {
			fn(n.link(e.link()))
		}
	}
}

// LinkTotal reports the number of links in the network.
func (n *Network) LinkTotal() int { return n.links }

// ForEachNode visits every allocated node in ascending NodeID order; exactly
// one of r and h is non-nil per call.
func (n *Network) ForEachNode(fn func(id NodeID, r *Router, h *Host)) {
	for id, ref := range n.nodes {
		if ref&hostBit == 0 {
			fn(NodeID(id), n.routerAt(ref), nil)
		} else {
			fn(NodeID(id), nil, n.hostAt(ref))
		}
	}
}

// NetworkState is the network-level dynamic state. RouteDests lists every
// node whose route-column slot was materialized at capture time (ascending);
// the restore replays the materializations after fault state is in place, so
// the resident routing state — and the RouteStats the final Result reports —
// reproduces exactly.
type NetworkState struct {
	NextPktID   uint64
	TopoVersion uint64
	FaultDrops  uint64
	RouteDests  []NodeID
}

// CheckpointState captures the network-level dynamic state into dst, reusing
// dst's RouteDests backing. Per-link and per-node state is captured
// separately via ForEachLink / ForEachNode.
func (n *Network) CheckpointState(dst *NetworkState) {
	dst.NextPktID = n.nextPktID
	dst.TopoVersion = n.topoVersion
	dst.FaultDrops = n.faultDrops
	dst.RouteDests = dst.RouteDests[:0]
	for id := range n.routeCols {
		if n.routeCols[id] != 0 {
			dst.RouteDests = append(dst.RouteDests, NodeID(id))
		}
	}
}

// RestoreState overlays network-level dynamic state onto a rebuilt network.
// It must run after every link and router has had its own state restored: it
// recounts the down-link/down-router totals from the restored flags, lands
// TopoVersion on the checkpointed value, and then rematerializes the
// captured route columns. Every column currently resident was materialized
// after the last fault flip (a flip invalidates them all), so replaying the
// materializations under the restored fault state reproduces the columns the
// running simulation actually held.
func (n *Network) RestoreState(st NetworkState) error {
	n.nextPktID = st.NextPktID
	n.faultDrops = st.FaultDrops
	n.downLinks, n.downRouters = 0, 0
	n.ForEachLink(func(l *Link) {
		if l.Down() {
			n.downLinks++
		}
	})
	for _, ref := range n.nodes {
		if ref&hostBit == 0 && n.routerAt(ref).down {
			n.downRouters++
		}
	}
	n.topoVersion = st.TopoVersion
	n.invalidateRouteColumns()
	for _, dest := range st.RouteDests {
		if n.materializeColumn(dest) == nil {
			return fmt.Errorf("netsim: restore could not rematerialize route column for node %d", dest)
		}
	}
	return nil
}

// PacketState is the serializable form of one in-flight packet (the payload
// of a pending link-arrival event). Only the header and ground-truth fields
// travel: the flow-hash and destination-owner caches are value-deterministic
// and are recomputed or restamped on restore.
type PacketState struct {
	ID        uint64
	Label     FlowLabel
	Kind      PacketKind
	Proto     Protocol
	Seq       int64
	Size      int64
	SentAt    int64
	Hops      int64
	FlowID    int64
	Malicious bool
}

// CapturePacket describes an in-flight packet into dst.
func CapturePacket(p *Packet, dst *PacketState) {
	*dst = PacketState{
		ID:        p.ID,
		Label:     p.Label,
		Kind:      p.Kind,
		Proto:     p.Proto,
		Seq:       p.Seq,
		Size:      int64(p.Size),
		SentAt:    p.SentAt,
		Hops:      int64(p.Hops),
		FlowID:    int64(p.FlowID),
		Malicious: p.Malicious,
	}
}

// RestorePacket materializes an in-flight packet from the network's pool,
// for use as the payload of a re-inserted link-arrival event. It refuses a
// packet no run could have sent: an undeclared kind or protocol, a negative
// hop count, or a size below zero (a negative transmission time) or above
// MaxPacketSize.
func (n *Network) RestorePacket(st PacketState) (*Packet, error) {
	if st.Kind < KindData || st.Kind > KindControl || st.Proto < ProtoTCP || st.Proto > ProtoUDP || st.Size < 0 || st.Size > MaxPacketSize || st.Hops < 0 {
		return nil, fmt.Errorf("netsim: restore packet %d is none a run could send: kind %d, protocol %d, size %d, hop count %d",
			st.ID, uint8(st.Kind), uint8(st.Proto), st.Size, st.Hops)
	}
	p := n.NewPacket()
	p.ID = st.ID
	p.Label = st.Label
	p.Kind = st.Kind
	p.Proto = st.Proto
	p.Seq = st.Seq
	p.Size = int(st.Size)
	p.SentAt = st.SentAt
	p.Hops = int(st.Hops)
	p.FlowID = int(st.FlowID)
	p.Malicious = st.Malicious
	p.SetFlowHash(st.Label.Hash())
	return p, nil
}
