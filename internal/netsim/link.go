package netsim

import (
	"fmt"

	"mafic/internal/sim"
)

// LinkConfig describes one simplex link.
type LinkConfig struct {
	// BandwidthBps is the link capacity in bits per second.
	BandwidthBps float64
	// Delay is the one-way propagation delay.
	Delay sim.Time
	// QueueLen is the maximum number of packets that may be queued waiting
	// for transmission (drop-tail). Zero means DefaultQueueLen.
	QueueLen int
}

// DefaultQueueLen is used when a link is configured with a zero queue length.
const DefaultQueueLen = 128

// Link is a unidirectional channel between two nodes with a serialisation
// delay derived from its bandwidth, a fixed propagation delay, and a
// drop-tail queue. It mirrors the SimplexLink abstraction of NS-2 that the
// paper's LogLogCounter objects attach to.
//
// The quick 50 000-router domain holds about 130 000 of these, so endpoints
// and occupancy are stored narrow and cfg points at the network's one copy of
// the configuration, through which the link also reaches its network;
// TestStructSizes pins the size.
type Link struct {
	from int32 // NodeID of the upstream node
	to   int32 // NodeID of the downstream node
	cfg  *sharedLinkConfig

	// inTail is the last packet of the in-flight chain (Packet.inNext, send
	// order) and txCur the first one whose transmission is not retired from
	// st.Queued yet; see "Link occupancy" in the package documentation.
	inTail *Packet
	txCur  *Packet

	// st is the link's run state, as a snapshot records it: when the
	// transmitter becomes idle, the packets accepted and not yet retired
	// (exact after reap), the fault flag — flipped only through SetDown (see
	// faults.go), which keeps the network's fault bookkeeping and TopoVersion
	// in step — and the counters.
	st LinkState
}

// From reports the upstream node of the link.
func (l *Link) From() NodeID { return NodeID(l.from) }

// To reports the downstream node of the link.
func (l *Link) To() NodeID { return NodeID(l.to) }

// Reverse returns the link in the other direction between the same two
// nodes, or nil when they are connected this way only.
func (l *Link) Reverse() *Link { return l.cfg.net.LinkBetween(NodeID(l.to), NodeID(l.from)) }

// Config returns the link configuration.
func (l *Link) Config() LinkConfig { return l.cfg.LinkConfig }

// Sent reports how many packets the link accepted for transmission.
func (l *Link) Sent() uint64 { return l.st.Sent }

// Dropped reports how many packets the drop-tail queue rejected.
func (l *Link) Dropped() uint64 { return l.st.Dropped }

// QueueLen reports the instantaneous number of packets waiting on the link.
func (l *Link) QueueLen() int {
	l.reap()
	return int(l.st.Queued)
}

// reap retires every packet the link has finished transmitting: what a
// transmit-done event per packet would do, done when the count is looked at.
func (l *Link) reap() {
	s := l.cfg.net.scheduler
	for p := l.txCur; p != nil && s.Fired(p.txDone, p.txSeq); p = p.inNext {
		l.st.Queued--
		l.txCur = p.inNext
	}
}

// transmissionTime returns the serialisation delay of a packet of the given
// size on this link.
func (l *Link) transmissionTime(sizeBytes int) sim.Time {
	if l.cfg.BandwidthBps <= 0 {
		return 0
	}
	seconds := float64(sizeBytes*8) / l.cfg.BandwidthBps
	return sim.Time(seconds * float64(sim.Second))
}

// Send enqueues a packet for transmission toward the link's downstream node.
// Packets beyond the queue limit are dropped, reported through the network's
// OnQueueDrop hook, and recycled. Ownership of the packet transfers to the
// link.
func (l *Link) Send(pkt *Packet) {
	net := l.cfg.net
	now := net.Now()
	if l.st.Down {
		l.st.FaultDrops++
		net.noteFaultDrop(pkt, l.From(), now)
		net.FreePacket(pkt)
		return
	}
	l.reap()
	if int(l.st.Queued) >= l.cfg.QueueLen {
		l.st.Dropped++
		net.noteQueueDrop(pkt, l, now)
		net.FreePacket(pkt)
		return
	}
	l.st.Sent++

	start := now
	if l.st.NextFree > start {
		start = l.st.NextFree
	}
	tx := l.transmissionTime(pkt.Size)
	l.st.NextFree = start + tx

	// One event per hop, the arrival, dispatched through the link itself
	// (sim.ArgHandler) so the forwarding path allocates no closure. Its key
	// is taken now; only the head of the in-flight chain is in the calendar,
	// and each arrival inserts the next. The end of the transmission is only
	// a key on the chain.
	l.enchainArrival(pkt, l.st.NextFree, net.scheduler.Reserve(), true)
}

// enchainArrival appends pkt to the in-flight chain under its transmit-done
// key, which must lie behind the tail's, and queues its arrival if it heads
// the chain. unretired says whether it counts towards st.Queued; once one
// packet does, all behind it do.
func (l *Link) enchainArrival(pkt *Packet, txDone sim.Time, seq uint64, unretired bool) {
	pkt.txDone, pkt.txSeq, pkt.inNext = txDone, seq, nil
	if l.inTail != nil {
		l.inTail.inNext = pkt
	} else {
		l.cfg.net.scheduler.InsertKeyed(txDone+l.cfg.Delay, seq, l, pkt)
	}
	l.inTail = pkt
	if unretired {
		l.st.Queued++
		if l.txCur == nil {
			l.txCur = pkt
		}
	}
}

// OnEventArg implements sim.ArgHandler: the packet carried as arg has
// propagated to the downstream node. It heads the in-flight chain: the next
// packet's arrival is queued under the key Send reserved for it, and this
// one's transmission is retired here unless a reap got to it first.
func (l *Link) OnEventArg(now sim.Time, arg any) {
	pkt, net := arg.(*Packet), l.cfg.net
	if l.txCur == pkt {
		l.st.Queued--
		l.txCur = pkt.inNext
	}
	if next := pkt.inNext; next != nil {
		net.scheduler.InsertKeyed(next.txDone+l.cfg.Delay, next.txSeq, l, next)
	} else {
		l.inTail = nil
	}
	pkt.inNext = nil
	if l.st.Down {
		// The link died while the packet was in flight: it is dropped and
		// accounted here, not leaked — the pool gets it back like any other
		// terminal point.
		l.st.FaultDrops++
		net.noteFaultDrop(pkt, l.To(), now)
		net.FreePacket(pkt)
		return
	}
	net.deliverTo(l.To(), pkt, l.From())
}

// String renders the link endpoints for diagnostics.
func (l *Link) String() string {
	return fmt.Sprintf("link(%d->%d)", l.from, l.to)
}
