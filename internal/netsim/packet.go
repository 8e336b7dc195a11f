package netsim

import (
	"fmt"
	"strconv"

	"mafic/internal/sim"
)

// IP is an IPv4-style 32-bit address. The simulator does not parse dotted
// quads; topology builders allocate addresses from synthetic prefixes.
type IP uint32

// String renders the address in dotted-quad form for logs and debugging.
func (ip IP) String() string {
	return strconv.Itoa(int(ip>>24&0xff)) + "." + strconv.Itoa(int(ip>>16&0xff)) + "." +
		strconv.Itoa(int(ip>>8&0xff)) + "." + strconv.Itoa(int(ip&0xff))
}

// FlowLabel is the 4-tuple {source IP, destination IP, source port,
// destination port} the paper uses to mark each flow (Section III-B). Two
// flows from the same (possibly spoofed) sender still get distinct labels if
// their ports differ.
type FlowLabel struct {
	SrcIP   IP
	DstIP   IP
	SrcPort uint16
	DstPort uint16
}

// FNV-1a parameters (matching hash/fnv's 64-bit variant).
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// Hash returns a 64-bit FNV-1a hash of the label. Flow tables store only this
// hash rather than the label itself to bound their storage overhead, exactly
// as described in the paper. The loop is inlined byte-for-byte compatible
// with hash/fnv over the label's 12-byte big-endian encoding, but performs no
// allocation.
func (l FlowLabel) Hash() uint64 {
	h := uint64(fnvOffset64)
	h = (h ^ uint64(l.SrcIP>>24&0xff)) * fnvPrime64
	h = (h ^ uint64(l.SrcIP>>16&0xff)) * fnvPrime64
	h = (h ^ uint64(l.SrcIP>>8&0xff)) * fnvPrime64
	h = (h ^ uint64(l.SrcIP&0xff)) * fnvPrime64
	h = (h ^ uint64(l.DstIP>>24&0xff)) * fnvPrime64
	h = (h ^ uint64(l.DstIP>>16&0xff)) * fnvPrime64
	h = (h ^ uint64(l.DstIP>>8&0xff)) * fnvPrime64
	h = (h ^ uint64(l.DstIP&0xff)) * fnvPrime64
	h = (h ^ uint64(l.SrcPort>>8)) * fnvPrime64
	h = (h ^ uint64(l.SrcPort&0xff)) * fnvPrime64
	h = (h ^ uint64(l.DstPort>>8)) * fnvPrime64
	h = (h ^ uint64(l.DstPort&0xff)) * fnvPrime64
	return h
}

// Reverse returns the label of the reverse direction of the conversation,
// used to route ACKs and probe packets back toward a flow's claimed source.
func (l FlowLabel) Reverse() FlowLabel {
	return FlowLabel{SrcIP: l.DstIP, DstIP: l.SrcIP, SrcPort: l.DstPort, DstPort: l.SrcPort}
}

// String renders the label as "src:port->dst:port".
func (l FlowLabel) String() string {
	return fmt.Sprintf("%s:%d->%s:%d", l.SrcIP, l.SrcPort, l.DstIP, l.DstPort)
}

// PacketKind distinguishes the packet types the simulation forwards.
type PacketKind uint8

// Packet kinds. Data carries flow payload toward the victim; Ack and DupAck
// travel in the reverse direction; Probe is the duplicated-ACK probe MAFIC
// injects at an ATR; Control carries pushback signalling between routers.
const (
	KindData PacketKind = iota + 1
	KindAck
	KindDupAck
	KindProbe
	KindControl
)

// String implements fmt.Stringer for readable traces.
func (k PacketKind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	case KindDupAck:
		return "dupack"
	case KindProbe:
		return "probe"
	case KindControl:
		return "control"
	default:
		return "unknown(" + strconv.Itoa(int(k)) + ")"
	}
}

// Protocol identifies the transport behaviour of the flow that emitted a
// packet. MAFIC itself never trusts this field; it is carried for workload
// accounting and so receivers know whether to generate ACKs.
type Protocol uint8

// Supported protocols.
const (
	ProtoTCP Protocol = iota + 1
	ProtoUDP
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return "proto(" + strconv.Itoa(int(p)) + ")"
	}
}

// MaxPacketSize is the largest packet in bytes a run sends, the IP datagram
// maximum: workloads and probes are refused above it, and topology bounds its
// links by it so that no transmission time or arrival key overflows sim.Time.
const MaxPacketSize = 65535

// Packet is the unit of forwarding. Ground-truth fields (FlowID, Malicious)
// exist only for measurement; no defence component reads them when making
// decisions.
//
// Field order is deliberate — Kind, Proto and Malicious sit in the padding
// behind Label, the private flags share one word — and TestStructSizes pins
// the size.
type Packet struct {
	// ID is unique per packet within a simulation and doubles as the
	// distinct-element identity the LogLog counters sketch.
	ID uint64
	// Label is the flow 4-tuple carried in the header.
	Label FlowLabel
	// Kind is the packet type.
	Kind PacketKind
	// Proto is the transport protocol of the emitting flow.
	Proto Protocol
	// Malicious is the ground-truth attack marker used only by metrics.
	Malicious bool
	// Seq is the transport sequence number (data) or the acknowledged
	// sequence number (ACK/dup-ACK/probe).
	Seq int64
	// Size is the wire size in bytes used for serialisation delay.
	Size int
	// SentAt is the virtual time the packet left its source, used to
	// derive RTT samples.
	SentAt int64
	// Hops counts how many routers have forwarded the packet so far. A
	// router-attached counter sees Hops == 0 exactly when it is the
	// packet's ingress router.
	Hops int

	// FlowID is the ground-truth identifier of the generating flow.
	FlowID int

	// flowHash caches Label.Hash(); hashOK marks it valid. Traffic sources
	// stamp the hash once per flow via SetFlowHash so the per-packet
	// classification path never rehashes.
	flowHash uint64
	// dstNode caches the owner of Label.DstIP (dstNodeOK marks it valid) so
	// multi-hop forwarding resolves the destination once per packet rather
	// than once per hop.
	dstNode   NodeID
	hashOK    bool
	dstNodeOK bool
	// pooled marks packets obtained from a network's pool; freed flags a
	// pooled packet currently sitting in the free list (double-release
	// detection).
	pooled bool
	freed  bool

	// In-flight state, owned by the link the packet is travelling on: the
	// key (txDone, txSeq) of the instant its transmission ends, and the
	// packet sent on that link next. See "Link occupancy" in doc.go.
	txDone sim.Time
	txSeq  uint64
	inNext *Packet
}

// FlowHash returns Label.Hash(), computing it at most once per packet.
// Sources that know the flow label ahead of time should stamp the hash with
// SetFlowHash instead, making this a plain field read.
func (p *Packet) FlowHash() uint64 {
	if !p.hashOK {
		p.flowHash = p.Label.Hash()
		p.hashOK = true
	}
	return p.flowHash
}

// SetFlowHash stores a precomputed Label.Hash() value, sparing every
// downstream consumer the recomputation. The caller is responsible for the
// hash actually matching the label.
func (p *Packet) SetFlowHash(h uint64) {
	p.flowHash = h
	p.hashOK = true
}

// DestOwner resolves the node owning the packet's destination address,
// caching the answer on the packet so multi-hop forwarding and per-router
// measurement resolve it once per packet instead of once per hop.
func (p *Packet) DestOwner(n *Network) NodeID {
	if !p.dstNodeOK {
		p.dstNode = n.Owner(p.Label.DstIP)
		p.dstNodeOK = true
	}
	return p.dstNode
}

// NodeID identifies a node (router or host) in the simulated domain.
type NodeID int

// NoNode is the sentinel for "no such node".
const NoNode NodeID = -1
