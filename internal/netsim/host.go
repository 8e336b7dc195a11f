package netsim

import (
	"fmt"

	"mafic/internal/sim"
)

// PacketHandler receives packets addressed to a host. Traffic agents (TCP
// senders, the victim server) register handlers keyed by the flow label of
// the traffic they expect to receive.
type PacketHandler func(pkt *Packet, now sim.Time)

// maxHostHomes bounds the attachment links recorded inline on a Host. Hosts
// are single-homed except the optionally multi-homed victim (two homes);
// anything past the bound falls back to the adjacency search.
const maxHostHomes = 4

// Host is an end system: a traffic source (client or zombie) or sink (the
// victim server). Hosts attach to exactly one access router.
type Host struct {
	net *Network
	id  NodeID
	ips []IP

	accessRouter NodeID
	// uplink is LinkBetween(id, accessRouter), kept by AttachTo and connect
	// so that a send is no adjacency search; nil while there is no such link.
	uplink *Link

	// homeRouters/homeLinks record every router holding a direct link *to*
	// this host — the final-hop links forwarding needs — filled by Connect.
	// Keeping them inline on the host makes "is this destination attached
	// to me?" an O(homes) scan of one or two entries instead of a per-hop
	// adjacency search that misses everywhere but the last router.
	// homeCount may exceed maxHostHomes; the surplus entries are not
	// recorded and Network.AttachmentLink falls back to the full search.
	homeRouters [maxHostHomes]NodeID
	homeLinks   [maxHostHomes]*Link
	homeCount   int

	// nHandlers counts the labels registered for this host in the
	// network's shared handler registry; zero lets pure-sink hosts skip
	// the registry lookup entirely on delivery.
	nHandlers int
	// defaultHandler receives packets with no registered label handler.
	defaultHandler PacketHandler

	// st is the host's run state, as a snapshot records it.
	st HostState
}

// ID reports the host's node identifier.
func (h *Host) ID() NodeID { return h.id }

// Network returns the network the host belongs to.
func (h *Host) Network() *Network { return h.net }

// IPs returns a copy of the addresses owned by the host.
func (h *Host) IPs() []IP { return append([]IP(nil), h.ips...) }

// PrimaryIP returns the host's first address, or zero if it has none.
func (h *Host) PrimaryIP() IP {
	if len(h.ips) == 0 {
		return 0
	}
	return h.ips[0]
}

// Received reports how many packets the host has accepted.
func (h *Host) Received() uint64 { return h.st.Received }

// Sent reports how many packets the host has emitted.
func (h *Host) Sent() uint64 { return h.st.Sent }

// AttachTo records the host's access router. The caller is responsible for
// creating the duplex link separately (topology builders do both), before or
// after this call.
func (h *Host) AttachTo(router NodeID) {
	h.accessRouter = router
	h.uplink = h.net.LinkBetween(h.id, router)
}

// AccessRouter reports the router the host is attached to.
func (h *Host) AccessRouter() NodeID { return h.accessRouter }

// noteHome records a router→host attachment link as it is connected.
func (h *Host) noteHome(router NodeID, l *Link) {
	if h.homeCount < maxHostHomes {
		h.homeRouters[h.homeCount] = router
		h.homeLinks[h.homeCount] = l
	}
	// Count past the bound when overflowing so AttachmentLink knows the
	// inline record is incomplete.
	h.homeCount++
}

// Register installs a handler for packets carrying the given label.
// Handlers live in a network-wide registry keyed by (host, label), so
// registering costs no per-host allocation.
func (h *Host) Register(label FlowLabel, fn PacketHandler) {
	if h.net.handlerFor(h.id, label) == nil {
		h.nHandlers++
	}
	h.net.registerHandler(h.id, label, fn)
}

// SetDefaultHandler installs the handler used when no per-label handler
// matches (the victim server uses this to accept every incoming flow).
func (h *Host) SetDefaultHandler(fn PacketHandler) { h.defaultHandler = fn }

// Deliver accepts a packet addressed to this host. Delivery is the packet's
// terminal point: once the handler returns, the packet is recycled, so
// handlers must not retain it.
func (h *Host) Deliver(pkt *Packet, _ NodeID) {
	now := h.net.Now()
	h.st.Received++
	h.net.noteDeliver(pkt, h, now)
	if fn := h.labelHandler(pkt.Label); fn != nil {
		fn(pkt, now)
	} else if h.defaultHandler != nil {
		h.defaultHandler(pkt, now)
	}
	h.net.FreePacket(pkt)
}

// labelHandler resolves the per-label handler for a received packet, if any.
func (h *Host) labelHandler(label FlowLabel) PacketHandler {
	if h.nHandlers == 0 {
		return nil
	}
	return h.net.handlerFor(h.id, label)
}

// Send emits a packet from this host toward its destination via the host's
// access link. Ownership of the packet transfers to the network.
func (h *Host) Send(pkt *Packet) { h.send(pkt) }

func (h *Host) send(pkt *Packet) {
	h.st.Sent++
	pkt.SentAt = int64(h.net.Now())
	if h.uplink == nil {
		h.net.dropUnroutable(pkt, h.id)
		return
	}
	h.uplink.Send(pkt)
}

// String renders the host for diagnostics: its kind and NodeID.
func (h *Host) String() string {
	return fmt.Sprintf("host(%d)", h.id)
}
