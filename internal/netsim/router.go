package netsim

import (
	"fmt"

	"mafic/internal/sim"
)

// Action is a filter's verdict on a packet.
type Action int

// Filter verdicts.
const (
	// ActionForward lets the packet continue toward its destination.
	ActionForward Action = iota + 1
	// ActionDrop discards the packet at this router.
	ActionDrop
)

// Filter is a per-packet hook attached to a router, playing the role the
// NS-2 Connector subclasses play in the paper (the LogLogCounter, the
// proportional dropper, and the MAFIC agent are all filters). Filters run in
// attachment order; the first ActionDrop wins.
type Filter interface {
	// Name identifies the filter in drop accounting.
	Name() string
	// Handle inspects a packet traversing the router and decides its fate.
	Handle(pkt *Packet, now sim.Time, at *Router) Action
}

// Router forwards packets by destination-owner lookup and the network's
// route columns (see routing.go), invoking its attached filters on every
// traversing packet.
//
// The quick 50 000-router domain holds 50 000 of these, and a hundred or so
// of them forward, count or filter anything. So a router is its id, stored
// narrow, its down flag, inline because every hop reads it, and a pointer to
// its record: the network's idleRouter, shared and never written, until
// AttachFilter or the first count carves one of its own from the network's
// routerRuns. TestStructSizes pins the size.
type Router struct {
	x  *routerRun
	id int32

	// down marks the router crashed: arriving and self-injected packets are
	// dropped without running the filter chain. Flipped only through
	// Network.FailRouter / RestoreRouter (see faults.go).
	down bool
}

// routerRun is what a router holds once it has a filter or has counted a
// packet: its network, its filter chain and its counters, which with
// Router.down make up the RouterState a snapshot records.
type routerRun struct {
	net *Network
	// filters is the filter chain, backed by the network's filterSlab.
	filters    []Filter
	forwarded  uint64
	dropped    uint64
	faultDrops uint64
}

// idle reports whether the router has no record of its own.
func (r *Router) idle() bool { return r.x == &r.x.net.idleRouter }

// own returns the router's record for writing, carving it on the first
// write: the shared idle record is never written. The check is kept small
// enough to inline on the forwarding path.
func (r *Router) own() *routerRun {
	if x := r.x; x != &x.net.idleRouter {
		return x
	}
	return r.carveRun()
}

// carveRun gives the router a zero record from the network's routerRuns.
func (r *Router) carveRun() *routerRun {
	net := r.x.net
	r.x = &net.routerRuns.take(1, runChunk)[0]
	*r.x = routerRun{net: net}
	return r.x
}

// ID reports the router's node identifier.
func (r *Router) ID() NodeID { return NodeID(r.id) }

// Network returns the network the router belongs to.
func (r *Router) Network() *Network { return r.x.net }

// Forwarded reports how many packets the router has forwarded.
func (r *Router) Forwarded() uint64 { return r.x.forwarded }

// FilterDropped reports how many packets the router's filters discarded.
func (r *Router) FilterDropped() uint64 { return r.x.dropped }

// FaultDropped reports how many packets died at this router while it was
// crashed.
func (r *Router) FaultDropped() uint64 { return r.x.faultDrops }

// Down reports whether the router is currently crashed.
func (r *Router) Down() bool { return r.down }

// AttachFilter appends a filter to the router's processing chain. Chain
// storage is carved from a network-level slab: chains are tiny (an arrival
// tap plus at most one defence), so per-router allocations would dominate
// domain construction.
func (r *Router) AttachFilter(f Filter) {
	if f == nil {
		return
	}
	x := r.own()
	if len(x.filters) == cap(x.filters) {
		x.filters = x.net.growFilters(x.filters)
	}
	x.filters = append(x.filters, f)
}

// Filters returns the attached filters in processing order (do not mutate).
func (r *Router) Filters() []Filter { return r.x.filters }

// Deliver processes a packet arriving from an upstream node.
func (r *Router) Deliver(pkt *Packet, from NodeID) {
	r.forward(pkt, from)
}

// Inject routes a packet that originates at this router itself, bypassing
// the filter chain exactly once (the router should not drop its own probes).
// A crashed router injects nothing.
func (r *Router) Inject(pkt *Packet) {
	if r.down {
		r.faultDrop(pkt, r.x.net.Now())
		return
	}
	r.route(pkt)
}

// faultDrop accounts and recycles a packet that reached the crashed router.
func (r *Router) faultDrop(pkt *Packet, now sim.Time) {
	r.own().faultDrops++
	r.x.net.noteFaultDrop(pkt, r.ID(), now)
	r.x.net.FreePacket(pkt)
}

// forward runs the filter chain and then routes the packet. A filter drop is
// a terminal point: the packet is reported and recycled. A crashed router is
// terminal too — its filters do not run, so a dead router neither measures
// nor defends.
func (r *Router) forward(pkt *Packet, _ NodeID) {
	net := r.x.net
	now := net.Now()
	if r.down {
		r.faultDrop(pkt, now)
		return
	}
	for _, f := range r.x.filters {
		if f.Handle(pkt, now, r) == ActionDrop {
			r.own().dropped++
			net.noteFilterDrop(pkt, r, f.Name(), now)
			net.FreePacket(pkt)
			return
		}
	}
	r.own().forwarded++
	pkt.Hops++
	r.route(pkt)
}

// route picks the outgoing link for the packet's destination and transmits:
// the attachment link if the destination hangs off this router, else the
// entry of the destination's route column.
func (r *Router) route(pkt *Packet) {
	net, id := r.x.net, r.ID()
	// Resolve the destination owner once per packet; later hops reuse the
	// cached node instead of repeating the address lookup.
	destNode := pkt.DestOwner(net)
	if destNode == NoNode || destNode == id {
		// Routers never terminate data traffic in this model.
		net.dropUnroutable(pkt, id)
		return
	}
	link := net.AttachmentLink(id, destNode)
	if link == nil {
		if link = net.RouteLink(id, destNode); link == nil {
			net.dropUnroutable(pkt, id)
			return
		}
	}
	link.Send(pkt)
}

// String renders the router for diagnostics: its kind and NodeID.
func (r *Router) String() string {
	return fmt.Sprintf("router(%d)", r.id)
}
