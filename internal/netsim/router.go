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
type Router struct {
	net *Network
	id  NodeID

	// filters is the router's filter chain, carved from the network's
	// chainSlab by the first AttachFilter, and nil until then: most routers
	// of a large domain never get one.
	filters *[]Filter

	// ctr is the router's counters, carved from the network's ctrSlab by
	// the first packet it forwards, filter-drops or fault-drops, and nil
	// until then: most routers of a large domain never see one.
	ctr *routerCounters

	// down marks the router crashed: arriving and self-injected packets are
	// dropped without running the filter chain. Flipped only through
	// Network.FailRouter / RestoreRouter (see faults.go). It is inline, not
	// with the counters, because every hop reads it.
	down bool
}

// routerCounters is what a router holds once it has counted a packet; with
// Router.down it makes up the RouterState a snapshot records.
type routerCounters struct {
	forwarded  uint64
	dropped    uint64
	faultDrops uint64
}

// idleRouter is the counters of every router that has none: all zero, and
// never written, since every write goes through own.
var idleRouter routerCounters

// counts returns the router's counters for reading: idleRouter if it has
// none.
func (r *Router) counts() *routerCounters {
	if r.ctr != nil {
		return r.ctr
	}
	return &idleRouter
}

// own returns the router's counters for writing, carving them on the first
// write. The check is kept small enough to inline on the forwarding path.
func (r *Router) own() *routerCounters {
	if r.ctr != nil {
		return r.ctr
	}
	return r.carveCounters()
}

// carveCounters gives the router zero counters from the network's ctrSlab.
func (r *Router) carveCounters() *routerCounters {
	r.ctr = &r.net.ctrSlab.take(1, ctrChunk)[0]
	*r.ctr = routerCounters{}
	return r.ctr
}

// ID reports the router's node identifier.
func (r *Router) ID() NodeID { return r.id }

// Network returns the network the router belongs to.
func (r *Router) Network() *Network { return r.net }

// Forwarded reports how many packets the router has forwarded.
func (r *Router) Forwarded() uint64 { return r.counts().forwarded }

// FilterDropped reports how many packets the router's filters discarded.
func (r *Router) FilterDropped() uint64 { return r.counts().dropped }

// FaultDropped reports how many packets died at this router while it was
// crashed.
func (r *Router) FaultDropped() uint64 { return r.counts().faultDrops }

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
	if r.filters == nil {
		r.filters = &r.net.chainSlab.take(1, filterChunk)[0]
		*r.filters = nil
	}
	chain := *r.filters
	if len(chain) == cap(chain) {
		chain = r.net.growFilters(chain)
	}
	*r.filters = append(chain, f)
}

// Filters returns the attached filters in processing order (do not mutate).
func (r *Router) Filters() []Filter {
	if r.filters == nil {
		return nil
	}
	return *r.filters
}

// Deliver processes a packet arriving from an upstream node.
func (r *Router) Deliver(pkt *Packet, from NodeID) {
	r.forward(pkt, from)
}

// Inject routes a packet that originates at this router itself, bypassing
// the filter chain exactly once (the router should not drop its own probes).
// A crashed router injects nothing.
func (r *Router) Inject(pkt *Packet) {
	if r.down {
		r.own().faultDrops++
		r.net.noteFaultDrop(pkt, r.id, r.net.Now())
		r.net.FreePacket(pkt)
		return
	}
	r.route(pkt)
}

// forward runs the filter chain and then routes the packet. A filter drop is
// a terminal point: the packet is reported and recycled. A crashed router is
// terminal too — its filters do not run, so a dead router neither measures
// nor defends.
func (r *Router) forward(pkt *Packet, _ NodeID) {
	now := r.net.Now()
	if r.down {
		r.own().faultDrops++
		r.net.noteFaultDrop(pkt, r.id, now)
		r.net.FreePacket(pkt)
		return
	}
	for _, f := range r.Filters() {
		if f.Handle(pkt, now, r) == ActionDrop {
			r.own().dropped++
			r.net.noteFilterDrop(pkt, r, f.Name(), now)
			r.net.FreePacket(pkt)
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
	// Resolve the destination owner once per packet; later hops reuse the
	// cached node instead of repeating the address lookup.
	destNode := pkt.DestOwner(r.net)
	if destNode == NoNode || destNode == r.id {
		// Routers never terminate data traffic in this model.
		r.net.dropUnroutable(pkt, r.id)
		return
	}
	link := r.net.AttachmentLink(r.id, destNode)
	if link == nil {
		if link = r.net.RouteLink(r.id, destNode); link == nil {
			r.net.dropUnroutable(pkt, r.id)
			return
		}
	}
	link.Send(pkt)
}

// String renders the router for diagnostics: its kind and NodeID.
func (r *Router) String() string {
	return fmt.Sprintf("router(%d)", r.id)
}
