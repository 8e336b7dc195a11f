package netsim

import (
	"fmt"

	"mafic/internal/sim"
)

// Runtime link/router fault state.
//
// Links and routers can be taken down and restored mid-run (Link.SetDown,
// Network.FailRouter / Network.RestoreRouter). The rules are:
//
//   - A down link accepts no packets: Link.Send drops and accounts them, and
//     packets already in flight on the link when it goes down are dropped on
//     arrival — recycled through the pool like every other terminal point,
//     never leaked.
//   - A down router forwards nothing: packets arriving at it (and packets it
//     would inject itself) are dropped and accounted. Its filter chain does
//     not run — a dead router neither measures nor defends.
//   - Every fault-state change bumps TopoVersion and invalidates the
//     memoized route columns, so the next lookup recomputes its column and
//     shortest paths re-converge around the fault. While any fault is active
//     the route BFS and AppendNeighbors skip down links, links into crashed
//     routers and a crashed router's own links (usable is the rule).
//
// With no fault active none of this costs anything on the hot path beyond a
// handful of predictable branches: AppendNeighbors takes its plain loop,
// no RNG is consulted, and no allocation happens — simulations with all fault
// state untouched are bit-identical to builds without this layer (the no-fault
// allocation pin and the golden catalog hold this).

// SetDown changes the link's up/down state. Taking a link down (or bringing
// it back) changes shortest paths, so the network's memoized route columns
// are invalidated and TopoVersion is bumped; setting the current state again
// is a no-op. Note that each direction of a duplex pair is its own simplex
// link: route re-convergence treats a down link as unusable in its forward
// direction only, so callers modelling a cable cut should take both
// directions down together (the experiment layer's fault scheduler does).
func (l *Link) SetDown(down bool) {
	if l.Down() == down {
		return
	}
	l.own().st.Down = down
	if down {
		l.cfg.net.downLinks++
	} else {
		l.cfg.net.downLinks--
	}
	l.cfg.net.noteFaultStateChange()
}

// Down reports whether the link is currently down.
func (l *Link) Down() bool { return l.state().st.Down }

// FaultDropped reports how many packets this link dropped because it was
// down (at admission or in flight).
func (l *Link) FaultDropped() uint64 { return l.state().st.FaultDrops }

// FailRouter marks a router as crashed: it stops forwarding, measuring and
// injecting until restored. Failing an already-down router is a no-op; the
// id must name a router of the network.
func (n *Network) FailRouter(id NodeID) error {
	r := n.Router(id)
	if r == nil {
		return fmt.Errorf("fail router %d: %w", id, ErrUnknownNode)
	}
	if r.down {
		return nil
	}
	r.down = true
	n.downRouters++
	n.noteFaultStateChange()
	return nil
}

// RestoreRouter brings a crashed router back. Restoring a live router is a
// no-op; the id must name a router of the network.
func (n *Network) RestoreRouter(id NodeID) error {
	r := n.Router(id)
	if r == nil {
		return fmt.Errorf("restore router %d: %w", id, ErrUnknownNode)
	}
	if !r.down {
		return nil
	}
	r.down = false
	n.downRouters--
	n.noteFaultStateChange()
	return nil
}

// RouterDown reports whether the given node is a currently-failed router.
func (n *Network) RouterDown(id NodeID) bool {
	r := n.Router(id)
	return r != nil && r.down
}

// FaultDropped reports how many packets the network dropped on down links
// and down routers.
func (n *Network) FaultDropped() uint64 { return n.faultDrops }

// faultsActive reports whether any link or router is currently down, i.e.
// whether adjacency iteration must take the fault-aware path.
func (n *Network) faultsActive() bool {
	return n.downLinks > 0 || n.downRouters > 0
}

// noteFaultStateChange records a link/router state flip: memoized route
// columns are stale (shortest paths changed), and TopoVersion counts it.
func (n *Network) noteFaultStateChange() {
	n.invalidateRouteColumns()
	n.topoVersion++
}

// noteFaultDrop accounts one packet dropped by a down link or router and
// reports it through the OnFaultDrop hook. The caller recycles the packet.
func (n *Network) noteFaultDrop(pkt *Packet, at NodeID, now sim.Time) {
	n.faultDrops++
	if n.hooks.OnFaultDrop != nil {
		n.hooks.OnFaultDrop(pkt, at, now)
	}
}

// appendLiveNeighbors is the fault-aware AppendNeighbors loop: it skips down
// links and links whose target is a down router (and yields nothing for a
// down router itself), preserving the ascending order the BFS tie-breaking
// depends on. Split from the fast path so fault-free simulations never pay
// the per-entry checks.
func (n *Network) appendLiveNeighbors(dst []NodeID, id NodeID) []NodeID {
	if n.RouterDown(id) {
		return dst
	}
	for _, e := range n.row(id) {
		if n.usable(e) {
			dst = append(dst, NodeID(e.to))
		}
	}
	return dst
}

// usable reports whether routing may follow the row entry e while a fault is
// active: its link is up and does not lead into a crashed router. It is the
// one liveness rule appendLiveNeighbors and the route BFS share.
func (n *Network) usable(e adjEntry) bool {
	return !n.link(e.link).Down() && !n.RouterDown(NodeID(e.to))
}
