package netsim

import (
	"slices"
	"unsafe"
)

// # Two-level demand-driven routing
//
// The network is the domain's routing authority. A forwarding row per router
// covering every node in the domain would be O(routers × nodes) entries, of
// which a DDoS-style workload ever touches a vanishing fraction (traffic
// converges on a handful of victims, ACKs and probes fan back to the edge).
// Routing state is two-level and produced on demand:
//
//   - Level 1 — host aggregation. Forwarding state is indexed by destination
//     *router*, never by host: a single-homed host is reached by routing to
//     its attachment router, which delivers locally over the direct access
//     link, so the host's slot simply aliases the router's column. This cuts
//     the width of the routing state from nodes × nodes to routers-worth of
//     columns. A multi-homed host (e.g. the dual-homed victim) keeps a
//     dedicated column so the shortest-path tie-break among its homes is
//     decided exactly as a per-node BFS would. Host aggregation is exact
//     because a single-homed host's shortest-path tree minus the host itself
//     IS its attachment router's tree.
//   - Level 2 — lazy columns. No routes exist after a build. When a
//     destination first appears in live traffic, the network computes that
//     destination's route column: one reverse BFS over the adjacency rows,
//     O(nodes + links), into a column carved from colSlab, memoized until the
//     graph or its fault state changes. A MAFIC workload only ever routes
//     toward the victims, the edge sources (ACKs) and the spoof pool
//     (probes), so a 5000-router domain materializes a few dozen columns
//     instead of the ~5000 × 5000 entries an all-pairs install would write.
//
// A column entry is the link itself, not the next node, so a hop is one
// indexed load and no adjacency search: column[at] is the link node at sends
// on toward the destination — the one LinkBetween(at, next hop) returns, down
// or not — and nil where at has no route (unreachable, at == dest, or no link
// back to the node that discovered it). The column table is the routers' only
// forwarding state.
//
// Invariants the tests pin:
//
//   - Next hops are those of a per-destination BFS with ascending neighbour
//     tie-breaking, for every (node, destination) pair, and the link a node
//     forwards on is LinkBetween(node, next hop). The BFS does not follow a
//     down link or a link into a crashed router. topology's lazy_test.go
//     holds the reference — a textbook BFS over Neighbors — and compares it
//     with NextHop and with the forwarding link on every domain shape, after
//     a post-build Connect, with one direction of a loaded link down (the
//     down link stays in the column, and packets sent on it die there), with
//     a cable cut and with a router crashed; FuzzRouteColumns drives the same
//     comparison through random scripts of nodes, duplex and simplex links
//     and faults.
//   - A column is materialized at most once per destination router between
//     invalidations, is len(nodes) wide when it is, and hosts alias their
//     router's column rather than copying it.
//   - Column storage is recycled across builds: Reset rewinds colSlab, and a
//     rebuild that routes toward the same destinations allocates nothing.

// invalidateRouteColumns forgets every memoized column. Adding a link after
// columns have materialized invalidates them (shortest paths may change), so
// Connect calls this; on the usual build-then-run lifecycle it never fires
// with materialized state.
func (n *Network) invalidateRouteColumns() {
	if n.colsMaterialized == 0 {
		return
	}
	for i := range n.routeCols {
		n.routeCols[i] = nil
	}
	n.colsMaterialized = 0
	n.colEntries = 0
}

// RouteLink returns the link node at sends on toward dest according to the
// demand-driven column table, materializing the column on first use, or nil
// when there is no route (unknown destination, dest unreachable from at, or
// at == dest). It is the forwarding path's lookup once the destination is not
// attached to at: Router.route asks AttachmentLink first, because a
// single-homed host's slot holds its router's column.
func (n *Network) RouteLink(at, dest NodeID) *Link {
	if col := n.column(dest); uint(at) < uint(len(col)) {
		return col[at]
	}
	return nil
}

// NextHop returns the next hop from node at toward dest: the far end of
// RouteLink's link, dest itself at dest, and NoNode where RouteLink has no
// link.
func (n *Network) NextHop(at, dest NodeID) NodeID {
	col := n.column(dest)
	switch {
	case uint(at) >= uint(len(col)):
		return NoNode
	case at == dest:
		return dest
	case col[at] != nil:
		return col[at].To()
	}
	return NoNode
}

// column returns the column serving dest, materializing it on first use, or
// nil when dest has none.
func (n *Network) column(dest NodeID) []*Link {
	if uint(dest) < uint(len(n.routeCols)) {
		if col := n.routeCols[dest]; col != nil {
			return col
		}
	}
	return n.materializeColumn(dest)
}

// materializeColumn computes and memoizes the column serving dest: the
// aggregate's column is computed (or found already materialized) and dest's
// slot set to alias it, so later lookups are a single indexed load.
func (n *Network) materializeColumn(dest NodeID) []*Link {
	if !n.nodeExists(dest) {
		return nil
	}
	agg := n.aggregateOf(dest)
	n.growRouteCols(agg)
	col := n.routeCols[agg]
	if col == nil {
		col = n.colSlab.take(len(n.nodes), len(n.nodes))
		n.reverseBFS(agg, col)
		n.routeCols[agg] = col
		n.colsMaterialized++
		n.colEntries += len(col)
	}
	n.growRouteCols(dest)
	n.routeCols[dest] = col
	return col
}

// reverseBFS fills col with each node's link toward root along the
// shortest-path tree rooted there: a breadth-first search from root over the
// sorted adjacency rows, so neighbours are visited in ascending ID order and
// the first discoverer wins. A discovered node's entry is the back link of the
// row entry that discovered it — its link to the discoverer, down or not, or
// nil if it has none; root and unreached nodes get nil. While a fault is
// active the search leaves crashed routers' rows and unusable links alone.
func (n *Network) reverseBFS(root NodeID, col []*Link) {
	clear(col)
	seen := slices.Grow(n.bfsSeen[:0], len(col))[:len(col)]
	clear(seen)
	faults := n.faultsActive()
	queue := append(n.bfsQueue[:0], root)
	seen[root] = true
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		if int(cur) >= len(n.sparse) || faults && n.RouterDown(cur) {
			continue
		}
		for _, e := range n.sparse[cur] {
			if seen[e.to] || faults && !n.usable(e) {
				continue
			}
			seen[e.to] = true
			col[e.to] = e.back
			queue = append(queue, e.to)
		}
	}
	n.bfsQueue, n.bfsSeen = queue, seen
}

// growRouteCols extends the column table to cover id. Reserved networks size
// it once up front (see Reserve).
func (n *Network) growRouteCols(id NodeID) {
	want := int(id) + 1
	if nc := len(n.nodes); nc > want {
		want = nc
	}
	for len(n.routeCols) < want {
		n.routeCols = append(n.routeCols, nil)
	}
}

// aggregateOf maps a destination to the node whose column serves it: routers
// route by their own column, a single-homed host aggregates to its attachment
// router, and a multi-homed host keeps a dedicated column so shortest-path
// tie-breaking among its homes matches a per-node computation exactly.
func (n *Network) aggregateOf(dest NodeID) NodeID {
	if n.nodes[dest].router != nil {
		return dest
	}
	if int(dest) >= len(n.sparse) || len(n.sparse[dest]) != 1 {
		return dest // unattached, or multi-homed: own column
	}
	if agg := n.sparse[dest][0].to; n.nodes[agg].router != nil {
		return agg
	}
	return dest
}

// RouteColumns reports how many distinct route columns have been
// materialized on demand (aliased host slots are not counted).
func (n *Network) RouteColumns() int { return n.colsMaterialized }

// TopoVersion counts graph mutations: nodes added, links connected, fault
// state flipped. A snapshot carries it (NetworkState), and nothing in the
// network reads it.
func (n *Network) TopoVersion() uint64 { return n.topoVersion }

// RouteStats reports the resident routing state: the total number of
// entries held live in materialized columns, O(active destinations × nodes),
// and the bytes they occupy.
func (n *Network) RouteStats() (entries int, bytes int64) {
	return n.colEntries, int64(n.colEntries) * int64(unsafe.Sizeof((*Link)(nil)))
}
