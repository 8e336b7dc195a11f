package netsim

import (
	"cmp"
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
//     graph or its fault state changes. A node's slot in routeCols holds the
//     number of the column serving it, four bytes a node, and a column holds
//     one byte a node. A MAFIC workload only ever routes toward the victims,
//     the edge sources (ACKs) and the spoof pool (probes), so a 5000-router
//     domain materializes a few dozen columns instead of the ~5000 × 5000
//     entries an all-pairs install would write.
//
// A column entry names the link by its place in at's adjacency row (a rowPos,
// one byte), not the next node, so a hop is two indexed loads and no
// adjacency search: the entry column[at] names is the link node at sends on
// toward the destination — the one LinkBetween(at, next hop) returns, down or
// not. Where at has no route the entry resolves to none: zero when at is
// unreachable or the destination itself, noBack when the node that
// discovered it has no link from at. The column table is the routers' only
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
//     a cable cut, with a router crashed and after a rebuild that reuses link
//     ids; FuzzRouteColumns drives the same comparison through random scripts
//     of nodes, duplex and simplex links, faults and resets.
//   - A column is materialized at most once per destination router between
//     invalidations, is len(nodes) wide when it is, and hosts share their
//     router's column number rather than a copy.
//   - Column storage is recycled across builds: Reset rewinds colSlab, and a
//     rebuild that routes toward the same destinations allocates nothing. A
//     rebuild reuses link references too (Reset rewinds linkSlab), which is
//     safe because it also clears every column and row that held the old
//     ones. Row positions stay right within a build because a Connect, which
//     shifts a row, invalidates every column.

// invalidateRouteColumns forgets every memoized column. Adding a link after
// columns have materialized invalidates them (shortest paths may change), so
// Connect calls this; on the usual build-then-run lifecycle it never fires
// with materialized state.
func (n *Network) invalidateRouteColumns() {
	if n.colsMaterialized == 0 {
		return
	}
	clear(n.routeCols)
	n.cols = n.cols[:0]
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
		if e := n.entryAt(at, col[at]); e != nil {
			return n.link(e.link())
		}
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
	}
	if e := n.entryAt(at, col[at]); e != nil {
		return NodeID(e.to)
	}
	return NoNode
}

// entryAt resolves a column entry: at's row entry at position p, or nil for
// zero and noBack, which no row is long enough to hold.
func (n *Network) entryAt(at NodeID, p rowPos) *adjEntry {
	row := n.row(at)
	if i := int(p) - 1; uint(i) < uint(len(row)) {
		return &row[i]
	}
	return nil
}

// column returns the column serving dest, materializing it on first use, or
// nil when dest has none.
func (n *Network) column(dest NodeID) []rowPos {
	if uint(dest) < uint(len(n.routeCols)) {
		if c := n.routeCols[dest]; c != 0 {
			return n.cols[c-1]
		}
	}
	return n.materializeColumn(dest)
}

// materializeColumn computes and memoizes the column serving dest: the
// aggregate's column is computed (or found already materialized) and dest's
// slot set to its number, so later lookups are two indexed loads.
func (n *Network) materializeColumn(dest NodeID) []rowPos {
	if !n.nodeExists(dest) {
		return nil
	}
	agg := n.aggregateOf(dest)
	n.growRouteCols(agg)
	if n.routeCols[agg] == 0 {
		col := n.colSlab.take(len(n.nodes), len(n.nodes))
		n.reverseBFS(agg, col)
		n.cols = append(n.cols, col)
		n.routeCols[agg] = int32(len(n.cols))
		n.colsMaterialized++
		n.colEntries += len(col)
	}
	n.growRouteCols(dest)
	n.routeCols[dest] = n.routeCols[agg]
	return n.cols[n.routeCols[agg]-1]
}

// reverseBFS fills col with each node's link toward root along the
// shortest-path tree rooted there: a breadth-first search from root over the
// sorted adjacency rows, so neighbours are visited in ascending ID order and
// the first discoverer wins. A discovered node's entry is the back position
// of the row entry that discovered it — the place of its link to the
// discoverer, down or not, in its own row — or noBack if it has no such link,
// so that every discovered node but root holds a non-zero entry; root and
// unreached nodes get zero. While a fault is active the search leaves crashed
// routers' rows and unusable links alone.
func (n *Network) reverseBFS(root NodeID, col []rowPos) {
	clear(col)
	faults := n.faultsActive()
	queue := append(n.bfsQueue[:0], int32(root))
	for qi := 0; qi < len(queue); qi++ {
		cur := NodeID(queue[qi])
		if faults && n.RouterDown(cur) {
			continue
		}
		for _, e := range n.row(cur) {
			if col[e.to] != 0 || NodeID(e.to) == root || faults && !n.usable(e) {
				continue
			}
			col[e.to] = cmp.Or(e.back(), noBack)
			queue = append(queue, e.to)
		}
	}
	n.bfsQueue = queue
}

// growRouteCols extends the column table to cover id. Reserved networks size
// it once up front (see Reserve).
func (n *Network) growRouteCols(id NodeID) {
	want := int(id) + 1
	if nc := len(n.nodes); nc > want {
		want = nc
	}
	for len(n.routeCols) < want {
		n.routeCols = append(n.routeCols, 0)
	}
}

// aggregateOf maps a destination to the node whose column serves it: routers
// route by their own column, a single-homed host aggregates to its attachment
// router, and a multi-homed host keeps a dedicated column so shortest-path
// tie-breaking among its homes matches a per-node computation exactly.
func (n *Network) aggregateOf(dest NodeID) NodeID {
	if n.Router(dest) != nil {
		return dest
	}
	row := n.row(dest)
	if len(row) != 1 {
		return dest // unattached, or multi-homed: own column
	}
	if agg := NodeID(row[0].to); n.Router(agg) != nil {
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
// and the bytes they occupy, one an entry on every GOARCH.
func (n *Network) RouteStats() (entries int, bytes int64) {
	return n.colEntries, int64(n.colEntries) * int64(unsafe.Sizeof(rowPos(0)))
}
