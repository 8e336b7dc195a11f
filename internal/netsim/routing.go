package netsim

import "unsafe"

// Demand-driven two-level routing.
//
// A forwarding row per router covering every node in the domain would be
// O(routers × nodes) entries, of which a DDoS-style workload ever touches a
// vanishing fraction (traffic converges on a handful of victims, ACKs and
// probes fan back to the edge). The network keeps forwarding state as
// per-destination *columns* of outgoing links, materialized lazily the first
// time a destination is routed to:
//
//   - Level 1 (aggregation): a single-homed host shares the column of its
//     attachment router — the column is computed once for the router and the
//     host's slot simply aliases it. Delivery at the attachment router uses
//     the direct host link, so no per-host state is ever needed. Multi-homed
//     hosts (and routers themselves) get a dedicated column, which keeps
//     their paths bit-identical to a per-node shortest-path computation.
//   - Level 2 (demand): a column is produced by the installed RouteResolver
//     (one reverse BFS in the topology arena) only when its destination first
//     appears in live traffic, then memoized until the graph changes.
//
// A column entry is the link itself, not the next node, so a hop is one
// indexed load and no adjacency search. The column table is the routers' only
// forwarding state; hand-built networks install a resolver of their own. The
// reference for what a column must hold is test-only: topology's lazy_test.go
// runs a textbook per-destination BFS over Neighbors and compares both the
// next hop and the link forwarded on with it for every pair of nodes.
type RouteResolver interface {
	// RouteColumn returns the route column for dest: a dense NodeID-indexed
	// table where column[at] is the link node at sends on toward dest — the
	// one LinkBetween(at, next hop) returns, down or not — and nil where at
	// has no route (unreachable, at == dest, or no link back to the node
	// that discovered it). The network memoizes the returned slice until its
	// routes are invalidated, so the resolver must hand over ownership (no
	// later mutation).
	RouteColumn(dest NodeID) []*Link
}

// SetRouteResolver installs the demand-driven column resolver and drops any
// previously materialized columns. Topology builders call it once the domain
// graph is final.
func (n *Network) SetRouteResolver(r RouteResolver) {
	n.resolver = r
	n.invalidateRouteColumns()
}

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
// when there is no route (no resolver installed, unknown destination, dest
// unreachable from at, or at == dest). It is the forwarding path's lookup once
// the destination is not attached to at: Router.route asks AttachmentLink
// first, because a single-homed host's slot holds its router's column.
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

// materializeColumn resolves and memoizes the column serving dest: the
// aggregate's column is computed (or found already materialized) and dest's
// slot set to alias it, so later lookups are a single indexed load.
func (n *Network) materializeColumn(dest NodeID) []*Link {
	if n.resolver == nil || !n.nodeExists(dest) {
		return nil
	}
	agg := n.aggregateOf(dest)
	n.growRouteCols(agg)
	col := n.routeCols[agg]
	if col == nil {
		col = n.resolver.RouteColumn(agg)
		if col == nil {
			return nil
		}
		n.routeCols[agg] = col
		n.colsMaterialized++
		n.colEntries += len(col)
	}
	n.growRouteCols(dest)
	n.routeCols[dest] = col
	return col
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

// TopoVersion identifies the current state of the node/link graph; it
// changes whenever a node is added or a link connected. Resolvers that
// snapshot the graph compare it on each column request so a mutation after
// the snapshot (which also invalidates the memoized columns) triggers a
// re-snapshot instead of serving stale shortest paths.
func (n *Network) TopoVersion() uint64 { return n.topoVersion }

// RouteStats reports the resident routing state: the total number of
// entries held live in materialized columns, O(active destinations × nodes),
// and the bytes they occupy.
func (n *Network) RouteStats() (entries int, bytes int64) {
	return n.colEntries, int64(n.colEntries) * int64(unsafe.Sizeof((*Link)(nil)))
}
