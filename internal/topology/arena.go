package topology

import (
	"fmt"
	"slices"

	"mafic/internal/netsim"
)

// Arena holds the reusable storage behind Domain construction: the network
// itself (every router, host, link and pool packet, the adjacency and the
// per-node tables — netsim.Network.Reset rewinds it), the domain's role
// slices (routers, ingress, hosts by kind), the dense host-to-ingress table,
// the route columns handed to the network and the scratch space of the
// shortest-path route computation. Parameter sweeps rebuild the topology at
// every point; building through one arena per worker lets those rebuilds
// reuse storage instead of re-growing it from nothing each time. An arena
// retains the largest domain it has built.
//
// Ownership mirrors the netsim packet pool: a Domain built from an arena —
// its Net and everything carved from it included — remains valid only until
// the next Build call on the same arena, which recycles all of it. Builds
// that must outlive each other use separate arenas (or the package-level
// Build, which makes a fresh one). An Arena is not safe for concurrent use;
// give each goroutine its own.
type Arena struct {
	net *netsim.Network

	routers      []*netsim.Router
	ingress      []*netsim.Router
	victimHomes  []*netsim.Router
	extraVictims []*netsim.Host
	clients      []*netsim.Host
	zombies      []*netsim.Host
	bystanders   []*netsim.Host
	ingressOf    []*netsim.Router

	lazy  lazyRouter
	names nameCache
}

// nameCache memoises the generated node names ("r17", "client3", ...) so
// rebuilds through the same arena hand out the same strings instead of
// reformatting one per node per build.
type nameCache struct {
	routers    []string
	clients    []string
	zombies    []string
	bystanders []string
	victims    []string
}

// name returns prefix+i, generating and caching any missing entries.
func name(list *[]string, prefix string, i int) string {
	for len(*list) <= i {
		*list = append(*list, fmt.Sprintf("%s%d", prefix, len(*list)))
	}
	return (*list)[i]
}

// NewArena returns an empty arena ready for Build.
func NewArena() *Arena { return &Arena{} }

// recycle hands the arena's current backing arrays to a new Domain, truncated
// to zero length, and keeps the headers so the next recycle sees any growth.
func (a *Arena) recycle(d *Domain) {
	d.Routers = a.routers[:0]
	d.Ingress = a.ingress[:0]
	d.VictimHomes = a.victimHomes[:0]
	d.ExtraVictims = a.extraVictims[:0]
	d.Clients = a.clients[:0]
	d.Zombies = a.zombies[:0]
	d.Bystanders = a.bystanders[:0]
	d.ingressOf = a.ingressOf[:0]
}

// adopt records the (possibly re-grown) backing arrays after a successful
// build so the next Build reuses them at their new capacity.
func (a *Arena) adopt(d *Domain) {
	a.routers = d.Routers
	a.ingress = d.Ingress
	a.victimHomes = d.VictimHomes
	a.extraVictims = d.ExtraVictims
	a.clients = d.Clients
	a.zombies = d.Zombies
	a.bystanders = d.Bystanders
	a.ingressOf = d.ingressOf
}

// routeScratch is the slice-backed working set of the shortest-path route
// computation: a CSR adjacency snapshot of the network plus the BFS queue and
// visited marks, indexed directly by NodeID. The resolver searches straight
// into the column it hands over, so there is no parent table of its own.
type routeScratch struct {
	// offsets/targets form the CSR adjacency: node id's neighbours are
	// targets[offsets[id]:offsets[id+1]], ascending. back[i] is the link
	// targets[i] sends on toward id, LinkBetween(targets[i], id) as the
	// snapshot found it: a down link stays, a missing one is nil.
	offsets []int32
	targets []netsim.NodeID
	back    []*netsim.Link
	queue   []netsim.NodeID
	seen    []bool
}

// snapshot rebuilds the CSR adjacency from the network. Node IDs are dense
// (allocation order), so the tables are exactly sized.
func (rs *routeScratch) snapshot(net *netsim.Network) int {
	n := net.NodeCount()
	if cap(rs.offsets) < n+1 {
		rs.offsets = make([]int32, n+1)
	}
	if cap(rs.seen) < n {
		rs.seen = make([]bool, n)
	}
	rs.offsets = rs.offsets[:n+1]
	rs.seen = rs.seen[:n]
	rs.targets = rs.targets[:0]
	rs.back = rs.back[:0]
	for id := 0; id < n; id++ {
		rs.offsets[id] = int32(len(rs.targets))
		rs.targets = net.AppendNeighbors(rs.targets, netsim.NodeID(id))
	}
	rs.offsets[n] = int32(len(rs.targets))
	// Sized once: growing it by appends leaves a 50 000-router domain's
	// worth of discarded arrays behind, a few MB of peak RSS.
	rs.back = slices.Grow(rs.back, len(rs.targets))
	for id := 0; id < n; id++ {
		for _, nb := range rs.targets[rs.offsets[id]:rs.offsets[id+1]] {
			rs.back = append(rs.back, net.LinkBetween(nb, netsim.NodeID(id)))
		}
	}
	return n
}

// bfs fills col, a column as wide as the snapshot, with each reached node's
// link toward root along the shortest-path tree rooted there (first
// discoverer wins, neighbours in ascending order). The root and unreached
// nodes get nil.
func (rs *routeScratch) bfs(root netsim.NodeID, col []*netsim.Link) {
	clear(col)
	seen := rs.seen
	clear(seen)
	queue := append(rs.queue[:0], root)
	seen[root] = true
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		lo, hi := rs.offsets[cur], rs.offsets[cur+1]
		for i, nb := range rs.targets[lo:hi] {
			if seen[nb] {
				continue
			}
			seen[nb] = true
			col[nb] = rs.back[int(lo)+i]
			queue = append(queue, nb)
		}
	}
	rs.queue = queue
}

// lazyRouter is the arena's netsim.RouteResolver: the demand-driven half of
// the two-level routing design. bind snapshots the finished domain into the
// arena's CSR scratch; RouteColumn then materializes one column per requested
// destination by a single reverse BFS that writes each node's outgoing link
// straight into a column carved from the arena's recycled column pool.
// Columns handed to a network remain valid for that network's lifetime; the
// next bind (the next sweep point) reclaims their storage, exactly the
// ownership rule every other arena-backed slice follows.
type lazyRouter struct {
	rs routeScratch
	// net and seenVersion track which graph state the CSR snapshot
	// reflects; a mutation after Build (TopoVersion moved) forces a
	// re-snapshot before the next column is computed.
	net         *netsim.Network
	seenVersion uint64
	// width is the snapshot's node count: every column this build hands
	// out has exactly this length.
	width int
	// handed are the columns given to the current network; colFree are
	// columns reclaimed from earlier builds, reused when wide enough.
	handed  [][]*netsim.Link
	colFree [][]*netsim.Link
	// carved counts column allocations ever made through this arena; the
	// reuse tests pin that rebuilds do not grow it.
	carved int
}

var _ netsim.RouteResolver = (*lazyRouter)(nil)

// bind points the resolver at a freshly built network: reclaim the previous
// build's columns, snapshot the CSR adjacency, and record the column width.
func (lz *lazyRouter) bind(net *netsim.Network) {
	lz.net = net
	lz.colFree = append(lz.colFree, lz.handed...)
	for i := range lz.handed {
		lz.handed[i] = nil
	}
	lz.handed = lz.handed[:0]
	lz.width = lz.rs.snapshot(net)
	lz.seenVersion = net.TopoVersion()
}

// RouteColumn implements netsim.RouteResolver: one reverse BFS rooted at
// dest, with the column as its parent table (node X's parent on the shortest
// path tree rooted at dest is X's next hop toward dest, ties broken by
// ascending neighbour ID, and X's entry is the link from X to it).
func (lz *lazyRouter) RouteColumn(dest netsim.NodeID) []*netsim.Link {
	// A graph mutation after Build invalidated the network's memo; it also
	// staled this snapshot, so refresh before computing. Untouched on the
	// normal build-then-run lifecycle.
	if v := lz.net.TopoVersion(); v != lz.seenVersion {
		lz.width = lz.rs.snapshot(lz.net)
		lz.seenVersion = v
	}
	col := lz.takeColumn()
	lz.rs.bfs(dest, col)
	lz.handed = append(lz.handed, col)
	return col
}

// takeColumn pops a recycled column wide enough for this build, allocating
// only when none fits.
func (lz *lazyRouter) takeColumn() []*netsim.Link {
	for i := len(lz.colFree) - 1; i >= 0; i-- {
		if cap(lz.colFree[i]) < lz.width {
			continue
		}
		col := lz.colFree[i][:lz.width]
		last := len(lz.colFree) - 1
		lz.colFree[i] = lz.colFree[last]
		lz.colFree[last] = nil
		lz.colFree = lz.colFree[:last]
		return col
	}
	lz.carved++
	return make([]*netsim.Link, lz.width)
}
