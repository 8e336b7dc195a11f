package topology

import (
	"fmt"

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
// computation: a CSR adjacency snapshot of the network plus the BFS queue,
// indexed directly by NodeID. The resolver searches straight into the column
// it hands over, so there is no parent table of its own.
type routeScratch struct {
	// offsets/targets form the CSR adjacency: node id's neighbours are
	// targets[offsets[id]:offsets[id+1]], ascending.
	offsets []int32
	targets []netsim.NodeID
	queue   []netsim.NodeID
}

// snapshot rebuilds the CSR adjacency from the network. Node IDs are dense
// (allocation order), so the tables are exactly sized.
func (rs *routeScratch) snapshot(net *netsim.Network) int {
	n := net.NodeCount()
	if cap(rs.offsets) < n+1 {
		rs.offsets = make([]int32, n+1)
	}
	rs.offsets = rs.offsets[:n+1]
	rs.targets = rs.targets[:0]
	for id := 0; id < n; id++ {
		rs.offsets[id] = int32(len(rs.targets))
		rs.targets = net.AppendNeighbors(rs.targets, netsim.NodeID(id))
	}
	rs.offsets[n] = int32(len(rs.targets))
	return n
}

// bfs fills parents, a table as wide as the snapshot, with each reached
// node's parent on the shortest path back toward root (its next hop toward
// root). The root's own entry is set to itself (visited marker); unreached
// nodes get NoNode.
func (rs *routeScratch) bfs(root netsim.NodeID, parents []netsim.NodeID) {
	for i := range parents {
		parents[i] = netsim.NoNode
	}
	queue := rs.queue[:0]
	queue = append(queue, root)
	parents[root] = root
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		for _, nb := range rs.targets[rs.offsets[cur]:rs.offsets[cur+1]] {
			if parents[nb] != netsim.NoNode {
				continue
			}
			parents[nb] = cur
			queue = append(queue, nb)
		}
	}
	rs.queue = queue
}

// lazyRouter is the arena's netsim.RouteResolver: the demand-driven half of
// the two-level routing design. bind snapshots the finished domain into the
// arena's CSR scratch; NextHopColumn then materializes one column per
// requested destination by a single reverse BFS straight into a column carved
// from the arena's recycled column pool. Columns handed to a network remain
// valid for that network's lifetime; the next bind (the next sweep point)
// reclaims their storage, exactly the ownership rule every other arena-backed
// slice follows.
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
	handed  [][]netsim.NodeID
	colFree [][]netsim.NodeID
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

// NextHopColumn implements netsim.RouteResolver: one reverse BFS rooted at
// dest, with the column as its parent table (parent of node X on the shortest
// path tree rooted at dest == X's next hop toward dest, ties broken by
// ascending neighbour ID).
func (lz *lazyRouter) NextHopColumn(dest netsim.NodeID) []netsim.NodeID {
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
func (lz *lazyRouter) takeColumn() []netsim.NodeID {
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
	return make([]netsim.NodeID, lz.width)
}
