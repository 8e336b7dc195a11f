package netsim

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"mafic/internal/sim"
)

// Errors reported by network construction.
var (
	// ErrUnknownNode is returned when an operation references a node ID
	// that has not been added to the network.
	ErrUnknownNode = errors.New("netsim: unknown node")
	// ErrDuplicateLink is returned when a simplex link between the same
	// pair of nodes is added twice.
	ErrDuplicateLink = errors.New("netsim: duplicate link")
)

// Hooks collects optional callbacks that observation components (metrics,
// tests) register on a network. Nil members are simply skipped, so hot paths
// pay nothing for unused hooks. Hook callbacks must not retain the *Packet
// they receive: pooled packets are recycled as soon as the hook returns.
type Hooks struct {
	// OnQueueDrop fires when a drop-tail queue rejects a packet.
	OnQueueDrop func(pkt *Packet, link *Link, now sim.Time)
	// OnFilterDrop fires when a router filter (MAFIC, baseline dropper,
	// ...) discards a packet. filter is the filter's Name().
	OnFilterDrop func(pkt *Packet, router *Router, filter string, now sim.Time)
	// OnDeliver fires when a packet reaches the host owning its
	// destination address.
	OnDeliver func(pkt *Packet, host *Host, now sim.Time)
	// OnUnroutable fires when no route exists for a packet's destination;
	// the packet is discarded. Probes addressed to spoofed, unreachable
	// sources end up here.
	OnUnroutable func(pkt *Packet, at NodeID, now sim.Time)
	// OnFaultDrop fires when a down link or crashed router kills a packet
	// (see faults.go); at is the node where it died. The packet is
	// discarded.
	OnFaultDrop func(pkt *Packet, at NodeID, now sim.Time)
}

// nodeSlot is the dense per-NodeID dispatch record: exactly one of router or
// host is non-nil for an allocated ID.
type nodeSlot struct {
	router *Router
	host   *Host
}

// linkRef names a link by its carve position in the network's linkSlab, plus
// one so that the zero value, which cleared columns and unpaired row entries
// hold, names no link. Every linkSlab chunk is linkChunk links long (connect
// carves one link at a time), so Network.link resolves a reference by chunk
// arithmetic; four bytes instead of a pointer's eight is what lets route
// columns and adjacency rows of a 50 000-router domain fit in half the space.
type linkRef int32

// adjEntry is one outgoing link in an adjacency row, keyed by its target
// node. Rows are kept sorted by target so lookups binary-search and neighbour
// iteration is ascending, which is what BFS tie-breaking (and therefore every
// forwarding decision) depends on. back is the link from the target back to
// the row's node, zero until that direction is connected: the route BFS writes
// it into a column without searching.
type adjEntry struct {
	to   int32 // NodeID of the target
	link linkRef
	back linkRef
}

// adjRow locates a node's adjacency row in Network.adj: its len entries start
// at off. The row's capacity is not stored; see rowCap.
type adjRow struct {
	off, len uint32
}

// rowCap is the capacity of a row of the given length. A row is carved with
// sparseRowCap entries on its first link and re-carved at doubled capacity
// when it is full, so its capacity follows from its length.
func rowCap(length uint32) uint32 {
	if length == 0 {
		return 0
	}
	return max(sparseRowCap, uint32(1)<<bits.Len32(length-1))
}

// Network owns every simulated node and link and bridges them to the
// discrete-event scheduler.
type Network struct {
	scheduler *sim.Scheduler
	rng       *sim.RNG

	// nodes is the dense NodeID-indexed table of every node: the registry
	// behind Router and Host, and the dispatch table of the forwarding path.
	nodes []nodeSlot
	// sparse[from] locates the sorted-by-target neighbour row holding from's
	// outgoing links in adj: O(nodes + links) memory overall, with lookups a
	// short binary search over a row whose length is the node's degree (2–10
	// in the generated domains). A zero or short spine entry means no
	// outgoing links from that node yet.
	sparse []adjRow
	// adj holds every row back to back. A row that outgrows its capacity is
	// re-carved at the end at doubled capacity and its old segment left
	// unused until the next Reset; Reserve sizes adj for a row per node and
	// some re-carves.
	adj []adjEntry
	// links counts the simplex links installed; see LinkTotal.
	links   int
	ipOwner map[IP]NodeID

	nextPktID uint64

	// sizeHint is the expected final node count set by Reserve; the slabs
	// size their chunks by it.
	sizeHint int

	// pktFree is the packet free list; see NewPacket / FreePacket. Its
	// packets come from pktSlab a chunk at a time, so a reset network threads
	// only as many retained chunks as the run turns out to need.
	pktFree []*Packet
	pktSlab slab[Packet]

	// Object slabs: nodes and links are carved from chunk-allocated arrays
	// instead of being allocated one by one; see slab. A link's carve index
	// in linkSlab is its linkRef.
	routerSlab slab[Router]
	hostSlab   slab[Host]
	linkSlab   slab[Link]

	// runSlab holds the run state of the links that have been written to,
	// and ctrSlab the counters of the routers that have counted a packet:
	// the few hundred links and routers on the paths a run's traffic takes,
	// of 130 000 and 50 000 in the quick 50 000-router domain. The rest
	// read as zero without holding anything; see Link.own and Router.own.
	runSlab slab[linkRun]
	ctrSlab slab[routerCounters]

	// chainSlab holds the filter chains of the routers that have one (the
	// routers the traffic-matrix monitor, the arrival tap and the defences
	// watch: a hundred or so of 50 000), so a Router points at its chain
	// instead of carrying a slice header; filterSlab backs the chains'
	// entries. Chains are tiny (tap plus
	// at most one defence), so carving them avoids a per-router allocation.
	chainSlab  slab[[]Filter]
	filterSlab slab[Filter]

	// ipSlab backs the hosts' address slices; nearly every host owns
	// exactly one address, so carving them avoids a per-host allocation.
	ipSlab slab[IP]

	// linkCfgs maps each distinct link configuration (queue length
	// defaulted) to the network's one copy of it in cfgSlab, which every
	// link with that configuration points at and reaches the network
	// through. lastCfg is the copy the last link got: a build connects its
	// links in runs of one configuration, so most links find theirs there
	// without hashing it.
	linkCfgs map[LinkConfig]*sharedLinkConfig
	lastCfg  *sharedLinkConfig
	cfgSlab  slab[sharedLinkConfig]

	// handlers dispatches host-received packets by (host, label). One
	// network-wide map replaces a lazily allocated map per host; hosts
	// flag whether they registered anything so pure sinks skip the lookup.
	handlers map[handlerKey]PacketHandler

	// Demand-driven routing state (see routing.go): the dense
	// per-destination table of column numbers, each naming cols[number-1]
	// (zero for none; host slots share their attachment router's number),
	// the materialized columns and the slab they are carved from, the route
	// BFS's queue and visited marks, and the materialization counters
	// behind RouteColumns/RouteStats.
	routeCols        []int32
	cols             [][]linkRef
	colSlab          slab[linkRef]
	bfsQueue         []NodeID
	bfsSeen          []bool
	colsMaterialized int
	colEntries       int
	// topoVersion counts graph mutations; see TopoVersion.
	topoVersion uint64

	// Fault bookkeeping (see faults.go): counts of currently-down links and
	// routers — AppendNeighbors only takes its fault-aware path while either
	// is nonzero — and the network-wide fault-drop total.
	downLinks   int
	downRouters int
	faultDrops  uint64

	hooks Hooks
}

// handlerKey identifies one host's per-label packet handler.
type handlerKey struct {
	host  NodeID
	label FlowLabel
}

// Slab chunk sizes. Packets churn fastest and get the largest chunk.
const (
	pktChunk    = 256
	nodeChunk   = 64
	linkChunk   = 128
	runChunk    = 64
	ctrChunk    = 64
	filterChunk = 64
	ipChunk     = 64
	cfgChunk    = 8
	// sparseRowCap is the initial capacity of a sparse adjacency row. Core
	// routers in the generated domains have degree 2 (ring) plus a chord or
	// two, so most rows never re-carve.
	sparseRowCap = 4
)

// nodeSlabSize picks the chunk size for a node slab: at least nodeChunk, at
// most the nodes the reservation still expects. Routers are added before
// hosts, so sizing by the remaining budget keeps each slab close to its
// kind's actual population instead of the whole domain's.
func (n *Network) nodeSlabSize() int {
	return max(nodeChunk, n.sizeHint-len(n.nodes))
}

// link resolves a reference to its link, or nil for the zero reference.
func (n *Network) link(ref linkRef) *Link {
	if ref == 0 {
		return nil
	}
	i := uint(ref - 1)
	return &n.linkSlab.chunks[i/linkChunk][i%linkChunk]
}

// row returns id's adjacency row: empty for an unknown node or one with no
// outgoing links. Its capacity is its length, so appending to it reallocates.
func (n *Network) row(id NodeID) []adjEntry {
	if uint(id) >= uint(len(n.sparse)) {
		return nil
	}
	r := n.sparse[id]
	return n.adj[r.off : r.off+r.len : r.off+r.len]
}

// sparseFind returns the position of target to in the sorted row, or the
// position it would be inserted at (the lower bound).
func sparseFind(row []adjEntry, to NodeID) int {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if NodeID(row[mid].to) < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// growFilters returns a filter slice with room for two more entries, carved
// from the filter slab, with old's contents copied in.
func (n *Network) growFilters(old []Filter) []Filter {
	grown := n.filterSlab.take(len(old)+2, filterChunk)[:len(old)]
	copy(grown, old)
	return grown
}

// carveIPs copies ips into slab-backed storage.
func (n *Network) carveIPs(ips []IP) []IP {
	s := n.ipSlab.take(len(ips), ipChunk)
	copy(s, ips)
	return s
}

// registerHandler installs fn for packets carrying label at the given host.
func (n *Network) registerHandler(host NodeID, label FlowLabel, fn PacketHandler) {
	if n.handlers == nil {
		n.handlers = make(map[handlerKey]PacketHandler)
	}
	n.handlers[handlerKey{host: host, label: label}] = fn
}

// handlerFor returns the handler registered for (host, label), or nil.
func (n *Network) handlerFor(host NodeID, label FlowLabel) PacketHandler {
	return n.handlers[handlerKey{host: host, label: label}]
}

// New creates an empty network bound to the given scheduler and RNG.
func New(scheduler *sim.Scheduler, rng *sim.RNG) *Network {
	return &Network{
		scheduler: scheduler,
		rng:       rng,
		ipOwner:   make(map[IP]NodeID),
		linkCfgs:  make(map[LinkConfig]*sharedLinkConfig),
	}
}

// Reset empties the network and binds it to a new scheduler and RNG, keeping
// its storage: afterwards it answers every exported question as New's result
// would, and building a domain on it carves the slabs and tables the last one
// used instead of allocating them. Every router, host, link and pool packet
// handed out before is invalid from here on. The cost is that of what the
// last build and run used, not of the largest the network has ever held; see
// "Reset and ownership" in the package documentation.
func (n *Network) Reset(scheduler *sim.Scheduler, rng *sim.RNG) {
	// The tables are read by index before they are written, so the part in
	// use is zeroed; beyond their length they are zero already, which is
	// what lets Reserve re-extend them by reslicing.
	clear(n.nodes)
	clear(n.sparse)
	clear(n.routeCols)
	clear(n.ipOwner)
	clear(n.handlers)
	clear(n.linkCfgs)
	// A chain left in the filter slab would pin the finished run's
	// defenders for as long as no later build carves over it.
	for chain := range n.filterSlab.taken() {
		clear(chain)
	}
	// Packets the last run left in flight or queued were never released.
	// Marking every packet that run touched as released keeps the
	// double-release panic armed against a holder from before the reset.
	for chunk := range n.pktSlab.taken() {
		for i := range chunk {
			chunk[i].freed = true
		}
	}
	// Everything not carried over here starts from zero.
	*n = Network{
		scheduler:  scheduler,
		rng:        rng,
		nodes:      n.nodes[:0],
		sparse:     n.sparse[:0],
		adj:        n.adj[:0],
		routeCols:  n.routeCols[:0],
		cols:       n.cols[:0],
		colSlab:    n.colSlab.rewound(),
		bfsQueue:   n.bfsQueue[:0],
		bfsSeen:    n.bfsSeen[:0],
		ipOwner:    n.ipOwner,
		handlers:   n.handlers,
		pktFree:    n.pktFree[:0],
		pktSlab:    n.pktSlab.rewound(),
		routerSlab: n.routerSlab.rewound(),
		hostSlab:   n.hostSlab.rewound(),
		linkSlab:   n.linkSlab.rewound(),
		runSlab:    n.runSlab.rewound(),
		ctrSlab:    n.ctrSlab.rewound(),
		chainSlab:  n.chainSlab.rewound(),
		filterSlab: n.filterSlab.rewound(),
		ipSlab:     n.ipSlab.rewound(),
		linkCfgs:   n.linkCfgs,
		cfgSlab:    n.cfgSlab.rewound(),
	}
}

// SetHooks installs observation callbacks. It must be called before the
// simulation starts; installing hooks mid-run is not supported.
func (n *Network) SetHooks(h Hooks) { n.hooks = h }

// Scheduler exposes the underlying event scheduler.
func (n *Network) Scheduler() *sim.Scheduler { return n.scheduler }

// RNG exposes the network's random source.
func (n *Network) RNG() *sim.RNG { return n.rng }

// Now reports the current virtual time.
func (n *Network) Now() sim.Time { return n.scheduler.Now() }

// NextPacketID allocates a unique packet identifier.
func (n *Network) NextPacketID() uint64 {
	n.nextPktID++
	return n.nextPktID
}

// NewPacket returns a zeroed packet from the network's pool, allocating only
// when the free list is empty. The packet is owned by the caller until it is
// handed to the network (Send, Deliver, Inject); the network recycles it at
// its terminal point. See the package documentation for the ownership rules.
func (n *Network) NewPacket() *Packet {
	if len(n.pktFree) == 0 {
		// Refill the free list from the next chunk: one allocation, or
		// none on a reset network, buys pktChunk packets. Chunk packets
		// enter the list in the same state FreePacket leaves recycled
		// ones in.
		chunk := n.pktSlab.take(pktChunk, pktChunk)
		if cap(n.pktFree) < pktChunk {
			n.pktFree = make([]*Packet, 0, pktChunk)
		}
		for i := range chunk {
			chunk[i].pooled = true
			chunk[i].freed = true
			n.pktFree = append(n.pktFree, &chunk[i])
		}
	}
	last := len(n.pktFree) - 1
	p := n.pktFree[last]
	n.pktFree[last] = nil
	n.pktFree = n.pktFree[:last]
	*p = Packet{pooled: true}
	return p
}

// FreePacket returns a pooled packet to the free list. Packets not obtained
// from NewPacket are ignored, so externally constructed packets may flow
// through the network safely. Releasing the same pooled packet twice is a
// programming error; it panics when the packet still sits in the free list.
// The check is best-effort: a stale release that lands after the slot has
// been reissued by NewPacket is indistinguishable from a legitimate one,
// which is why holders must drop their reference at the terminal point.
func (n *Network) FreePacket(p *Packet) {
	if p == nil || !p.pooled {
		return
	}
	if p.freed {
		panic(fmt.Sprintf("netsim: double release of packet %d (%s)", p.ID, p.Label))
	}
	p.freed = true
	n.pktFree = append(n.pktFree, p)
}

// allocateNodeID hands out the next node identifier.
func (n *Network) allocateNodeID() NodeID {
	id := NodeID(len(n.nodes))
	n.nodes = append(n.nodes, nodeSlot{})
	n.topoVersion++
	return id
}

// Reserve pre-sizes the node, adjacency and column tables for a domain of the
// given node count. Topology builders that know their final size call it once
// so the per-node tables are allocated at full size up front instead of
// growing piecemeal. Reserving is purely an optimisation; the network works
// identically without it and with nodes added past the reserved budget.
func (n *Network) Reserve(nodes int) {
	if nodes <= len(n.nodes) {
		return
	}
	if cap(n.nodes) < nodes {
		grownNodes := make([]nodeSlot, len(n.nodes), nodes)
		copy(grownNodes, n.nodes)
		n.nodes = grownNodes
	}
	if nodes > n.sizeHint {
		n.sizeHint = nodes
	}
	if cap(n.sparse) < nodes {
		grown := make([]adjRow, len(n.sparse), nodes)
		copy(grown, n.sparse)
		n.sparse = grown
	}
	// A row per node, plus room for one row in 32 to re-carve at doubled
	// capacity (eight entries more): the ingress routers and the routers
	// with the most chords, which is what the 50 000-router domain needs.
	if entries := sparseRowCap*nodes + nodes/4; cap(n.adj) < entries {
		n.adj = slices.Grow(n.adj, entries-len(n.adj))
	}
	if nodes > len(n.routeCols) {
		if cap(n.routeCols) >= nodes {
			n.routeCols = n.routeCols[:nodes]
		} else {
			grownCols := make([]int32, nodes)
			copy(grownCols, n.routeCols)
			n.routeCols = grownCols
		}
	}
}

// AddRouter creates a router under the next NodeID. Nodes carry no name:
// diagnostics print their kind and NodeID.
func (n *Network) AddRouter() *Router {
	r := &n.routerSlab.take(1, n.nodeSlabSize())[0]
	*r = Router{
		net: n,
		id:  n.allocateNodeID(),
	}
	n.nodes[r.id].router = r
	return r
}

// AddHost creates a host under the next NodeID, owning the given addresses.
// Handlers live in the network's shared registry, so pure-sink hosts
// (bystanders, extra victims) cost no handler storage.
func (n *Network) AddHost(ips ...IP) *Host {
	h := &n.hostSlab.take(1, n.nodeSlabSize())[0]
	*h = Host{
		net: n,
		id:  n.allocateNodeID(),
		ips: n.carveIPs(ips),
	}
	n.nodes[h.id].host = h
	for _, ip := range ips {
		n.ipOwner[ip] = h.id
	}
	return h
}

// Router returns the router with the given ID, or nil. ForEachNode visits
// them all, in ascending ID order.
func (n *Network) Router(id NodeID) *Router {
	if id < 0 || int(id) >= len(n.nodes) {
		return nil
	}
	return n.nodes[id].router
}

// Host returns the host with the given ID, or nil.
func (n *Network) Host(id NodeID) *Host {
	if id < 0 || int(id) >= len(n.nodes) {
		return nil
	}
	return n.nodes[id].host
}

// NodeCount reports the number of nodes (routers plus hosts).
func (n *Network) NodeCount() int { return len(n.nodes) }

// Owner resolves an address to the node owning it, or NoNode when the
// address is not allocated anywhere in the simulated internetwork. MAFIC
// treats packets whose source resolves to NoNode as carrying illegal or
// unreachable addresses.
func (n *Network) Owner(ip IP) NodeID {
	if id, ok := n.ipOwner[ip]; ok {
		return id
	}
	return NoNode
}

// IsRoutable reports whether an address belongs to some host in the
// simulated internetwork.
func (n *Network) IsRoutable(ip IP) bool {
	_, ok := n.ipOwner[ip]
	return ok
}

// Connect adds a simplex link from a to b. Use ConnectDuplex for the common
// bidirectional case.
func (n *Network) Connect(from, to NodeID, cfg LinkConfig) (*Link, error) {
	if !n.nodeExists(from) || !n.nodeExists(to) {
		return nil, fmt.Errorf("connect %d->%d: %w", from, to, ErrUnknownNode)
	}
	if n.LinkBetween(from, to) != nil {
		return nil, fmt.Errorf("connect %d->%d: %w", from, to, ErrDuplicateLink)
	}
	return n.connect(from, to, cfg), nil
}

// connect installs the simplex link from->to. The caller has checked that
// both nodes exist and that no such link does.
func (n *Network) connect(from, to NodeID, cfg LinkConfig) *Link {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = DefaultQueueLen
	}
	// A new link can change shortest paths; memoized route columns from
	// before it existed are stale. On the build-then-run lifecycle nothing
	// has materialized yet and this is free.
	n.invalidateRouteColumns()
	n.topoVersion++
	l := &n.linkSlab.take(1, linkChunk)[0]
	*l = Link{from: int32(from), to: int32(to), cfg: n.sharedConfig(cfg)}
	n.links++
	// Chunks are linkChunk links long and none is skipped when one link is
	// carved at a time, so the link just carved is the used-th of chunk cur.
	n.sparseInsert(from, to, linkRef(n.linkSlab.cur*linkChunk+n.linkSlab.used))
	if h := n.nodes[to].host; h != nil {
		h.noteHome(from, l)
	}
	if h := n.nodes[from].host; h != nil && h.accessRouter == to {
		h.uplink = l
	}
	return l
}

// sharedLinkConfig is the network's one copy of a link configuration, and
// the way back from a link to its network: a link reaches both through one
// pointer.
type sharedLinkConfig struct {
	LinkConfig
	net *Network
}

// sharedConfig returns the network's copy of cfg, carving one the first time
// the value is seen. A NaN bandwidth never equals itself, so such a
// configuration gets a copy per link; topology refuses it before a build.
func (n *Network) sharedConfig(cfg LinkConfig) *sharedLinkConfig {
	if c := n.lastCfg; c != nil && c.LinkConfig == cfg {
		return c
	}
	c, ok := n.linkCfgs[cfg]
	if !ok {
		c = &n.cfgSlab.take(1, cfgChunk)[0]
		*c = sharedLinkConfig{LinkConfig: cfg, net: n}
		n.linkCfgs[cfg] = c
	}
	n.lastCfg = c
	return c
}

// sparseInsert places the link ref names into from's sorted neighbour row,
// re-carving the row at the end of adj at doubled capacity when its degree
// outgrows the current segment, and pairs it with the reverse direction, if
// that is connected already, through both entries' back links.
func (n *Network) sparseInsert(from, to NodeID, ref linkRef) {
	for int(from) >= len(n.sparse) {
		n.sparse = append(n.sparse, adjRow{})
	}
	r := n.sparse[from]
	if r.len == rowCap(r.len) {
		off, c := len(n.adj), int(max(sparseRowCap, 2*r.len))
		n.adj = slices.Grow(n.adj, c)[:off+c]
		copy(n.adj[off:], n.adj[r.off:r.off+r.len])
		r.off = uint32(off)
	}
	row := n.adj[r.off : r.off+r.len+1]
	// The caller rejected duplicates already, so the slot at i is either past
	// the end or holds a larger target.
	i := sparseFind(row[:r.len], to)
	copy(row[i+1:], row[i:])
	row[i] = adjEntry{to: int32(to), link: ref}
	r.len++
	n.sparse[from] = r
	if rev := n.adjacent(to, from); rev != nil {
		rev.back, row[i].back = ref, rev.link
	}
}

// ConnectDuplex adds two simplex links (a->b and b->a) with the same
// configuration. Both directions are validated before either is installed:
// a rejected pair leaves no half-installed duplex link behind and does not
// move TopoVersion. A node's duplex link to itself is its own duplicate.
func (n *Network) ConnectDuplex(a, b NodeID, cfg LinkConfig) error {
	if !n.nodeExists(a) || !n.nodeExists(b) {
		return fmt.Errorf("connect %d<->%d: %w", a, b, ErrUnknownNode)
	}
	if a == b || n.LinkBetween(a, b) != nil || n.LinkBetween(b, a) != nil {
		return fmt.Errorf("connect %d<->%d: %w", a, b, ErrDuplicateLink)
	}
	n.connect(a, b, cfg)
	n.connect(b, a, cfg)
	return nil
}

// AttachmentLink returns the direct link from node r to the host with ID h,
// or nil. It answers the per-hop forwarding question "is this packet's
// destination attached to me?" from the attachment record Connect keeps on
// each host — an O(homes) scan of one or two inline entries — instead of an
// adjacency search that misses at every hop but the last. The answer is
// exactly LinkBetween(r, h) whenever h is a host; non-host IDs (which no
// destination owner ever is) fall back to the search.
func (n *Network) AttachmentLink(r, h NodeID) *Link {
	if h < 0 || int(h) >= len(n.nodes) {
		return nil
	}
	host := n.nodes[h].host
	if host == nil || host.homeCount > maxHostHomes {
		// Not a host, or a pathologically many-homed one whose inline
		// record overflowed: preserve the adjacency answer.
		return n.LinkBetween(r, h)
	}
	for i := 0; i < host.homeCount; i++ {
		if host.homeRouters[i] == r {
			return host.homeLinks[i]
		}
	}
	return nil
}

// LinkBetween returns the simplex link from a to b, or nil: a binary search
// of a's neighbour row (a handful of entries in the generated domains) that
// does not allocate. Forwarding does not call it; route columns and host
// uplinks hold the links it would find.
func (n *Network) LinkBetween(a, b NodeID) *Link {
	if e := n.adjacent(a, b); e != nil {
		return n.link(e.link)
	}
	return nil
}

// adjacent returns a's row entry for b, or nil.
func (n *Network) adjacent(a, b NodeID) *adjEntry {
	row := n.row(a)
	if i := sparseFind(row, b); i < len(row) && NodeID(row[i].to) == b {
		return &row[i]
	}
	return nil
}

// Neighbors returns the node IDs reachable over one outgoing link from id,
// in ascending order.
func (n *Network) Neighbors(id NodeID) []NodeID {
	return n.AppendNeighbors(nil, id)
}

// AppendNeighbors appends id's neighbours (ascending) to dst and returns the
// extended slice. Passing a reused buffer makes adjacency iteration
// allocation-free; route computation over large domains depends on this.
// While any link or router is down, down links and links into crashed
// routers are skipped (in the same ascending order), so route recomputation
// converges around the fault; with no fault active the plain loop runs
// untouched.
func (n *Network) AppendNeighbors(dst []NodeID, id NodeID) []NodeID {
	if n.faultsActive() {
		return n.appendLiveNeighbors(dst, id)
	}
	for _, e := range n.row(id) {
		dst = append(dst, NodeID(e.to))
	}
	return dst
}

func (n *Network) nodeExists(id NodeID) bool {
	if id < 0 || int(id) >= len(n.nodes) {
		return false
	}
	slot := n.nodes[id]
	return slot.router != nil || slot.host != nil
}

// deliverTo hands a packet arriving over a link to its destination node.
func (n *Network) deliverTo(id NodeID, pkt *Packet, from NodeID) {
	if id >= 0 && int(id) < len(n.nodes) {
		slot := n.nodes[id]
		if slot.router != nil {
			slot.router.Deliver(pkt, from)
			return
		}
		if slot.host != nil {
			slot.host.Deliver(pkt, from)
			return
		}
	}
	n.dropUnroutable(pkt, from)
}

func (n *Network) noteQueueDrop(pkt *Packet, l *Link, now sim.Time) {
	if n.hooks.OnQueueDrop != nil {
		n.hooks.OnQueueDrop(pkt, l, now)
	}
}

func (n *Network) noteFilterDrop(pkt *Packet, r *Router, filter string, now sim.Time) {
	if n.hooks.OnFilterDrop != nil {
		n.hooks.OnFilterDrop(pkt, r, filter, now)
	}
}

func (n *Network) noteDeliver(pkt *Packet, h *Host, now sim.Time) {
	if n.hooks.OnDeliver != nil {
		n.hooks.OnDeliver(pkt, h, now)
	}
}

// dropUnroutable reports an unroutable packet and recycles it: it has
// reached a terminal point.
func (n *Network) dropUnroutable(pkt *Packet, at NodeID) {
	if n.hooks.OnUnroutable != nil {
		n.hooks.OnUnroutable(pkt, at, n.Now())
	}
	n.FreePacket(pkt)
}
