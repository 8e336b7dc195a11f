// Package netsim models the packet-level network substrate the MAFIC
// evaluation runs on: addresses, packets, simplex links with drop-tail
// queues, routers with attachable per-packet filters (the role NS-2
// Connectors play in the original paper), and end hosts.
//
// # Packet ownership and pooling
//
// Packets obtained from Network.NewPacket are pooled: the network recycles
// them once they reach a terminal point — delivery to a host, a queue or
// filter drop, or an unroutable destination. Ownership transfers to the
// network the moment a packet is handed to Host.Send, Router.Inject,
// Link.Send or a Deliver method; after that the producer must not touch it
// again. Observation hooks (Hooks, Filter.Handle, PacketHandler)
// may read a packet only for the duration of the callback and must not retain
// the pointer — the slot is reused for a future packet as soon as the
// callback returns. Packets built directly with &Packet{} are never pooled
// and remain valid indefinitely; releasing one is a no-op.
//
// # Link occupancy
//
// A link send costs one scheduler event, the packet's arrival, and a busy
// link has only its next arrival in the calendar. The end of
// its transmission — the instant a slot of the drop-tail queue frees up —
// gets no event of its own: the count behind QueueLen and the drop-tail test
// is settled lazily, whenever Send, QueueLen or CheckpointState looks at it,
// and comes out exactly as if a transmit-done event per packet had
// decremented it.
//
// That works because a link is FIFO. NextFree only grows, so in send order
// both the transmit-done instants and the arrival instants never decrease.
// The packets in flight on a link therefore form a chain in send order
// (through the packets themselves; the link's run state stores the tail and a
// cursor, and the arriving packet is always the head), the packets whose transmission
// is still unretired are a suffix of it, and settling the count is advancing
// the cursor over every packet whose transmit-done instant has fired.
//
// "Has fired" is decided the way the scheduler would have: ties are the
// norm, since on two consecutive links of equal bandwidth a packet reaches
// the second at the very instant it finishes transmitting the previous one.
// Send stamps each packet with the key (txDone, seq of its own arrival
// event). A transmit-done event would have been scheduled immediately before
// that arrival event, so it would have been dispatched before some event X
// exactly when the arrival's sequence number lies before X's — and that is
// what sim.Scheduler.Fired answers for the event being dispatched. Outside
// the run loop nothing scheduled since the loop returned counts as fired.
//
// The same order lets a busy link hold one calendar entry instead of one per
// packet. Send takes the arrival's sequence number with
// sim.Scheduler.Reserve and queues the arrival only if the link was idle (no
// packet in flight); otherwise the packet just joins the chain. Each arrival,
// as it fires, queues the next packet's under the key reserved for it,
// (txDone + Delay, txSeq), with sim.Scheduler.InsertKeyed. Arrivals on one
// link never decrease in key, so the next one is always still ahead, and the
// run dispatches exactly what it would with every arrival queued at its send:
// the same events, keys and sequence numbers. The key Fired is asked about is
// unchanged too — the arrival's own sequence number, reserved at the send,
// whether or not its event is queued yet.
//
// The chain is threaded through Packet, so a packet is in flight on at most
// one link at a time: hand the same *Packet to a link again only after it
// has arrived. None of this is in a snapshot, and the count that is — the
// link's run state holds it as LinkState.Queued — is not believed from one. A snapshot
// lists one arrival per packet in flight: a capture finds each chain's head
// in the calendar and walks the rest with Link.NextInFlight. A restore keeps
// the rebuilt link's count and relinks the packets in sequence order with
// Link.RestoreInFlight, which queues each chain's head itself, and the
// checkpoint layer checks the recount against the recorded value.
//
// A link holds the chain's ends, its LinkState and nothing else of a run in a
// linkRun, which also reaches the link's configuration and network, and only
// once something is written to it: the first Send, SetDown, RestoreInFlight,
// or RestoreState of a non-zero state carves one from the network's linkRuns.
// Until then the link points at its configuration's idle record, whose
// LinkState is zero and which nothing writes, so a link is 16 bytes: its
// endpoints and that one pointer. A router is 16 bytes the same way: its id,
// its down flag, inline since every hop reads it, and a pointer to a
// routerRun holding its network, filter chain and counters (forwarded,
// filter- and fault-dropped), the network's shared idleRouter until
// AttachFilter or its first count carves one from routerRuns. The getters,
// CheckpointState and the route BFS read the idle records like any other. A
// quick 50 000-router run writes to 291 of 130 518 links and 137 routers.
//
// # Demand-driven routing
//
// A router forwards a packet in at most two lookups, neither of them a
// search. First AttachmentLink: is the destination a host attached to this
// router (one or two inline entries on the host)? Otherwise RouteLink: the
// entry for this router in the destination's route column, a NodeID-indexed
// slice of one-byte row positions. An entry names the forwarding link by its
// place in the router's own adjacency row, plus one, so a hop reads the
// column, the row entry it names and the link that entry's id resolves to; a
// link's id is four bytes, its carve position in the network's link slab,
// and resolves to the *Link by chunk arithmetic with no table of its own. A
// node's slot in the column table is the four-byte number of the column
// serving it. A host sends on its uplink, the link to its access router that
// AttachTo and Connect keep on it. The network computes each column on
// demand, one reverse BFS over its own adjacency rows (see routing.go for the
// host aggregation and the invariants), and memoizes it until the graph
// changes: any Connect, SetDown, FailRouter or RestoreRouter invalidates them
// all, which also keeps row positions right: a Connect shifts a row. A
// column entry names the link LinkBetween(at, next hop) returns at the time
// it is computed — a down link included, so a packet routed onto it is
// fault-dropped there, exactly as if the next hop had been looked up per
// packet. NextHop is derived from the same column (the entry's far end) and
// has no table of its own. BenchmarkForward prices one hop; topology's
// lazy_test.go and FuzzRouteColumns hold the reference.
//
// # Adjacency representation
//
// The node/link graph answers two questions off the forwarding fast path:
// LinkBetween (is there a direct link from a to b, and which one) and
// AppendNeighbors (a's neighbours in ascending ID order, the order BFS route
// computation depends on). Behind both is one sorted row of (neighbour, link
// id, back position) entries per node, eight bytes each, the rows back to
// back in one array and each node's located by a four-byte (offset, length)
// word; a row that outgrows its capacity is re-carved at the end of the array
// at doubled capacity. The link id is 24 bits, so Connect and ConnectDuplex
// refuse a network's 1<<24th link with ErrLinks. The back position is where
// the reverse link's entry sits in the neighbour's row, which is what the
// route BFS writes into a column; an insert shifts the entries behind it and
// bumps their reverse entries' back positions, O(degree). A position is one
// byte, so a node has at most MaxDegree outgoing links (the catalog's busiest
// has 11); Connect and ConnectDuplex refuse one more with ErrDegree.
// LinkBetween is a binary search over the row — simulated degrees are single
// digits, so the search is two or three probes — and total adjacency state is
// O(nodes + links): a 50000-router domain's entries fit in 1.7 megabytes and
// its row locators in 0.2. The reference the rows are tested against is
// test-only: adjacency_test.go mirrors every Connect into a map keyed by
// (from, to) and compares all pairs and every neighbour list on seeded random
// graphs, and TestBackPositionsFollowInserts checks every back position and
// column entry against the rows.
//
// # Reservation and slab carving
//
// Reserve(nodes) sizes the internal spines, the adjacency rows and the slabs
// for a known domain size so construction is O(1) allocations per chunk
// instead of per node. The reservation is a hint, not a cap: nodes added past
// it stay correct and keep carving from the slabs. A slab keeps every chunk
// it has carved; see the next section.
//
// # Reset and ownership
//
// Network.Reset(scheduler, rng) rewinds a network instead of freeing it, so
// that a sweep worker, a search cell or a service job rebuilds its domain on
// the storage of the one before (topology.Arena does exactly this; New stays
// the fresh path, and the oracle the reset path is tested against).
//
// What survives is storage only: the chunks of the ten slabs (routers,
// hosts, links, link run states, router records, link configurations,
// filter-chain entries, host addresses, pool packets, route columns), the
// backing of the three per-node
// tables (the node table, the adjacency spine, the column-number table), of
// the adjacency rows and of the list of columns, the route BFS's scratch, the
// three maps' buckets and the free list's array. What a caller can observe does not: a reset network
// has no nodes, links, addresses, handlers, hooks or columns, its fault
// counters, TopoVersion and packet IDs start from zero, and it is bound to the
// new scheduler and RNG. Reset states what it keeps and zeroes the rest
// wholesale, so a field added to Network is reset unless it is named there.
//
// What is invalidated is everything handed out before: every *Router, *Host,
// *Link and pooled *Packet, and every slice carved for them, is carved again
// by the next build. The rule is the arena's — valid until the next Build —
// and one level down it is the packet pool's. Packets the last run left
// queued or in flight were never released; Reset marks every packet that run
// drew as released, the pool threads the retained chunks again as the next
// run asks for packets, none is handed out twice, and a release by a holder
// from before the reset panics like any double release.
//
// Link ids are reused the same way. The next build carves links from the
// first position of the link slab again, so an id the last build stored names
// whatever link the new build carves there — or, past the new build's last
// link, a link of the last build left in a retained chunk. None is misread:
// Reset empties the column table, the adjacency spine and the column list, so
// every id a column or row holds afterwards was stored by the new build, for a
// link it has carved. Within a build an id never changes: links are not
// removed, and a re-carved row copies its entries' ids.
//
// The slabs need no zeroing, because no carve site reads before it writes:
// nodes, links, link run states, router records and link configurations are
// assigned whole (*r = Router{...}),
// pool packets are zeroed when drawn, route columns are cleared by the BFS
// that fills them, a row's entries are written by the insert that extends it
// before anything reads them, and filter chains and address slices are
// handed out at zero length and only appended to (the filter slab is cleared
// all the same, so that a chain nobody carves over cannot pin a finished
// run's defenders). The tables are read by index before they are written, so
// Reset zeroes the part the last build used and truncates them; beyond their
// length they stay zero, which is what lets Reserve re-extend them without
// clearing.
//
// Reset costs what the last build and run used — its node count for the
// tables, its packet high-water mark for the pool, its chain count for the
// filter slab — and not what the network has ever held: a 40-router build
// after a 50 000-router one does not sweep 50 000-wide tables. (The three
// maps are cleared at their capacity; they hold one entry per host address,
// per flow endpoint and per distinct link configuration, hundreds even at
// 50 000 routers.) Reset and the build that follows it on warm storage
// allocate nothing.
//
// A network retains the largest domain it has built, its route columns
// included: the run bundle around it holds 8.9 MB after a quick stress-50k
// run (experiment's TestStress50kBundleHeap pins it), against 0.25 MB after
// quick table2. Per node and link it keeps only what forwarding reads: nodes
// carry no name, the node table holds a 4-byte slab position per node, links
// and routers are 16 bytes (TestStructSizes), a link's run state and a
// router's record are one pointer each, to a shared zero record on the ones
// without, rows hold 24-bit link ids and columns one-byte row positions.
// One arena serves one run at a time, so a process holds as many as it has
// had concurrent runs; experiment keeps at most 64 idle run bundles, each
// with its arena and the defenders, monitor, coordinator and workload that
// run on its network.
//
// # Link and router failure
//
// Links and routers carry runtime up/down state for fault injection
// (Link.SetDown, Network.FailRouter / RestoreRouter). A down link admits no
// packets and kills packets already in flight on it at their arrival instant;
// a crashed router drops everything addressed through it without running its
// filter chain. Every such drop is accounted (Hooks.OnFaultDrop, the
// FaultDropped counters) and the packet is recycled through the pool like any
// other terminal point. Each state flip bumps TopoVersion and invalidates the
// memoized route columns, and the route BFS skips down links and links
// into crashed routers while any fault is active — so routing re-converges
// around the fault. With every link and router up, none of this exists on the
// hot path: AppendNeighbors takes the plain loop, no RNG is consulted,
// nothing allocates, and simulations are bit-identical to builds without the
// fault layer.
package netsim
