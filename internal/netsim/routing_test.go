package netsim

import (
	"testing"

	"mafic/internal/sim"
)

// chainNet builds r0 - r1 - host with duplex links and no static routes.
func chainNet(t *testing.T) (*Network, *Router, *Router, *Host) {
	t.Helper()
	net := New(sim.NewScheduler(), sim.NewRNG(1))
	r0 := net.AddRouter()
	r1 := net.AddRouter()
	h := net.AddHost(IP(0x0a000001))
	h.AttachTo(r1.ID())
	cfg := LinkConfig{BandwidthBps: 1e9, Delay: sim.Millisecond, QueueLen: 8}
	if err := net.ConnectDuplex(r0.ID(), r1.ID(), cfg); err != nil {
		t.Fatal(err)
	}
	if err := net.ConnectDuplex(r1.ID(), h.ID(), cfg); err != nil {
		t.Fatal(err)
	}
	return net, r0, r1, h
}

// TestDiscoveredWithoutLinkBack pins noBack: the route BFS toward router 0
// discovers router 1 first over the simplex link 0->1, which has no reverse,
// so router 1 has no route toward router 0 — and keeps none when router 2,
// which it does link to, reaches it later in the same search.
func TestDiscoveredWithoutLinkBack(t *testing.T) {
	net := New(sim.NewScheduler(), sim.NewRNG(1))
	r0, r1, r2 := net.AddRouter().ID(), net.AddRouter().ID(), net.AddRouter().ID()
	cfg := LinkConfig{BandwidthBps: 1e9, Delay: sim.Millisecond, QueueLen: 8}
	if _, err := net.Connect(r0, r1, cfg); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]NodeID{{r0, r2}, {r1, r2}} {
		if err := net.ConnectDuplex(pair[0], pair[1], cfg); err != nil {
			t.Fatal(err)
		}
	}
	if l, hop := net.RouteLink(r1, r0), net.NextHop(r1, r0); l != nil || hop != NoNode {
		t.Errorf("router 1 routes toward router 0 on %v through %d, want no route", l, hop)
	}
	if got, want := net.RouteLink(r2, r0), net.LinkBetween(r2, r0); got != want {
		t.Errorf("router 2 routes toward router 0 on %v, want %v", got, want)
	}
}

// TestNextHopMaterializesOnceAndAliasesHosts pins the demand-driven core: a
// host lookup and its attachment-router lookup share one column, and repeated
// lookups hit the memo.
func TestNextHopMaterializesOnceAndAliasesHosts(t *testing.T) {
	net, r0, r1, h := chainNet(t)

	if got := net.NextHop(r0.ID(), h.ID()); got != r1.ID() {
		t.Fatalf("NextHop(r0, h) = %d, want %d", got, r1.ID())
	}
	col := residentColumn(net, h.ID())
	if got := net.NextHop(r0.ID(), r1.ID()); got != r1.ID() {
		t.Fatalf("NextHop(r0, r1) = %d, want %d", got, r1.ID())
	}
	for i := 0; i < 10; i++ {
		net.NextHop(r0.ID(), h.ID())
	}
	if net.RouteColumns() != 1 || &residentColumn(net, r1.ID())[0] != &col[0] {
		t.Fatalf("RouteColumns = %d, want 1 (host aliases its router's column)", net.RouteColumns())
	}
	entries, bytes := net.RouteStats()
	if entries != net.NodeCount() || bytes != int64(entries) {
		t.Fatalf("RouteStats = (%d, %d)", entries, bytes)
	}
}

// TestNextHopWithoutResolver pins that a hand-built network routes with
// nothing installed — the network computes its own columns — and that lookups
// with no route say so: an invalid origin, an unknown destination and a node
// with no links give NoNode and materialize nothing.
func TestNextHopWithoutResolver(t *testing.T) {
	net, r0, r1, h := chainNet(t)
	if got := net.NextHop(r0.ID(), h.ID()); got != r1.ID() {
		t.Fatalf("NextHop(r0, h) on a hand-built network = %d, want %d", got, r1.ID())
	}
	if got := net.NextHop(NodeID(-1), h.ID()); got != NoNode {
		t.Fatalf("NextHop from invalid node = %d, want NoNode", got)
	}
	if got := net.NextHop(r0.ID(), NodeID(999)); got != NoNode || net.RouteLink(r0.ID(), NodeID(-1)) != nil {
		t.Fatalf("NextHop to unknown node = %d, want NoNode", got)
	}
	lone := net.AddRouter()
	if got := net.NextHop(r0.ID(), lone.ID()); got != NoNode {
		t.Fatalf("NextHop to an unlinked router = %d, want NoNode", got)
	}
	if net.RouteColumns() != 2 {
		t.Fatalf("RouteColumns = %d, want 2 (the host's router and the lone router)", net.RouteColumns())
	}
}

// TestConnectInvalidatesColumns pins the safety rule for dynamic graphs:
// adding a link after columns materialized drops the memo so stale shortest
// paths cannot be served, and the column computed next is as wide as the
// network and sees the new link.
func TestConnectInvalidatesColumns(t *testing.T) {
	net, r0, _, h := chainNet(t)

	net.NextHop(r0.ID(), h.ID())
	if net.RouteColumns() != 1 {
		t.Fatalf("RouteColumns = %d, want 1", net.RouteColumns())
	}
	r2 := net.AddRouter()
	cfg := LinkConfig{BandwidthBps: 1e9, Delay: sim.Millisecond, QueueLen: 8}
	if err := net.ConnectDuplex(r0.ID(), r2.ID(), cfg); err != nil {
		t.Fatal(err)
	}
	if net.RouteColumns() != 0 {
		t.Fatalf("Connect left %d stale columns", net.RouteColumns())
	}
	if got := net.NextHop(r2.ID(), h.ID()); got != r0.ID() {
		t.Fatalf("NextHop(r2, h) = %d after the connect, want %d", got, r0.ID())
	}
	if net.RouteColumns() != 1 || len(residentColumn(net, h.ID())) != net.NodeCount() {
		t.Fatalf("re-materialized %d columns, %d wide; want 1, %d wide",
			net.RouteColumns(), len(residentColumn(net, h.ID())), net.NodeCount())
	}
}

// BenchmarkForward prices one hop — Router.forward, route's column lookup,
// Link.Send and the arrival that hands the packet to the next node — on a
// 64-router ring whose one route column is resident. Each packet is injected
// at r0 for a host behind r32, 33 hops away, so b.N counts hops. The hop path must
// not allocate, and the benchmark fails if it does.
func BenchmarkForward(b *testing.B) {
	const routers, far = 64, 32
	sched := sim.NewScheduler()
	n := New(sched, sim.NewRNG(1))
	cfg := LinkConfig{BandwidthBps: 1e9, Delay: sim.Microsecond, QueueLen: 8}
	for i := 0; i < routers; i++ {
		n.AddRouter()
	}
	for i := 0; i < routers; i++ {
		if err := n.ConnectDuplex(NodeID(i), NodeID((i+1)%routers), cfg); err != nil {
			b.Fatal(err)
		}
	}
	r0 := n.Router(0)
	dst := n.AddHost(IP(0x0a000001))
	dst.AttachTo(far)
	if err := n.ConnectDuplex(dst.ID(), far, cfg); err != nil {
		b.Fatal(err)
	}
	label := FlowLabel{SrcIP: IP(0x0a000002), DstIP: dst.PrimaryIP(), SrcPort: 1, DstPort: 80}
	send := func() {
		pkt := n.NewPacket()
		pkt.Label, pkt.Kind, pkt.Size = label, KindData, 1000
		r0.Inject(pkt)
		if err := sched.Run(); err != nil {
			b.Fatal(err)
		}
	}
	send() // materializes the column, fills the pool and the event arena
	if allocs := testing.AllocsPerRun(10, send); allocs != 0 {
		b.Fatalf("a packet across %d hops allocates %.1f times, want 0", far+1, allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for hops := 0; hops < b.N; hops += far + 1 {
		send()
	}
}

// TestAggregateOfMultiHomedHost verifies a host with two attachment links
// routes by its own column rather than either router's.
func TestAggregateOfMultiHomedHost(t *testing.T) {
	net, r0, r1, h := chainNet(t)
	cfg := LinkConfig{BandwidthBps: 1e9, Delay: sim.Millisecond, QueueLen: 8}
	if err := net.ConnectDuplex(h.ID(), r0.ID(), cfg); err != nil {
		t.Fatal(err)
	}

	net.NextHop(r0.ID(), r1.ID())
	net.NextHop(r0.ID(), h.ID())
	if net.RouteColumns() != 2 {
		t.Fatalf("%d columns materialized, want 2 (multi-homed host needs its own column)", net.RouteColumns())
	}
}

// residentColumn returns the materialized column serving dest, or nil when
// there is none, without materializing one.
func residentColumn(net *Network, dest NodeID) []rowPos {
	if c := net.routeCols[dest]; c != 0 {
		return net.cols[c-1]
	}
	return nil
}

// refColumn is the routing reference: one breadth-first search from dest over
// AppendNeighbors, each discovered node v sending on LinkBetween(v, u) toward
// the node u that discovered it. It shares nothing with the network's route
// computation (no back links, no column storage, no memo) and sees faults the
// way AppendNeighbors reports them. A link LinkBetween returns must run from v
// to u, which pins the resolution of link ids.
func refColumn(t *testing.T, net *Network, dest NodeID) []*Link {
	n := len(net.nodes)
	col := make([]*Link, n)
	visited := make([]bool, n)
	queue := []NodeID{dest}
	visited[dest] = true
	var nbuf []NodeID
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		nbuf = net.AppendNeighbors(nbuf[:0], u)
		for _, v := range nbuf {
			if visited[v] {
				continue
			}
			visited[v] = true
			col[v] = net.LinkBetween(v, u)
			if l := col[v]; l != nil && (l.From() != v || l.To() != u) {
				t.Fatalf("LinkBetween(%d, %d) = %v", v, u, l)
			}
			queue = append(queue, v)
		}
	}
	return col
}

// FuzzRouteColumns runs random scripts of routers, hosts, duplex and simplex
// links (so some discovered nodes have no link back), lookups interleaved with
// the mutations, one-direction link faults, router crashes and restores, and
// resets, after which the script builds again on the same storage and reuses
// link ids. After every step each materialized column must be the reference
// BFS's for the destination it serves (a single-homed host's slot shares its
// router's column), and a column the step materialized must be as wide as the
// network.
func FuzzRouteColumns(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 0, 1, 2, 1, 2, 1, 3, 0, 4, 2, 0, 4, 0, 2})
	f.Add([]byte{0, 0, 0, 0, 2, 0, 1, 2, 1, 2, 3, 2, 3, 2, 3, 0, 4, 3, 0, 5, 0, 0, 4, 0, 3, 6, 1, 4, 3, 0, 6, 1, 4, 3, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 1, 1, 2, 0, 2, 2, 1, 2, 2, 3, 2, 4, 1, 3, 4, 3, 0, 0, 4, 0, 4, 2, 2, 4, 4, 2, 5, 1, 0, 4, 4, 3})
	// A shrinking rebuild: six routers, a ring with three chords and two
	// columns; a reset and a reservation for eight nodes; four routers in a
	// ring, a column, post-build connects that re-carve router 1's row, a
	// host, a down link and more columns, all on ids the first build's
	// links had.
	f.Add([]byte{
		0, 0, 0, 0, 0, 0,
		2, 0, 1, 2, 1, 2, 2, 2, 3, 2, 3, 4, 2, 4, 5, 2, 5, 0, 2, 0, 3, 2, 1, 4, 2, 2, 5,
		4, 0, 3, 4, 1, 4,
		7, 8,
		0, 0, 0, 0,
		2, 0, 1, 2, 1, 2, 2, 2, 3,
		4, 0, 3,
		0, 2, 1, 3, 2, 1, 4, 0, 2, 1, 5,
		4, 3, 0, 4, 5, 2,
		1, 2, 6, 2, 4, 0, 6,
		5, 1, 0, 4, 2, 0, 4, 6, 1,
	})
	cfg := LinkConfig{BandwidthBps: 1e9, Delay: sim.Millisecond, QueueLen: 8}
	f.Fuzz(func(t *testing.T, script []byte) {
		net := New(sim.NewScheduler(), sim.NewRNG(1))
		next := func() int {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return int(b)
		}
		node := func() NodeID { return NodeID(next() % max(len(net.nodes), 1)) }
		for step := 0; len(script) > 0 && step < 256; step++ {
			before := net.RouteColumns()
			switch op := next() % 8; {
			case op == 0 && len(net.nodes) < 32:
				net.AddRouter()
			case op == 1 && len(net.nodes) < 32:
				net.AddHost(IP(0x0a000000 + len(net.nodes)))
			case op == 2 && len(net.nodes) > 0:
				_ = net.ConnectDuplex(node(), node(), cfg)
			case op == 3 && len(net.nodes) > 0:
				_, _ = net.Connect(node(), node(), cfg)
			case op == 4 && len(net.nodes) > 0:
				at, dest := node(), node()
				net.RouteLink(at, dest)
				if net.RouteColumns() > before {
					if got := len(residentColumn(net, dest)); got != len(net.nodes) {
						t.Fatalf("step %d: column toward %d materialized %d wide, network has %d nodes", step, dest, got, len(net.nodes))
					}
				}
			case op == 5 && len(net.nodes) > 0:
				if row := net.row(node()); len(row) > 0 {
					l := net.link(row[next()%len(row)].link())
					l.SetDown(!l.Down())
				}
			case op == 6 && len(net.nodes) > 0:
				if id := node(); net.RouterDown(id) {
					_ = net.RestoreRouter(id)
				} else {
					_ = net.FailRouter(id)
				}
			case op == 7:
				net.Reset(sim.NewScheduler(), sim.NewRNG(1))
				net.Reserve(next() % 32)
			}
			for dest, c := range net.routeCols {
				if c == 0 {
					continue
				}
				agg := net.aggregateOf(NodeID(dest))
				if net.routeCols[agg] != c {
					t.Fatalf("step %d: the slot of %d does not share the column of %d", step, dest, agg)
				}
				col, want := net.cols[c-1], refColumn(t, net, agg)
				for at, w := range want {
					var got *Link
					if at < len(col) {
						if e := net.entryAt(NodeID(at), col[at]); e != nil {
							got = net.link(e.link())
						}
					}
					if got != w {
						t.Fatalf("step %d: %d sends toward %d on %v, reference BFS says %v", step, at, dest, got, w)
					}
				}
			}
		}
	})
}
