package netsim

import (
	"testing"

	"mafic/internal/sim"
)

// chainNet builds r0 - r1 - host with duplex links and no static routes.
func chainNet(t *testing.T) (*Network, *Router, *Router, *Host) {
	t.Helper()
	net := New(sim.NewScheduler(), sim.NewRNG(1))
	r0 := net.AddRouter("r0")
	r1 := net.AddRouter("r1")
	h := net.AddHost("h", IP(0x0a000001))
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

// TestNextHopMaterializesOnceAndAliasesHosts pins the demand-driven core: a
// host lookup and its attachment-router lookup share one column, and repeated
// lookups hit the memo.
func TestNextHopMaterializesOnceAndAliasesHosts(t *testing.T) {
	net, r0, r1, h := chainNet(t)

	if got := net.NextHop(r0.ID(), h.ID()); got != r1.ID() {
		t.Fatalf("NextHop(r0, h) = %d, want %d", got, r1.ID())
	}
	col := net.routeCols[h.ID()]
	if got := net.NextHop(r0.ID(), r1.ID()); got != r1.ID() {
		t.Fatalf("NextHop(r0, r1) = %d, want %d", got, r1.ID())
	}
	for i := 0; i < 10; i++ {
		net.NextHop(r0.ID(), h.ID())
	}
	if net.RouteColumns() != 1 || &net.routeCols[r1.ID()][0] != &col[0] {
		t.Fatalf("RouteColumns = %d, want 1 (host aliases its router's column)", net.RouteColumns())
	}
	entries, bytes := net.RouteStats()
	if entries != net.NodeCount() || bytes != int64(entries)*8 {
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
	lone := net.AddRouter("lone")
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
	r2 := net.AddRouter("r2")
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
	if net.RouteColumns() != 1 || len(net.routeCols[h.ID()]) != net.NodeCount() {
		t.Fatalf("re-materialized %d columns, %d wide; want 1, %d wide",
			net.RouteColumns(), len(net.routeCols[h.ID()]), net.NodeCount())
	}
}

// BenchmarkForward prices one hop — Router.forward, route's column lookup,
// Link.Send and the arrival that hands the packet to the next node — on a
// 64-router ring whose one route column is resident. Each packet leaves r0
// for a host behind r32, 33 hops away, so b.N counts hops. The hop path must
// not allocate, and the benchmark fails if it does.
func BenchmarkForward(b *testing.B) {
	const routers, far = 64, 32
	sched := sim.NewScheduler()
	n := New(sched, sim.NewRNG(1))
	cfg := LinkConfig{BandwidthBps: 1e9, Delay: sim.Microsecond, QueueLen: 8}
	for i := 0; i < routers; i++ {
		n.AddRouter("r")
	}
	for i := 0; i < routers; i++ {
		if err := n.ConnectDuplex(NodeID(i), NodeID((i+1)%routers), cfg); err != nil {
			b.Fatal(err)
		}
	}
	dst := n.AddHost("dst", IP(0x0a000001))
	dst.AttachTo(far)
	if err := n.ConnectDuplex(dst.ID(), far, cfg); err != nil {
		b.Fatal(err)
	}
	label := FlowLabel{SrcIP: IP(0x0a000002), DstIP: dst.PrimaryIP(), SrcPort: 1, DstPort: 80}
	send := func() {
		pkt := n.NewPacket()
		pkt.Label, pkt.Kind, pkt.Size = label, KindData, 1000
		n.SendFrom(0, pkt)
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

// refColumn is the routing reference: one breadth-first search from dest over
// AppendNeighbors, each discovered node v sending on LinkBetween(v, u) toward
// the node u that discovered it. It shares nothing with the network's route
// computation (no back links, no column storage, no memo) and sees faults the
// way AppendNeighbors reports them.
func refColumn(net *Network, dest NodeID) []*Link {
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
			queue = append(queue, v)
		}
	}
	return col
}

// FuzzRouteColumns runs random scripts of routers, hosts, duplex and simplex
// links (so some discovered nodes have no link back), lookups interleaved with
// the mutations, one-direction link faults and router crashes and restores.
// After every step each materialized column must be the reference BFS's for
// the destination it serves (a single-homed host's slot aliases its router's
// column), and a column the step materialized must be as wide as the network.
func FuzzRouteColumns(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 0, 1, 2, 1, 2, 1, 3, 0, 4, 2, 0, 4, 0, 2})
	f.Add([]byte{0, 0, 0, 0, 2, 0, 1, 2, 1, 2, 3, 2, 3, 2, 3, 0, 4, 3, 0, 5, 0, 0, 4, 0, 3, 6, 1, 4, 3, 0, 6, 1, 4, 3, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 1, 1, 2, 0, 2, 2, 1, 2, 2, 3, 2, 4, 1, 3, 4, 3, 0, 0, 4, 0, 4, 2, 2, 4, 4, 2, 5, 1, 0, 4, 4, 3})
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
			switch op := next() % 7; {
			case op == 0 && len(net.nodes) < 32:
				net.AddRouter("r")
			case op == 1 && len(net.nodes) < 32:
				net.AddHost("h", IP(0x0a000000+len(net.nodes)))
			case op == 2 && len(net.nodes) > 0:
				_ = net.ConnectDuplex(node(), node(), cfg)
			case op == 3 && len(net.nodes) > 0:
				_, _ = net.Connect(node(), node(), cfg)
			case op == 4 && len(net.nodes) > 0:
				at, dest := node(), node()
				net.RouteLink(at, dest)
				if net.RouteColumns() > before {
					if got := len(net.routeCols[dest]); got != len(net.nodes) {
						t.Fatalf("step %d: column toward %d materialized %d wide, network has %d nodes", step, dest, got, len(net.nodes))
					}
				}
			case op == 5 && len(net.nodes) > 0:
				if a := node(); int(a) < len(net.sparse) && len(net.sparse[a]) > 0 {
					l := net.sparse[a][next()%len(net.sparse[a])].link
					l.SetDown(!l.Down())
				}
			case op == 6 && len(net.nodes) > 0:
				if id := node(); net.RouterDown(id) {
					_ = net.RestoreRouter(id)
				} else {
					_ = net.FailRouter(id)
				}
			}
			for dest, col := range net.routeCols {
				if col == nil {
					continue
				}
				agg := net.aggregateOf(NodeID(dest))
				if aggCol := net.routeCols[agg]; len(aggCol) != len(col) || len(col) > 0 && &aggCol[0] != &col[0] {
					t.Fatalf("step %d: the slot of %d does not alias the column of %d", step, dest, agg)
				}
				want := refColumn(net, agg)
				for at, w := range want {
					var got *Link
					if at < len(col) {
						got = col[at]
					}
					if got != w {
						t.Fatalf("step %d: %d sends toward %d on %v, reference BFS says %v", step, at, dest, got, w)
					}
				}
			}
		}
	})
}
