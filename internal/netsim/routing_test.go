package netsim

import (
	"testing"

	"mafic/internal/sim"
)

// countingResolver sends every node straight to the destination, over its
// direct link where it has one, and counts how many columns it was asked to
// produce.
type countingResolver struct {
	net   *Network
	calls int
}

func (cr *countingResolver) RouteColumn(dest NodeID) []*Link {
	cr.calls++
	col := make([]*Link, len(cr.net.nodes))
	for i := range col {
		col[i] = cr.net.LinkBetween(NodeID(i), dest)
	}
	return col
}

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
// host lookup and its attachment-router lookup share one resolver call, and
// repeated lookups hit the memo.
func TestNextHopMaterializesOnceAndAliasesHosts(t *testing.T) {
	net, r0, r1, h := chainNet(t)
	cr := &countingResolver{net: net}
	net.SetRouteResolver(cr)

	if got := net.NextHop(r0.ID(), h.ID()); got != r1.ID() {
		t.Fatalf("NextHop(r0, h) = %d, want %d", got, r1.ID())
	}
	if got := net.NextHop(r0.ID(), r1.ID()); got != r1.ID() {
		t.Fatalf("NextHop(r0, r1) = %d, want %d", got, r1.ID())
	}
	for i := 0; i < 10; i++ {
		net.NextHop(r0.ID(), h.ID())
	}
	if cr.calls != 1 {
		t.Fatalf("resolver ran %d times, want 1 (host aliases its router's column)", cr.calls)
	}
	if net.RouteColumns() != 1 {
		t.Fatalf("RouteColumns = %d, want 1", net.RouteColumns())
	}
	entries, bytes := net.RouteStats()
	if entries != net.NodeCount() || bytes != int64(entries)*8 {
		t.Fatalf("RouteStats = (%d, %d)", entries, bytes)
	}
}

// TestNextHopWithoutResolver verifies the no-resolver fallback: no columns,
// no routes, NoNode.
func TestNextHopWithoutResolver(t *testing.T) {
	net, r0, _, h := chainNet(t)
	if got := net.NextHop(r0.ID(), h.ID()); got != NoNode {
		t.Fatalf("NextHop without resolver = %d, want NoNode", got)
	}
	if got := net.NextHop(NodeID(-1), h.ID()); got != NoNode {
		t.Fatalf("NextHop from invalid node = %d, want NoNode", got)
	}
	if got := net.NextHop(r0.ID(), NodeID(999)); got != NoNode {
		t.Fatalf("NextHop to unknown node = %d, want NoNode", got)
	}
}

// TestConnectInvalidatesColumns pins the safety rule for dynamic graphs:
// adding a link after columns materialized drops the memo so stale shortest
// paths cannot be served.
func TestConnectInvalidatesColumns(t *testing.T) {
	net, r0, _, h := chainNet(t)
	cr := &countingResolver{net: net}
	net.SetRouteResolver(cr)

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
	net.NextHop(r0.ID(), h.ID())
	if cr.calls != 2 {
		t.Fatalf("resolver ran %d times, want 2 (re-materialized after invalidation)", cr.calls)
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
	n.SetRouteResolver(&bfsResolver{net: n})
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
	cr := &countingResolver{net: net}
	net.SetRouteResolver(cr)

	net.NextHop(r0.ID(), r1.ID())
	net.NextHop(r0.ID(), h.ID())
	if cr.calls != 2 {
		t.Fatalf("resolver ran %d times, want 2 (multi-homed host needs its own column)", cr.calls)
	}
}
