package netsim

import (
	"errors"
	"testing"
	"testing/quick"

	"mafic/internal/sim"
)

// testNet builds a minimal topology: client host -- r1 -- r2 -- server host.
func testNet(t *testing.T) (*Network, *Host, *Router, *Router, *Host) {
	t.Helper()
	sched := sim.NewScheduler()
	n := New(sched, sim.NewRNG(1))
	client := n.AddHost(IP(0x0a000001))
	r1 := n.AddRouter()
	r2 := n.AddRouter()
	server := n.AddHost(IP(0x0a000002))

	cfg := LinkConfig{BandwidthBps: 10e6, Delay: sim.Millisecond, QueueLen: 16}
	for _, pair := range [][2]NodeID{{client.ID(), r1.ID()}, {r1.ID(), r2.ID()}, {r2.ID(), server.ID()}} {
		if err := n.ConnectDuplex(pair[0], pair[1], cfg); err != nil {
			t.Fatalf("connect: %v", err)
		}
	}
	client.AttachTo(r1.ID())
	server.AttachTo(r2.ID())
	return n, client, r1, r2, server
}

func dataPacket(n *Network, src, dst IP, size int) *Packet {
	return &Packet{
		ID:    n.NextPacketID(),
		Label: FlowLabel{SrcIP: src, DstIP: dst, SrcPort: 1000, DstPort: 80},
		Kind:  KindData,
		Proto: ProtoTCP,
		Size:  size,
	}
}

func TestIPString(t *testing.T) {
	if got := IP(0x0a010203).String(); got != "10.1.2.3" {
		t.Fatalf("IP string = %q, want 10.1.2.3", got)
	}
}

func TestFlowLabelHashStableAndDistinct(t *testing.T) {
	a := FlowLabel{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	b := FlowLabel{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	c := FlowLabel{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 5}
	if a.Hash() != b.Hash() {
		t.Fatal("identical labels hash differently")
	}
	if a.Hash() == c.Hash() {
		t.Fatal("distinct labels collided (extremely unlikely with FNV-64)")
	}
}

func TestFlowLabelHashProperty(t *testing.T) {
	prop := func(srcIP, dstIP uint32, srcPort, dstPort uint16) bool {
		l := FlowLabel{SrcIP: IP(srcIP), DstIP: IP(dstIP), SrcPort: srcPort, DstPort: dstPort}
		// Hash must be deterministic and the reverse label must map back.
		return l.Hash() == l.Hash() && l.Reverse().Reverse() == l
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlowLabelReverse(t *testing.T) {
	l := FlowLabel{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	r := l.Reverse()
	if r.SrcIP != 2 || r.DstIP != 1 || r.SrcPort != 4 || r.DstPort != 3 {
		t.Fatalf("Reverse = %+v", r)
	}
}

func TestPacketKindStrings(t *testing.T) {
	tests := []struct {
		kind PacketKind
		want string
	}{
		{KindData, "data"}, {KindAck, "ack"}, {KindDupAck, "dupack"},
		{KindProbe, "probe"}, {KindControl, "control"}, {PacketKind(99), "unknown(99)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Fatalf("PacketKind(%d).String() = %q, want %q", tt.kind, got, tt.want)
		}
	}
	if ProtoTCP.String() != "tcp" || ProtoUDP.String() != "udp" || Protocol(9).String() != "proto(9)" {
		t.Fatal("Protocol.String mismatch")
	}
}

func TestEndToEndDelivery(t *testing.T) {
	n, client, _, _, server := testNet(t)
	var delivered []*Packet
	server.SetDefaultHandler(func(pkt *Packet, _ sim.Time) {
		delivered = append(delivered, pkt)
	})
	pkt := dataPacket(n, client.PrimaryIP(), server.PrimaryIP(), 1000)
	client.Send(pkt)
	if err := n.Scheduler().Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(delivered) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(delivered))
	}
	if delivered[0].ID != pkt.ID {
		t.Fatal("wrong packet delivered")
	}
	// 3 hops of 1ms propagation plus 3 serialisation delays of 0.8ms each.
	wantMin := 3 * sim.Millisecond
	if n.Now() < wantMin {
		t.Fatalf("delivery finished at %v, want >= %v", n.Now(), wantMin)
	}
	if server.Received() != 1 || client.Sent() != 1 {
		t.Fatal("host counters not updated")
	}
}

func TestLabelHandlerDispatch(t *testing.T) {
	n, client, _, _, server := testNet(t)
	label := FlowLabel{SrcIP: client.PrimaryIP(), DstIP: server.PrimaryIP(), SrcPort: 1000, DstPort: 80}
	var viaLabel, viaDefault int
	server.Register(label, func(*Packet, sim.Time) { viaLabel++ })
	server.SetDefaultHandler(func(*Packet, sim.Time) { viaDefault++ })

	match := &Packet{ID: n.NextPacketID(), Label: label, Kind: KindData, Size: 100}
	other := &Packet{
		ID:    n.NextPacketID(),
		Label: FlowLabel{SrcIP: client.PrimaryIP(), DstIP: server.PrimaryIP(), SrcPort: 2000, DstPort: 80},
		Kind:  KindData, Size: 100,
	}
	client.Send(match)
	client.Send(other)
	if err := n.Scheduler().Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if viaLabel != 1 || viaDefault != 1 {
		t.Fatalf("dispatch: label=%d default=%d, want 1/1", viaLabel, viaDefault)
	}
}

func TestQueueDropTail(t *testing.T) {
	sched := sim.NewScheduler()
	n := New(sched, sim.NewRNG(1))
	a := n.AddHost(IP(1))
	b := n.AddHost(IP(2))
	r := n.AddRouter()
	// Slow link with a tiny queue so a burst overflows it.
	slow := LinkConfig{BandwidthBps: 8000, Delay: sim.Millisecond, QueueLen: 2}
	fast := LinkConfig{BandwidthBps: 1e9, Delay: sim.Millisecond, QueueLen: 64}
	if err := n.ConnectDuplex(a.ID(), r.ID(), fast); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Connect(r.ID(), b.ID(), slow); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Connect(b.ID(), r.ID(), fast); err != nil {
		t.Fatal(err)
	}
	a.AttachTo(r.ID())
	b.AttachTo(r.ID())

	drops := 0
	delivered := 0
	n.SetHooks(Hooks{
		OnQueueDrop: func(*Packet, *Link, sim.Time) { drops++ },
		OnDeliver:   func(*Packet, *Host, sim.Time) { delivered++ },
	})
	// Send a burst of 10 packets back-to-back; queue holds 2.
	for i := 0; i < 10; i++ {
		a.Send(dataPacket(n, a.PrimaryIP(), b.PrimaryIP(), 1000))
	}
	if err := sched.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if drops == 0 {
		t.Fatal("expected drop-tail drops on the bottleneck link")
	}
	if delivered == 0 {
		t.Fatal("expected at least some deliveries")
	}
	if delivered+drops != 10 {
		t.Fatalf("delivered(%d)+dropped(%d) != 10", delivered, drops)
	}
	if n.LinkBetween(r.ID(), b.ID()).Dropped() == 0 {
		t.Fatal("link drop counter not incremented")
	}
}

type dropAllFilter struct{ hits int }

func (f *dropAllFilter) Name() string { return "drop-all" }
func (f *dropAllFilter) Handle(*Packet, sim.Time, *Router) Action {
	f.hits++
	return ActionDrop
}

type countFilter struct{ hits int }

func (f *countFilter) Name() string { return "count" }
func (f *countFilter) Handle(*Packet, sim.Time, *Router) Action {
	f.hits++
	return ActionForward
}

func TestRouterFilterChain(t *testing.T) {
	n, client, r1, _, server := testNet(t)
	counter := &countFilter{}
	dropper := &dropAllFilter{}
	r1.AttachFilter(counter)
	r1.AttachFilter(dropper)

	var filterDrops int
	var lastFilter string
	n.SetHooks(Hooks{OnFilterDrop: func(_ *Packet, _ *Router, name string, _ sim.Time) {
		filterDrops++
		lastFilter = name
	}})
	delivered := 0
	server.SetDefaultHandler(func(*Packet, sim.Time) { delivered++ })

	client.Send(dataPacket(n, client.PrimaryIP(), server.PrimaryIP(), 500))
	if err := n.Scheduler().Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if counter.hits != 1 || dropper.hits != 1 {
		t.Fatalf("filter hits = %d/%d, want 1/1", counter.hits, dropper.hits)
	}
	if delivered != 0 {
		t.Fatal("packet should have been dropped by filter")
	}
	if filterDrops != 1 || lastFilter != "drop-all" {
		t.Fatalf("filter drop hook: count=%d name=%q", filterDrops, lastFilter)
	}
	if r1.FilterDropped() != 1 {
		t.Fatal("router filter-drop counter not updated")
	}
}

func TestUnroutableDestination(t *testing.T) {
	n, client, _, _, _ := testNet(t)
	unroutable := 0
	n.SetHooks(Hooks{OnUnroutable: func(*Packet, NodeID, sim.Time) { unroutable++ }})
	client.Send(dataPacket(n, client.PrimaryIP(), IP(0xdeadbeef), 500))
	if err := n.Scheduler().Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if unroutable != 1 {
		t.Fatalf("unroutable count = %d, want 1", unroutable)
	}
}

func TestRouterInjectBypassesFilters(t *testing.T) {
	n, _, r1, _, server := testNet(t)
	dropper := &dropAllFilter{}
	r1.AttachFilter(dropper)
	delivered := 0
	server.SetDefaultHandler(func(*Packet, sim.Time) { delivered++ })

	probe := &Packet{
		ID:    n.NextPacketID(),
		Label: FlowLabel{SrcIP: IP(0x01010101), DstIP: server.PrimaryIP(), SrcPort: 9, DstPort: 9},
		Kind:  KindProbe,
		Size:  40,
	}
	r1.Inject(probe)
	if err := n.Scheduler().Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if dropper.hits != 0 {
		t.Fatal("Inject must bypass the local filter chain")
	}
	if delivered != 1 {
		t.Fatal("injected packet not delivered")
	}
}

func TestConnectErrors(t *testing.T) {
	sched := sim.NewScheduler()
	n := New(sched, sim.NewRNG(1))
	a := n.AddHost(IP(1))
	b := n.AddHost(IP(2))
	if _, err := n.Connect(a.ID(), NodeID(99), LinkConfig{BandwidthBps: 1}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("want ErrUnknownNode, got %v", err)
	}
	if _, err := n.Connect(a.ID(), b.ID(), LinkConfig{BandwidthBps: 1}); err != nil {
		t.Fatalf("first connect: %v", err)
	}
	if _, err := n.Connect(a.ID(), b.ID(), LinkConfig{BandwidthBps: 1}); !errors.Is(err, ErrDuplicateLink) {
		t.Fatalf("want ErrDuplicateLink, got %v", err)
	}
}

func TestOwnerAndRoutable(t *testing.T) {
	sched := sim.NewScheduler()
	n := New(sched, sim.NewRNG(1))
	h := n.AddHost(IP(7), IP(9))
	if n.Owner(IP(7)) != h.ID() || n.Owner(IP(9)) != h.ID() {
		t.Fatal("Owner lookup failed")
	}
	if n.Owner(IP(8)) != NoNode {
		t.Fatal("unknown address should map to NoNode")
	}
	if !n.IsRoutable(IP(7)) || n.IsRoutable(IP(8)) {
		t.Fatal("IsRoutable mismatch")
	}
	if len(h.IPs()) != 2 || h.PrimaryIP() != IP(7) {
		t.Fatal("host IP bookkeeping wrong")
	}
}

func TestLinkTransmissionTiming(t *testing.T) {
	sched := sim.NewScheduler()
	n := New(sched, sim.NewRNG(1))
	a := n.AddHost(IP(1))
	b := n.AddHost(IP(2))
	r := n.AddRouter()
	// 1 Mbps, 10 ms delay: a 1250-byte packet serialises in exactly 10 ms.
	cfg := LinkConfig{BandwidthBps: 1e6, Delay: 10 * sim.Millisecond, QueueLen: 10}
	if err := n.ConnectDuplex(a.ID(), r.ID(), cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.ConnectDuplex(r.ID(), b.ID(), cfg); err != nil {
		t.Fatal(err)
	}
	a.AttachTo(r.ID())
	b.AttachTo(r.ID())

	var arrival sim.Time
	b.SetDefaultHandler(func(_ *Packet, now sim.Time) { arrival = now })
	a.Send(dataPacket(n, IP(1), IP(2), 1250))
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	want := 2 * (10*sim.Millisecond + 10*sim.Millisecond) // two hops, each tx+prop
	if arrival != want {
		t.Fatalf("arrival at %v, want %v", arrival, want)
	}
}

func TestNetworkCounters(t *testing.T) {
	n, client, r1, r2, server := testNet(t)
	server.SetDefaultHandler(func(*Packet, sim.Time) {})
	for i := 0; i < 5; i++ {
		client.Send(dataPacket(n, client.PrimaryIP(), server.PrimaryIP(), 100))
	}
	if err := n.Scheduler().Run(); err != nil {
		t.Fatal(err)
	}
	if r1.Forwarded() != 5 || r2.Forwarded() != 5 {
		t.Fatalf("router forwarded = %d/%d, want 5/5", r1.Forwarded(), r2.Forwarded())
	}
	if n.NodeCount() != 4 {
		t.Fatalf("NodeCount = %d, want 4", n.NodeCount())
	}
	if len(n.Neighbors(r1.ID())) != 2 {
		t.Fatalf("r1 neighbours = %d, want 2", len(n.Neighbors(r1.ID())))
	}
	if n.Router(r1.ID()) != r1 || n.Host(client.ID()) != client {
		t.Fatal("lookup by ID failed")
	}
	if n.NextHop(r1.ID(), server.ID()) != r2.ID() || n.NextHop(r1.ID(), NodeID(999)) != NoNode {
		t.Fatal("route lookup mismatch")
	}
	if entries, _ := n.RouteStats(); entries == 0 {
		t.Fatal("route entries should be positive after traffic")
	}
}
