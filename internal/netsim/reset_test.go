package netsim

import (
	"fmt"
	"reflect"
	"testing"

	"mafic/internal/sim"
)

// everyFifth is a filter that drops every fifth packet it sees.
type everyFifth struct{ seen int }

func (*everyFifth) Name() string { return "every-fifth" }

func (f *everyFifth) Handle(*Packet, sim.Time, *Router) Action {
	if f.seen++; f.seen%5 == 0 {
		return ActionDrop
	}
	return ActionForward
}

// chaosTrace is what the observers a chaos run registers saw: one counter per
// hook, per handler and for the filter, and the packets handed to the network.
type chaosTrace struct {
	QueueDrops, FilterDrops, Delivered, Unroutable, FaultDrops int
	Labelled, Defaulted, Filtered                              int
	Sent                                                       int
}

// chaosRun builds a diamond on n (src - A - {B, C} - D - dst, demand-driven
// routes), registers a filter, a label handler, a default handler and every
// hook, and drives it through a link cut under a packet in flight and a
// router crash. It stops mid-burst: B is still crashed, the B-D cable still
// cut, and packets are queued and in flight on the src-A-C-D path. It returns
// what the observers counted and one of the packets the run never released.
// boundary, if not nil, is called each time the scheduler returns.
func chaosRun(t *testing.T, n *Network, boundary func(*chaosTrace)) (*chaosTrace, *Packet) {
	t.Helper()
	sched := n.Scheduler()
	n.Reserve(6)
	ra, rb, rc, rd := n.AddRouter(), n.AddRouter(), n.AddRouter(), n.AddRouter()
	src := n.AddHost(IP(0x0a000001))
	dst := n.AddHost(IP(0x0a000002), IP(0x0a000003))
	src.AttachTo(ra.ID())
	dst.AttachTo(rd.ID())
	cfg := LinkConfig{BandwidthBps: 8e6, Delay: sim.Millisecond, QueueLen: 8}
	for _, pair := range [][2]NodeID{
		{src.ID(), ra.ID()}, {ra.ID(), rb.ID()}, {ra.ID(), rc.ID()},
		{rb.ID(), rd.ID()}, {rc.ID(), rd.ID()}, {rd.ID(), dst.ID()},
	} {
		if err := n.ConnectDuplex(pair[0], pair[1], cfg); err != nil {
			t.Fatal(err)
		}
	}
	tr := &chaosTrace{}
	filter := &everyFifth{}
	ra.AttachFilter(filter)
	n.SetHooks(Hooks{
		OnQueueDrop:  func(*Packet, *Link, sim.Time) { tr.QueueDrops++ },
		OnFilterDrop: func(*Packet, *Router, string, sim.Time) { tr.FilterDrops++ },
		OnDeliver:    func(*Packet, *Host, sim.Time) { tr.Delivered++ },
		OnUnroutable: func(*Packet, NodeID, sim.Time) { tr.Unroutable++ },
		OnFaultDrop:  func(*Packet, NodeID, sim.Time) { tr.FaultDrops++ },
	})
	labelled := FlowLabel{SrcIP: src.PrimaryIP(), DstIP: IP(0x0a000003), SrcPort: 7, DstPort: 80}
	dst.Register(labelled, func(*Packet, sim.Time) { tr.Labelled++ })
	dst.SetDefaultHandler(func(*Packet, sim.Time) { tr.Defaulted++ })

	send := func(label FlowLabel) *Packet {
		pkt := n.NewPacket()
		pkt.ID = n.NextPacketID()
		pkt.Label = label
		pkt.Kind = KindData
		pkt.Size = 1000
		tr.Sent++
		src.Send(pkt)
		return pkt
	}
	plain := FlowLabel{SrcIP: src.PrimaryIP(), DstIP: dst.PrimaryIP(), SrcPort: 9, DstPort: 80}
	runUntil := func(deadline sim.Time) {
		t.Helper()
		if err := sched.RunUntil(deadline); err != nil {
			t.Fatal(err)
		}
		if boundary != nil {
			boundary(tr)
		}
	}
	run := func() {
		t.Helper()
		if err := sched.Run(); err != nil {
			t.Fatal(err)
		}
		if boundary != nil {
			boundary(tr)
		}
	}

	// Healthy: the ascending tie-break routes through B.
	send(plain)
	send(labelled)
	send(plain)
	run()
	// B crashes under a packet that is already on the A->B link.
	send(plain)
	runUntil(sched.Now() + 3*sim.Millisecond)
	if err := n.FailRouter(rb.ID()); err != nil {
		t.Fatal(err)
	}
	run()
	// Routes re-converge through C; cut the B-D cable while B is dead, and
	// send to an address nobody owns.
	n.LinkBetween(rb.ID(), rd.ID()).SetDown(true)
	n.LinkBetween(rd.ID(), rb.ID()).SetDown(true)
	send(labelled)
	send(FlowLabel{SrcIP: src.PrimaryIP(), DstIP: IP(0x0afffff0), SrcPort: 9, DstPort: 80})
	run()
	// A burst the 8-packet access queue cannot hold, stopped while its
	// eighth packet, the last one admitted, still waits on the access link.
	var eighth *Packet
	for i := 0; i < 12; i++ {
		if pkt := send(plain); i == 7 {
			eighth = pkt
		}
	}
	runUntil(sched.Now() + 5*sim.Millisecond)
	tr.Filtered = filter.seen
	return tr, eighth
}

// netView renders everything a network's exported getters report, node by
// node and link by link, so two networks can be compared wholesale.
func netView(n *Network) []string {
	entries, bytes := n.RouteStats()
	view := []string{fmt.Sprintf("nodes=%d links=%d topo=%d cols=%d entries=%d bytes=%d faultDrops=%d now=%v",
		n.NodeCount(), n.LinkTotal(), n.TopoVersion(), n.RouteColumns(), entries, bytes, n.FaultDropped(), n.Now())}
	n.ForEachNode(func(id NodeID, r *Router, h *Host) {
		if r != nil {
			view = append(view, fmt.Sprintf("%d %v fwd=%d drop=%d fault=%d down=%v filters=%d isDown=%v",
				id, r, r.Forwarded(), r.FilterDropped(), r.FaultDropped(), r.Down(), len(r.Filters()), n.RouterDown(id)))
		} else {
			view = append(view, fmt.Sprintf("%d %v ips=%v access=%d rx=%d tx=%d", id, h, h.IPs(), h.AccessRouter(), h.Received(), h.Sent()))
			for _, ip := range h.IPs() {
				view = append(view, fmt.Sprintf("  %v owner=%d routable=%v", ip, n.Owner(ip), n.IsRoutable(ip)))
			}
		}
		for _, nb := range n.Neighbors(id) {
			l := n.LinkBetween(id, nb)
			view = append(view, fmt.Sprintf("  %v cfg=%+v sent=%d drop=%d fault=%d queued=%d down=%v attach=%v hop=%d",
				l, l.Config(), l.Sent(), l.Dropped(), l.FaultDropped(), l.QueueLen(), l.Down(), n.AttachmentLink(id, nb) == l, n.NextHop(id, 5)))
		}
	})
	n.ForEachLink(func(l *Link) { view = append(view, "link "+l.String()) })
	return view
}

// TestResetLeavesNothingBehind is the leak test on Reset itself: after a chaos
// run that ended with links down, a router crashed, fault drops counted,
// columns materialized and packets queued and in flight, with a filter, a
// label handler, a default handler and all five hooks registered, the reset
// network answers every exported getter as New's result does — and the same
// run driven again on both gives the same counters everywhere, while the
// first run's observers hear nothing more.
func TestResetLeavesNothingBehind(t *testing.T) {
	n := New(sim.NewScheduler(), sim.NewRNG(1))
	first, _ := chaosRun(t, n, nil)
	if first.QueueDrops == 0 || first.FilterDrops == 0 || first.Delivered == 0 || first.Unroutable == 0 ||
		first.FaultDrops == 0 || first.Labelled == 0 || first.Defaulted == 0 {
		t.Fatalf("the chaos run left an observer idle: %+v", first)
	}
	queued := 0
	n.ForEachLink(func(l *Link) { queued += l.QueueLen() })
	if queued == 0 || n.FaultDropped() == 0 || n.RouteColumns() == 0 || !n.RouterDown(1) {
		t.Fatalf("the chaos run ended clean: queued=%d faultDrops=%d cols=%d", queued, n.FaultDropped(), n.RouteColumns())
	}
	heard := *first

	sched, rng := sim.NewScheduler(), sim.NewRNG(2)
	n.Reset(sched, rng)
	fresh := New(sim.NewScheduler(), sim.NewRNG(2))
	if n.Scheduler() != sched || n.RNG() != rng {
		t.Fatal("Reset did not bind the new scheduler and RNG")
	}
	// Field by field: what is not storage kept for the next build is zero,
	// and the storage is empty. A field added to Network lands in the
	// default branch until it is named here.
	nv := reflect.ValueOf(n).Elem()
	for i := 0; i < nv.NumField(); i++ {
		name, f := nv.Type().Field(i).Name, nv.Field(i)
		switch name {
		case "scheduler", "rng":
		case "nodes", "sparse", "adj", "routeCols", "cols", "bfsQueue", "pktFree", "ipOwner", "handlers", "linkCfgs":
			if f.IsNil() || f.Len() != 0 {
				t.Errorf("Network.%s after Reset: nil=%v len=%d, want kept and empty", name, f.IsNil(), f.Len())
			}
		case "pktSlab", "routerSlab", "hostSlab", "linkSlab", "linkRuns", "routerRuns", "filterSlab", "ipSlab", "colSlab", "cfgSlab":
			if f.FieldByName("chunks").Len() == 0 || !f.FieldByName("cur").IsZero() || !f.FieldByName("used").IsZero() {
				t.Errorf("Network.%s after Reset: want its chunks kept and its cursor rewound", name)
			}
		case "idleRouter":
			if !reflect.DeepEqual(n.idleRouter, routerRun{net: n}) {
				t.Errorf("Network.idleRouter after Reset is %+v, want a zero record of the network", n.idleRouter)
			}
		default:
			if !f.IsZero() {
				t.Errorf("Network.%s survived the reset", name)
			}
		}
	}
	if got, want := netView(n), netView(fresh); !reflect.DeepEqual(got, want) {
		t.Fatalf("a reset network is not an empty one:\n got %q\nwant %q", got, want)
	}
	for id := NodeID(-1); id < 8; id++ {
		if n.Router(id) != nil || n.Host(id) != nil || n.RouterDown(id) || len(n.Neighbors(id)) != 0 ||
			n.LinkBetween(id, 0) != nil || n.AttachmentLink(0, id) != nil || n.NextHop(id, 0) != NoNode {
			t.Fatalf("node %d survived the reset", id)
		}
	}
	for _, ip := range []IP{0x0a000001, 0x0a000002, 0x0a000003} {
		if n.Owner(ip) != NoNode || n.IsRoutable(ip) {
			t.Fatalf("address %v survived the reset", ip)
		}
	}
	if err := n.FailRouter(1); err == nil {
		t.Fatal("FailRouter found a router on a reset network")
	}

	again, _ := chaosRun(t, n, nil)
	want, _ := chaosRun(t, fresh, nil)
	if *again != *want {
		t.Errorf("observers on the reset network counted %+v, on a new one %+v", *again, *want)
	}
	if got, want := netView(n), netView(fresh); !reflect.DeepEqual(got, want) {
		t.Errorf("the same run on a reset network and on a new one diverge:\n got %q\nwant %q", got, want)
	}
	if got, want := n.NextPacketID(), fresh.NextPacketID(); got != want {
		t.Errorf("next packet ID %d on the reset network, %d on a new one", got, want)
	}
	if *first != heard {
		t.Errorf("the first run's observers heard the second: %+v, then %+v", heard, *first)
	}
}

// TestResetRethreadsPacketPool pins the pool across a reset: packets the last
// run never released come back, the chunks are reused before any is
// allocated, no packet is handed out twice, and a holder from before the
// reset still trips the double-release panic.
func TestResetRethreadsPacketPool(t *testing.T) {
	n := New(sim.NewScheduler(), sim.NewRNG(1))
	_, inFlight := chaosRun(t, n, nil)
	if inFlight.freed {
		t.Fatal("the chaos run released its last packet")
	}
	// Touch more chunks, leaving two thirds of their packets out as well.
	for i := 0; i < 4*pktChunk; i++ {
		if p := n.NewPacket(); i%3 == 0 {
			n.FreePacket(p)
		}
	}
	chunks := len(n.pktSlab.chunks)
	if chunks < 3 {
		t.Fatalf("%d packet chunks carved, want at least 3", chunks)
	}

	n.Reset(sim.NewScheduler(), sim.NewRNG(1))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("releasing a packet held from before the reset did not panic")
			}
		}()
		n.FreePacket(inFlight)
	}()

	seen := make(map[*Packet]bool)
	for i := 0; i < chunks*pktChunk; i++ {
		p := n.NewPacket()
		if seen[p] {
			t.Fatalf("packet %p handed out twice (draw %d)", p, i)
		}
		seen[p] = true
		if *p != (Packet{pooled: true}) {
			t.Fatalf("draw %d is not a zeroed packet: %+v", i, *p)
		}
	}
	if got := len(n.pktSlab.chunks); got != chunks {
		t.Errorf("%d packet chunks after drawing what %d hold, want none allocated", got, chunks)
	}
	if p := n.NewPacket(); seen[p] {
		t.Error("the first packet past the retained chunks was handed out before")
	}
	for p := range seen {
		n.FreePacket(p) // each is live exactly once: no panic
	}
}

// ringOn builds a ring of routers with one host on every fourth, the host
// registering a handler: a build that touches every slab and every map.
func ringOn(t testing.TB, n *Network, routers int) {
	n.Reserve(routers + routers/4 + 1)
	cfg := LinkConfig{BandwidthBps: 1e9, Delay: sim.Millisecond, QueueLen: 8}
	for range routers {
		n.AddRouter()
	}
	for i := range routers {
		if err := n.ConnectDuplex(NodeID(i), NodeID((i+1)%routers), cfg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < routers; i += 4 {
		ip := IP(0x0a000000 + i)
		h := n.AddHost(ip)
		h.AttachTo(NodeID(i))
		if err := n.ConnectDuplex(h.ID(), NodeID(i), cfg); err != nil {
			t.Fatal(err)
		}
		h.Register(FlowLabel{DstIP: ip}, nil)
		n.Router(NodeID(i)).AttachFilter(dropAll{})
	}
	n.FreePacket(n.NewPacket())
}

// dropAll is a stateless filter for ringOn.
type dropAll struct{}

func (dropAll) Name() string                             { return "drop-all" }
func (dropAll) Handle(*Packet, sim.Time, *Router) Action { return ActionDrop }

// TestResetCostFollowsLastBuild pins what Reset costs. It allocates nothing,
// and neither does the build that follows it on warm storage. After a
// 5000-router build and then a 40-router one it clears the 40-router build's
// share of each table and no more — shown by planting a marker in each table
// past that share and finding it untouched — while the tables still come out
// zero over their whole capacity, which is what lets the next build re-extend
// them without clearing.
func TestResetCostFollowsLastBuild(t *testing.T) {
	sched, rng := sim.NewScheduler(), sim.NewRNG(1)
	n := New(sched, rng)
	ringOn(t, n, 5000)
	if n.NextHop(0, 2500) == NoNode {
		t.Fatal("no route across the ring")
	}
	n.Reset(sched, rng)
	ringOn(t, n, 40)
	if len(n.nodes) != 50 || cap(n.nodes) < 5000 || cap(n.sparse) < 5000 || cap(n.routeCols) < 5000 {
		t.Fatalf("tables after the small build: nodes %d/%d, sparse %d/%d, routeCols %d/%d",
			len(n.nodes), cap(n.nodes), len(n.sparse), cap(n.sparse), len(n.routeCols), cap(n.routeCols))
	}

	const far = 4000
	const marker = hostBit | 7
	n.nodes[:cap(n.nodes)][far] = marker
	n.sparse[:cap(n.sparse)][far] = 1
	n.routeCols[:cap(n.routeCols)][far] = 1
	n.Reset(sched, rng)
	if n.nodes[:cap(n.nodes)][far] != marker || n.sparse[:cap(n.sparse)][far] == 0 || n.routeCols[:cap(n.routeCols)][far] == 0 {
		t.Error("Reset swept a table past what the last build used")
	}
	n.nodes[:cap(n.nodes)][far] = 0
	n.sparse[:cap(n.sparse)][far] = 0
	n.routeCols[:cap(n.routeCols)][far] = 0

	for i, slot := range n.nodes[:cap(n.nodes)] {
		if slot != 0 || n.sparse[:cap(n.sparse)][i] != 0 || n.routeCols[:cap(n.routeCols)][i] != 0 {
			t.Fatalf("table entry %d is not zero after Reset", i)
		}
	}
	for i, f := range n.filterSlab.chunks[0][:10] {
		if f != nil {
			t.Fatalf("filter slab entry %d still holds the last build's %v", i, f)
		}
	}

	if allocs := testing.AllocsPerRun(10, func() {
		ringOn(t, n, 40)
		n.Reset(sched, rng)
	}); allocs != 0 {
		t.Errorf("a warm build and its Reset performed %v allocations, want 0", allocs)
	}
}
