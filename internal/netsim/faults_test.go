package netsim

import (
	"errors"
	"testing"

	"mafic/internal/sim"
)

// faultChainNet builds host src -> router core -> host dst with duplex links and
// returns the pieces fault tests poke at.
func faultChainNet(t *testing.T) (*sim.Scheduler, *Network, *Router, *Host, *Host) {
	t.Helper()
	sched := sim.NewScheduler()
	n := New(sched, sim.NewRNG(1))
	core := n.AddRouter("core")
	src := n.AddHost("src", IP(0x0a000001))
	dst := n.AddHost("dst", IP(0x0a000002))
	src.AttachTo(core.ID())
	dst.AttachTo(core.ID())
	cfg := LinkConfig{BandwidthBps: 1e9, Delay: sim.Millisecond}
	if err := n.ConnectDuplex(src.ID(), core.ID(), cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.ConnectDuplex(core.ID(), dst.ID(), cfg); err != nil {
		t.Fatal(err)
	}
	return sched, n, core, src, dst
}

func newDataPacket(n *Network, src, dst *Host) *Packet {
	pkt := n.NewPacket()
	pkt.ID = n.NextPacketID()
	pkt.Label = FlowLabel{SrcIP: src.PrimaryIP(), DstIP: dst.PrimaryIP(), SrcPort: 1000, DstPort: 80}
	pkt.Kind = KindData
	pkt.Size = 1000
	return pkt
}

func sendDataPacket(n *Network, src, dst *Host) *Packet {
	pkt := newDataPacket(n, src, dst)
	src.Send(pkt)
	return pkt
}

// TestDownLinkDropsAtAdmission verifies a down link admits nothing: the
// packet is dropped, accounted on the link, the network and the OnFaultDrop
// hook, and recycled back to the pool.
func TestDownLinkDropsAtAdmission(t *testing.T) {
	sched, n, core, src, dst := faultChainNet(t)

	delivered := 0
	dst.SetDefaultHandler(func(*Packet, sim.Time) { delivered++ })
	var hookAt NodeID = NoNode
	hookFired := 0
	n.SetHooks(Hooks{OnFaultDrop: func(_ *Packet, at NodeID, _ sim.Time) {
		hookFired++
		hookAt = at
	}})

	out := n.LinkBetween(core.ID(), dst.ID())
	out.SetDown(true)
	if !out.Down() {
		t.Fatal("SetDown(true) did not mark the link down")
	}

	// The pool refills in chunks; take the baseline after allocation so the
	// check is "this packet came back", not "the chunk arrived".
	pkt := newDataPacket(n, src, dst)
	baseline := len(n.pktFree)
	src.Send(pkt)
	if err := sched.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if delivered != 0 {
		t.Fatalf("delivered %d packets over a down link, want 0", delivered)
	}
	if got := out.FaultDropped(); got != 1 {
		t.Fatalf("link fault drops = %d, want 1", got)
	}
	if got := n.FaultDropped(); got != 1 {
		t.Fatalf("network fault drops = %d, want 1", got)
	}
	if hookFired != 1 || hookAt != core.ID() {
		t.Fatalf("OnFaultDrop fired %d times at node %d, want once at %d", hookFired, hookAt, core.ID())
	}
	if len(n.pktFree) != baseline+1 {
		t.Fatalf("free list has %d packets, want %d (fault drop must recycle)", len(n.pktFree), baseline+1)
	}
	if got := n.NewPacket(); got != pkt {
		t.Fatal("fault-dropped packet was not recycled for the next allocation")
	}
}

// TestDownLinkDropsInFlight verifies a packet already propagating on a link
// that goes down mid-flight is dropped at its arrival instant and returned to
// the pool exactly once — not leaked, not delivered.
func TestDownLinkDropsInFlight(t *testing.T) {
	sched, n, core, src, dst := faultChainNet(t)

	delivered := 0
	dst.SetDefaultHandler(func(*Packet, sim.Time) { delivered++ })

	out := n.LinkBetween(core.ID(), dst.ID())
	// The packet needs src->core (1 ms) then core->dst (1 ms); kill the
	// second link while the packet is in flight on it.
	sched.ScheduleAt(1500*sim.Microsecond, func(sim.Time) { out.SetDown(true) })

	pkt := newDataPacket(n, src, dst)
	baseline := len(n.pktFree)
	src.Send(pkt)
	if err := sched.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if delivered != 0 {
		t.Fatalf("delivered %d packets through a mid-flight failure, want 0", delivered)
	}
	if got := out.FaultDropped(); got != 1 {
		t.Fatalf("link fault drops = %d, want 1", got)
	}
	if len(n.pktFree) != baseline+1 {
		t.Fatalf("free list has %d packets, want %d (in-flight drop must recycle exactly once)", len(n.pktFree), baseline+1)
	}
}

// TestFailRouterDropsAndRestoreResumes verifies a crashed router drops
// arriving traffic without running filters, and that restoring it resumes
// normal forwarding.
func TestFailRouterDropsAndRestoreResumes(t *testing.T) {
	sched, n, core, src, dst := faultChainNet(t)

	delivered := 0
	dst.SetDefaultHandler(func(*Packet, sim.Time) { delivered++ })
	filterRan := 0
	core.AttachFilter(filterFunc{name: "tap", fn: func(*Packet, sim.Time, *Router) Action {
		filterRan++
		return ActionForward
	}})

	if err := n.FailRouter(core.ID()); err != nil {
		t.Fatalf("FailRouter: %v", err)
	}
	if !n.RouterDown(core.ID()) || !core.Down() {
		t.Fatal("FailRouter did not mark the router down")
	}
	sendDataPacket(n, src, dst)
	if err := sched.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if delivered != 0 || filterRan != 0 {
		t.Fatalf("crashed router delivered=%d filterRan=%d, want 0/0", delivered, filterRan)
	}
	if got := core.FaultDropped(); got != 1 {
		t.Fatalf("router fault drops = %d, want 1", got)
	}

	if err := n.RestoreRouter(core.ID()); err != nil {
		t.Fatalf("RestoreRouter: %v", err)
	}
	if n.RouterDown(core.ID()) {
		t.Fatal("RestoreRouter did not clear the down state")
	}
	sendDataPacket(n, src, dst)
	if err := sched.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if delivered != 1 || filterRan != 1 {
		t.Fatalf("restored router delivered=%d filterRan=%d, want 1/1", delivered, filterRan)
	}
}

// filterFunc adapts a closure to the Filter interface for tests.
type filterFunc struct {
	name string
	fn   func(*Packet, sim.Time, *Router) Action
}

func (f filterFunc) Name() string { return f.name }
func (f filterFunc) Handle(pkt *Packet, now sim.Time, at *Router) Action {
	return f.fn(pkt, now, at)
}

// TestCrashedRouterInjectsNothing verifies Inject on a down router is a
// terminal point (probes from a dead router die there), with the packet
// recycled.
func TestCrashedRouterInjectsNothing(t *testing.T) {
	_, n, core, _, dst := faultChainNet(t)
	if err := n.FailRouter(core.ID()); err != nil {
		t.Fatal(err)
	}
	pkt := n.NewPacket()
	baseline := len(n.pktFree)
	pkt.Label = FlowLabel{DstIP: dst.PrimaryIP()}
	pkt.Kind = KindProbe
	core.Inject(pkt)
	if got := core.FaultDropped(); got != 1 {
		t.Fatalf("router fault drops = %d, want 1", got)
	}
	if len(n.pktFree) != baseline+1 {
		t.Fatal("injected packet was not recycled by the crashed router")
	}
}

// TestFaultStateBumpsTopoVersion pins the counter a snapshot carries: every
// effective fault-state change moves TopoVersion, and redundant changes move
// nothing.
func TestFaultStateBumpsTopoVersion(t *testing.T) {
	_, n, core, src, dst := faultChainNet(t)
	l := n.LinkBetween(core.ID(), dst.ID())

	v := n.TopoVersion()
	l.SetDown(true)
	if n.TopoVersion() != v+1 {
		t.Fatal("SetDown(true) did not bump TopoVersion")
	}
	l.SetDown(true) // redundant: no-op
	if n.TopoVersion() != v+1 {
		t.Fatal("redundant SetDown(true) bumped TopoVersion")
	}
	l.SetDown(false)
	if n.TopoVersion() != v+2 {
		t.Fatal("SetDown(false) did not bump TopoVersion")
	}

	if err := n.FailRouter(core.ID()); err != nil {
		t.Fatal(err)
	}
	if n.TopoVersion() != v+3 {
		t.Fatal("FailRouter did not bump TopoVersion")
	}
	if err := n.FailRouter(core.ID()); err != nil { // idempotent
		t.Fatal(err)
	}
	if n.TopoVersion() != v+3 {
		t.Fatal("redundant FailRouter bumped TopoVersion")
	}
	if err := n.RestoreRouter(core.ID()); err != nil {
		t.Fatal(err)
	}
	if n.TopoVersion() != v+4 {
		t.Fatal("RestoreRouter did not bump TopoVersion")
	}
	if n.faultsActive() {
		t.Fatal("fault bookkeeping nonzero after all faults cleared")
	}

	// Unknown IDs and non-router nodes are rejected.
	if err := n.FailRouter(src.ID()); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("FailRouter(host) = %v, want ErrUnknownNode", err)
	}
	if err := n.RestoreRouter(NodeID(9999)); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("RestoreRouter(unknown) = %v, want ErrUnknownNode", err)
	}
	_ = dst
}

// TestRoutingReconvergesAroundFaults drives a packet across a diamond
// (src-A, A-B-D, A-C-D, D-dst), fails the preferred B path — first the
// router, then the links — and verifies demand-driven routing re-converges
// onto C instead of blackholing, then returns to B once the fault heals.
func TestRoutingReconvergesAroundFaults(t *testing.T) {
	sched := sim.NewScheduler()
	n := New(sched, sim.NewRNG(1))
	ra := n.AddRouter("A")
	rb := n.AddRouter("B")
	rc := n.AddRouter("C")
	rd := n.AddRouter("D")
	src := n.AddHost("src", IP(0x0a000001))
	dst := n.AddHost("dst", IP(0x0a000002))
	src.AttachTo(ra.ID())
	dst.AttachTo(rd.ID())
	cfg := LinkConfig{BandwidthBps: 1e9, Delay: sim.Millisecond}
	for _, pair := range [][2]NodeID{
		{src.ID(), ra.ID()},
		{ra.ID(), rb.ID()},
		{ra.ID(), rc.ID()},
		{rb.ID(), rd.ID()},
		{rc.ID(), rd.ID()},
		{rd.ID(), dst.ID()},
	} {
		if err := n.ConnectDuplex(pair[0], pair[1], cfg); err != nil {
			t.Fatal(err)
		}
	}
	delivered := 0
	dst.SetDefaultHandler(func(*Packet, sim.Time) { delivered++ })

	deliverVia := func(wantVia *Router) {
		t.Helper()
		before := wantVia.Forwarded()
		wantDelivered := delivered + 1
		sendDataPacket(n, src, dst)
		if err := sched.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		if delivered != wantDelivered {
			t.Fatalf("delivered = %d, want %d", delivered, wantDelivered)
		}
		if wantVia.Forwarded() != before+1 {
			t.Fatalf("packet did not transit %s", wantVia.Name())
		}
	}

	// Healthy: ascending BFS tie-break prefers B (lower ID than C).
	deliverVia(rb)

	// Router B crashes: the next packet must re-converge through C.
	if err := n.FailRouter(rb.ID()); err != nil {
		t.Fatal(err)
	}
	deliverVia(rc)

	// B heals: the preferred path comes back.
	if err := n.RestoreRouter(rb.ID()); err != nil {
		t.Fatal(err)
	}
	deliverVia(rb)

	// Now the A<->B cable is cut (both simplex directions, as the fault
	// scheduler does): C again.
	n.LinkBetween(ra.ID(), rb.ID()).SetDown(true)
	n.LinkBetween(rb.ID(), ra.ID()).SetDown(true)
	deliverVia(rc)

	n.LinkBetween(ra.ID(), rb.ID()).SetDown(false)
	n.LinkBetween(rb.ID(), ra.ID()).SetDown(false)
	deliverVia(rb)
}

// TestConnectDuplexFailureLeavesNoHalfLink is the regression test for the
// duplex error path: a rejected ConnectDuplex must install neither direction
// and must not move TopoVersion.
func TestConnectDuplexFailureLeavesNoHalfLink(t *testing.T) {
	n := New(sim.NewScheduler(), sim.NewRNG(1))
	a := n.AddRouter("a")
	b := n.AddRouter("b")
	cfg := LinkConfig{BandwidthBps: 1e9, Delay: sim.Millisecond}

	// A pre-existing reverse simplex link used to let ConnectDuplex install
	// a->b, fail on b->a, and walk away leaving the half-installed pair.
	if _, err := n.Connect(b.ID(), a.ID(), cfg); err != nil {
		t.Fatal(err)
	}
	v := n.TopoVersion()
	err := n.ConnectDuplex(a.ID(), b.ID(), cfg)
	if !errors.Is(err, ErrDuplicateLink) {
		t.Fatalf("ConnectDuplex over existing reverse link = %v, want ErrDuplicateLink", err)
	}
	if n.LinkBetween(a.ID(), b.ID()) != nil {
		t.Fatal("failed ConnectDuplex left a half-installed forward link")
	}
	if n.TopoVersion() != v {
		t.Fatal("failed ConnectDuplex moved TopoVersion")
	}

	// Unknown endpoints are rejected before anything is installed too.
	err = n.ConnectDuplex(a.ID(), NodeID(9999), cfg)
	if !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("ConnectDuplex to unknown node = %v, want ErrUnknownNode", err)
	}
	if n.TopoVersion() != v {
		t.Fatal("rejected ConnectDuplex moved TopoVersion")
	}
}

// TestNoFaultPacketPathZeroAlloc pins the fault layer's cost when disabled:
// the full send->link->router->link->deliver round trip of a pooled packet
// allocates nothing with every link and router up.
func TestNoFaultPacketPathZeroAlloc(t *testing.T) {
	sched, n, _, src, dst := faultChainNet(t)
	dst.SetDefaultHandler(func(*Packet, sim.Time) {})

	roundTrip := func() {
		sendDataPacket(n, src, dst)
		if err := sched.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	// Warm the packet pool and the scheduler's event arena.
	for i := 0; i < 3; i++ {
		roundTrip()
	}
	if avg := testing.AllocsPerRun(100, roundTrip); avg != 0 {
		t.Fatalf("no-fault packet path allocates %.1f per round trip, want 0", avg)
	}
}
