package netsim

import (
	"testing"

	"mafic/internal/sim"
)

// carved counts the elements a slab has handed out since it was last rewound.
func carved[T any](s *slab[T]) int {
	total := 0
	for chunk := range s.taken() {
		total += len(chunk)
	}
	return total
}

// checkRunState checks that the links holding run state are exactly the ones
// that sent, dropped, fault-dropped or went down, and the routers holding
// counters exactly the ones that counted a packet; that each holds its own,
// and the slabs carved nothing else; and that every other link and router
// reads zero from every getter. It returns how many of each hold state.
func checkRunState(t *testing.T, n *Network, when string) (links, routers int) {
	t.Helper()
	runs := make(map[*linkRun]bool)
	n.ForEachLink(func(l *Link) {
		used := l.Sent() > 0 || l.Dropped() > 0 || l.FaultDropped() > 0 || l.Down()
		if (l.run != nil) != used {
			t.Errorf("%s: %v holds run state %v, has sent, dropped or gone down %v", when, l, l.run != nil, used)
		}
		if l.run != nil {
			if runs[l.run] {
				t.Errorf("%s: %v shares its run state", when, l)
			}
			runs[l.run] = true
			return
		}
		var st LinkState
		l.CheckpointState(&st)
		if st != (LinkState{}) || l.QueueLen() != 0 {
			t.Errorf("%s: idle %v reads %+v, queue %d", when, l, st, l.QueueLen())
		}
	})
	if got := carved(&n.runSlab); got != len(runs) {
		t.Errorf("%s: %d link runs carved for %d links that hold one", when, got, len(runs))
	}
	ctrs := make(map[*routerCounters]bool)
	n.ForEachNode(func(_ NodeID, r *Router, _ *Host) {
		if r == nil {
			return
		}
		used := r.Forwarded() > 0 || r.FilterDropped() > 0 || r.FaultDropped() > 0
		if (r.ctr != nil) != used {
			t.Errorf("%s: %v holds counters %v, has counted a packet %v", when, r, r.ctr != nil, used)
		}
		if r.ctr != nil {
			if ctrs[r.ctr] {
				t.Errorf("%s: %v shares its counters", when, r)
			}
			ctrs[r.ctr] = true
			return
		}
		var st RouterState
		r.CheckpointState(&st)
		if st != (RouterState{}) || r.Down() {
			t.Errorf("%s: idle %v reads %+v", when, r, st)
		}
	})
	if got := carved(&n.ctrSlab); got != len(ctrs) {
		t.Errorf("%s: %d router counters carved for %d routers that hold them", when, got, len(ctrs))
	}
	if idleLink != (linkRun{}) || idleRouter != (routerCounters{}) {
		t.Errorf("%s: the shared zero state was written: link %+v, router %+v", when, idleLink.st, idleRouter)
	}
	return len(runs), len(ctrs)
}

// TestIdleLinksHoldNoRunState pins the lazy run state: on a ring of twelve
// routers where traffic takes three hops, the links and routers on the path
// hold run state — through sends, queue drops, a filter drop and a fault drop
// — and the rest hold none and read as zero. Taking a never-used link down
// gives it run state and no other link, and the route BFS goes around it;
// restoring a zero state gives an idle link or router nothing.
func TestIdleLinksHoldNoRunState(t *testing.T) {
	sched := sim.NewScheduler()
	n := New(sched, sim.NewRNG(1))
	const ringSize = 12
	routers := make([]*Router, ringSize)
	for i := range routers {
		routers[i] = n.AddRouter()
	}
	src, dst := n.AddHost(IP(0x0a000001)), n.AddHost(IP(0x0a000002))
	src.AttachTo(routers[0].ID())
	dst.AttachTo(routers[3].ID())
	cfg := LinkConfig{BandwidthBps: 8e6, Delay: sim.Millisecond, QueueLen: 2}
	for i := range routers {
		if err := n.ConnectDuplex(routers[i].ID(), routers[(i+1)%ringSize].ID(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	for _, pair := range [][2]NodeID{{src.ID(), routers[0].ID()}, {routers[3].ID(), dst.ID()}} {
		if err := n.ConnectDuplex(pair[0], pair[1], cfg); err != nil {
			t.Fatal(err)
		}
	}
	routers[1].AttachFilter(&everyFifth{})
	checkRunState(t, n, "after the build")
	if carved(&n.runSlab) != 0 || carved(&n.ctrSlab) != 0 {
		t.Fatal("the build carved run state")
	}

	// A burst the 2-packet access queue cannot hold, five packets one at a
	// time, and one packet that arrives at a crashed router 0.
	for range 8 {
		sendDataPacket(n, src, dst)
	}
	for range 6 {
		if err := sched.Run(); err != nil {
			t.Fatal(err)
		}
		sendDataPacket(n, src, dst)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	sendDataPacket(n, src, dst)
	if err := sched.RunUntil(sched.Now() + 1500*sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := n.FailRouter(routers[0].ID()); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n.RestoreRouter(routers[0].ID()); err != nil {
		t.Fatal(err)
	}
	access := n.LinkBetween(src.ID(), routers[0].ID())
	if access.Dropped() == 0 || routers[1].FilterDropped() == 0 || routers[0].FaultDropped() == 0 || dst.Received() == 0 {
		t.Fatalf("the run missed a case: queue drops %d, filter drops %d, fault drops %d, delivered %d",
			access.Dropped(), routers[1].FilterDropped(), routers[0].FaultDropped(), dst.Received())
	}
	links, ctrs := checkRunState(t, n, "after the run")
	if links != 5 || ctrs != 4 {
		t.Errorf("%d links and %d routers hold run state after the run, want the path's 5 and 4", links, ctrs)
	}

	// The route BFS toward dst, searching outward from router 3, reaches
	// router 2 over the idle link 3->2. With that link down it reaches
	// router 2 the long way round, so router 2's route to dst leaves through
	// router 1.
	back := n.LinkBetween(routers[3].ID(), routers[2].ID())
	if back.run != nil {
		t.Fatalf("%v carried traffic", back)
	}
	if hop := n.NextHop(routers[2].ID(), dst.ID()); hop != routers[3].ID() {
		t.Fatalf("route from router 2 to dst leaves through %d, want router 3", hop)
	}
	back.SetDown(true)
	if hop := n.NextHop(routers[2].ID(), dst.ID()); hop != routers[1].ID() {
		t.Errorf("with %v down the route from router 2 to dst leaves through %d, want router 1", back, hop)
	}
	down := 0
	n.ForEachLink(func(l *Link) {
		if l.Down() {
			down++
		}
	})
	if !back.Down() || down != 1 {
		t.Errorf("%v down %v, %d links read down, want it alone", back, back.Down(), down)
	}
	if links, _ := checkRunState(t, n, "after SetDown"); links != 6 {
		t.Errorf("%d links hold run state after SetDown, want 6", links)
	}

	idle := n.LinkBetween(routers[7].ID(), routers[8].ID())
	idle.RestoreState(LinkState{})
	routers[7].RestoreState(RouterState{})
	if idle.run != nil || routers[7].ctr != nil {
		t.Error("restoring the zero state carved run state")
	}
	idle.RestoreState(LinkState{Sent: 3})
	routers[7].RestoreState(RouterState{Forwarded: 2})
	if idle.Sent() != 3 || routers[7].Forwarded() != 2 {
		t.Errorf("restored counters read %d and %d, want 3 and 2", idle.Sent(), routers[7].Forwarded())
	}
	if links, ctrs := checkRunState(t, n, "after RestoreState"); links != 7 || ctrs != 5 {
		t.Errorf("%d links and %d routers hold run state after restoring two, want 7 and 5", links, ctrs)
	}
}
