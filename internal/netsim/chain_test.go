package netsim

import (
	"math/rand"
	"slices"
	"testing"

	"mafic/internal/sim"
)

// TestBusyLinkHoldsOneCalendarEntry sends eight packets back to back on an
// idle link: only the first one's arrival goes into the calendar, and each
// arrival queues the next, so the calendar holds one event until the last
// packet arrives.
func TestBusyLinkHoldsOneCalendarEntry(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s, sim.NewRNG(1))
	a, b := n.AddHost(IP(1)), n.AddHost(IP(2))
	l, err := n.Connect(a.ID(), b.ID(), LinkConfig{BandwidthBps: 8e6, Delay: sim.Millisecond, QueueLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	var arrived []uint64
	var pending []int
	b.SetDefaultHandler(func(p *Packet, _ sim.Time) {
		arrived = append(arrived, p.ID)
		pending = append(pending, s.Len())
	})
	for i := uint64(1); i <= 8; i++ {
		p := n.NewPacket()
		p.ID, p.Size, p.Label = i, 1000, FlowLabel{SrcIP: 1, DstIP: 2}
		l.Send(p)
		if s.Len() != 1 {
			t.Fatalf("after %d sends on an idle link the calendar holds %d events, want 1", i, s.Len())
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{1, 2, 3, 4, 5, 6, 7, 8}; !slices.Equal(arrived, want) {
		t.Fatalf("arrivals %v, want %v", arrived, want)
	}
	if want := []int{1, 1, 1, 1, 1, 1, 1, 0}; !slices.Equal(pending, want) {
		t.Errorf("calendar size at each arrival %v, want %v", pending, want)
	}
}

// checkLedger balances the packets of n against what its observers counted:
// every packet handed to the network has been delivered, dropped by a queue,
// a filter or a fault, found unroutable, or is on a link's in-flight chain.
// Each chain has exactly its head's arrival in the calendar and ends at the
// link's tail, and the pool has exactly the chained packets out. It returns
// how many packets are in flight.
func checkLedger(t *testing.T, n *Network, tr *chaosTrace) int {
	t.Helper()
	inFlight := 0
	heads := make(map[*Link]bool)
	n.Scheduler().ForEachPending(func(ev sim.PendingEvent) {
		l, ok := ev.H.(*Link)
		if !ok {
			return
		}
		if heads[l] {
			t.Errorf("%v has two arrivals in the calendar", l)
		}
		heads[l] = true
		p := ev.Arg.(*Packet)
		for inFlight++; p.inNext != nil; p = p.inNext {
			inFlight++
		}
		if p != l.x.inTail {
			t.Errorf("%v: the chain from its pending arrival ends at packet %d, the link's tail is %v", l, p.ID, l.x.inTail)
		}
	})
	n.ForEachLink(func(l *Link) {
		if !heads[l] && l.x.inTail != nil {
			t.Errorf("%v has packets in flight and no arrival in the calendar", l)
		}
	})
	if done := tr.Delivered + tr.QueueDrops + tr.FilterDrops + tr.Unroutable + tr.FaultDrops; tr.Sent != done+inFlight {
		t.Errorf("t=%v: %d packets handed to the network, %d accounted for (%+v) and %d in flight",
			n.Now(), tr.Sent, done, *tr, inFlight)
	}
	out := 0
	for chunk := range n.pktSlab.taken() {
		for i := range chunk {
			if !chunk[i].freed {
				out++
			}
		}
	}
	if out != inFlight {
		t.Errorf("t=%v: the pool has %d packets out, %d are in flight", n.Now(), out, inFlight)
	}
	return inFlight
}

// drainLedger runs n's scheduler dry: then nothing may be in flight, and
// every packet the pool has handed out is back on its free list.
func drainLedger(t *testing.T, n *Network, tr *chaosTrace) {
	t.Helper()
	if err := n.Scheduler().Run(); err != nil {
		t.Fatal(err)
	}
	if inFlight := checkLedger(t, n, tr); inFlight != 0 {
		t.Errorf("%d packets in flight on a drained network", inFlight)
	}
	carved := 0
	for chunk := range n.pktSlab.taken() {
		carved += len(chunk)
	}
	if len(n.pktFree) != carved {
		t.Errorf("drained: %d packets on the free list, %d carved", len(n.pktFree), carved)
	}
}

// TestPacketLedger balances the packets at every point a run hands control
// back — each RunUntil and Run — and at a drained end: on the chaos diamond
// (a cable cut under a packet in flight, a router crash, unroutable traffic,
// a filter, a burst past the queue) and on seeded random scripts over a ring
// with flapping links and crashing routers.
func TestPacketLedger(t *testing.T) {
	t.Run("chaos", func(t *testing.T) {
		n := New(sim.NewScheduler(), sim.NewRNG(1))
		boundaries := 0
		tr, _ := chaosRun(t, n, func(tr *chaosTrace) {
			boundaries++
			checkLedger(t, n, tr)
		})
		if boundaries != 5 {
			t.Fatalf("the chaos run returned %d times, want 5", boundaries)
		}
		if checkLedger(t, n, tr) == 0 {
			t.Fatal("the chaos run ended with nothing in flight")
		}
		drainLedger(t, n, tr)
	})
	t.Run("random", func(t *testing.T) {
		var all chaosTrace
		busiest := 0
		for seed := int64(1); seed <= 20; seed++ {
			tr, most := randomLedgerRun(t, seed)
			all.QueueDrops += tr.QueueDrops
			all.FilterDrops += tr.FilterDrops
			all.Delivered += tr.Delivered
			all.Unroutable += tr.Unroutable
			all.FaultDrops += tr.FaultDrops
			busiest = max(busiest, most)
		}
		if all.QueueDrops == 0 || all.FilterDrops == 0 || all.Delivered == 0 || all.Unroutable == 0 || all.FaultDrops == 0 || busiest < 2 {
			t.Fatalf("the scripts left a way out untried: %+v, at most %d packets in flight", all, busiest)
		}
	})
}

// randomLedgerRun drives a five-router ring with a chord and three hosts
// through forty steps of random sends (a quarter of them to an address nobody
// owns), link flaps and router crashes and restores, each step ending in a
// RunUntil of up to 3 ms, checking the ledger after every one, then drains
// it. Some links have no delay or no serialisation time, so arrivals tie. It
// returns what the observers counted and the most packets seen in flight.
func randomLedgerRun(t *testing.T, seed int64) (tr chaosTrace, busiest int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sched := sim.NewScheduler()
	n := New(sched, sim.NewRNG(seed))
	cfgs := []LinkConfig{
		{BandwidthBps: 8e6, Delay: sim.Millisecond, QueueLen: 4},
		{BandwidthBps: 4e6, Delay: 0, QueueLen: 3},
		{BandwidthBps: 0, Delay: 500 * sim.Microsecond, QueueLen: 2},
	}
	const routers = 5
	for i := 0; i < routers; i++ {
		n.AddRouter()
	}
	connect := func(a, b NodeID) {
		if err := n.ConnectDuplex(a, b, cfgs[rng.Intn(len(cfgs))]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < routers; i++ {
		connect(NodeID(i), NodeID((i+1)%routers))
	}
	connect(0, 2)
	var hosts []*Host
	for i, at := range []NodeID{0, 2, 4} {
		h := n.AddHost(IP(0x0a000001 + i))
		h.AttachTo(at)
		connect(h.ID(), at)
		hosts = append(hosts, h)
	}
	n.Router(1).AttachFilter(&everyFifth{})
	n.SetHooks(Hooks{
		OnQueueDrop:  func(*Packet, *Link, sim.Time) { tr.QueueDrops++ },
		OnFilterDrop: func(*Packet, *Router, string, sim.Time) { tr.FilterDrops++ },
		OnDeliver:    func(*Packet, *Host, sim.Time) { tr.Delivered++ },
		OnUnroutable: func(*Packet, NodeID, sim.Time) { tr.Unroutable++ },
		OnFaultDrop:  func(*Packet, NodeID, sim.Time) { tr.FaultDrops++ },
	})
	var links []*Link
	n.ForEachLink(func(l *Link) { links = append(links, l) })

	for step := 0; step < 40; step++ {
		for k := rng.Intn(8); k > 0; k-- {
			src := hosts[rng.Intn(len(hosts))]
			p := n.NewPacket()
			p.ID = n.NextPacketID()
			p.Label = FlowLabel{SrcIP: src.PrimaryIP(), DstIP: IP(0x0a000001 + rng.Intn(4)), SrcPort: uint16(k), DstPort: 80}
			p.Kind = KindData
			p.Size = 100 + rng.Intn(1400)
			tr.Sent++
			src.Send(p)
		}
		switch rng.Intn(6) {
		case 0:
			l := links[rng.Intn(len(links))]
			l.SetDown(!l.Down())
		case 1:
			id := NodeID(rng.Intn(routers))
			var err error
			if n.RouterDown(id) {
				err = n.RestoreRouter(id)
			} else {
				err = n.FailRouter(id)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := sched.RunUntil(sched.Now() + sim.Time(rng.Intn(3000))*sim.Microsecond); err != nil {
			t.Fatal(err)
		}
		busiest = max(busiest, checkLedger(t, n, &tr))
	}
	drainLedger(t, n, &tr)
	return tr, busiest
}
