package metrics

import (
	"math"
	"testing"

	"mafic/internal/core"
	"mafic/internal/netsim"
	"mafic/internal/sim"
)

func testNet(t *testing.T) (*netsim.Network, *netsim.Router, *netsim.Host, *netsim.Host) {
	t.Helper()
	sched := sim.NewScheduler()
	net := netsim.New(sched, sim.NewRNG(1))
	atr := net.AddRouter()
	src := net.AddHost(netsim.IP(0xc0a80001))
	victim := net.AddHost(netsim.IP(0x0a000001))
	cfg := netsim.LinkConfig{BandwidthBps: 1e9, Delay: sim.Millisecond, QueueLen: 64}
	for _, h := range []*netsim.Host{src, victim} {
		h.AttachTo(atr.ID())
		if err := net.ConnectDuplex(h.ID(), atr.ID(), cfg); err != nil {
			t.Fatal(err)
		}
		h.SetDefaultHandler(func(*netsim.Packet, sim.Time) {})
	}
	return net, atr, src, victim
}

func mkPacket(net *netsim.Network, src, dst netsim.IP, malicious bool) *netsim.Packet {
	return &netsim.Packet{
		ID:        net.NextPacketID(),
		Label:     netsim.FlowLabel{SrcIP: src, DstIP: dst, SrcPort: 9, DstPort: 80},
		Kind:      netsim.KindData,
		Proto:     netsim.ProtoTCP,
		Size:      500,
		Malicious: malicious,
	}
}

func TestCollectorArrivalPhases(t *testing.T) {
	net, atr, src, victim := testNet(t)
	c := NewCollector(50 * sim.Millisecond)
	c.TapRouter(atr, victim.PrimaryIP())
	c.InstallHooks(net, victim.ID())

	send := func(at sim.Time, malicious bool) {
		net.Scheduler().ScheduleAt(at, func(sim.Time) {
			src.Send(mkPacket(net, src.PrimaryIP(), victim.PrimaryIP(), malicious))
		})
	}
	// Two packets before activation, three after.
	send(10*sim.Millisecond, false)
	send(20*sim.Millisecond, true)
	net.Scheduler().ScheduleAt(100*sim.Millisecond, func(now sim.Time) { c.MarkActivation(now) })
	send(110*sim.Millisecond, false)
	send(120*sim.Millisecond, true)
	send(130*sim.Millisecond, true)
	if err := net.Scheduler().Run(); err != nil {
		t.Fatal(err)
	}

	counts := c.Counts()
	if counts.ATRLegitPre != 1 || counts.ATRAttackPre != 1 {
		t.Fatalf("pre-activation arrivals = %d/%d, want 1/1", counts.ATRLegitPre, counts.ATRAttackPre)
	}
	if counts.ATRLegitPost != 1 || counts.ATRAttackPost != 2 {
		t.Fatalf("post-activation arrivals = %d/%d, want 1/2", counts.ATRLegitPost, counts.ATRAttackPost)
	}
	if counts.VictimAttack != 2 || counts.VictimLegit != 1 {
		t.Fatalf("victim deliveries post = %d/%d, want legit=1 attack=2", counts.VictimLegit, counts.VictimAttack)
	}
	if at, ok := c.Activated(); !ok || at != 100*sim.Millisecond {
		t.Fatal("activation mark lost")
	}
	// Nothing was dropped, so accuracy is zero and θn is 100%.
	if c.Accuracy() != 0 {
		t.Fatal("accuracy should be 0 without drops")
	}
	if math.Abs(c.FalseNegativeRate()-1.0) > 1e-9 {
		t.Fatalf("θn = %v, want 1.0", c.FalseNegativeRate())
	}
}

func TestCollectorTapCountsOnlyFirstHop(t *testing.T) {
	net, atr, src, victim := testNet(t)
	c := NewCollector(0)
	c.TapRouter(atr, victim.PrimaryIP())
	c.MarkActivation(0)

	pkt := mkPacket(net, src.PrimaryIP(), victim.PrimaryIP(), false)
	pkt.Hops = 3 // pretend the packet already crossed other routers
	src.Send(pkt)
	if err := net.Scheduler().Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.Counts().ATRLegitPost; got != 0 {
		t.Fatalf("transit packet was counted: %d", got)
	}
}

func TestCollectorDropObserversAndRates(t *testing.T) {
	c := NewCollector(0)
	c.MarkActivation(0)
	legit := &netsim.Packet{Malicious: false}
	attack := &netsim.Packet{Malicious: true}

	// Simulate ATR arrivals: 100 legit and 100 attack packets.
	for i := 0; i < 100; i++ {
		c.noteATRArrival(legit, sim.Time(i))
		c.noteATRArrival(attack, sim.Time(i))
	}
	// The defence drops 95 attack packets, 5 legit during probing, and 2
	// legit through misclassification.
	for i := 0; i < 95; i++ {
		c.ObserveMAFICDrop(attack, core.DropPermanent, 0)
	}
	for i := 0; i < 5; i++ {
		c.ObserveMAFICDrop(legit, core.DropProbing, 0)
	}
	c.ObserveMAFICDrop(legit, core.DropPermanent, 0)
	c.ObserveMAFICDrop(legit, core.DropIllegalSource, 0)

	if got := c.Accuracy(); math.Abs(got-0.95) > 1e-9 {
		t.Fatalf("accuracy = %v, want 0.95", got)
	}
	if got := c.FalsePositiveRate(); math.Abs(got-2.0/200.0) > 1e-9 {
		t.Fatalf("θp = %v, want 0.01", got)
	}
	if got := c.LegitimateDropRate(); math.Abs(got-7.0/100.0) > 1e-9 {
		t.Fatalf("Lr = %v, want 0.07", got)
	}
	counts := c.Counts()
	if counts.DropAttack != 95 || counts.DropLegitProbing != 5 || counts.DropLegitPDT != 1 || counts.DropLegitIllegal != 1 {
		t.Fatalf("drop counters wrong: %+v", counts)
	}
}

func TestCollectorBaselineObserver(t *testing.T) {
	c := NewCollector(0)
	c.MarkActivation(0)
	for i := 0; i < 10; i++ {
		c.noteATRArrival(&netsim.Packet{Malicious: false}, 0)
	}
	c.ObserveBaselineDrop(&netsim.Packet{Malicious: false}, 0)
	c.ObserveBaselineDrop(&netsim.Packet{Malicious: true}, 0)
	counts := c.Counts()
	if counts.DropLegitPDT != 1 || counts.DropAttack != 1 {
		t.Fatalf("baseline observer counts wrong: %+v", counts)
	}
}

func TestCollectorSeriesAndReduction(t *testing.T) {
	net, atr, src, victim := testNet(t)
	c := NewCollector(50 * sim.Millisecond)
	c.TapRouter(atr, victim.PrimaryIP())
	c.InstallHooks(net, victim.ID())

	// 10 packets per 50 ms bin before activation, 1 per bin after.
	for bin := 0; bin < 4; bin++ {
		for i := 0; i < 10; i++ {
			at := sim.Time(bin)*50*sim.Millisecond + sim.Time(i+1)*sim.Millisecond
			net.Scheduler().ScheduleAt(at, func(sim.Time) {
				src.Send(mkPacket(net, src.PrimaryIP(), victim.PrimaryIP(), true))
			})
		}
	}
	net.Scheduler().ScheduleAt(200*sim.Millisecond, func(now sim.Time) { c.MarkActivation(now) })
	for bin := 4; bin < 8; bin++ {
		at := sim.Time(bin)*50*sim.Millisecond + sim.Millisecond
		net.Scheduler().ScheduleAt(at, func(sim.Time) {
			src.Send(mkPacket(net, src.PrimaryIP(), victim.PrimaryIP(), true))
		})
	}
	if err := net.Scheduler().Run(); err != nil {
		t.Fatal(err)
	}

	series := c.Series()
	if len(series) < 6 {
		t.Fatalf("series has %d bins, want >= 6", len(series))
	}
	for i := 1; i < len(series); i++ {
		if series[i].Time <= series[i-1].Time {
			t.Fatal("series not in chronological order")
		}
	}
	red := c.TrafficReduction(100 * sim.Millisecond)
	if red < 0.80 || red > 0.95 {
		t.Fatalf("traffic reduction = %v, want ~0.9", red)
	}
	if c.TrafficReduction(0) != 0 {
		t.Fatal("zero window should yield zero reduction")
	}
}

func TestCollectorNoActivationDefaults(t *testing.T) {
	c := NewCollector(0)
	if c.Accuracy() != 0 || c.FalsePositiveRate() != 0 || c.LegitimateDropRate() != 0 {
		t.Fatal("metrics without traffic should be zero")
	}
	if c.TrafficReduction(100*sim.Millisecond) != 0 {
		t.Fatal("reduction without activation should be zero")
	}
	if _, ok := c.Activated(); ok {
		t.Fatal("collector should not report activation")
	}
	// Double activation keeps the first timestamp.
	c.MarkActivation(10)
	c.MarkActivation(20)
	if at, _ := c.Activated(); at != 10 {
		t.Fatal("second MarkActivation must not move the activation time")
	}
}

func TestBandwidthPointTotal(t *testing.T) {
	p := BandwidthPoint{LegitPackets: 3, AttackPackets: 4}
	if p.Total() != 7 {
		t.Fatalf("Total = %d, want 7", p.Total())
	}
}
