package baseline

import (
	"errors"
	"math"
	"testing"

	"mafic/internal/netsim"
	"mafic/internal/sim"
)

func newEnv(t *testing.T) (*netsim.Network, *netsim.Router, netsim.IP) {
	t.Helper()
	sched := sim.NewScheduler()
	net := netsim.New(sched, sim.NewRNG(1))
	r := net.AddRouter()
	victim := net.AddHost(netsim.IP(0x0a000001))
	victim.AttachTo(r.ID())
	if err := net.ConnectDuplex(victim.ID(), r.ID(), netsim.LinkConfig{BandwidthBps: 1e9, Delay: sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	return net, r, victim.PrimaryIP()
}

func packet(net *netsim.Network, dst netsim.IP, kind netsim.PacketKind) *netsim.Packet {
	return &netsim.Packet{
		ID:    net.NextPacketID(),
		Label: netsim.FlowLabel{SrcIP: netsim.IP(0xc0a80001), DstIP: dst, SrcPort: 1, DstPort: 80},
		Kind:  kind, Proto: netsim.ProtoTCP, Size: 500,
	}
}

func TestNewDropperValidation(t *testing.T) {
	net, r, _ := newEnv(t)
	_ = net
	if _, err := NewDropper(-0.1, r, nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig for negative probability, got %v", err)
	}
	if _, err := NewDropper(1.1, r, nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig for probability > 1, got %v", err)
	}
	if _, err := NewDropper(0.5, nil, nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig for nil router, got %v", err)
	}
	d, err := NewDropper(0.5, r, nil)
	if err != nil {
		t.Fatalf("NewDropper: %v", err)
	}
	if d.Name() != FilterName || d.Probability() != 0.5 {
		t.Fatal("accessors wrong")
	}
}

func TestInactiveForwardsEverything(t *testing.T) {
	net, r, victim := newEnv(t)
	d, err := NewDropper(1.0, r, sim.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if d.Handle(packet(net, victim, netsim.KindData), 0, r) != netsim.ActionForward {
		t.Fatal("inactive dropper must forward")
	}
	if d.Active() {
		t.Fatal("should be inactive")
	}
}

func TestDropsAtConfiguredRate(t *testing.T) {
	net, r, victim := newEnv(t)
	d, err := NewDropper(0.7, r, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	d.Activate(victim)
	const n = 20000
	for i := 0; i < n; i++ {
		d.Handle(packet(net, victim, netsim.KindData), 0, r)
	}
	st := d.Stats()
	if st.Examined != n || st.Dropped+st.Forwarded != n {
		t.Fatalf("counter mismatch: %+v", st)
	}
	ratio := float64(st.Dropped) / n
	if math.Abs(ratio-0.7) > 0.02 {
		t.Fatalf("drop ratio %.3f, want ~0.7", ratio)
	}
}

func TestOnlyVictimBoundDataAffected(t *testing.T) {
	net, r, victim := newEnv(t)
	d, err := NewDropper(1.0, r, sim.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	d.Activate(victim)
	if d.Handle(packet(net, netsim.IP(0x0b000001), netsim.KindData), 0, r) != netsim.ActionForward {
		t.Fatal("other destinations must be untouched")
	}
	if d.Handle(packet(net, victim, netsim.KindAck), 0, r) != netsim.ActionForward {
		t.Fatal("non-data packets must be untouched")
	}
	if d.Handle(packet(net, victim, netsim.KindData), 0, r) != netsim.ActionDrop {
		t.Fatal("victim-bound data must be dropped with p=1")
	}
}

// TestResetMatchesNewDropper reuses a dropper that has run, been activated and
// observed drops: after Reset it drops exactly what a new one seeded the same
// way drops, with no counter, activation or observer left over. A refused
// Reset leaves the dropper as it was.
func TestResetMatchesNewDropper(t *testing.T) {
	net, r, victim := newEnv(t)
	used, err := NewDropper(1.0, r, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	observed := 0
	used.SetDropObserver(func(*netsim.Packet, sim.Time) { observed++ })
	used.Activate(victim)
	used.Handle(packet(net, victim, netsim.KindData), 0, r)
	if err := used.Reset(1.5, r, sim.NewRNG(6)); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig for probability > 1, got %v", err)
	}
	if !used.Active() || used.Probability() != 1.0 || used.Stats().Dropped != 1 {
		t.Fatal("a refused Reset changed the dropper")
	}

	if err := used.Reset(0.5, r, sim.NewRNG(6)); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	fresh, err := NewDropper(0.5, r, sim.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	if used.Active() || used.Stats() != (Stats{}) || used.Probability() != 0.5 {
		t.Fatalf("reset dropper carries its last run: active %v, %+v", used.Active(), used.Stats())
	}
	used.Activate(victim)
	fresh.Activate(victim)
	for i := 0; i < 1000; i++ {
		pkt := packet(net, victim, netsim.KindData)
		if got, want := used.Handle(pkt, 0, r), fresh.Handle(pkt, 0, r); got != want {
			t.Fatalf("packet %d: reset dropper says %v, new one %v", i, got, want)
		}
	}
	if used.Stats() != fresh.Stats() {
		t.Fatalf("reset dropper %+v, new one %+v", used.Stats(), fresh.Stats())
	}
	if observed != 1 {
		t.Fatalf("the old observer saw %d drops, want 1: Reset must unbind it", observed)
	}
}
