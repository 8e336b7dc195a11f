package traffic

import (
	"testing"

	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// FuzzRotatingSource throws arbitrary rotation schedules at NewRotatingSource
// and checks the invariants the workload builder relies on: a flow is never
// double-activated (double Start, or a stale send chain surviving into the
// next slot, would blow the slot and packet bounds), every slot the clamped
// schedule owes inside the horizon is actually held (no orphaned group), and
// Stop really silences the flow.
func FuzzRotatingSource(f *testing.F) {
	f.Add(int64(150), 3, 1, 500.0)
	f.Add(int64(0), 0, -1, 0.0)
	f.Add(int64(-20), 17, 40, 123.0)
	f.Add(int64(1), 1, 0, 2000.0)
	f.Add(int64(333), 2, 1, 1.5)
	f.Add(int64(1000), 64, 63, 7.0)
	// Found by fuzzing: a send timer cancelled by a slot hand-off used to
	// make Scheduler.RunUntil overshoot its deadline (see the RunUntil
	// cancelled-event regression test in internal/sim).
	f.Add(int64(-9), 4, 119, -12.444444444444443)
	f.Fuzz(func(t *testing.T, slotMs int64, groups, group int, peak float64) {
		// Bound the schedule so one iteration stays small. The clamping
		// paths all stay reachable: zero and negative values pass through.
		if slotMs > 1000 || slotMs < -1000 || groups > 64 || groups < -64 ||
			group > 128 || group < -128 {
			t.Skip()
		}
		// Cap the event rate; sub-0.5 pps positive rates would push the
		// send gap toward float->sim.Time overflow, which is the rate
		// clamp's concern, not the rotation schedule's.
		if peak != peak || peak > 2000 || (peak > 0 && peak < 0.5) {
			t.Skip()
		}

		sched := sim.NewScheduler()
		net := netsim.New(sched, sim.NewRNG(1))
		router := net.AddRouter("r")
		zombie := net.AddHost("z", netsim.IP(0xc0a80001))
		victim := net.AddHost("v", netsim.IP(0x0a000001))
		link := netsim.LinkConfig{BandwidthBps: 100e6, Delay: sim.Millisecond, QueueLen: 64}
		for _, h := range []*netsim.Host{zombie, victim} {
			h.AttachTo(router.ID())
			if err := net.ConnectDuplex(h.ID(), router.ID(), link); err != nil {
				t.Fatalf("connect: %v", err)
			}
			h.SetDefaultHandler(func(*netsim.Packet, sim.Time) {})
		}

		cfg := RotatingConfig{
			PeakRate:   peak,
			SlotLength: sim.Time(slotMs) * sim.Millisecond,
			Groups:     groups,
			Group:      group,
		}
		s := NewRotatingSource(1, cfg, zombie, victim.PrimaryIP(), 1000, nil)

		// Mirror of the constructor's clamps, the schedule actually in force.
		cSlot := cfg.SlotLength
		if cSlot <= 0 {
			cSlot = 100 * sim.Millisecond
		}
		cGroups := cfg.Groups
		if cGroups < 1 {
			cGroups = 1
		}
		cGroup := cfg.Group
		if cGroup < 0 || cGroup >= cGroups {
			cGroup = 0
		}
		cPeak := cfg.PeakRate
		if cPeak <= 0 {
			cPeak = 1
		}
		offset := sim.Time(int64(cSlot) * int64(cGroup))
		cycle := sim.Time(int64(cSlot) * int64(cGroups))

		const horizon = 1 * sim.Second
		s.Start(0)
		s.Start(0) // must be a no-op, not a second rotation schedule
		if err := sched.RunUntil(horizon); err != nil {
			t.Fatalf("run: %v", err)
		}

		// Slots owed inside the horizon: one at offset, then one per cycle.
		var want uint64
		if horizon >= offset {
			want = uint64((horizon-offset)/cycle) + 1
		}
		slots := s.Bursts()
		if slots > want {
			t.Fatalf("double-activation: held %d slots, schedule owes at most %d (slot=%v groups=%d group=%d)",
				slots, want, cSlot, cGroups, cGroup)
		}
		if want > 0 && slots < want-1 {
			t.Fatalf("orphaned group: held %d slots, schedule owes %d (slot=%v groups=%d group=%d)",
				slots, want, cSlot, cGroups, cGroup)
		}

		// Exactly one send chain per slot: the packet count is bounded by
		// rate x slot length (+slack for the slot-start and slot-end sends).
		maxPerSlot := float64(cSlot)/float64(sim.Second)*cPeak + 2
		if got := float64(s.PacketsSent()); got > float64(slots)*maxPerSlot+1 {
			t.Fatalf("send chain compounded: %v packets over %d slots, want <= %v per slot",
				got, slots, maxPerSlot)
		}

		// Stop must silence the flow even with events still queued.
		sent, held := s.PacketsSent(), s.Bursts()
		s.Stop()
		if err := sched.RunUntil(horizon + 4*cycle + 4*cSlot); err != nil {
			t.Fatalf("run after stop: %v", err)
		}
		if s.PacketsSent() != sent || s.Bursts() != held {
			t.Fatalf("flow lived past Stop: packets %d -> %d, slots %d -> %d",
				sent, s.PacketsSent(), held, s.Bursts())
		}
	})
}
