package traffic

import (
	"testing"

	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// FuzzRotatingSource drives a gated attack sender over the gate's valid
// domain — onFor in (0, every], offset in [0, every), a positive rate — and
// checks the invariants the workload builder relies on for every pulse and
// rolling-pulse flow: a flow is never double-activated (double Start, or a
// stale send chain surviving into the next burst, would blow the burst and
// packet bounds), every burst the gate owes inside the horizon is actually
// held (no orphaned group), and Stop really silences the flow.
func FuzzRotatingSource(f *testing.F) {
	// every in microseconds; onFor and offset in nanoseconds.
	f.Add(uint64(450_000), uint64(150e6), uint64(150e6), 500.0) // group 1 of 3, 150 ms slots
	f.Add(uint64(100_000), uint64(100e6), uint64(0), 1.0)       // open the whole cycle, one packet a second
	f.Add(uint64(1_700_000), uint64(100e6), uint64(0), 123.0)   // a cycle longer than the horizon
	f.Add(uint64(1_000), uint64(1e6), uint64(0), 2000.0)        // 1 ms cycles
	f.Add(uint64(666_000), uint64(333e6), uint64(333e6), 1.5)   // a send gap longer than the burst
	f.Add(uint64(64_000_000), uint64(1e9), uint64(63e9), 7.0)   // the last of 64 one-second slots
	// Found by fuzzing: a send timer cancelled by a slot hand-off used to
	// make Scheduler.RunUntil overshoot its deadline (see the RunUntil
	// cancelled-event regression test in internal/sim).
	f.Add(uint64(400_000), uint64(100e6), uint64(0), 1.0)
	f.Fuzz(func(t *testing.T, everyUs, onForNs, offsetNs uint64, rate float64) {
		// Bound the cycle to [1 ms, 64 s] and the rate to [0.5, 2000]
		// packets/s so one iteration stays small; a slower rate would push
		// the send gap toward float->sim.Time overflow, which no workload's
		// rate reaches.
		if everyUs < 1_000 || everyUs > 64_000_000 || rate != rate || rate < 0.5 || rate > 2000 {
			t.Skip()
		}
		// Fold onFor and offset into the gate's domain; a value already
		// inside it is kept as it is.
		every := sim.Time(everyUs) * sim.Microsecond
		cfg := pacing{
			rate:   rate,
			size:   DefaultDataSize,
			every:  every,
			onFor:  sim.Time((onForNs-1)%uint64(every)) + 1,
			offset: sim.Time(offsetNs % uint64(every)),
		}

		sched := sim.NewScheduler()
		net := netsim.New(sched, sim.NewRNG(1))
		router := net.AddRouter()
		zombie := net.AddHost(netsim.IP(0xc0a80001))
		victim := net.AddHost(netsim.IP(0x0a000001))
		link := netsim.LinkConfig{BandwidthBps: 100e6, Delay: sim.Millisecond, QueueLen: 64}
		for _, h := range []*netsim.Host{zombie, victim} {
			h.AttachTo(router.ID())
			if err := net.ConnectDuplex(h.ID(), router.ID(), link); err != nil {
				t.Fatalf("connect: %v", err)
			}
			h.SetDefaultHandler(func(*netsim.Packet, sim.Time) {})
		}
		label := flowLabel(zombie.PrimaryIP(), victim.PrimaryIP(), 1000)
		s := new(PacedSource).reset(1, FlowRotating, cfg, zombie, label, sim.NewRNG(2))

		const horizon = 1 * sim.Second
		s.Start(0)
		s.Start(0) // must be a no-op, not a second gate schedule
		if err := sched.RunUntil(horizon); err != nil {
			t.Fatalf("run: %v", err)
		}

		// Bursts owed inside the horizon: one at offset, then one per cycle.
		var want uint64
		if horizon >= cfg.offset {
			want = uint64((horizon-cfg.offset)/cfg.every) + 1
		}
		bursts := s.Bursts()
		if bursts > want {
			t.Fatalf("double-activation: held %d bursts, gate owes at most %d (%+v)", bursts, want, cfg)
		}
		if want > 0 && bursts < want-1 {
			t.Fatalf("orphaned group: held %d bursts, gate owes %d (%+v)", bursts, want, cfg)
		}

		// Exactly one send chain per burst: the packet count is bounded by
		// rate x onFor, every gap at least 1 − attackJitter of the nominal
		// one (+slack for the burst-start and burst-end sends).
		maxPerBurst := float64(cfg.onFor)/float64(sim.Second)*rate/(1-attackJitter) + 2
		if got := float64(s.PacketsSent()); got > float64(bursts)*maxPerBurst+1 {
			t.Fatalf("send chain compounded: %v packets over %d bursts, want <= %v per burst",
				got, bursts, maxPerBurst)
		}

		// Stop must silence the flow even with events still queued.
		sent, held := s.PacketsSent(), s.Bursts()
		s.Stop()
		if err := sched.RunUntil(horizon + 4*cfg.every); err != nil {
			t.Fatalf("run after stop: %v", err)
		}
		if s.PacketsSent() != sent || s.Bursts() != held {
			t.Fatalf("flow lived past Stop: packets %d -> %d, bursts %d -> %d",
				sent, s.PacketsSent(), held, s.Bursts())
		}
	})
}
