package traffic

import (
	"testing"

	"mafic/internal/sim"
)

// TestFlowLifecycleSteadyStateDoesNotAllocate pins the reused flow
// lifecycle: once a workload holds its senders, a full reset/start/stop cycle
// on the objects it already has — TCP and rolling-pulse sources alike —
// performs no heap allocation. This is what lets sweeps churn through
// thousands of flow starts without touching the allocator.
func TestFlowLifecycleSteadyStateDoesNotAllocate(t *testing.T) {
	d := testDomain(t)
	sched := d.Net.Scheduler()
	victim := d.VictimIP()
	client := d.Clients[0]
	zombie := d.Zombies[0]
	rotCfg := pacing{rate: 100, size: DefaultDataSize, onFor: 10 * sim.Millisecond, every: 20 * sim.Millisecond}
	rotLabel := flowLabel(zombie.PrimaryIP(), victim, 10002)
	rng := sim.NewRNG(9)
	tcp, rot := new(TCPSource), new(PacedSource)

	cycle := func() {
		tcp.reset(1, testTCPConfig, client, victim, 10001)
		rot.reset(2, FlowRotating, rotCfg, zombie, rotLabel, rng)
		tcp.Start(sched.Now())
		rot.Start(sched.Now())
		tcp.Stop()
		rot.Stop()
		// Drain the cancelled start events so the scheduler arena stays
		// at its steady-state size.
		if err := sched.Run(); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
	// Warm-up: materialise the handler and grow the scheduler arena.
	for i := 0; i < 4; i++ {
		cycle()
	}

	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state flow lifecycle allocated %.1f times per cycle", allocs)
	}
}

// TestReleasedTCPSourceIsFullyReset guards reuse hygiene: a source reset for
// a new run must behave exactly like a freshly allocated one — counters
// zeroed, window back at the initial value, handler registered on its host
// in the next run's network.
func TestReleasedTCPSourceIsFullyReset(t *testing.T) {
	d := testDomain(t)
	new(VictimServer).reset(d.Victim, 0)
	cfg := testTCPConfig

	s := new(TCPSource).reset(1, cfg, d.Clients[0], d.VictimIP(), 10001)
	s.Start(0)
	if err := d.Net.Scheduler().RunUntil(1 * sim.Second); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	if s.PacketsSent() == 0 || s.AcksReceived() == 0 {
		t.Fatal("first lifetime saw no traffic")
	}

	d2 := testDomain(t)
	new(VictimServer).reset(d2.Victim, 0)
	s.reset(2, cfg, d2.Clients[1], d2.VictimIP(), 10002)
	if s.PacketsSent() != 0 || s.AcksReceived() != 0 || s.Window() != initialWindow {
		t.Fatalf("reset source kept state: sent %d acked %d window %v",
			s.PacketsSent(), s.AcksReceived(), s.Window())
	}
	s.Start(d2.Net.Scheduler().Now())
	if err := d2.Net.Scheduler().RunUntil(d2.Net.Scheduler().Now() + 1*sim.Second); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	if s.PacketsSent() == 0 || s.AcksReceived() == 0 {
		t.Fatal("reset source did not function")
	}
	if s.Label().SrcIP != d2.Clients[1].PrimaryIP() {
		t.Fatal("reset source kept the previous host's label")
	}
}
