package traffic

import (
	"testing"

	"mafic/internal/sim"
)

func TestPulsingSourceDutyCycle(t *testing.T) {
	d := testDomain(t)
	NewVictimServer(d.Victim, 0)
	cfg := PulsingConfig{
		PeakRate:  1000,
		Period:    500 * sim.Millisecond,
		DutyCycle: 0.2,
	}
	p := NewPulsingSource(1, cfg, d.Zombies[0], d.VictimIP(), 40000, sim.NewRNG(3))
	p.Start(0)
	if err := d.Net.Scheduler().RunUntil(1900 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	p.Stop()

	// Four periods of 500 ms with a 20% duty cycle at 1000 pkt/s ≈ 400
	// packets in total; allow generous slack for jitter and edge effects.
	sent := p.PacketsSent()
	if sent < 300 || sent > 500 {
		t.Fatalf("pulsing source sent %d packets, want ~400", sent)
	}
	if p.Bursts() != 4 {
		t.Fatalf("bursts = %d, want 4", p.Bursts())
	}
	if !p.Malicious() {
		t.Fatal("pulsing source must be malicious")
	}
}

func TestPulsingSourceSilentBetweenBursts(t *testing.T) {
	d := testDomain(t)
	NewVictimServer(d.Victim, 0)
	cfg := PulsingConfig{
		PeakRate:  1000,
		Period:    sim.Second,
		DutyCycle: 0.1,
	}
	p := NewPulsingSource(2, cfg, d.Zombies[0], d.VictimIP(), 40001, sim.NewRNG(4))
	p.Start(0)

	// During the burst the rate is the peak rate; between bursts it is 0.
	if err := d.Net.Scheduler().RunUntil(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if p.CurrentRate() != cfg.PeakRate {
		t.Fatalf("rate during burst = %v, want %v", p.CurrentRate(), cfg.PeakRate)
	}
	// The burst ends at 100 ms (10% duty cycle of a 1 s period); nothing
	// more may be sent until the next period starts at 1 s.
	if err := d.Net.Scheduler().RunUntil(150 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	atBurstEnd := p.PacketsSent()
	if err := d.Net.Scheduler().RunUntil(900 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if p.CurrentRate() != 0 {
		t.Fatalf("rate between bursts = %v, want 0", p.CurrentRate())
	}
	if p.PacketsSent() != atBurstEnd {
		t.Fatal("packets were sent during the silent phase")
	}
	p.Stop()
}

func TestPulsingSourceSpoofing(t *testing.T) {
	d := testDomain(t)
	spoofed := d.SpoofPool()[0]
	cfg := DefaultPulsingConfig(500)
	cfg.Spoof = SpoofLegitimate
	cfg.SpoofedIP = spoofed
	p := NewPulsingSource(3, cfg, d.Zombies[0], d.VictimIP(), 40002, sim.NewRNG(5))
	if p.Label().SrcIP != spoofed {
		t.Fatalf("spoofed source = %v, want %v", p.Label().SrcIP, spoofed)
	}
	if p.ID() != 3 {
		t.Fatal("ID accessor mismatch")
	}
}

func TestPulsingConfigDefaults(t *testing.T) {
	cfg := DefaultPulsingConfig(2000)
	if cfg.PeakRate != 2000 || cfg.DutyCycle != 0.2 || cfg.Period != sim.Second {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	// Invalid values are normalised by the constructor.
	d := testDomain(t)
	p := NewPulsingSource(4, PulsingConfig{}, d.Zombies[0], d.VictimIP(), 40003, sim.NewRNG(1))
	if p.cfg.rate <= 0 || p.cfg.every <= 0 || p.cfg.onFor <= 0 || p.cfg.size <= 0 {
		t.Fatalf("constructor did not normalise config: %+v", p.cfg)
	}
}

func TestWorkloadWithPulsingAttack(t *testing.T) {
	d := testDomain(t)
	spec := DefaultWorkloadSpec()
	spec.TotalFlows = 20
	spec.TCPShare = 0.8
	spec.AttackPulsePeriod = 500 * sim.Millisecond
	spec.AttackDutyCycle = 0.3
	rng := sim.NewRNG(8)
	w, err := BuildWorkload(spec, d, rng)
	if err != nil {
		t.Fatalf("BuildWorkload: %v", err)
	}
	if len(w.Attack) == 0 {
		t.Fatal("no attack flows built")
	}
	for _, f := range w.Attack {
		if p, ok := f.(*PacedSource); !ok || p.st.Kind != FlowPulsing {
			t.Fatalf("attack flow is %T, want a pulsing *PacedSource", f)
		}
	}
	w.StartAll(spec, rng)
	if err := d.Net.Scheduler().RunUntil(1200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	w.StopAll()
	_, attackSent := w.PacketsSent()
	if attackSent == 0 {
		t.Fatal("pulsing attack sent nothing")
	}
	// With a 30% duty cycle the attack volume must stay well below what a
	// constant flood at the same rate would have produced.
	constantEquivalent := uint64(float64(len(w.Attack)) * spec.AttackRate * 1.2)
	if attackSent >= constantEquivalent/2 {
		t.Fatalf("pulsing attack sent %d packets, expected well under %d", attackSent, constantEquivalent)
	}
}
