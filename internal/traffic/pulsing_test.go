package traffic

import (
	"testing"

	"mafic/internal/sim"
)

func TestPulsingSourceDutyCycle(t *testing.T) {
	d := testDomain(t)
	new(VictimServer).reset(d.Victim, 0)
	// A 500 ms period at a 20 % duty cycle.
	cfg := pacing{rate: 1000, size: DefaultDataSize, onFor: 100 * sim.Millisecond, every: 500 * sim.Millisecond}
	z := d.Zombies[0]
	p := new(PacedSource).reset(1, FlowPulsing, cfg, z, flowLabel(z.PrimaryIP(), d.VictimIP(), 40000), sim.NewRNG(3))
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
	new(VictimServer).reset(d.Victim, 0)
	// A 1 s period at a 10 % duty cycle.
	cfg := pacing{rate: 1000, size: DefaultDataSize, onFor: 100 * sim.Millisecond, every: sim.Second}
	z := d.Zombies[0]
	p := new(PacedSource).reset(2, FlowPulsing, cfg, z, flowLabel(z.PrimaryIP(), d.VictimIP(), 40001), sim.NewRNG(4))
	p.Start(0)

	// During the burst the rate is the peak rate; between bursts it is 0.
	if err := d.Net.Scheduler().RunUntil(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if p.CurrentRate() != cfg.rate {
		t.Fatalf("rate during burst = %v, want %v", p.CurrentRate(), cfg.rate)
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

// TestPulsingSourceSpoofing checks that the attack shape does not move the
// forging: a pulsing workload's attack flows carry the same sources, ports
// and IDs as the flooding workload built from the same spec and seed.
func TestPulsingSourceSpoofing(t *testing.T) {
	spec := DefaultWorkloadSpec()
	spec.TotalFlows = 20
	spec.TCPShare = 0.5
	flood, err := BuildWorkload(spec, testDomain(t), sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	spec.AttackPulsePeriod = sim.Second
	pulse, err := BuildWorkload(spec, testDomain(t), sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range pulse.Attack {
		if p := f.(*PacedSource); p.st.Kind != FlowPulsing {
			t.Fatalf("attack flow %d has kind %d, want FlowPulsing", i, p.st.Kind)
		}
		if f.Label() != flood.Attack[i].Label() || f.ID() != flood.Attack[i].ID() {
			t.Fatalf("attack flow %d: pulsing %d %v, flooding %d %v", i, f.ID(), f.Label(), flood.Attack[i].ID(), flood.Attack[i].Label())
		}
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
