package traffic

import (
	"errors"
	"math"
	"testing"

	"mafic/internal/sim"
	"mafic/internal/topology"
)

// adversarialDomain builds a small domain with extra victims for the
// multi-victim workload tests.
func adversarialDomain(t *testing.T) *topology.Domain {
	t.Helper()
	cfg := topology.DefaultConfig()
	cfg.NumRouters = 12
	cfg.ClientsPerIngress = 3
	cfg.ZombiesPerIngress = 2
	cfg.BystanderHosts = 4
	cfg.ExtraVictims = 2
	d, err := topology.Build(cfg, sim.NewScheduler(), sim.NewRNG(5))
	if err != nil {
		t.Fatalf("build domain: %v", err)
	}
	return d
}

func TestRotatingSourceHandsOff(t *testing.T) {
	d := testDomain(t)
	new(VictimServer).reset(d.Victim, 0)
	slot := 100 * sim.Millisecond
	groups := 3
	sources := make([]*PacedSource, groups)
	for g := 0; g < groups; g++ {
		cfg := pacing{
			rate: 400, size: DefaultDataSize,
			onFor:  slot,
			every:  slot * sim.Time(groups),
			offset: slot * sim.Time(g),
		}
		z := d.Zombies[g%len(d.Zombies)]
		sources[g] = new(PacedSource).reset(g+1, FlowRotating, cfg, z, flowLabel(z.PrimaryIP(), d.VictimIP(), uint16(20000+g)), sim.NewRNG(int64(g)))
		sources[g].Start(0)
	}
	// Run for two full rotation cycles, stopping just before the boundary
	// so the third cycle's first slot does not fire.
	if err := d.Net.Scheduler().RunUntil(sim.Time(int64(slot)*int64(groups)*2) - sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	for g, s := range sources {
		s.Stop()
		if s.Bursts() != 2 {
			t.Fatalf("group %d held %d slots, want 2", g, s.Bursts())
		}
		if s.PacketsSent() == 0 {
			t.Fatalf("group %d sent no packets", g)
		}
		if !s.Malicious() {
			t.Fatal("rotating source must be malicious")
		}
	}
	// Every group floods at the same per-slot rate, so totals must be
	// close to one another: the baton really travels.
	low, high := sources[0].PacketsSent(), sources[0].PacketsSent()
	for _, s := range sources[1:] {
		if n := s.PacketsSent(); n < low {
			low = n
		} else if n > high {
			high = n
		}
	}
	if float64(low) < 0.5*float64(high) {
		t.Fatalf("rotation is unbalanced: min %d max %d packets", low, high)
	}
}

func TestRotatingSourceSlowRateDoesNotCompound(t *testing.T) {
	// A send gap longer than the off-period used to leave the previous
	// slot's timer alive into a later slot, stacking send chains so the
	// effective rate grew every cycle. With one packet per slot at this
	// rate, total packets must equal slots held exactly.
	d := testDomain(t)
	new(VictimServer).reset(d.Victim, 0)
	slot := 100 * sim.Millisecond
	cfg := pacing{
		rate:  3, // gap ≈ 333 ms: longer than the 200 ms off-period
		size:  DefaultDataSize,
		onFor: slot,
		every: 3 * slot,
	}
	z := d.Zombies[0]
	s := new(PacedSource).reset(1, FlowRotating, cfg, z, flowLabel(z.PrimaryIP(), d.VictimIP(), 20001), sim.NewRNG(1))
	s.Start(0)
	cycles := 10
	if err := d.Net.Scheduler().RunUntil(sim.Time(int64(slot)*3*int64(cycles)) - sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	if s.Bursts() != uint64(cycles) {
		t.Fatalf("held %d slots, want %d", s.Bursts(), cycles)
	}
	if s.PacketsSent() != uint64(cycles) {
		t.Fatalf("sent %d packets over %d slots, want exactly %d (send chains compounded)",
			s.PacketsSent(), cycles, cycles)
	}
}

func TestBuildWorkloadRollingPulse(t *testing.T) {
	d := testDomain(t)
	spec := DefaultWorkloadSpec()
	spec.TotalFlows = 30
	spec.TCPShare = 0.6
	spec.AttackGroups = 3
	spec.AttackRotationPeriod = 100 * sim.Millisecond
	w, err := BuildWorkload(spec, d, sim.NewRNG(1))
	if err != nil {
		t.Fatalf("BuildWorkload: %v", err)
	}
	groups := map[int]int{}
	for _, f := range w.Attack {
		rs, ok := f.(*PacedSource)
		if !ok || rs.st.Kind != FlowRotating {
			t.Fatalf("attack flow %d is %T, want a rotating *PacedSource", f.ID(), f)
		}
		groups[int(rs.cfg.offset/rs.cfg.onFor)]++
	}
	if len(groups) != 3 {
		t.Fatalf("attack flows span %d groups, want 3", len(groups))
	}
}

func TestBuildWorkloadRateMix(t *testing.T) {
	d := testDomain(t)
	spec := DefaultWorkloadSpec()
	spec.TotalFlows = 20
	spec.TCPShare = 0.5
	spec.AttackRateMix = []float64{0.1, 1, 4}
	w, err := BuildWorkload(spec, d, sim.NewRNG(1))
	if err != nil {
		t.Fatalf("BuildWorkload: %v", err)
	}
	rates := map[float64]bool{}
	for _, f := range w.Attack {
		rates[f.CurrentRate()] = true
	}
	if len(rates) < 3 {
		t.Fatalf("attack rates %v, want at least 3 distinct tiers", rates)
	}
	for _, f := range w.Attack {
		want := false
		for _, m := range spec.AttackRateMix {
			if math.Abs(f.CurrentRate()-spec.AttackRate*m) < 1e-9 {
				want = true
			}
		}
		if !want {
			t.Fatalf("attack rate %.1f matches no mix tier", f.CurrentRate())
		}
	}
}

func TestBuildWorkloadFlashCrowd(t *testing.T) {
	d := testDomain(t)
	spec := DefaultWorkloadSpec()
	spec.TotalFlows = 20
	spec.FlashCrowdFlows = 8
	spec.FlashCrowdStart = 700 * sim.Millisecond
	spec.FlashCrowdWindow = 100 * sim.Millisecond
	w, err := BuildWorkload(spec, d, sim.NewRNG(1))
	if err != nil {
		t.Fatalf("BuildWorkload: %v", err)
	}
	if len(w.Flash) != 8 {
		t.Fatalf("flash flows = %d, want 8", len(w.Flash))
	}
	for _, f := range w.Flash {
		if f.Malicious() {
			t.Fatal("flash-crowd flows must be legitimate")
		}
	}
	// Flash flows are part of the legitimate ground truth.
	inLegit := 0
	for _, lf := range w.Legitimate {
		for _, ff := range w.Flash {
			if lf == ff {
				inLegit++
			}
		}
	}
	if inLegit != len(w.Flash) {
		t.Fatalf("only %d of %d flash flows counted legitimate", inLegit, len(w.Flash))
	}
	// Starting the workload must not start flash flows before their time.
	w.StartAll(spec, sim.NewRNG(2))
	if err := d.Net.Scheduler().RunUntil(spec.FlashCrowdStart - 50*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, f := range w.Flash {
		if f.PacketsSent() != 0 {
			t.Fatal("flash flow sent before the flash-crowd start")
		}
	}
	if err := d.Net.Scheduler().RunUntil(spec.FlashCrowdStart + 400*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	sent := uint64(0)
	for _, f := range w.Flash {
		sent += f.PacketsSent()
	}
	if sent == 0 {
		t.Fatal("flash crowd never sent")
	}
	w.StopAll()
}

func TestBuildWorkloadMultiVictim(t *testing.T) {
	d := adversarialDomain(t)
	spec := DefaultWorkloadSpec()
	spec.TotalFlows = 30
	spec.TCPShare = 0.6
	spec.ExtraVictimShare = 0.5
	spec.SpoofIllegalFraction = 0
	spec.SpoofLegitFraction = 0
	w, err := BuildWorkload(spec, d, sim.NewRNG(1))
	if err != nil {
		t.Fatalf("BuildWorkload: %v", err)
	}
	if len(w.ExtraServers) != len(d.ExtraVictims) {
		t.Fatalf("extra servers = %d, want %d", len(w.ExtraServers), len(d.ExtraVictims))
	}
	targets := map[bool]int{} // primary? -> count
	extraIPs := map[uint32]bool{}
	for _, v := range d.ExtraVictims {
		extraIPs[uint32(v.PrimaryIP())] = true
	}
	for _, f := range w.Attack {
		dst := f.Label().DstIP
		if dst == d.VictimIP() {
			targets[true]++
		} else if extraIPs[uint32(dst)] {
			targets[false]++
		} else {
			t.Fatalf("attack flow targets unknown address %v", dst)
		}
	}
	if targets[true] == 0 || targets[false] == 0 {
		t.Fatalf("attack split primary=%d extra=%d, want both non-zero", targets[true], targets[false])
	}
}

func TestBuildWorkloadExtraVictimShareWithoutVictims(t *testing.T) {
	d := testDomain(t) // no extra victims in this domain
	spec := DefaultWorkloadSpec()
	spec.ExtraVictimShare = 1
	spec.TCPShare = 0.5
	if _, err := BuildWorkload(spec, d, sim.NewRNG(1)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("want ErrBadSpec, got %v", err)
	}
}

func TestWorkloadSpecValidateAdversarial(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*WorkloadSpec)
	}{
		{"negative groups", func(s *WorkloadSpec) { s.AttackGroups = -1 }},
		{"groups without period", func(s *WorkloadSpec) { s.AttackGroups = 3 }},
		{"negative rotation period", func(s *WorkloadSpec) { s.AttackRotationPeriod = -sim.Second }},
		{"zero rate-mix tier", func(s *WorkloadSpec) { s.AttackRateMix = []float64{1, 0} }},
		{"negative rate-mix tier", func(s *WorkloadSpec) { s.AttackRateMix = []float64{-2} }},
		{"extra victim share too big", func(s *WorkloadSpec) { s.ExtraVictimShare = 1.5 }},
		{"negative extra victim share", func(s *WorkloadSpec) { s.ExtraVictimShare = -0.1 }},
		{"negative flash flows", func(s *WorkloadSpec) { s.FlashCrowdFlows = -1 }},
		{"negative flash rate", func(s *WorkloadSpec) { s.FlashCrowdRate = -5 }},
		{"negative flash window", func(s *WorkloadSpec) { s.FlashCrowdWindow = -sim.Second }},
		// Past 55 536 flows two flows share a 4-tuple: the second TCP
		// source takes over the first one's ACKs and the defenders merge
		// the two.
		{"more flows than source ports", func(s *WorkloadSpec) { s.TotalFlows = 55537 }},
		{"a flash crowd past the source ports", func(s *WorkloadSpec) { s.TotalFlows, s.FlashCrowdFlows = 55000, 537 }},
		{"a flash crowd overflowing the count", func(s *WorkloadSpec) { s.FlashCrowdFlows = math.MaxInt }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec := DefaultWorkloadSpec()
			tt.mutate(&spec)
			if err := spec.Validate(); !errors.Is(err, ErrBadSpec) {
				t.Fatalf("want ErrBadSpec, got %v", err)
			}
		})
	}
}
