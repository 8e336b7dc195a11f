package traffic

import (
	"errors"
	"math"
	"testing"

	"mafic/internal/netsim"
	"mafic/internal/sim"
	"mafic/internal/topology"
)

func testDomain(t *testing.T) *topology.Domain {
	t.Helper()
	cfg := topology.DefaultConfig()
	cfg.NumRouters = 10
	cfg.ClientsPerIngress = 3
	cfg.ZombiesPerIngress = 2
	cfg.BystanderHosts = 4
	d, err := topology.Build(cfg, sim.NewScheduler(), sim.NewRNG(5))
	if err != nil {
		t.Fatalf("build domain: %v", err)
	}
	return d
}

// testTCPConfig is a well-behaved application flow: the workload's RTT
// estimate and packet size, capped at 200 packets/s.
var testTCPConfig = TCPConfig{RTT: 40 * sim.Millisecond, MaxRate: 200, PacketSize: DefaultDataSize}

func TestTCPSourceDeliversAndGrows(t *testing.T) {
	d := testDomain(t)
	new(VictimServer).reset(d.Victim, 0)
	cfg := testTCPConfig
	src := new(TCPSource).reset(1, cfg, d.Clients[0], d.VictimIP(), 10001)
	src.Start(0)
	if err := d.Net.Scheduler().RunUntil(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	src.Stop()
	if src.PacketsSent() < 100 {
		t.Fatalf("TCP source sent only %d packets in 2s", src.PacketsSent())
	}
	if src.AcksReceived() == 0 {
		t.Fatal("no acknowledgements received")
	}
	if src.Window() <= initialWindow {
		t.Fatalf("window did not grow: %.2f", src.Window())
	}
	if src.CurrentRate() > cfg.MaxRate+1e-9 {
		t.Fatalf("rate %.1f exceeds cap %.1f", src.CurrentRate(), cfg.MaxRate)
	}
	if src.Malicious() {
		t.Fatal("TCP source must be legitimate")
	}
}

func TestTCPSourceReactsToDupAckProbes(t *testing.T) {
	d := testDomain(t)
	new(VictimServer).reset(d.Victim, 0)
	client := d.Clients[0]
	src := new(TCPSource).reset(1, testTCPConfig, client, d.VictimIP(), 10001)
	src.Start(0)
	// Let the window open up first.
	if err := d.Net.Scheduler().RunUntil(1 * sim.Second); err != nil {
		t.Fatal(err)
	}
	before := src.Window()
	// Inject three duplicate ACKs as a MAFIC probe would.
	ingress := d.IngressOf(client)
	for i := 0; i < 3; i++ {
		probe := &netsim.Packet{
			ID:    d.Net.NextPacketID(),
			Label: src.Label().Reverse(),
			Kind:  netsim.KindDupAck,
			Proto: netsim.ProtoTCP,
			Size:  DefaultAckSize,
		}
		ingress.Inject(probe)
	}
	if err := d.Net.Scheduler().RunUntil(1*sim.Second + 100*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	after := src.Window()
	if src.ProbesSeen() != 3 {
		t.Fatalf("probes seen = %d, want 3", src.ProbesSeen())
	}
	if src.FastRetransmits() == 0 {
		t.Fatal("triple duplicate ACKs did not trigger a rate reduction")
	}
	// The window halves on the probe and then partially regrows from the
	// ACK stream, so it must still be below its pre-probe value.
	if after >= before {
		t.Fatalf("window did not shrink after probes: before=%.2f after=%.2f", before, after)
	}
	src.Stop()
}

func TestTCPSourceTimeoutCollapsesWindow(t *testing.T) {
	d := testDomain(t)
	// No victim server: data is swallowed, no ACKs ever return.
	d.Victim.SetDefaultHandler(func(*netsim.Packet, sim.Time) {})
	src := new(TCPSource).reset(1, testTCPConfig, d.Clients[0], d.VictimIP(), 10001)
	src.Start(0)
	if err := d.Net.Scheduler().RunUntil(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	src.Stop()
	if src.Timeouts() == 0 {
		t.Fatal("source without ACKs should have timed out")
	}
	if src.Window() > 2 {
		t.Fatalf("window = %.2f after persistent loss, want collapsed", src.Window())
	}
}

// TestAttackSourceSpoofingModes builds a workload in each of Section III-A's
// three forging modes and checks every attack flow's source: the zombie's
// own address, a bystander's routable one, or one routable nowhere.
func TestAttackSourceSpoofingModes(t *testing.T) {
	d := testDomain(t)
	zombies := make(map[netsim.IP]bool)
	for _, z := range d.Zombies {
		zombies[z.PrimaryIP()] = true
	}
	pool := make(map[netsim.IP]bool)
	for _, b := range d.Bystanders {
		pool[b.PrimaryIP()] = true
	}

	tests := []struct {
		name           string
		illegal, legit float64
		forged         func(netsim.IP) bool
	}{
		{"no spoofing", 0, 0, func(ip netsim.IP) bool { return zombies[ip] }},
		{"legitimate spoof", 0, 1, func(ip netsim.IP) bool { return pool[ip] && !zombies[ip] }},
		{"illegal spoof", 1, 0, func(ip netsim.IP) bool { return !d.Net.IsRoutable(ip) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec := DefaultWorkloadSpec()
			spec.TotalFlows = 10
			spec.TCPShare = 0.5
			spec.SpoofIllegalFraction, spec.SpoofLegitFraction = tt.illegal, tt.legit
			w, err := BuildWorkload(spec, d, sim.NewRNG(3))
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range w.Attack {
				if !tt.forged(a.Label().SrcIP) {
					t.Fatalf("flow %d: source IP %v is not what %s forges", a.ID(), a.Label().SrcIP, tt.name)
				}
				if !a.Malicious() {
					t.Fatal("attack source must be malicious")
				}
			}
		})
	}
}

func TestAttackSourceFloodsUnresponsively(t *testing.T) {
	d := testDomain(t)
	v := new(VictimServer).reset(d.Victim, 0)
	z := d.Zombies[0]
	a := new(PacedSource).reset(7, FlowAttack, pacing{rate: 500, size: DefaultDataSize}, z, flowLabel(z.PrimaryIP(), d.VictimIP(), 30000), sim.NewRNG(4))
	a.Start(0)
	if err := d.Net.Scheduler().RunUntil(1 * sim.Second); err != nil {
		t.Fatal(err)
	}
	firstSecond := a.PacketsSent()
	if err := d.Net.Scheduler().RunUntil(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	a.Stop()
	secondSecond := a.PacketsSent() - firstSecond
	// Despite the victim ACKing everything (TCP-marked attack), the rate
	// never adapts.
	if math.Abs(float64(firstSecond)-float64(secondSecond)) > 0.15*float64(firstSecond) {
		t.Fatalf("attack rate changed: %d then %d pkt/s", firstSecond, secondSecond)
	}
	if v.ReceivedMalicious() == 0 {
		t.Fatal("victim saw no attack packets")
	}
	if a.CurrentRate() != 500 {
		t.Fatal("CurrentRate mismatch")
	}
}

func TestVictimServerCounters(t *testing.T) {
	d := testDomain(t)
	v := new(VictimServer).reset(d.Victim, 0)
	good := &netsim.Packet{
		ID:    d.Net.NextPacketID(),
		Label: netsim.FlowLabel{SrcIP: d.Clients[0].PrimaryIP(), DstIP: d.VictimIP(), SrcPort: 1, DstPort: 80},
		Kind:  netsim.KindData, Proto: netsim.ProtoTCP, Seq: 1, Size: 500,
	}
	bad := &netsim.Packet{
		ID:    d.Net.NextPacketID(),
		Label: netsim.FlowLabel{SrcIP: d.Zombies[0].PrimaryIP(), DstIP: d.VictimIP(), SrcPort: 2, DstPort: 80},
		Kind:  netsim.KindData, Proto: netsim.ProtoUDP, Seq: 1, Size: 500, Malicious: true,
	}
	ack := &netsim.Packet{
		ID:    d.Net.NextPacketID(),
		Label: good.Label,
		Kind:  netsim.KindAck, Proto: netsim.ProtoTCP, Size: 40,
	}
	d.Clients[0].Send(good)
	d.Zombies[0].Send(bad)
	d.Clients[0].Send(ack)
	if err := d.Net.Scheduler().Run(); err != nil {
		t.Fatal(err)
	}
	if v.Received() != 2 || v.ReceivedLegitimate() != 1 || v.ReceivedMalicious() != 1 {
		t.Fatalf("victim counters: total=%d good=%d bad=%d", v.Received(), v.ReceivedLegitimate(), v.ReceivedMalicious())
	}
	// Only the TCP data packet is acknowledged; UDP and ACKs are not.
	if v.AcksGenerated() != 1 {
		t.Fatalf("acks generated = %d, want 1", v.AcksGenerated())
	}
	if v.Host() != d.Victim {
		t.Fatal("Host accessor mismatch")
	}
}

func TestWorkloadSpecCounts(t *testing.T) {
	tests := []struct {
		name    string
		spec    WorkloadSpec
		wantTCP int
	}{
		{
			name:    "paper default",
			spec:    WorkloadSpec{TotalFlows: 50, TCPShare: 0.95},
			wantTCP: 48, // round(47.5) rounds half away from zero
		},
		{
			name:    "all tcp still yields one attacker",
			spec:    WorkloadSpec{TotalFlows: 10, TCPShare: 1.0},
			wantTCP: 9,
		},
		{
			name:    "half and half",
			spec:    WorkloadSpec{TotalFlows: 20, TCPShare: 0.5},
			wantTCP: 10,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tcp, attack := tt.spec.Counts()
			if tcp+attack != tt.spec.TotalFlows {
				t.Fatalf("counts do not sum to V_t: %d+%d != %d", tcp, attack, tt.spec.TotalFlows)
			}
			if tcp != tt.wantTCP {
				t.Fatalf("counts = %d/%d, want tcp=%d", tcp, attack, tt.wantTCP)
			}
			if attack < 1 {
				t.Fatal("expected at least one attack flow")
			}
		})
	}
}

func TestWorkloadSpecValidate(t *testing.T) {
	good := DefaultWorkloadSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	// Flow k sends from port 10000 + k: the largest workload, flash crowd
	// included, has its last flow on port 65535.
	edge := good
	edge.TotalFlows, edge.FlashCrowdFlows = 55000, 536
	if err := edge.Validate(); err != nil {
		t.Fatalf("55 536 flows invalid: %v", err)
	}
	bad := []WorkloadSpec{
		{TotalFlows: 0, TCPShare: 0.5, AttackRate: 1, LegitRate: 1},
		{TotalFlows: 10, TCPShare: 1.5, AttackRate: 1, LegitRate: 1},
		{TotalFlows: 10, TCPShare: -0.1, AttackRate: 1, LegitRate: 1},
		{TotalFlows: 10, TCPShare: 0.5, AttackRate: 0, LegitRate: 1},
		{TotalFlows: 10, TCPShare: 0.5, AttackRate: 1, LegitRate: 1, SpoofIllegalFraction: 0.8, SpoofLegitFraction: 0.4},
		{TotalFlows: 10, TCPShare: 0.5, AttackRate: 1, LegitRate: 1, CoremeltShare: -0.1},
		{TotalFlows: 10, TCPShare: 0.5, AttackRate: 1, LegitRate: 1, CoremeltShare: 1.2},
		{TotalFlows: 10, TCPShare: 0.5, AttackRate: 1, LegitRate: 1, CoremeltShare: 0.6, ExtraVictimShare: 0.6},
	}
	for i, spec := range bad {
		if err := spec.Validate(); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("spec %d: want ErrBadSpec, got %v", i, err)
		}
	}
}

func TestBuildWorkload(t *testing.T) {
	d := testDomain(t)
	spec := DefaultWorkloadSpec()
	spec.TotalFlows = 30
	rng := sim.NewRNG(11)
	w, err := BuildWorkload(spec, d, rng)
	if err != nil {
		t.Fatalf("BuildWorkload: %v", err)
	}
	if len(w.Flows) != 30 {
		t.Fatalf("built %d flows, want 30", len(w.Flows))
	}
	if len(w.Legitimate)+len(w.Attack) != len(w.Flows) {
		t.Fatal("legitimate+attack does not cover all flows")
	}
	if len(w.Attack) < 1 {
		t.Fatal("no attack flows built")
	}
	// Labels must be unique across flows.
	seen := make(map[uint64]bool, len(w.Flows))
	for _, f := range w.Flows {
		h := f.Label().Hash()
		if seen[h] {
			t.Fatalf("duplicate flow label %v", f.Label())
		}
		seen[h] = true
	}
	// Attack flows must target the victim and be marked malicious.
	for _, f := range w.Attack {
		if f.Label().DstIP != d.VictimIP() || !f.Malicious() {
			t.Fatal("attack flow misconfigured")
		}
	}
	// Run the whole workload briefly and check traffic arrives.
	w.StartAll(spec, rng)
	if err := d.Net.Scheduler().RunUntil(1 * sim.Second); err != nil {
		t.Fatal(err)
	}
	w.StopAll()
	legit, attack := w.PacketsSent()
	if legit == 0 || attack == 0 {
		t.Fatalf("packets sent legit=%d attack=%d, want both > 0", legit, attack)
	}
	if w.Victim.Received() == 0 {
		t.Fatal("victim received nothing")
	}
}

func TestBuildWorkloadErrors(t *testing.T) {
	d := testDomain(t)
	if _, err := BuildWorkload(WorkloadSpec{}, d, sim.NewRNG(1)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("want ErrBadSpec, got %v", err)
	}
	// A domain without zombies cannot host attack flows.
	empty, err := topology.Build(topology.Config{
		NumRouters:        4,
		CoreLink:          topology.DefaultConfig().CoreLink,
		AccessLink:        topology.DefaultConfig().AccessLink,
		VictimLink:        topology.DefaultConfig().VictimLink,
		ClientsPerIngress: 0,
		ZombiesPerIngress: 0,
	}, sim.NewScheduler(), sim.NewRNG(1))
	if err != nil {
		t.Fatalf("build empty domain: %v", err)
	}
	if _, err := BuildWorkload(DefaultWorkloadSpec(), empty, sim.NewRNG(1)); !errors.Is(err, ErrNoSources) {
		t.Fatalf("want ErrNoSources, got %v", err)
	}
}

// TestWorkloadCoremeltTargetsBystanders checks the coremelt split: the
// configured share of attack flows must flood bystander hosts instead of the
// victim, stay marked malicious, and fail loudly on a bystander-less domain.
func TestWorkloadCoremeltTargetsBystanders(t *testing.T) {
	d := testDomain(t)
	spec := DefaultWorkloadSpec()
	spec.TotalFlows = 40
	spec.TCPShare = 0.5 // 20 attack flows
	spec.CoremeltShare = 0.5
	w, err := BuildWorkload(spec, d, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	bystanderIPs := make(map[netsim.IP]bool)
	for _, b := range d.Bystanders {
		bystanderIPs[b.PrimaryIP()] = true
	}
	coremelt := 0
	for _, f := range w.Attack {
		if !bystanderIPs[f.Label().DstIP] {
			continue
		}
		coremelt++
		if !f.Malicious() {
			t.Fatal("coremelt flow not marked malicious")
		}
	}
	if want := 10; coremelt != want {
		t.Fatalf("coremelt flows = %d, want %d (half of 20 attack flows)", coremelt, want)
	}

	// Without bystander hosts the same spec must be rejected at build time.
	cfg := topology.DefaultConfig()
	cfg.NumRouters = 10
	cfg.ClientsPerIngress = 3
	cfg.ZombiesPerIngress = 2
	cfg.BystanderHosts = 0
	bare, err := topology.Build(cfg, sim.NewScheduler(), sim.NewRNG(5))
	if err != nil {
		t.Fatalf("build bystander-less domain: %v", err)
	}
	if _, err := BuildWorkload(spec, bare, sim.NewRNG(3)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("want ErrBadSpec for coremelt without bystanders, got %v", err)
	}
}

func TestWorkloadSpoofMix(t *testing.T) {
	d := testDomain(t)
	spec := DefaultWorkloadSpec()
	spec.TotalFlows = 40
	spec.TCPShare = 0.5 // 20 attack flows
	spec.SpoofIllegalFraction = 0.25
	spec.SpoofLegitFraction = 0.5
	w, err := BuildWorkload(spec, d, sim.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	var illegal, legitSpoof, own int
	zombieIPs := make(map[netsim.IP]bool)
	for _, z := range d.Zombies {
		zombieIPs[z.PrimaryIP()] = true
	}
	for _, f := range w.Attack {
		src := f.Label().SrcIP
		switch {
		case !d.Net.IsRoutable(src):
			illegal++
		case zombieIPs[src]:
			own++
		default:
			legitSpoof++
		}
	}
	if illegal == 0 || legitSpoof == 0 || own == 0 {
		t.Fatalf("spoof mix: illegal=%d legit=%d own=%d, want all > 0", illegal, legitSpoof, own)
	}
	if illegal+legitSpoof+own != len(w.Attack) {
		t.Fatal("spoof categories do not cover all attack flows")
	}
}
