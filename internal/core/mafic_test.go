package core

import (
	"errors"
	"testing"

	"mafic/internal/flowtable"
	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// testEnv is a hand-built micro-topology: source host -- atr -- victim host,
// with a bystander host also attached to the ATR so spoofed-legitimate
// probes have somewhere to go.
type testEnv struct {
	net       *netsim.Network
	sched     *sim.Scheduler
	atr       *netsim.Router
	source    *netsim.Host
	victim    *netsim.Host
	bystander *netsim.Host
}

func newTestEnv(t *testing.T) *testEnv {
	t.Helper()
	sched := sim.NewScheduler()
	net := netsim.New(sched, sim.NewRNG(1))
	atr := net.AddRouter()
	source := net.AddHost(netsim.IP(0xc0a80001))
	victim := net.AddHost(netsim.IP(0x0a000001))
	bystander := net.AddHost(netsim.IP(0xcb007101))
	cfg := netsim.LinkConfig{BandwidthBps: 100e6, Delay: sim.Millisecond, QueueLen: 64}
	for _, h := range []*netsim.Host{source, victim, bystander} {
		h.AttachTo(atr.ID())
		if err := net.ConnectDuplex(h.ID(), atr.ID(), cfg); err != nil {
			t.Fatalf("connect: %v", err)
		}
		h.SetDefaultHandler(func(*netsim.Packet, sim.Time) {})
	}
	return &testEnv{net: net, sched: sched, atr: atr, source: source, victim: victim, bystander: bystander}
}

func (e *testEnv) defender(t *testing.T, mutate func(*Config)) *Defender {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := NewDefender(cfg, e.atr, sim.NewRNG(7))
	if err != nil {
		t.Fatalf("NewDefender: %v", err)
	}
	e.atr.AttachFilter(d)
	return d
}

func (e *testEnv) dataPacket(src netsim.IP, srcPort uint16, seq int64, malicious bool) *netsim.Packet {
	return &netsim.Packet{
		ID: e.net.NextPacketID(),
		Label: netsim.FlowLabel{
			SrcIP: src, DstIP: e.victim.PrimaryIP(), SrcPort: srcPort, DstPort: 80,
		},
		Kind: netsim.KindData, Proto: netsim.ProtoTCP, Seq: seq, Size: 500, Malicious: malicious,
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{name: "default", mutate: nil, ok: true},
		{name: "negative Pd", mutate: func(c *Config) { c.DropProbability = -0.1 }, ok: false},
		{name: "Pd above one", mutate: func(c *Config) { c.DropProbability = 1.5 }, ok: false},
		{name: "zero RTT", mutate: func(c *Config) { c.RTT = 0 }, ok: false},
		{name: "zero window", mutate: func(c *Config) { c.ProbeWindowRTTs = 0 }, ok: false},
		{name: "negative dup acks", mutate: func(c *Config) { c.DupAcks = -1 }, ok: false},
		{name: "hardened", mutate: func(c *Config) { *c = HardenedConfig() }, ok: true},
		{name: "negative reprobe idle", mutate: func(c *Config) { c.ReprobeAfterIdle = -sim.Millisecond }, ok: false},
		{name: "negative condemn probes", mutate: func(c *Config) { c.CondemnProbes = -1 }, ok: false},
		{name: "negative memory capacity", mutate: func(c *Config) { c.ProbeMemoryCapacity = -1 }, ok: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			if tt.mutate != nil {
				tt.mutate(&cfg)
			}
			err := cfg.Validate()
			if tt.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tt.ok && !errors.Is(err, ErrConfig) {
				t.Fatalf("want ErrConfig, got %v", err)
			}
		})
	}
}

func TestNewDefenderRequiresRouter(t *testing.T) {
	if _, err := NewDefender(DefaultConfig(), nil, nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig for nil router, got %v", err)
	}
}

func TestInactiveDefenderForwards(t *testing.T) {
	e := newTestEnv(t)
	d := e.defender(t, nil)
	pkt := e.dataPacket(e.source.PrimaryIP(), 1000, 1, false)
	if got := d.Handle(pkt, 0, e.atr); got != netsim.ActionForward {
		t.Fatal("inactive defender must forward")
	}
	if d.Stats().Examined != 0 {
		t.Fatal("inactive defender must not count packets")
	}
}

func TestNonVictimTrafficAndNonDataForwarded(t *testing.T) {
	e := newTestEnv(t)
	d := e.defender(t, nil)
	d.Activate(e.victim.PrimaryIP())

	other := e.dataPacket(e.source.PrimaryIP(), 1000, 1, false)
	other.Label.DstIP = e.bystander.PrimaryIP()
	if d.Handle(other, 0, e.atr) != netsim.ActionForward {
		t.Fatal("traffic to other destinations must pass")
	}
	for _, kind := range []netsim.PacketKind{netsim.KindAck, netsim.KindDupAck, netsim.KindProbe, netsim.KindControl} {
		pkt := e.dataPacket(e.source.PrimaryIP(), 1000, 1, false)
		pkt.Kind = kind
		if d.Handle(pkt, 0, e.atr) != netsim.ActionForward {
			t.Fatalf("%v packets must pass", kind)
		}
	}
	if d.Stats().Examined != 0 {
		t.Fatal("pass-through traffic must not be counted as examined")
	}
}

func TestIllegalSourceGoesToPDT(t *testing.T) {
	e := newTestEnv(t)
	d := e.defender(t, nil)
	d.Activate(e.victim.PrimaryIP())

	unroutable := netsim.IP(0x01020304)
	for i := int64(1); i <= 5; i++ {
		pkt := e.dataPacket(unroutable, 7777, i, true)
		if d.Handle(pkt, sim.Time(i)*sim.Millisecond, e.atr) != netsim.ActionDrop {
			t.Fatal("illegal-source packet must be dropped")
		}
	}
	st := d.Stats()
	if st.DroppedIllegal != 5 || st.Dropped != 5 {
		t.Fatalf("illegal drops = %d/%d, want 5/5", st.DroppedIllegal, st.Dropped)
	}
	if st.FlowsIllegal != 1 {
		t.Fatalf("illegal flows = %d, want 1 (same flow label)", st.FlowsIllegal)
	}
	if _, state := d.Tables().Lookup((netsim.FlowLabel{SrcIP: unroutable, DstIP: e.victim.PrimaryIP(), SrcPort: 7777, DstPort: 80}).Hash()); state != flowtable.StatePermanentDrop {
		t.Fatal("illegal flow should be in the PDT")
	}
	if st.ProbesSent != 0 {
		t.Fatal("no probes should be sent for illegal-source flows")
	}
}

func TestFirstSightDropStartsProbe(t *testing.T) {
	e := newTestEnv(t)
	d := e.defender(t, func(c *Config) { c.DropProbability = 1.0 })
	d.Activate(e.victim.PrimaryIP())

	pkt := e.dataPacket(e.source.PrimaryIP(), 1000, 1, false)
	if d.Handle(pkt, 0, e.atr) != netsim.ActionDrop {
		t.Fatal("with Pd=1 the first packet must be dropped")
	}
	st := d.Stats()
	if st.FlowsProbed != 1 {
		t.Fatalf("flows probed = %d, want 1", st.FlowsProbed)
	}
	if _, state := d.Tables().Lookup(pkt.Label.Hash()); state != flowtable.StateSuspicious {
		t.Fatal("flow should be in the SFT after the first drop")
	}
	// The duplicated ACK probes are injected one RTT into the window and
	// must reach the claimed source.
	probes := 0
	e.source.Register(pkt.Label.Reverse(), func(p *netsim.Packet, _ sim.Time) {
		if p.Kind == netsim.KindDupAck {
			probes++
		}
	})
	if err := e.sched.RunUntil(d.Config().RTT + 50*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().ProbesSent; got != uint64(d.Config().DupAcks) {
		t.Fatalf("probes sent = %d, want %d", got, d.Config().DupAcks)
	}
	if probes != d.Config().DupAcks {
		t.Fatalf("probes delivered = %d, want %d", probes, d.Config().DupAcks)
	}
}

func TestZeroDropProbabilityNeverProbes(t *testing.T) {
	e := newTestEnv(t)
	d := e.defender(t, func(c *Config) { c.DropProbability = 0 })
	d.Activate(e.victim.PrimaryIP())
	for i := int64(1); i <= 100; i++ {
		pkt := e.dataPacket(e.source.PrimaryIP(), 1000, i, false)
		if d.Handle(pkt, sim.Time(i)*sim.Millisecond, e.atr) != netsim.ActionForward {
			t.Fatal("with Pd=0 every packet must be forwarded")
		}
	}
	if d.Stats().FlowsProbed != 0 {
		t.Fatal("no flow should enter the SFT with Pd=0")
	}
}

// driveFlow pushes packets of one flow through the defender: `first` packets
// spread over the first half of the probing window and `second` packets over
// the second half, then runs the scheduler past the classification deadline.
func driveFlow(t *testing.T, e *testEnv, d *Defender, src netsim.IP, srcPort uint16, first, second int, malicious bool) netsim.FlowLabel {
	t.Helper()
	window := sim.Time(float64(d.Config().RTT) * d.Config().ProbeWindowRTTs)
	half := window / 2
	label := netsim.FlowLabel{SrcIP: src, DstIP: e.victim.PrimaryIP(), SrcPort: srcPort, DstPort: 80}

	seq := int64(0)
	emit := func(at sim.Time) {
		seq++
		pkt := e.dataPacket(src, srcPort, seq, malicious)
		d.Handle(pkt, at, e.atr)
	}
	// First packet at t=0 opens the SFT entry (Pd must be 1 in tests
	// using this helper so the flow enters the SFT deterministically).
	emit(0)
	for i := 0; i < first; i++ {
		emit(sim.Time(i+1) * half / sim.Time(first+1))
	}
	for i := 0; i < second; i++ {
		emit(half + sim.Time(i+1)*half/sim.Time(second+1))
	}
	if err := e.sched.RunUntil(window + sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	return label
}

func TestUnresponsiveFlowCondemned(t *testing.T) {
	e := newTestEnv(t)
	d := e.defender(t, func(c *Config) { c.DropProbability = 1.0 })
	d.Activate(e.victim.PrimaryIP())

	// Constant arrivals through both halves of the window: not responsive.
	label := driveFlow(t, e, d, e.bystander.PrimaryIP(), 5555, 10, 10, true)

	if _, state := d.Tables().Lookup(label.Hash()); state != flowtable.StatePermanentDrop {
		t.Fatalf("unresponsive flow in %v, want PDT", state)
	}
	if d.Stats().FlowsCondemned != 1 {
		t.Fatalf("condemned = %d, want 1", d.Stats().FlowsCondemned)
	}
	// Every later packet of the flow is dropped unconditionally.
	pkt := e.dataPacket(e.bystander.PrimaryIP(), 5555, 99, true)
	if d.Handle(pkt, e.sched.Now()+sim.Millisecond, e.atr) != netsim.ActionDrop {
		t.Fatal("packets of a condemned flow must be dropped")
	}
	if d.Stats().DroppedPDT == 0 {
		t.Fatal("PDT drop counter not updated")
	}
}

func TestResponsiveFlowPromoted(t *testing.T) {
	e := newTestEnv(t)
	d := e.defender(t, func(c *Config) { c.DropProbability = 1.0 })
	d.Activate(e.victim.PrimaryIP())

	// Many arrivals in the first half, almost none in the second: the
	// source backed off after the probe.
	label := driveFlow(t, e, d, e.source.PrimaryIP(), 1000, 12, 1, false)

	if _, state := d.Tables().Lookup(label.Hash()); state != flowtable.StateNice {
		t.Fatalf("responsive flow in %v, want NFT", state)
	}
	if d.Stats().FlowsNice != 1 {
		t.Fatalf("nice flows = %d, want 1", d.Stats().FlowsNice)
	}
	// Later packets of a nice flow are never dropped again.
	pkt := e.dataPacket(e.source.PrimaryIP(), 1000, 99, false)
	if d.Handle(pkt, e.sched.Now()+sim.Millisecond, e.atr) != netsim.ActionForward {
		t.Fatal("packets of a nice flow must be forwarded")
	}
}

func TestSparseFlowGetsBenefitOfDoubt(t *testing.T) {
	e := newTestEnv(t)
	d := e.defender(t, func(c *Config) {
		c.DropProbability = 1.0
		c.MinProbePackets = 4
	})
	d.Activate(e.victim.PrimaryIP())

	// Only two packets inside the window: below MinProbePackets.
	label := driveFlow(t, e, d, e.source.PrimaryIP(), 2000, 1, 1, false)
	if _, state := d.Tables().Lookup(label.Hash()); state != flowtable.StateNice {
		t.Fatalf("sparse flow in %v, want NFT", state)
	}
}

func TestLateOnlyFlowCondemned(t *testing.T) {
	e := newTestEnv(t)
	d := e.defender(t, func(c *Config) {
		c.DropProbability = 1.0
		c.MinProbePackets = 4
	})
	d.Activate(e.victim.PrimaryIP())

	// Nothing in the first half and a burst in the second half: the flow
	// ramped up after the probe instead of backing off.
	label := driveFlow(t, e, d, e.bystander.PrimaryIP(), 3000, 0, 10, true)
	if _, state := d.Tables().Lookup(label.Hash()); state != flowtable.StatePermanentDrop {
		t.Fatalf("late-ramp flow in %v, want PDT", state)
	}
}

// TestLongProbeWindowCondemnsAHalvingFlow pins that classify compares the
// arrival rates of a probing window's two intervals, not their counts. One
// flow arrives every RTT/10 and halves its rate at the probe. With the
// paper's window (2 × RTT, probe after 1 RTT) both intervals are 1 RTT long
// and the response count is half the baseline count. With a 4 × RTT window a
// 1-RTT baseline count of 10 meets a 3-RTT response count of 15: at half the
// rate, but 1.5 times the count. Both flows are promoted. A classify that
// compares raw counts condemns the second — the artifact that put the
// ablation-probe-window series at 80.4–97.4 % at 4 × RTT — and fails here;
// the name is the finding this test first pinned.
func TestLongProbeWindowCondemnsAHalvingFlow(t *testing.T) {
	for _, tc := range []struct {
		windowRTTs         float64
		baseline, response int
		want               flowtable.State
	}{
		{windowRTTs: 2, baseline: 10, response: 5, want: flowtable.StateNice},
		{windowRTTs: 4, baseline: 10, response: 15, want: flowtable.StateNice},
	} {
		e := newTestEnv(t)
		d := e.defender(t, func(c *Config) {
			c.DropProbability = 1
			c.ProbeWindowRTTs = tc.windowRTTs
			c.ProbeDelayRTTs = 1
		})
		d.Activate(e.victim.PrimaryIP())
		rtt := d.Config().RTT
		window := sim.Time(float64(rtt) * tc.windowRTTs)
		flow := e.dataPacket(e.source.PrimaryIP(), 1000, 0, false).Label.Hash()
		seq := int64(0)
		for at := sim.Time(0); at < window; seq++ {
			d.Handle(e.dataPacket(e.source.PrimaryIP(), 1000, seq, false), at, e.atr)
			if at < rtt {
				at += rtt / 10
			} else {
				at += rtt / 5
			}
		}
		entry, _ := d.Tables().Lookup(flow)
		if entry == nil || entry.BaselineCount != tc.baseline || entry.ResponseCount != tc.response {
			t.Fatalf("%v × RTT window: counts %+v, want baseline %d, response %d", tc.windowRTTs, entry, tc.baseline, tc.response)
		}
		if err := e.sched.RunUntil(window + sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if _, state := d.Tables().Lookup(flow); state != tc.want {
			t.Errorf("%v × RTT window: a flow that halves at the probe is in %v, want %v", tc.windowRTTs, state, tc.want)
		}
	}
}

func TestActivateIdempotentAndRetarget(t *testing.T) {
	e := newTestEnv(t)
	d := e.defender(t, func(c *Config) { c.DropProbability = 1.0 })
	d.Activate(e.victim.PrimaryIP())

	pkt := e.dataPacket(e.source.PrimaryIP(), 1000, 1, false)
	d.Handle(pkt, 0, e.atr)
	if _, state := d.Tables().Lookup(pkt.Label.Hash()); state != flowtable.StateSuspicious {
		t.Fatal("setup: flow should be suspicious")
	}
	// Re-activating with the same victim keeps state.
	d.Activate(e.victim.PrimaryIP())
	if _, state := d.Tables().Lookup(pkt.Label.Hash()); state != flowtable.StateSuspicious {
		t.Fatal("re-activation with the same victim must keep tables")
	}
	// Switching victims flushes state.
	d.Activate(e.bystander.PrimaryIP())
	if _, state := d.Tables().Lookup(pkt.Label.Hash()); state != flowtable.StateUnknown {
		t.Fatal("switching victims must flush tables")
	}
	if d.VictimIP() != e.bystander.PrimaryIP() {
		t.Fatal("victim address not updated")
	}
}

// TestClassificationSkippedAfterRetarget pins the stale-window check: a probe
// cycle whose flow entry was flushed (here by switching victims) must not
// classify the entry's recycled slot when its window closes.
func TestClassificationSkippedAfterRetarget(t *testing.T) {
	e := newTestEnv(t)
	d := e.defender(t, func(c *Config) { c.DropProbability = 1.0 })
	d.Activate(e.victim.PrimaryIP())
	pkt := e.dataPacket(e.bystander.PrimaryIP(), 4000, 1, true)
	d.Handle(pkt, 0, e.atr)
	d.Activate(e.bystander.PrimaryIP())
	// Running past the probe deadline must not classify anything.
	if err := e.sched.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.FlowsNice != 0 || st.FlowsCondemned != 0 {
		t.Fatal("classification must not run after the tables were flushed")
	}
}

func TestStatsAccounting(t *testing.T) {
	e := newTestEnv(t)
	d := e.defender(t, func(c *Config) { c.DropProbability = 0.5 })
	d.Activate(e.victim.PrimaryIP())
	const n = 2000
	for i := int64(0); i < n; i++ {
		pkt := e.dataPacket(e.source.PrimaryIP(), uint16(1000+i%8), i, false)
		d.Handle(pkt, sim.Time(i)*100*sim.Microsecond, e.atr)
	}
	st := d.Stats()
	if st.Examined != n {
		t.Fatalf("examined = %d, want %d", st.Examined, n)
	}
	if st.Dropped+st.Forwarded != st.Examined {
		t.Fatalf("dropped(%d)+forwarded(%d) != examined(%d)", st.Dropped, st.Forwarded, st.Examined)
	}
	if st.Dropped != st.DroppedIllegal+st.DroppedPDT+st.DroppedProbing {
		t.Fatal("drop reason counters do not sum to total drops")
	}
	ratio := float64(st.Dropped) / float64(st.Examined)
	if ratio < 0.35 || ratio > 0.65 {
		t.Fatalf("drop ratio %.2f too far from Pd=0.5 during probing", ratio)
	}
}

func TestIdleNiceFlowReprobedAndCondemnedByMemory(t *testing.T) {
	e := newTestEnv(t)
	d := e.defender(t, func(c *Config) {
		c.DropProbability = 1.0
		c.ReprobeAfterIdle = 100 * sim.Millisecond
		c.CondemnProbes = 2
	})
	d.Activate(e.victim.PrimaryIP())

	// Probe 1: the flow backs off inside the window and earns the NFT.
	label := driveFlow(t, e, d, e.source.PrimaryIP(), 1000, 12, 1, false)
	if _, state := d.Tables().Lookup(label.Hash()); state != flowtable.StateNice {
		t.Fatalf("setup: flow in %v, want NFT", state)
	}
	if d.ProbeMemorySize() != 1 {
		t.Fatalf("probe memory tracks %d flows, want 1", d.ProbeMemorySize())
	}

	// The source goes silent for a rotation slot, then returns: its nice
	// classification must be revoked and a second probe cycle must open.
	window := sim.Time(float64(d.Config().RTT) * d.Config().ProbeWindowRTTs)
	back := e.sched.Now() + 150*sim.Millisecond
	seq := int64(100)
	emit := func(at sim.Time) {
		seq++
		d.Handle(e.dataPacket(e.source.PrimaryIP(), 1000, seq, false), at, e.atr)
	}
	emit(back)
	if got := d.Stats().FlowsReprobed; got != 1 {
		t.Fatalf("flows reprobed = %d, want 1", got)
	}
	if _, state := d.Tables().Lookup(label.Hash()); state != flowtable.StateSuspicious {
		t.Fatalf("returned flow in %v, want SFT", state)
	}

	// Probe 2: the flow fakes responsiveness again — but the probing memory
	// has now seen it twice, so classification condemns it anyway.
	half := window / 2
	for i := 0; i < 10; i++ {
		emit(back + sim.Time(i+1)*half/12)
	}
	if err := e.sched.RunUntil(back + window + sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, state := d.Tables().Lookup(label.Hash()); state != flowtable.StatePermanentDrop {
		t.Fatalf("twice-probed flow in %v, want PDT", state)
	}
	if got := d.Stats().FlowsRepeatCondemned; got != 1 {
		t.Fatalf("repeat-condemned = %d, want 1", got)
	}
}

func TestContinuousNiceFlowNeverReprobed(t *testing.T) {
	e := newTestEnv(t)
	d := e.defender(t, func(c *Config) {
		c.DropProbability = 1.0
		c.ReprobeAfterIdle = 100 * sim.Millisecond
		c.CondemnProbes = 2
	})
	d.Activate(e.victim.PrimaryIP())

	label := driveFlow(t, e, d, e.source.PrimaryIP(), 1000, 12, 1, false)
	if _, state := d.Tables().Lookup(label.Hash()); state != flowtable.StateNice {
		t.Fatalf("setup: flow in %v, want NFT", state)
	}
	// Steady pacing well under the idle threshold, for several thresholds'
	// worth of time: the hardened defender must leave the flow alone.
	seq := int64(100)
	for at := e.sched.Now(); at < e.sched.Now()+400*sim.Millisecond; at += 10 * sim.Millisecond {
		seq++
		if d.Handle(e.dataPacket(e.source.PrimaryIP(), 1000, seq, false), at, e.atr) != netsim.ActionForward {
			t.Fatal("steadily pacing nice flow must be forwarded")
		}
	}
	if got := d.Stats().FlowsReprobed; got != 0 {
		t.Fatalf("flows reprobed = %d, want 0", got)
	}
}

func TestProbeMemoryCapacityStopsAdmitting(t *testing.T) {
	e := newTestEnv(t)
	d := e.defender(t, func(c *Config) {
		c.DropProbability = 1.0
		c.CondemnProbes = 1
		c.ProbeMemoryCapacity = 1
	})
	d.Activate(e.victim.PrimaryIP())

	d.Handle(e.dataPacket(e.source.PrimaryIP(), 1000, 1, false), 0, e.atr)
	d.Handle(e.dataPacket(e.source.PrimaryIP(), 2000, 1, false), 0, e.atr)
	if d.Stats().FlowsProbed != 2 {
		t.Fatalf("flows probed = %d, want 2", d.Stats().FlowsProbed)
	}
	if d.ProbeMemorySize() != 1 {
		t.Fatalf("probe memory tracks %d flows, want capacity-bounded 1", d.ProbeMemorySize())
	}
}

func TestPaperConfigHasNoProbeMemory(t *testing.T) {
	e := newTestEnv(t)
	d := e.defender(t, func(c *Config) { c.DropProbability = 1.0 })
	d.Activate(e.victim.PrimaryIP())
	d.Handle(e.dataPacket(e.source.PrimaryIP(), 1000, 1, false), 0, e.atr)
	if d.ProbeMemorySize() != 0 {
		t.Fatal("paper-faithful config must not build a probing memory")
	}
}

func TestDefenderAccessors(t *testing.T) {
	e := newTestEnv(t)
	d := e.defender(t, nil)
	if d.Name() != FilterName {
		t.Fatal("Name mismatch")
	}
	if d.Router() != e.atr {
		t.Fatal("Router mismatch")
	}
	if d.Active() {
		t.Fatal("new defender should be inactive")
	}
	if d.Config().DropProbability != DefaultConfig().DropProbability {
		t.Fatal("Config accessor mismatch")
	}
}
