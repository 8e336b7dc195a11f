package core

import (
	"testing"

	"mafic/internal/flowtable"
	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// TestProbeCycleSteadyStateDoesNotAllocate pins the slab-backed probing
// path: once the flow tables, probe-record slabs, packet pool and scheduler
// arena are warm, a complete probe cycle — first sight, SFT insert, dup-ACK
// injection, window-close classification, table flush — performs no heap
// allocation.
func TestProbeCycleSteadyStateDoesNotAllocate(t *testing.T) {
	e := newTestEnv(t)
	d := e.defender(t, func(c *Config) { c.DropProbability = 1 })
	victimIP := e.victim.PrimaryIP()

	label := netsim.FlowLabel{
		SrcIP: e.source.PrimaryIP(), DstIP: victimIP, SrcPort: 4242, DstPort: 80,
	}
	pkt := &netsim.Packet{
		Label: label, Kind: netsim.KindData, Proto: netsim.ProtoTCP, Seq: 1, Size: 500,
	}
	pkt.SetFlowHash(label.Hash())

	cycle := func() {
		d.Activate(victimIP)
		if got := d.Handle(pkt, e.sched.Now(), e.atr); got != netsim.ActionDrop {
			t.Fatalf("first-sight packet not dropped into probing: %v", got)
		}
		// Drain the probe injection and the window-close classification.
		if err := e.sched.Run(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		d.Tables().Flush()
	}
	for i := 0; i < 4; i++ {
		cycle()
	}

	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state probe cycle allocated %.1f times per cycle", allocs)
	}
}

// TestHardenedProbeCycleSteadyStateDoesNotAllocate is the hardened twin of
// the pin above: with probing memory enabled, the steady-state cycle walks
// the repeat-condemnation path (memory lookup, saturating increment,
// classification override into the PDT) and must still not allocate.
func TestHardenedProbeCycleSteadyStateDoesNotAllocate(t *testing.T) {
	e := newTestEnv(t)
	d := e.defender(t, func(c *Config) {
		h := HardenedConfig()
		c.ReprobeAfterIdle = h.ReprobeAfterIdle
		c.CondemnProbes = h.CondemnProbes
		c.ProbeMemoryCapacity = h.ProbeMemoryCapacity
		c.DropProbability = 1
	})
	victimIP := e.victim.PrimaryIP()

	label := netsim.FlowLabel{
		SrcIP: e.source.PrimaryIP(), DstIP: victimIP, SrcPort: 4242, DstPort: 80,
	}
	pkt := &netsim.Packet{
		Label: label, Kind: netsim.KindData, Proto: netsim.ProtoTCP, Seq: 1, Size: 500,
	}
	pkt.SetFlowHash(label.Hash())

	cycle := func() {
		d.Activate(victimIP)
		if got := d.Handle(pkt, e.sched.Now(), e.atr); got != netsim.ActionDrop {
			t.Fatalf("first-sight packet not dropped into probing: %v", got)
		}
		if err := e.sched.Run(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		d.Tables().Flush()
	}
	// Warm past CondemnProbes so steady-state cycles condemn via memory.
	for i := 0; i < 4; i++ {
		cycle()
	}
	if got := d.Stats().FlowsRepeatCondemned; got == 0 {
		t.Fatal("warmup never hit the repeat-condemnation path")
	}

	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("hardened steady-state probe cycle allocated %.1f times per cycle", allocs)
	}
	if d.ProbeMemorySize() != 1 {
		t.Fatalf("probing memory tracks %d flows, want 1", d.ProbeMemorySize())
	}
}

// TestHardenedReprobeSteadyStateDoesNotAllocate pins the other hardened hot
// path: an established NFT flow that goes idle past ReprobeAfterIdle is
// demoted and re-probed on its next packet. Once warm, a full idle→reprobe→
// re-promotion cycle (packet handling, memory bump, probe injection,
// window-close classification) performs no heap allocation.
func TestHardenedReprobeSteadyStateDoesNotAllocate(t *testing.T) {
	e := newTestEnv(t)
	d := e.defender(t, func(c *Config) {
		c.ReprobeAfterIdle = 100 * sim.Millisecond
		// High enough that the flow is re-promoted every cycle instead of
		// landing in the PDT, so the reprobe path stays hot.
		c.CondemnProbes = 1 << 14
		c.DropProbability = 1
	})
	victimIP := e.victim.PrimaryIP()
	d.Activate(victimIP)

	label := netsim.FlowLabel{
		SrcIP: e.source.PrimaryIP(), DstIP: victimIP, SrcPort: 4243, DstPort: 80,
	}
	pkt := &netsim.Packet{
		Label: label, Kind: netsim.KindData, Proto: netsim.ProtoTCP, Seq: 1, Size: 500,
	}
	pkt.SetFlowHash(label.Hash())

	window := d.Config().probeWindow()
	idle := d.Config().ReprobeAfterIdle
	now := sim.Time(0)

	cycle := func() {
		now += idle + window
		d.Handle(pkt, now, e.atr)
		if err := e.sched.RunUntil(now + window + sim.Millisecond); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if got := d.Stats().FlowsReprobed; got < 3 {
		t.Fatalf("warmup reprobed %d times, want >= 3", got)
	}

	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("hardened reprobe cycle allocated %.1f times per cycle", allocs)
	}
}

// TestDefenderReleaseReuse guards defender reuse hygiene: a defender reset
// for the next run must come back with zeroed stats, empty tables, empty
// probing memory, the new run's wiring and a probe-record free list rebuilt
// from its slabs — a record still held by an event that never fired included.
func TestDefenderReleaseReuse(t *testing.T) {
	e := newTestEnv(t)
	d := e.defender(t, func(c *Config) {
		c.DropProbability = 1
		c.CondemnProbes = 1
	})
	d.Activate(e.victim.PrimaryIP())
	pkt := e.dataPacket(e.source.PrimaryIP(), 999, 1, true)
	pkt.SetFlowHash(pkt.Label.Hash())
	d.Handle(pkt, 0, e.atr)
	if d.Stats().FlowsProbed != 1 {
		t.Fatalf("setup: expected one probed flow, got %+v", d.Stats())
	}
	if d.ProbeMemorySize() != 1 {
		t.Fatalf("setup: probing memory tracks %d flows, want 1", d.ProbeMemorySize())
	}
	// The probing cycle's events never fire: the run ends inside the window,
	// with its record off the free list.
	freeRecords := func() (n int) {
		for r := d.probeFree; r != nil; r = r.next {
			if r.entry != nil {
				t.Fatal("a free probe record still points at a flow entry")
			}
			n++
		}
		return n
	}
	slots := probeChunk * len(d.probeChunks)
	if free := freeRecords(); free != slots-1 {
		t.Fatalf("setup: %d of %d probe records free, want all but the cycle's", free, slots)
	}

	if err := d.Reset(DefaultConfig(), e.atr, sim.NewRNG(3)); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if d.Active() {
		t.Fatal("reset defender still active")
	}
	if s := d.Stats(); s != (Stats{}) {
		t.Fatalf("reset defender kept stats: %+v", s)
	}
	if sft, nft, pdt := d.Tables().Sizes(); sft+nft+pdt != 0 {
		t.Fatalf("reset defender kept table entries: %d/%d/%d", sft, nft, pdt)
	}
	if _, state := d.Tables().Lookup(pkt.FlowHash()); state != flowtable.StateUnknown {
		t.Fatalf("old flow still tracked after reset: %v", state)
	}
	if d.ProbeMemorySize() != 0 {
		t.Fatalf("reset defender kept %d probing-memory entries", d.ProbeMemorySize())
	}
	if d.Config() != DefaultConfig() || d.Router() != e.atr {
		t.Fatal("reset defender is not wired to the new run")
	}
	if free := freeRecords(); free != slots {
		t.Fatalf("free list holds %d of the %d slab records after Reset", free, slots)
	}
}
