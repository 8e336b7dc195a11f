// Package core implements the MAFIC algorithm itself — MAlicious Flow
// Identification and Cutoff (paper Section III): adaptive probabilistic
// dropping of victim-bound packets at an attack-transit router, duplicated
// ACK probing of flow sources, and classification of each flow into the
// Nice Flow Table or Permanently Drop Table depending on whether its arrival
// rate backs off within the 2×RTT probing window.
//
// The Defender type attaches to a router as a packet filter and mirrors the
// control flow of the paper's Figure 2 exactly; see Handle. Reset binds a
// defender to the next run's router in place, keeping its flow tables and
// probe-record slabs: whoever runs many simulations keeps its defenders and
// resets them, as experiment's run bundle does, one per ingress router.
package core

import (
	"errors"
	"fmt"

	"mafic/internal/flowtable"
	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// FilterName is the name the defender registers under in drop accounting.
const FilterName = "mafic"

// Config tunes a MAFIC defender. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// DropProbability is P_d, the probability with which packets of
	// unclassified and suspicious flows are dropped (paper default 0.9).
	DropProbability float64
	// RTT is the round-trip-time estimate used to size the probing
	// window. The paper reads it from TCP timestamps; the simulator uses
	// a configured estimate derived from the topology.
	RTT sim.Time
	// ProbeWindowRTTs is the probing window length in RTTs (paper: 2).
	ProbeWindowRTTs float64
	// ProbeDelayRTTs is how long after a flow enters the SFT the
	// duplicated-ACK probe is injected, in RTTs. The interval before the
	// probe measures the flow's undisturbed arrival rate; the interval
	// after it measures the reaction. The default of 1 RTT splits the
	// paper's 2×RTT window evenly.
	ProbeDelayRTTs float64
	// ResponseFactor is the maximum ratio of the response interval's
	// arrival rate to the baseline interval's for a flow to be considered
	// responsive (it backed off).
	ResponseFactor float64
	// MinProbePackets is the minimum number of packets that must arrive
	// during the probing window before a flow can be condemned; sparser
	// flows get the benefit of the doubt and are promoted. This keeps
	// low-rate legitimate flows out of the PDT.
	MinProbePackets int
	// DupAcks is how many duplicated ACK probes are sent toward a flow's
	// source when it enters the SFT (3 triggers TCP fast retransmit).
	DupAcks int
	// ProbeSize is the wire size of each probe packet in bytes.
	ProbeSize int
	// TableCapacity bounds each of the SFT/NFT/PDT; zero is unbounded.
	TableCapacity int

	// ReprobeAfterIdle, when positive, hardens the defender against
	// source-rotation attacks: an NFT flow whose inter-packet gap exceeds
	// this duration is demoted back to the SFT and re-probed instead of
	// keeping its nice classification forever. Legitimate TCP flows pace
	// continuously at cwnd/RTT even after a timeout, so only sources that
	// go silent for whole rotation slots trip the demotion. Zero keeps the
	// paper's behavior: promotion to the NFT is permanent.
	ReprobeAfterIdle sim.Time
	// CondemnProbes, when positive, is the probing-memory threshold: a
	// flow that has entered the SFT this many times is condemned at its
	// next classification regardless of how responsive it appears. The
	// defender remembers probe counts per flow across table flushes, so a
	// rotating source cannot reset suspicion by going quiet. Zero disables
	// the memory (paper behavior: each probe window judges in isolation).
	CondemnProbes int
	// ProbeMemoryCapacity bounds the probing-memory table used by
	// CondemnProbes; once full, new flows are no longer tracked (existing
	// suspicion is never evicted). Zero is unbounded.
	ProbeMemoryCapacity int
}

// DefaultConfig returns the paper's default parameters (Table II: P_d = 90%,
// probing window = 2×RTT) with simulator-appropriate auxiliary settings.
func DefaultConfig() Config {
	return Config{
		DropProbability: 0.90,
		RTT:             40 * sim.Millisecond,
		ProbeWindowRTTs: 2,
		ProbeDelayRTTs:  1,
		ResponseFactor:  0.70,
		MinProbePackets: 4,
		DupAcks:         3,
		ProbeSize:       40,
		TableCapacity:   0,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.DropProbability < 0 || c.DropProbability > 1 {
		return fmt.Errorf("%w: drop probability %v", ErrConfig, c.DropProbability)
	}
	if c.RTT <= 0 {
		return fmt.Errorf("%w: RTT must be positive", ErrConfig)
	}
	if c.ProbeWindowRTTs <= 0 {
		return fmt.Errorf("%w: probe window must be positive", ErrConfig)
	}
	if c.DupAcks < 0 {
		return fmt.Errorf("%w: dup-ACK count must be non-negative", ErrConfig)
	}
	if c.ProbeDelayRTTs < 0 || c.ResponseFactor < 0 || c.MinProbePackets < 0 {
		return fmt.Errorf("%w: probe delay %v RTTs, response factor %v and minimum probe packets %d must be non-negative",
			ErrConfig, c.ProbeDelayRTTs, c.ResponseFactor, c.MinProbePackets)
	}
	if c.ProbeSize <= 0 || c.ProbeSize > netsim.MaxPacketSize {
		return fmt.Errorf("%w: probe size %d outside [1,%d]", ErrConfig, c.ProbeSize, netsim.MaxPacketSize)
	}
	if c.TableCapacity < 0 {
		return fmt.Errorf("%w: table capacity %d must be non-negative", ErrConfig, c.TableCapacity)
	}
	if c.ReprobeAfterIdle < 0 {
		return fmt.Errorf("%w: re-probe idle threshold must be non-negative", ErrConfig)
	}
	if c.CondemnProbes < 0 {
		return fmt.Errorf("%w: condemn-probes threshold must be non-negative", ErrConfig)
	}
	if c.ProbeMemoryCapacity < 0 {
		return fmt.Errorf("%w: probe-memory capacity must be non-negative", ErrConfig)
	}
	return nil
}

// HardenedConfig returns DefaultConfig with the anti-rotation hardening
// enabled: NFT flows idle for three RTTs are re-probed, and a flow probed
// three times is condemned outright. Legitimate TCP sources pace continuously
// (their inter-packet gap is bounded by cwnd/RTT pacing, well under an RTT
// even after a timeout collapse), so in practice only sources that fall
// silent for whole rotation slots are demoted and re-counted.
func HardenedConfig() Config {
	c := DefaultConfig()
	c.ReprobeAfterIdle = 3 * c.RTT
	c.CondemnProbes = 3
	c.ProbeMemoryCapacity = 1 << 16
	return c
}

// ErrConfig is returned for invalid configurations.
var ErrConfig = errors.New("mafic: invalid configuration")

// probeWindow returns the length of the probing window.
func (c Config) probeWindow() sim.Time {
	return sim.Time(float64(c.RTT) * c.ProbeWindowRTTs)
}

// probeDelayRTTs returns how long after SFT insertion the probe is
// injected, in RTTs, clamped inside the probing window.
func (c Config) probeDelayRTTs() float64 {
	if c.ProbeDelayRTTs <= 0 || c.ProbeDelayRTTs >= c.ProbeWindowRTTs {
		return c.ProbeWindowRTTs / 2
	}
	return c.ProbeDelayRTTs
}

// probeDelay returns how long after SFT insertion the probe is injected.
func (c Config) probeDelay() sim.Time {
	return sim.Time(float64(c.RTT) * c.probeDelayRTTs())
}

// responseScale is the response interval's length over the baseline
// interval's, (window − delay) / delay. It is computed in RTTs so that it is
// exactly 1 whenever the intervals are equal — the paper's 2 × RTT window
// probed after 1 RTT, and any window whose delay clamps to its half — which
// leaves classify's bound there bit-identical to a comparison of raw counts.
func (c Config) responseScale() float64 {
	delay := c.probeDelayRTTs()
	return (c.ProbeWindowRTTs - delay) / delay
}

// DropReason explains why the defender discarded a packet.
type DropReason int

// Drop reasons.
const (
	// DropIllegalSource marks drops of packets with unroutable sources.
	DropIllegalSource DropReason = iota + 1
	// DropPermanent marks drops of flows already condemned to the PDT.
	DropPermanent
	// DropProbing marks probabilistic drops during the probing phase
	// (first-sight and SFT packets).
	DropProbing
)

// String implements fmt.Stringer.
func (r DropReason) String() string {
	switch r {
	case DropIllegalSource:
		return "illegal-source"
	case DropPermanent:
		return "pdt"
	case DropProbing:
		return "probing"
	default:
		return "unknown"
	}
}

// DropObserver receives a callback for every packet the defender drops,
// with the reason. Metrics collection uses it to attribute collateral damage
// (the packet's ground-truth fields are visible to the observer but never to
// the defender's own decisions).
type DropObserver func(pkt *netsim.Packet, reason DropReason, now sim.Time)

// Stats aggregates a defender's packet- and flow-level counters.
type Stats struct {
	// Examined counts victim-bound data packets inspected while active.
	Examined uint64
	// Forwarded counts inspected packets passed on toward the victim.
	Forwarded uint64
	// Dropped counts inspected packets discarded, split by reason below.
	Dropped uint64
	// DroppedIllegal counts drops due to unroutable source addresses.
	DroppedIllegal uint64
	// DroppedPDT counts drops of flows already in the PDT.
	DroppedPDT uint64
	// DroppedProbing counts probabilistic drops of SFT / first-sight
	// packets during the probing phase.
	DroppedProbing uint64
	// ProbesSent counts duplicated-ACK probe packets injected.
	ProbesSent uint64
	// FlowsProbed counts flows that entered the SFT.
	FlowsProbed uint64
	// FlowsNice counts flows promoted to the NFT.
	FlowsNice uint64
	// FlowsCondemned counts flows moved to the PDT after probing.
	FlowsCondemned uint64
	// FlowsIllegal counts flows sent straight to the PDT for illegal
	// source addresses.
	FlowsIllegal uint64
	// FlowsReprobed counts NFT demotions back to the SFT after an idle
	// gap exceeded ReprobeAfterIdle (hardened configurations only).
	FlowsReprobed uint64
	// FlowsRepeatCondemned counts flows condemned by the probing memory:
	// they looked responsive in their final window but had been probed
	// CondemnProbes times (hardened configurations only).
	FlowsRepeatCondemned uint64
}

// Defender is a per-ATR MAFIC engine. It implements netsim.Filter; attach it
// to the router identified as an attack-transit router and call Activate
// when the pushback request arrives.
type Defender struct {
	cfg    Config
	router *netsim.Router
	rng    *sim.RNG
	tables *flowtable.Tables

	active    bool
	victimIP  netsim.IP
	stats     Stats
	probeSeqs uint64
	observer  DropObserver

	// probeSend and windowEnd are the defender's ArgHandler faces for the
	// two events a probing cycle schedules; probeFree heads the free list
	// of slab-allocated probe records they carry as payload, and
	// probeChunks tracks every slab so Reset can rebuild the free list
	// (records still referenced by never-fired events included).
	probeSend   probeSender
	windowEnd   windowCloser
	probeFree   *probeRecord
	probeChunks [][]probeRecord

	// probeMemory counts, per flow-label hash, how many times the flow has
	// entered the SFT. Unlike the flow tables it survives the flush when
	// Activate switches victims within a run — that persistence is the whole
	// point: a rotating source that re-appears after a quiet slot picks up
	// its suspicion where it left off. Only maintained when
	// cfg.CondemnProbes > 0; cleared by Reset.
	probeMemory map[uint64]uint16
}

var _ netsim.Filter = (*Defender)(nil)

// probeRecord carries one probing cycle's state through its two scheduled
// events: the duplicated-ACK injection and the window-close classification.
// Records are slab-allocated in chunks and recycled onto a free list when
// the window closes, so steady-state flow churn probes without allocating.
// gen snapshots entry.Gen at scheduling time: a mismatch when an event fires
// means the entry was recycled (the tables were flushed) and the slot may
// describe a different flow, so the event must do nothing.
type probeRecord struct {
	entry *flowtable.Entry
	gen   uint32
	label netsim.FlowLabel
	proto netsim.Protocol
	seq   int64
	next  *probeRecord
}

// probeChunk is how many probe records one slab allocation carves.
const probeChunk = 32

// probeSender injects the duplicated-ACK probes when the probe delay
// elapses. It exists as a named type so the Defender can offer two distinct
// sim.ArgHandler implementations without per-event closures.
type probeSender struct{ d *Defender }

// OnEventArg implements sim.ArgHandler.
func (p probeSender) OnEventArg(_ sim.Time, arg any) { p.d.fireProbe(arg.(*probeRecord)) }

// windowCloser classifies the flow when its probing window closes and
// recycles the probe record.
type windowCloser struct{ d *Defender }

// OnEventArg implements sim.ArgHandler.
func (c windowCloser) OnEventArg(now sim.Time, arg any) { c.d.closeWindow(arg.(*probeRecord), now) }

// getProbeRecord pops a record off the free list, carving a new slab chunk
// when it is empty.
func (d *Defender) getProbeRecord() *probeRecord {
	if r := d.probeFree; r != nil {
		d.probeFree = r.next
		return r
	}
	chunk := make([]probeRecord, probeChunk)
	d.probeChunks = append(d.probeChunks, chunk)
	for i := 1; i < len(chunk); i++ {
		chunk[i].next = d.probeFree
		d.probeFree = &chunk[i]
	}
	return &chunk[0]
}

// putProbeRecord recycles a record, dropping its entry reference so the free
// list does not pin dead flow state.
func (d *Defender) putProbeRecord(r *probeRecord) {
	r.entry = nil
	r.next = d.probeFree
	d.probeFree = r
}

// NewDefender creates a defender bound to the given router. The router's
// network supplies the scheduler, the routability oracle and packet IDs.
func NewDefender(cfg Config, router *netsim.Router, rng *sim.RNG) (*Defender, error) {
	d := new(Defender)
	if err := d.Reset(cfg, router, rng); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset makes d what NewDefender(cfg, router, rng) returns, keeping its
// storage: the flow tables, the probe-record slabs and the probing memory's
// buckets, so a defender reset for the next run probes without allocating
// them again. Call it only once no probe or classification event of d's last
// run can fire. A failed Reset leaves d as it was.
func (d *Defender) Reset(cfg Config, router *netsim.Router, rng *sim.RNG) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if router == nil {
		return fmt.Errorf("%w: nil router", ErrConfig)
	}
	if rng == nil {
		rng = router.Network().RNG().Fork()
	}
	tables := d.tables
	if tables == nil {
		tables = flowtable.New(cfg.TableCapacity)
	} else {
		tables.Reset()
		tables.SetCapacity(cfg.TableCapacity)
	}
	// Rebuild the probe-record free list from the slabs wholesale: records
	// held by events that never fired (the last run ended inside their
	// probing window) are reclaimed here too.
	var free *probeRecord
	for _, chunk := range d.probeChunks {
		for i := range chunk {
			chunk[i].entry = nil
			chunk[i].next = free
			free = &chunk[i]
		}
	}
	clear(d.probeMemory)
	// Everything not carried over here starts from zero.
	*d = Defender{
		cfg:         cfg,
		router:      router,
		rng:         rng,
		tables:      tables,
		probeSend:   probeSender{d: d},
		windowEnd:   windowCloser{d: d},
		probeFree:   free,
		probeChunks: d.probeChunks,
		probeMemory: d.probeMemory,
	}
	return nil
}

// Release drops the defender's references to its run — the router, the
// random stream and the drop observer — so that a defender kept past its run
// pins none of them. Reset makes it usable again.
func (d *Defender) Release() {
	d.observer = nil
	d.router, d.rng = nil, nil
}

// Name implements netsim.Filter.
func (d *Defender) Name() string { return FilterName }

// Router returns the router the defender protects.
func (d *Defender) Router() *netsim.Router { return d.router }

// Config returns the defender's configuration.
func (d *Defender) Config() Config { return d.cfg }

// Stats returns a snapshot of the defender's counters.
func (d *Defender) Stats() Stats { return d.stats }

// Tables exposes the flow tables for inspection (tests, diagnostics).
func (d *Defender) Tables() *flowtable.Tables { return d.tables }

// ProbeMemorySize reports how many flows the probing memory currently tracks
// (tests, diagnostics). It is zero unless CondemnProbes is enabled.
func (d *Defender) ProbeMemorySize() int { return len(d.probeMemory) }

// Active reports whether adaptive dropping is currently enabled.
func (d *Defender) Active() bool { return d.active }

// SetDropObserver installs a callback invoked on every drop. Pass nil to
// remove it.
func (d *Defender) SetDropObserver(fn DropObserver) { d.observer = fn }

// drop records a drop of the given reason and notifies the observer.
func (d *Defender) drop(pkt *netsim.Packet, reason DropReason, now sim.Time) netsim.Action {
	d.stats.Dropped++
	switch reason {
	case DropIllegalSource:
		d.stats.DroppedIllegal++
	case DropPermanent:
		d.stats.DroppedPDT++
	case DropProbing:
		d.stats.DroppedProbing++
	}
	if d.observer != nil {
		d.observer(pkt, reason, now)
	}
	return netsim.ActionDrop
}

// VictimIP reports the destination address currently protected.
func (d *Defender) VictimIP() netsim.IP { return d.victimIP }

// Activate starts adaptive dropping of packets destined to victim. Calling
// it again with a different victim switches targets and flushes state.
func (d *Defender) Activate(victim netsim.IP) {
	if d.active && victim == d.victimIP {
		return
	}
	d.active = true
	d.victimIP = victim
	d.tables.Flush()
}

// Handle implements the per-packet control flow of the paper's Figure 2.
func (d *Defender) Handle(pkt *netsim.Packet, now sim.Time, at *netsim.Router) netsim.Action {
	if !d.active {
		return netsim.ActionForward
	}
	// Only victim-bound data traffic is subject to adaptive dropping;
	// reverse-path ACKs, probes and control traffic pass through.
	if pkt.Kind != netsim.KindData || pkt.Label.DstIP != d.victimIP {
		return netsim.ActionForward
	}
	// An ATR polices the traffic that enters the domain through it
	// (paper Figure 1); packets merely transiting from another ingress
	// are left to that ingress's own defender.
	if pkt.Hops > 0 {
		return netsim.ActionForward
	}
	d.stats.Examined++

	// Traffic sources stamp the label hash once per flow, so this is a
	// plain field read on the hot path rather than a per-packet rehash.
	labelHash := pkt.FlowHash()

	// Illegal or unreachable source addresses go straight to the PDT:
	// they belong to no legitimate application (Section III-A).
	if !at.Network().IsRoutable(pkt.Label.SrcIP) {
		if _, state := d.tables.Lookup(labelHash); state != flowtable.StatePermanentDrop {
			d.stats.FlowsIllegal++
		}
		e := d.tables.InsertPermanent(labelHash, now)
		e.Packets++
		e.Dropped++
		e.LastSeen = now
		return d.drop(pkt, DropIllegalSource, now)
	}

	entry, state := d.tables.Lookup(labelHash)
	switch state {
	case flowtable.StatePermanentDrop:
		entry.Packets++
		entry.Dropped++
		entry.LastSeen = now
		return d.drop(pkt, DropPermanent, now)

	case flowtable.StateNice:
		if idle := d.cfg.ReprobeAfterIdle; idle > 0 && now-entry.LastSeen >= idle {
			// The flow went silent far longer than a paced TCP source
			// ever does — the signature of a rotating attack group
			// between slots. Its nice classification is revoked and a
			// fresh probing cycle starts with this arrival.
			entry.Packets++
			entry.LastSeen = now
			d.reprobe(entry, pkt, now)
			if d.rng.Bool(d.cfg.DropProbability) {
				entry.Dropped++
				return d.drop(pkt, DropProbing, now)
			}
			d.stats.Forwarded++
			return netsim.ActionForward
		}
		entry.Packets++
		entry.LastSeen = now
		d.stats.Forwarded++
		return netsim.ActionForward

	case flowtable.StateSuspicious:
		entry.Packets++
		entry.LastSeen = now
		d.recordProbeSample(entry, now)
		if d.rng.Bool(d.cfg.DropProbability) {
			entry.Dropped++
			return d.drop(pkt, DropProbing, now)
		}
		d.stats.Forwarded++
		return netsim.ActionForward

	default: // first sight of this flow
		if !d.rng.Bool(d.cfg.DropProbability) {
			d.stats.Forwarded++
			return netsim.ActionForward
		}
		d.beginProbe(pkt, labelHash, now)
		return d.drop(pkt, DropProbing, now)
	}
}

// beginProbe inserts the flow into the SFT, schedules the duplicated-ACK
// probes toward the claimed source, and schedules the classification timer
// at the end of the probing window. The probe is injected ProbeDelayRTTs
// after insertion so the interval before it captures the flow's undisturbed
// arrival rate and the interval after it captures the reaction.
//
// One recycled probeRecord carries the payload through both events via the
// allocation-free ArgHandler path, so starting a probe cycle performs no
// heap allocation in steady state.
func (d *Defender) beginProbe(pkt *netsim.Packet, labelHash uint64, now sim.Time) {
	window := d.cfg.probeWindow()
	entry := d.tables.InsertSuspicious(labelHash, now, now+window)
	entry.Packets++
	entry.Dropped++
	entry.BaselineCount++
	d.stats.FlowsProbed++
	d.rememberProbe(labelHash)
	d.scheduleProbeCycle(entry, pkt, now)
}

// reprobe demotes an NFT flow back to the SFT and starts a fresh probing
// cycle on it (hardened configurations only; see Config.ReprobeAfterIdle).
// The triggering arrival seeds the new window's baseline count, mirroring
// beginProbe.
func (d *Defender) reprobe(entry *flowtable.Entry, pkt *netsim.Packet, now sim.Time) {
	d.tables.Demote(entry, now, now+d.cfg.probeWindow())
	entry.BaselineCount++
	d.stats.FlowsProbed++
	d.stats.FlowsReprobed++
	d.rememberProbe(entry.LabelHash)
	d.scheduleProbeCycle(entry, pkt, now)
}

// scheduleProbeCycle arms the two events of one probing cycle — the
// duplicated-ACK injection and the window-close classification — carrying a
// recycled probeRecord through the allocation-free ArgHandler path.
func (d *Defender) scheduleProbeCycle(entry *flowtable.Entry, pkt *netsim.Packet, now sim.Time) {
	rec := d.getProbeRecord()
	rec.entry, rec.gen = entry, entry.Gen
	rec.label, rec.proto, rec.seq = pkt.Label, pkt.Proto, pkt.Seq

	sched := d.router.Network().Scheduler()
	sched.ScheduleArgAt(now+d.cfg.probeDelay(), &d.probeSend, rec)
	sched.ScheduleArgAt(entry.ProbeDeadline, &d.windowEnd, rec)
}

// rememberProbe bumps the flow's probing-memory count. No-op unless the
// CondemnProbes hardening is enabled.
func (d *Defender) rememberProbe(labelHash uint64) {
	if d.cfg.CondemnProbes <= 0 {
		return
	}
	if d.probeMemory == nil {
		d.probeMemory = make(map[uint64]uint16)
	}
	n, tracked := d.probeMemory[labelHash]
	if !tracked && d.cfg.ProbeMemoryCapacity > 0 && len(d.probeMemory) >= d.cfg.ProbeMemoryCapacity {
		// Table full: stop admitting new flows rather than evict
		// accumulated suspicion an attacker could then rebuild from zero.
		return
	}
	if n < ^uint16(0) {
		d.probeMemory[labelHash] = n + 1
	}
}

// fireProbe injects the duplicated ACKs if the flow is still under probing.
// A generation mismatch means the entry was recycled by a table flush.
func (d *Defender) fireProbe(rec *probeRecord) {
	if !d.active || rec.entry.Gen != rec.gen || rec.entry.State != flowtable.StateSuspicious {
		return
	}
	d.sendDupAcks(rec.label, rec.proto, rec.seq)
}

// closeWindow classifies the probed flow when its window ends and recycles
// the probe record. The window-close event always fires after the probe
// injection (probeDelay is strictly inside the window), so the record is
// free for reuse the moment classification runs.
func (d *Defender) closeWindow(rec *probeRecord, now sim.Time) {
	if rec.entry.Gen == rec.gen {
		d.classify(rec.entry, now)
	}
	d.putProbeRecord(rec)
}

// recordProbeSample counts an arrival into the pre-probe (baseline) or
// post-probe (response) interval of the flow's probing window. The two
// counts are compared at classification time: a source that reacted to the
// probe shows a clear drop in the response interval.
func (d *Defender) recordProbeSample(entry *flowtable.Entry, now sim.Time) {
	probeAt := entry.ProbeStart + d.cfg.probeDelay()
	if now < probeAt {
		entry.BaselineCount++
	} else if now < entry.ProbeDeadline {
		entry.ResponseCount++
	}
}

// classify decides the fate of a probed flow when its window closes.
func (d *Defender) classify(entry *flowtable.Entry, _ sim.Time) {
	if !d.active || entry.State != flowtable.StateSuspicious {
		return
	}
	total := entry.BaselineCount + entry.ResponseCount
	responsive := false
	switch {
	case total < d.cfg.MinProbePackets:
		// Too few packets to judge: a flow this sparse is not part of
		// a flooding attack, so give it the benefit of the doubt.
		responsive = true
	case entry.BaselineCount == 0:
		// Everything arrived late in the window: the flow did not back
		// off after the probe.
		responsive = false
	default:
		// Compare rates, not counts: a response interval three times
		// the baseline's may hold three times its count at the same rate.
		responsive = float64(entry.ResponseCount) <= d.cfg.ResponseFactor*d.cfg.responseScale()*float64(entry.BaselineCount)
	}
	if responsive && d.cfg.CondemnProbes > 0 &&
		int(d.probeMemory[entry.LabelHash]) >= d.cfg.CondemnProbes {
		// The flow passes each window in isolation, but the probing memory
		// says it keeps landing back in the SFT — the signature of a source
		// that games the window (rotation, pulsing) rather than backs off.
		responsive = false
		d.stats.FlowsRepeatCondemned++
	}
	if responsive {
		d.tables.Promote(entry)
		d.stats.FlowsNice++
		return
	}
	d.tables.Condemn(entry)
	d.stats.FlowsCondemned++
}

// sendDupAcks injects the configured number of duplicated ACK probes toward
// the flow's claimed source. The probes are addressed from the victim so
// that, at a genuine TCP sender, they are indistinguishable from real
// duplicate acknowledgements and trigger fast-retransmit rate reduction.
func (d *Defender) sendDupAcks(label netsim.FlowLabel, proto netsim.Protocol, seq int64) {
	net := d.router.Network()
	for i := 0; i < d.cfg.DupAcks; i++ {
		d.probeSeqs++
		probe := net.NewPacket()
		probe.ID = net.NextPacketID()
		probe.Label = label.Reverse()
		probe.Kind = netsim.KindDupAck
		probe.Proto = proto
		probe.Seq = seq
		probe.Size = d.cfg.ProbeSize
		d.router.Inject(probe)
		d.stats.ProbesSent++
	}
}
