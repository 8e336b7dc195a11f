package traffic

import (
	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// pacing is everything that tells one paced sender from another: what its
// packets claim to be, how fast they leave, and when the gate lets them.
type pacing struct {
	malicious bool
	proto     netsim.Protocol
	// rate is the sending rate in packets per second while the gate is open.
	rate float64
	// jitter randomises each inter-packet gap by ±jitter fraction so that
	// concurrent sources do not stay phase-locked.
	jitter float64
	size   int
	// The gate opens for onFor at the start of every cycle of length every,
	// the first cycle starting offset after Start. every == 0 means the gate
	// is always open: no gate event is ever scheduled.
	onFor, every, offset sim.Time
}

// PacedSource sends data packets at a fixed rate while its gate is open and
// never reacts to loss, acknowledgements or probes. Every unresponsive flow
// of the evaluation is one: legitimate constant-rate traffic (UDP media), the
// paper's flooding zombies, shrew-style pulses and rolling pulses differ only
// in their pacing value.
type PacedSource struct {
	id        int
	cfg       pacing
	host      *netsim.Host
	net       *netsim.Network
	rng       *sim.RNG
	label     netsim.FlowLabel
	labelHash uint64

	// st is the sender's run state, as a snapshot records it: whether it
	// runs and is inside a burst, its sequence number and counters. Its Kind
	// is the tag of the constructor that built the sender — data, not a Go
	// type: a restore compares it against the snapshot's tag, and nothing
	// else tells an attack flow from a pulsing one.
	st        FlowState
	sendEvent sim.EventRef
	gateEvent sim.EventRef

	// open and shut are the flow's gate event handlers. They are
	// addressable struct fields rather than closures so scheduling them
	// never allocates and a checkpoint can identify a pending gate event
	// by comparing its handler against &s.open / &s.shut.
	open gateOpen
	shut gateShut
}

// gateOpen dispatches the start of a burst.
type gateOpen struct{ s *PacedSource }

func (g *gateOpen) OnEvent(now sim.Time) { g.s.beginBurst(now) }

// gateShut dispatches the end of a burst.
type gateShut struct{ s *PacedSource }

func (g *gateShut) OnEvent(sim.Time) { g.s.st.InBurst = false }

var _ Flow = (*PacedSource)(nil)

// reset makes s a paced sender of the given kind and returns it, clamping an
// unusable size or rate so a workload builder can always construct a runnable
// flow. Nothing of what s was before survives: the constructors pass a new
// object, and Workload.Reset one whose network has been reset since it last
// ran.
func (s *PacedSource) reset(id int, kind FlowKind, cfg pacing, host *netsim.Host, label netsim.FlowLabel, rng *sim.RNG) *PacedSource {
	if cfg.size <= 0 {
		cfg.size = DefaultDataSize
	}
	if cfg.rate <= 0 {
		cfg.rate = 1
	}
	*s = PacedSource{
		id:        id,
		cfg:       cfg,
		host:      host,
		net:       host.Network(),
		rng:       rng,
		label:     label,
		labelHash: label.Hash(),
		st:        FlowState{Kind: kind},
		open:      gateOpen{s},
		shut:      gateShut{s},
	}
	return s
}

// CBRConfig tunes a constant-bit-rate source.
type CBRConfig struct {
	// Rate is the sending rate in packets per second.
	Rate float64
	// PacketSize is the data packet size in bytes.
	PacketSize int
	// Jitter randomises each inter-packet gap by ±Jitter fraction so
	// that concurrent sources do not stay phase-locked.
	Jitter float64
}

// NewCBRSource creates a legitimate constant-rate (UDP-like) source on the
// given host targeting the victim address.
func NewCBRSource(id int, cfg CBRConfig, host *netsim.Host, victim netsim.IP, srcPort uint16, rng *sim.RNG) *PacedSource {
	return new(PacedSource).cbr(id, cfg, host, victim, srcPort, rng)
}

// cbr resets s to what NewCBRSource returns and returns it.
func (s *PacedSource) cbr(id int, cfg CBRConfig, host *netsim.Host, victim netsim.IP, srcPort uint16, rng *sim.RNG) *PacedSource {
	return s.reset(id, FlowCBR, pacing{
		proto: netsim.ProtoUDP,
		rate:  cfg.Rate, jitter: cfg.Jitter, size: cfg.PacketSize,
	}, host, sourceLabel(host, victim, srcPort, SpoofNone, 0), rng)
}

// SpoofMode selects how an attack flow forges its source address.
type SpoofMode int

// Spoofing modes, covering the spectrum described in Section III-A of the
// paper.
const (
	// SpoofNone uses the zombie's real address. The flow is still
	// unresponsive, so MAFIC condemns it after probing.
	SpoofNone SpoofMode = iota + 1
	// SpoofLegitimate uses a valid address belonging to some other host
	// (a bystander). Probes reach that host and are ignored.
	SpoofLegitimate
	// SpoofIllegal uses an address routable nowhere; MAFIC's PDT fast
	// path drops such flows immediately.
	SpoofIllegal
)

// attack resets s to a malicious paced sender on a zombie: its packets are
// marked malicious (ground truth for metrics only), its source address may be
// spoofed, and — the paper notes most attack traffic claims to be TCP — they
// carry the TCP protocol marker while ignoring all feedback.
func (s *PacedSource) attack(id int, kind FlowKind, cfg pacing, zombie *netsim.Host, victim netsim.IP, srcPort uint16, spoof SpoofMode, spoofedIP netsim.IP, rng *sim.RNG) *PacedSource {
	cfg.malicious = true
	cfg.proto = netsim.ProtoTCP
	return s.reset(id, kind, cfg, zombie, sourceLabel(zombie, victim, srcPort, spoof, spoofedIP), rng)
}

// gateJitter is the inter-packet jitter of the gated attack kinds.
const gateJitter = 0.05

// AttackConfig tunes a DDoS attack source.
type AttackConfig struct {
	// Rate is the flooding rate in packets per second (the paper's R).
	Rate float64
	// PacketSize is the attack packet size in bytes.
	PacketSize int
	// Jitter randomises inter-packet gaps by ±Jitter fraction.
	Jitter float64
	// Spoof selects the source-address forging strategy.
	Spoof SpoofMode
	// SpoofedIP is the forged source address for SpoofLegitimate and
	// SpoofIllegal modes.
	SpoofedIP netsim.IP
}

// NewAttackSource creates an attack flow on the given zombie host: an
// unresponsive constant-rate flood.
func NewAttackSource(id int, cfg AttackConfig, zombie *netsim.Host, victim netsim.IP, srcPort uint16, rng *sim.RNG) *PacedSource {
	return new(PacedSource).flood(id, cfg, zombie, victim, srcPort, rng)
}

// flood resets s to what NewAttackSource returns and returns it.
func (s *PacedSource) flood(id int, cfg AttackConfig, zombie *netsim.Host, victim netsim.IP, srcPort uint16, rng *sim.RNG) *PacedSource {
	return s.attack(id, FlowAttack, pacing{
		rate: cfg.Rate, jitter: cfg.Jitter, size: cfg.PacketSize,
	}, zombie, victim, srcPort, cfg.Spoof, cfg.SpoofedIP, rng)
}

// PulsingConfig tunes an on-off (pulsing) attack source. Pulsing attacks —
// the shrew-style attacks referenced in the paper's related work — flood at
// full rate for a short burst, stay silent for the rest of the period, and
// are specifically designed to evade rate-based detectors while still
// degrading TCP traffic.
type PulsingConfig struct {
	// PeakRate is the flooding rate during the on-phase in packets/s.
	PeakRate float64
	// Period is the full on+off cycle length.
	Period sim.Time
	// DutyCycle is the fraction of each period spent flooding (0,1].
	DutyCycle float64
	// PacketSize is the attack packet size in bytes.
	PacketSize int
	// Spoof selects the source-address forging strategy.
	Spoof SpoofMode
	// SpoofedIP is the forged source address for SpoofLegitimate and
	// SpoofIllegal modes.
	SpoofedIP netsim.IP
}

// DefaultPulsingConfig returns a classic low-duty-cycle pulse: 200 ms bursts
// once per second at the full attack rate.
func DefaultPulsingConfig(peakRate float64) PulsingConfig {
	return PulsingConfig{
		PeakRate:   peakRate,
		Period:     sim.Second,
		DutyCycle:  0.2,
		PacketSize: DefaultDataSize,
		Spoof:      SpoofNone,
	}
}

// NewPulsingSource creates a pulsing attack flow on the given zombie host:
// the gate opens for Period × DutyCycle at the start of every Period.
func NewPulsingSource(id int, cfg PulsingConfig, zombie *netsim.Host, victim netsim.IP, srcPort uint16, rng *sim.RNG) *PacedSource {
	return new(PacedSource).pulsing(id, cfg, zombie, victim, srcPort, rng)
}

// pulsing resets s to what NewPulsingSource returns and returns it.
func (s *PacedSource) pulsing(id int, cfg PulsingConfig, zombie *netsim.Host, victim netsim.IP, srcPort uint16, rng *sim.RNG) *PacedSource {
	if cfg.Period <= 0 {
		cfg.Period = sim.Second
	}
	if cfg.DutyCycle <= 0 || cfg.DutyCycle > 1 {
		cfg.DutyCycle = 0.2
	}
	return s.attack(id, FlowPulsing, pacing{
		rate: cfg.PeakRate, jitter: gateJitter, size: cfg.PacketSize,
		onFor: sim.Time(float64(cfg.Period) * cfg.DutyCycle),
		every: cfg.Period,
	}, zombie, victim, srcPort, cfg.Spoof, cfg.SpoofedIP, rng)
}

// RotatingConfig tunes one flow of a rolling (rotating) pulse attack: the
// attack flows are partitioned into groups, and at any instant exactly one
// group floods while the others stay silent. Each measurement epoch the
// flooding role hands off to the next group, so the set of hot source routers
// keeps shifting under the detector — an adversary strategy aimed directly at
// per-router baseline tests.
type RotatingConfig struct {
	// PeakRate is the flooding rate while the flow's group holds the
	// baton, in packets/s.
	PeakRate float64
	// SlotLength is how long each group floods before handing off.
	SlotLength sim.Time
	// Groups is the number of rotation groups; the full rotation cycle is
	// Groups × SlotLength.
	Groups int
	// Group is this flow's group index in [0, Groups).
	Group int
	// PacketSize is the attack packet size in bytes.
	PacketSize int
	// Spoof selects the source-address forging strategy.
	Spoof SpoofMode
	// SpoofedIP is the forged source address for SpoofLegitimate and
	// SpoofIllegal modes.
	SpoofedIP netsim.IP
}

// NewRotatingSource creates one rolling-pulse attack flow on the given zombie
// host: the gate opens for SlotLength once per SlotLength × Groups cycle. The
// flow's first slot begins Group slot-lengths after the attack start, so
// group 0 floods first and the baton then travels group by group. Invalid
// configuration fields are clamped to usable values.
func NewRotatingSource(id int, cfg RotatingConfig, zombie *netsim.Host, victim netsim.IP, srcPort uint16, rng *sim.RNG) *PacedSource {
	return new(PacedSource).rotating(id, cfg, zombie, victim, srcPort, rng)
}

// rotating resets s to what NewRotatingSource returns and returns it.
func (s *PacedSource) rotating(id int, cfg RotatingConfig, zombie *netsim.Host, victim netsim.IP, srcPort uint16, rng *sim.RNG) *PacedSource {
	if cfg.SlotLength <= 0 {
		cfg.SlotLength = 100 * sim.Millisecond
	}
	if cfg.Groups < 1 {
		cfg.Groups = 1
	}
	if cfg.Group < 0 || cfg.Group >= cfg.Groups {
		cfg.Group = 0
	}
	return s.attack(id, FlowRotating, pacing{
		rate: cfg.PeakRate, jitter: gateJitter, size: cfg.PacketSize,
		onFor:  cfg.SlotLength,
		every:  sim.Time(int64(cfg.SlotLength) * int64(cfg.Groups)),
		offset: sim.Time(int64(cfg.SlotLength) * int64(cfg.Group)),
	}, zombie, victim, srcPort, cfg.Spoof, cfg.SpoofedIP, rng)
}

// ID implements Flow.
func (s *PacedSource) ID() int { return s.id }

// Label implements Flow.
func (s *PacedSource) Label() netsim.FlowLabel { return s.label }

// Malicious implements Flow.
func (s *PacedSource) Malicious() bool { return s.cfg.malicious }

// PacketsSent implements Flow.
func (s *PacedSource) PacketsSent() uint64 { return s.st.Sent }

// Bursts reports how many times the gate has opened: on-phases of a pulsing
// flow, flooding slots held by a rotating one, always zero without a gate.
func (s *PacedSource) Bursts() uint64 { return s.st.Bursts }

// gated reports whether the sender has a gate at all.
func (s *PacedSource) gated() bool { return s.cfg.every != 0 }

// CurrentRate implements Flow: the configured rate of an ungated sender,
// running or not; of a gated one the rate during a burst, zero otherwise.
func (s *PacedSource) CurrentRate() float64 {
	if s.gated() && !s.st.InBurst {
		return 0
	}
	return s.cfg.rate
}

// Start implements Flow. An ungated sender schedules its send timer
// directly, never through a gate event; a gated one schedules its first
// burst.
func (s *PacedSource) Start(at sim.Time) {
	if s.st.Running {
		return
	}
	s.st.Running = true
	if s.gated() {
		s.gateEvent = s.net.Scheduler().ScheduleHandlerAt(at+s.cfg.offset, &s.open)
		return
	}
	s.sendEvent = s.net.Scheduler().ScheduleHandlerAt(at, s)
}

// Stop implements Flow.
func (s *PacedSource) Stop() {
	s.st.Running = false
	s.st.InBurst = false
	s.sendEvent.Cancel()
	s.gateEvent.Cancel()
}

// beginBurst opens the gate and schedules its closing and the next burst.
func (s *PacedSource) beginBurst(now sim.Time) {
	if !s.st.Running {
		return
	}
	s.st.InBurst = true
	s.st.Bursts++
	sched := s.net.Scheduler()
	sched.ScheduleHandlerAt(now+s.cfg.onFor, &s.shut)
	s.gateEvent = sched.ScheduleHandlerAt(now+s.cfg.every, &s.open)
	// A send gap longer than the off-phase leaves the previous burst's
	// timer pending into this burst; cancel it so exactly one send chain
	// is ever live and the rate cannot compound across cycles.
	s.sendEvent.Cancel()
	s.sendEvent = sched.ScheduleHandlerAt(now, s)
}

// OnEvent implements sim.EventHandler: the send timer fired, so one packet
// leaves if the gate is open. Scheduling the source itself (rather than a
// closure) keeps the per-packet path allocation-free; the per-burst gate
// events go through the open/shut handler fields.
func (s *PacedSource) OnEvent(sim.Time) {
	if !s.st.Running || (s.gated() && !s.st.InBurst) {
		return
	}
	s.st.Seq++
	s.st.Sent++
	pkt := s.net.NewPacket()
	pkt.ID = s.net.NextPacketID()
	pkt.Label = s.label
	pkt.Kind = netsim.KindData
	pkt.Proto = s.cfg.proto
	pkt.Seq = s.st.Seq
	pkt.Size = s.cfg.size
	pkt.FlowID = s.id
	pkt.Malicious = s.cfg.malicious
	pkt.SetFlowHash(s.labelHash)
	s.host.Send(pkt)

	gap := float64(sim.Second) / s.cfg.rate
	if s.rng != nil && s.cfg.jitter > 0 {
		gap = s.rng.Jitter(gap, s.cfg.jitter)
	}
	s.sendEvent = s.net.Scheduler().ScheduleHandlerAfter(sim.Time(gap), s)
}
