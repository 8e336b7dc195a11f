package traffic

import (
	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// pacing is everything that tells one attack sender from another: how fast
// its packets leave, how large they are, and when the gate lets them.
type pacing struct {
	// rate is the sending rate in packets per second while the gate is open.
	rate float64
	size int
	// The gate opens for onFor at the start of every cycle of length every,
	// the first cycle starting offset after Start. every == 0 means the gate
	// is always open: no gate event is ever scheduled.
	onFor, every, offset sim.Time
}

// attackJitter randomises each inter-packet gap of an attack flow by ±5 % so
// that concurrent zombies do not stay phase-locked.
const attackJitter = 0.05

// PacedSource is an attack flow from a zombie: it sends data packets at a
// fixed rate while its gate is open and never reacts to loss,
// acknowledgements or probes. Its packets are marked malicious (ground truth
// for metrics only) and — the paper notes most attack traffic claims to be
// TCP — carry the TCP protocol marker. The paper's flooding zombies, shrew
// pulses and rolling pulses differ only in their pacing value, which
// Workload.Reset computes.
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
	// is the attack shape Workload.Reset gave the sender — data, not a Go
	// type: a restore compares it against the snapshot's tag, and nothing
	// else tells a flood from a pulsing flow.
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

func (g *gateOpen) OnEventArg(now sim.Time, _ any) { g.s.beginBurst(now) }

// gateShut dispatches the end of a burst.
type gateShut struct{ s *PacedSource }

func (g *gateShut) OnEventArg(sim.Time, any) { g.s.st.InBurst = false }

var _ Flow = (*PacedSource)(nil)

// reset makes s an attack sender of the given kind on host, stamping label on
// its packets, and returns it. cfg must hold a positive rate and size, and
// either no gate or one with onFor ≤ every and offset < every; Workload.Reset
// computes such a value from every spec WorkloadSpec.Validate accepts.
// Nothing of what s was before survives: s is new, or one whose network has
// been reset since it last ran.
func (s *PacedSource) reset(id int, kind FlowKind, cfg pacing, host *netsim.Host, label netsim.FlowLabel, rng *sim.RNG) *PacedSource {
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

// ID implements Flow.
func (s *PacedSource) ID() int { return s.id }

// Label implements Flow.
func (s *PacedSource) Label() netsim.FlowLabel { return s.label }

// Malicious implements Flow; paced sources are always attack flows.
func (s *PacedSource) Malicious() bool { return true }

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
		s.gateEvent = s.net.Scheduler().ScheduleArgAt(at+s.cfg.offset, &s.open, nil)
		return
	}
	s.sendEvent = s.net.Scheduler().ScheduleArgAt(at, s, nil)
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
	sched.ScheduleArgAt(now+s.cfg.onFor, &s.shut, nil)
	s.gateEvent = sched.ScheduleArgAt(now+s.cfg.every, &s.open, nil)
	// A send gap longer than the off-phase leaves the previous burst's
	// timer pending into this burst; cancel it so exactly one send chain
	// is ever live and the rate cannot compound across cycles.
	s.sendEvent.Cancel()
	s.sendEvent = sched.ScheduleArgAt(now, s, nil)
}

// OnEventArg implements sim.ArgHandler: the send timer fired, so one packet
// leaves if the gate is open. Scheduling the source itself (rather than a
// closure) keeps the per-packet path allocation-free; the per-burst gate
// events go through the open/shut handler fields.
func (s *PacedSource) OnEventArg(now sim.Time, _ any) {
	if !s.st.Running || (s.gated() && !s.st.InBurst) {
		return
	}
	s.st.Seq++
	s.st.Sent++
	pkt := s.net.NewPacket()
	pkt.ID = s.net.NextPacketID()
	pkt.Label = s.label
	pkt.Kind = netsim.KindData
	pkt.Proto = netsim.ProtoTCP
	pkt.Seq = s.st.Seq
	pkt.Size = s.cfg.size
	pkt.FlowID = s.id
	pkt.Malicious = true
	pkt.SetFlowHash(s.labelHash)
	s.host.Send(pkt)

	gap := s.rng.Jitter(float64(sim.Second)/s.cfg.rate, attackJitter)
	s.sendEvent = s.net.Scheduler().ScheduleArgAt(now+sim.Time(gap), s, nil)
}
