package traffic

import (
	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// TCPConfig tunes a TCP-friendly source.
type TCPConfig struct {
	// RTT is the source's round-trip-time estimate, used for pacing and
	// the retransmission timeout.
	RTT sim.Time
	// MaxRate caps the source's sending rate in packets per second.
	MaxRate float64
	// PacketSize is the data packet size in bytes.
	PacketSize int
}

// A TCP source starts with a two-packet congestion window and a slow-start
// threshold of 16 packets.
const (
	initialWindow      = 2
	slowStartThreshold = 16
)

// TCPSource is a TCP-Reno-like adaptive sender. It paces data packets at
// cwnd/RTT, grows the window on acknowledgements (slow start, then additive
// increase) and halves it on triple duplicate ACKs — which is exactly the
// reaction MAFIC's duplicated-ACK probes are designed to elicit. A
// retransmission timeout collapses the window to one packet.
type TCPSource struct {
	id        int
	cfg       TCPConfig
	host      *netsim.Host
	net       *netsim.Network
	label     netsim.FlowLabel
	labelHash uint64

	// st is the sender's run state, as a snapshot records it: the
	// congestion window and threshold, sequence and acknowledgement
	// bookkeeping, and the counters. Its Kind is always FlowTCP.
	st        FlowState
	sendEvent sim.EventRef

	// reverseFn is the onReverse method value, materialised once per
	// object so re-registering a reused source allocates nothing.
	reverseFn netsim.PacketHandler
}

var _ Flow = (*TCPSource)(nil)

// reset makes s a TCP source on host sending to victim from srcPort, keeping
// its reverseFn, and returns s. cfg must hold a positive RTT and packet size,
// as every spec WorkloadSpec.Validate accepts gives it. Workload.Reset reuses
// its sources through it on a network reset since they last ran, so no event
// or handler registration of their last run is left.
func (s *TCPSource) reset(id int, cfg TCPConfig, host *netsim.Host, victim netsim.IP, srcPort uint16) *TCPSource {
	if s.reverseFn == nil {
		s.reverseFn = s.onReverse
	}
	*s = TCPSource{
		reverseFn: s.reverseFn,
		id:        id,
		cfg:       cfg,
		host:      host,
		net:       host.Network(),
		label:     flowLabel(host.PrimaryIP(), victim, srcPort),
		st:        FlowState{Kind: FlowTCP, Cwnd: initialWindow, Ssthresh: slowStartThreshold},
	}
	s.labelHash = s.label.Hash()
	// Receive ACKs, duplicate ACKs and probes addressed to this flow.
	host.Register(s.label.Reverse(), s.reverseFn)
	return s
}

// ID implements Flow.
func (s *TCPSource) ID() int { return s.id }

// Label implements Flow.
func (s *TCPSource) Label() netsim.FlowLabel { return s.label }

// Malicious implements Flow; TCP sources are always legitimate.
func (s *TCPSource) Malicious() bool { return false }

// PacketsSent implements Flow.
func (s *TCPSource) PacketsSent() uint64 { return s.st.Sent }

// AcksReceived reports how many new-data acknowledgements arrived.
func (s *TCPSource) AcksReceived() uint64 { return s.st.Acked }

// Timeouts reports how many retransmission timeouts fired.
func (s *TCPSource) Timeouts() uint64 { return s.st.Timeouts }

// FastRetransmits reports how many triple-duplicate-ACK reductions occurred.
func (s *TCPSource) FastRetransmits() uint64 { return s.st.FastRetx }

// ProbesSeen reports how many MAFIC duplicated-ACK probes reached the source.
func (s *TCPSource) ProbesSeen() uint64 { return s.st.ProbeSeen }

// Window returns the current congestion window in packets.
func (s *TCPSource) Window() float64 { return s.st.Cwnd }

// CurrentRate implements Flow: the congestion-controlled rate cwnd/RTT,
// capped at MaxRate.
func (s *TCPSource) CurrentRate() float64 {
	rate := s.st.Cwnd / s.cfg.RTT.Seconds()
	if s.cfg.MaxRate > 0 && rate > s.cfg.MaxRate {
		rate = s.cfg.MaxRate
	}
	return rate
}

// Start implements Flow.
func (s *TCPSource) Start(at sim.Time) {
	if s.st.Running {
		return
	}
	s.st.Running = true
	s.st.LastAckAt = at
	s.sendEvent = s.net.Scheduler().ScheduleArgAt(at, s, nil)
}

// OnEventArg implements sim.ArgHandler: the pacing timer fired. Scheduling
// the source itself (rather than a closure) keeps the per-packet path
// allocation-free.
func (s *TCPSource) OnEventArg(now sim.Time, _ any) { s.sendNext(now) }

// Stop implements Flow.
func (s *TCPSource) Stop() {
	s.st.Running = false
	s.sendEvent.Cancel()
}

// sendNext emits one data packet and schedules the next transmission after
// the current pacing interval.
func (s *TCPSource) sendNext(now sim.Time) {
	if !s.st.Running {
		return
	}
	s.maybeTimeout(now)

	s.st.Seq++
	s.st.Sent++
	pkt := s.net.NewPacket()
	pkt.ID = s.net.NextPacketID()
	pkt.Label = s.label
	pkt.Kind = netsim.KindData
	pkt.Proto = netsim.ProtoTCP
	pkt.Seq = s.st.Seq
	pkt.Size = s.cfg.PacketSize
	pkt.FlowID = s.id
	pkt.SetFlowHash(s.labelHash)
	s.host.Send(pkt)

	interval := s.pacingInterval()
	s.sendEvent = s.net.Scheduler().ScheduleArgAt(now+interval, s, nil)
}

// pacingInterval converts the current rate into an inter-packet gap.
func (s *TCPSource) pacingInterval() sim.Time {
	rate := s.CurrentRate()
	if rate <= 0 {
		rate = 1
	}
	return sim.Time(float64(sim.Second) / rate)
}

// maybeTimeout collapses the window if no acknowledgement has arrived for a
// full retransmission timeout (2×RTT, floored at 200 ms like common stacks).
func (s *TCPSource) maybeTimeout(now sim.Time) {
	rto := 2 * s.cfg.RTT
	if rto < 200*sim.Millisecond {
		rto = 200 * sim.Millisecond
	}
	if s.st.Sent == 0 || now-s.st.LastAckAt < rto {
		return
	}
	s.st.Timeouts++
	s.st.Ssthresh = s.st.Cwnd / 2
	if s.st.Ssthresh < 2 {
		s.st.Ssthresh = 2
	}
	s.st.Cwnd = 1
	s.st.LastAckAt = now
}

// onReverse processes packets flowing back to the source: acknowledgements
// from the victim and duplicated-ACK probes injected by MAFIC.
func (s *TCPSource) onReverse(pkt *netsim.Packet, now sim.Time) {
	switch pkt.Kind {
	case netsim.KindAck:
		if pkt.Seq > s.st.LastAcked {
			s.st.LastAcked = pkt.Seq
			s.st.Acked++
			s.st.DupAcks = 0
			s.st.LastAckAt = now
			s.growWindow()
			return
		}
		s.countDuplicate()
	case netsim.KindDupAck:
		s.st.ProbeSeen++
		s.countDuplicate()
	default:
		// Data or control packets addressed to the source are ignored.
	}
}

// growWindow applies slow start or additive increase.
func (s *TCPSource) growWindow() {
	if s.st.Cwnd < s.st.Ssthresh {
		s.st.Cwnd++
	} else {
		s.st.Cwnd += 1 / s.st.Cwnd
	}
	maxWindow := s.maxWindow()
	if maxWindow > 0 && s.st.Cwnd > maxWindow {
		s.st.Cwnd = maxWindow
	}
}

// maxWindow converts the rate cap into a window cap.
func (s *TCPSource) maxWindow() float64 {
	if s.cfg.MaxRate <= 0 {
		return 0
	}
	return s.cfg.MaxRate * s.cfg.RTT.Seconds()
}

// minWindow is the smallest window a run reaches: one packet after a timeout,
// unless the rate cap puts it lower.
func (s *TCPSource) minWindow() float64 {
	if m := s.maxWindow(); m > 0 {
		return min(1, m)
	}
	return 1
}

// countDuplicate registers a duplicate acknowledgement and performs the
// multiplicative decrease once three have accumulated.
func (s *TCPSource) countDuplicate() {
	s.st.DupAcks++
	if s.st.DupAcks < 3 {
		return
	}
	s.st.DupAcks = 0
	s.st.FastRetx++
	s.st.Ssthresh = s.st.Cwnd / 2
	if s.st.Ssthresh < 2 {
		s.st.Ssthresh = 2
	}
	s.st.Cwnd = s.st.Ssthresh
}
