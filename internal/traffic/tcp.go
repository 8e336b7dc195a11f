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
	// InitialWindow is the starting congestion window in packets.
	InitialWindow float64
	// SlowStartThreshold is the initial ssthresh in packets.
	SlowStartThreshold float64
	// PacketSize is the data packet size in bytes.
	PacketSize int
}

// DefaultTCPConfig returns a source configuration representative of a
// well-behaved application flow.
func DefaultTCPConfig() TCPConfig {
	return TCPConfig{
		RTT:                40 * sim.Millisecond,
		MaxRate:            200,
		InitialWindow:      2,
		SlowStartThreshold: 16,
		PacketSize:         DefaultDataSize,
	}
}

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

	cwnd     float64
	ssthresh float64

	seq        int64
	lastAcked  int64
	dupAcks    int
	lastAckAt  sim.Time
	running    bool
	sent       uint64
	acked      uint64
	timeouts   uint64
	fastRetx   uint64
	probeSeen  uint64
	sendEvent  sim.EventRef
	packetSize int

	// reverseFn is the onReverse method value, materialised once per
	// pooled object so re-registering a reused source allocates nothing.
	reverseFn netsim.PacketHandler
}

var _ Flow = (*TCPSource)(nil)

// NewTCPSource creates a TCP-friendly source on the given host targeting the
// victim address. srcPort disambiguates multiple flows from one host. The
// object comes from a package pool when a released source is available.
func NewTCPSource(id int, cfg TCPConfig, host *netsim.Host, victim netsim.IP, srcPort uint16) *TCPSource {
	if cfg.PacketSize <= 0 {
		cfg.PacketSize = DefaultDataSize
	}
	if cfg.InitialWindow <= 0 {
		cfg.InitialWindow = 2
	}
	if cfg.SlowStartThreshold <= 0 {
		cfg.SlowStartThreshold = 16
	}
	s := tcpPool.Get()
	if s == nil {
		s = &TCPSource{}
		s.reverseFn = s.onReverse
	}
	*s = TCPSource{
		reverseFn: s.reverseFn,
		id:        id,
		cfg:       cfg,
		host:      host,
		net:       host.Network(),
		label: netsim.FlowLabel{
			SrcIP:   host.PrimaryIP(),
			DstIP:   victim,
			SrcPort: srcPort,
			DstPort: victimPort,
		},
		cwnd:       cfg.InitialWindow,
		ssthresh:   cfg.SlowStartThreshold,
		packetSize: cfg.PacketSize,
	}
	s.labelHash = s.label.Hash()
	// Receive ACKs, duplicate ACKs and probes addressed to this flow.
	host.Register(s.label.Reverse(), s.reverseFn)
	return s
}

// Release implements Flow: the source detaches from its host and
// returns to the package pool for reuse by a later workload build. The
// source must not be used afterwards.
func (s *TCPSource) Release() {
	s.Stop()
	s.host.Unregister(s.label.Reverse())
	// Drop every external reference so the pool pins neither the finished
	// run's network nor its scheduler.
	s.host, s.net = nil, nil
	s.sendEvent = sim.EventRef{}
	tcpPool.Put(s)
}

// ID implements Flow.
func (s *TCPSource) ID() int { return s.id }

// Label implements Flow.
func (s *TCPSource) Label() netsim.FlowLabel { return s.label }

// Malicious implements Flow; TCP sources are always legitimate.
func (s *TCPSource) Malicious() bool { return false }

// PacketsSent implements Flow.
func (s *TCPSource) PacketsSent() uint64 { return s.sent }

// AcksReceived reports how many new-data acknowledgements arrived.
func (s *TCPSource) AcksReceived() uint64 { return s.acked }

// Timeouts reports how many retransmission timeouts fired.
func (s *TCPSource) Timeouts() uint64 { return s.timeouts }

// FastRetransmits reports how many triple-duplicate-ACK reductions occurred.
func (s *TCPSource) FastRetransmits() uint64 { return s.fastRetx }

// ProbesSeen reports how many MAFIC duplicated-ACK probes reached the source.
func (s *TCPSource) ProbesSeen() uint64 { return s.probeSeen }

// Window returns the current congestion window in packets.
func (s *TCPSource) Window() float64 { return s.cwnd }

// CurrentRate implements Flow: the congestion-controlled rate cwnd/RTT,
// capped at MaxRate.
func (s *TCPSource) CurrentRate() float64 {
	rate := s.cwnd / s.cfg.RTT.Seconds()
	if s.cfg.MaxRate > 0 && rate > s.cfg.MaxRate {
		rate = s.cfg.MaxRate
	}
	return rate
}

// Start implements Flow.
func (s *TCPSource) Start(at sim.Time) {
	if s.running {
		return
	}
	s.running = true
	s.lastAckAt = at
	s.sendEvent = s.net.Scheduler().ScheduleHandlerAt(at, s)
}

// OnEvent implements sim.EventHandler: the pacing timer fired. Scheduling the
// source itself (rather than a closure) keeps the per-packet path
// allocation-free.
func (s *TCPSource) OnEvent(now sim.Time) { s.sendNext(now) }

// Stop implements Flow.
func (s *TCPSource) Stop() {
	s.running = false
	s.sendEvent.Cancel()
}

// sendNext emits one data packet and schedules the next transmission after
// the current pacing interval.
func (s *TCPSource) sendNext(now sim.Time) {
	if !s.running {
		return
	}
	s.maybeTimeout(now)

	s.seq++
	s.sent++
	pkt := s.net.NewPacket()
	pkt.ID = s.net.NextPacketID()
	pkt.Label = s.label
	pkt.Kind = netsim.KindData
	pkt.Proto = netsim.ProtoTCP
	pkt.Seq = s.seq
	pkt.Size = s.packetSize
	pkt.FlowID = s.id
	pkt.SetFlowHash(s.labelHash)
	s.host.Send(pkt)

	interval := s.pacingInterval()
	s.sendEvent = s.net.Scheduler().ScheduleHandlerAfter(interval, s)
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
	if s.sent == 0 || now-s.lastAckAt < rto {
		return
	}
	s.timeouts++
	s.ssthresh = s.cwnd / 2
	if s.ssthresh < 2 {
		s.ssthresh = 2
	}
	s.cwnd = 1
	s.lastAckAt = now
}

// onReverse processes packets flowing back to the source: acknowledgements
// from the victim and duplicated-ACK probes injected by MAFIC.
func (s *TCPSource) onReverse(pkt *netsim.Packet, now sim.Time) {
	switch pkt.Kind {
	case netsim.KindAck:
		if pkt.Seq > s.lastAcked {
			s.lastAcked = pkt.Seq
			s.acked++
			s.dupAcks = 0
			s.lastAckAt = now
			s.growWindow()
			return
		}
		s.countDuplicate()
	case netsim.KindDupAck:
		s.probeSeen++
		s.countDuplicate()
	default:
		// Data or control packets addressed to the source are ignored.
	}
}

// growWindow applies slow start or additive increase.
func (s *TCPSource) growWindow() {
	if s.cwnd < s.ssthresh {
		s.cwnd++
	} else {
		s.cwnd += 1 / s.cwnd
	}
	maxWindow := s.maxWindow()
	if maxWindow > 0 && s.cwnd > maxWindow {
		s.cwnd = maxWindow
	}
}

// maxWindow converts the rate cap into a window cap.
func (s *TCPSource) maxWindow() float64 {
	if s.cfg.MaxRate <= 0 {
		return 0
	}
	return s.cfg.MaxRate * s.cfg.RTT.Seconds()
}

// countDuplicate registers a duplicate acknowledgement and performs the
// multiplicative decrease once three have accumulated.
func (s *TCPSource) countDuplicate() {
	s.dupAcks++
	if s.dupAcks < 3 {
		return
	}
	s.dupAcks = 0
	s.fastRetx++
	s.ssthresh = s.cwnd / 2
	if s.ssthresh < 2 {
		s.ssthresh = 2
	}
	s.cwnd = s.ssthresh
}
