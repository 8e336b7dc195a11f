package traffic

import (
	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// VictimServer is the host under attack. It accepts every incoming flow,
// acknowledges TCP data so legitimate senders' congestion control keeps
// working, and keeps simple arrival counters.
type VictimServer struct {
	host *netsim.Host
	net  *netsim.Network

	ackSize int

	// st is the server's run state, as a snapshot records it.
	st   VictimServerState
	recv func(*netsim.Packet, sim.Time) // onPacket, bound once
}

// reset installs v as the server on the given host, keeping its bound
// handler, and returns v. ackSize is the size of generated acknowledgements
// in bytes; zero means DefaultAckSize.
func (v *VictimServer) reset(host *netsim.Host, ackSize int) *VictimServer {
	if ackSize <= 0 {
		ackSize = DefaultAckSize
	}
	*v = VictimServer{host: host, net: host.Network(), ackSize: ackSize, recv: v.recv}
	if v.recv == nil {
		v.recv = v.onPacket
	}
	host.SetDefaultHandler(v.recv)
	return v
}

// Host returns the underlying host.
func (v *VictimServer) Host() *netsim.Host { return v.host }

// Received reports the total number of data packets that reached the victim.
func (v *VictimServer) Received() uint64 { return v.st.Received }

// ReceivedMalicious reports how many attack packets reached the victim.
func (v *VictimServer) ReceivedMalicious() uint64 { return v.st.ReceivedBad }

// ReceivedLegitimate reports how many legitimate packets reached the victim.
func (v *VictimServer) ReceivedLegitimate() uint64 { return v.st.ReceivedGood }

// AcksGenerated reports how many acknowledgements the server sent.
func (v *VictimServer) AcksGenerated() uint64 { return v.st.AcksGenerated }

// onPacket handles every packet delivered to the victim host.
func (v *VictimServer) onPacket(pkt *netsim.Packet, _ sim.Time) {
	if pkt.Kind != netsim.KindData {
		return
	}
	v.st.Received++
	if pkt.Malicious {
		v.st.ReceivedBad++
	} else {
		v.st.ReceivedGood++
	}
	if pkt.Proto != netsim.ProtoTCP {
		return
	}
	// Acknowledge TCP data back toward the claimed source. For spoofed
	// flows the acknowledgement goes to the spoofed owner (or nowhere),
	// exactly as on the real Internet.
	ack := v.net.NewPacket()
	ack.ID = v.net.NextPacketID()
	ack.Label = pkt.Label.Reverse()
	ack.Kind = netsim.KindAck
	ack.Proto = netsim.ProtoTCP
	ack.Seq = pkt.Seq
	ack.Size = v.ackSize
	ack.FlowID = pkt.FlowID
	v.st.AcksGenerated++
	v.host.Send(ack)
}
