// Package traffic provides the flow-level workload the MAFIC evaluation
// needs, from two senders. TCPSource is the TCP-friendly adaptive source that
// reacts to loss and duplicated ACKs. PacedSource is every unresponsive flow:
// it sends at a fixed rate while a gate is open — for onFor at the start of
// every cycle, the first cycle offset after the start; no cycle means always
// open — and four constructors translate into that: NewCBRSource (legitimate
// UDP, no gate), NewAttackSource (the paper's flooding zombie with Section
// III-A's spoofed addresses, no gate), NewPulsingSource (shrew pulses: Period
// × DutyCycle of every Period) and NewRotatingSource (rolling pulses:
// SlotLength of every SlotLength × Groups, offset SlotLength × Group). Around
// them sit a victim server that acknowledges TCP data and a workload builder
// that assembles the mixes used in the paper's figures (traffic volume V_t,
// TCP share Γ, source rate R).
package traffic

import (
	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// Flow is the common interface of every traffic source. A flow a workload
// built belongs to that workload: Workload.Reset rebuilds its senders in
// place for the next run, so a flow is valid until its workload's next Reset.
type Flow interface {
	// ID is the ground-truth flow identifier carried by every packet the
	// flow emits.
	ID() int
	// Label is the flow's 4-tuple.
	Label() netsim.FlowLabel
	// Malicious reports whether the flow is part of the attack.
	Malicious() bool
	// Start schedules the flow's first transmission at the given time.
	Start(at sim.Time)
	// Stop halts the flow; queued transmissions are cancelled lazily.
	Stop()
	// PacketsSent reports how many data packets the flow has emitted.
	PacketsSent() uint64
	// CurrentRate reports the flow's present sending rate in packets per
	// second (the congestion-controlled rate for TCP sources, the
	// configured rate for constant-rate sources).
	CurrentRate() float64
}

// DefaultDataSize is the payload packet size in bytes used by every source
// unless overridden.
const DefaultDataSize = 500

// DefaultAckSize is the acknowledgement packet size in bytes.
const DefaultAckSize = 40

// victimPort is the destination port every flow targets on the victim.
const victimPort = 80

// sourceLabel returns the 4-tuple a paced flow stamps on its packets,
// honouring the spoofing mode: forged addresses replace the host's own for
// SpoofLegitimate and SpoofIllegal, SpoofNone keeps the real address.
func sourceLabel(host *netsim.Host, victim netsim.IP, srcPort uint16, spoof SpoofMode, spoofedIP netsim.IP) netsim.FlowLabel {
	src := host.PrimaryIP()
	if (spoof == SpoofLegitimate || spoof == SpoofIllegal) && spoofedIP != 0 {
		src = spoofedIP
	}
	return netsim.FlowLabel{
		SrcIP:   src,
		DstIP:   victim,
		SrcPort: srcPort,
		DstPort: victimPort,
	}
}
