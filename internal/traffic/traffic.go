// Package traffic provides the flow-level workload the MAFIC evaluation
// needs: the V_t flows that Γ splits into responsive TCP flows and
// unresponsive attack flows, from two senders. TCPSource is the TCP-friendly
// adaptive source that reacts to loss and duplicated ACKs. PacedSource is
// every attack flow: it sends at a fixed rate while a gate is open — for
// onFor at the start of every cycle, the first cycle offset after the start;
// no cycle means always open. Workload.Reset is the one place a scenario's
// traffic is made: it places the flows, forges the attack flows' sources
// across Section III-A's spectrum, and gives each attack flow its rate and
// gate — a flood has none, a pulse is open Period × DutyCycle of every
// Period, and a rolling pulse one slot of every Groups slots, offset by its
// group. Beside them sits a victim server that acknowledges TCP data.
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

// flowLabel returns the 4-tuple of a flow from src to the victim port of dst.
func flowLabel(src, dst netsim.IP, srcPort uint16) netsim.FlowLabel {
	return netsim.FlowLabel{SrcIP: src, DstIP: dst, SrcPort: srcPort, DstPort: victimPort}
}
