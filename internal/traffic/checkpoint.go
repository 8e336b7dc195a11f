package traffic

import (
	"fmt"
	"math"

	"mafic/internal/sim"
)

// FlowKind tags the constructor that built a flow in a snapshot, so a restore
// can verify the deterministic rebuild produced the same flow sequence before
// overlaying state. The four paced kinds share one Go type; the tag a
// PacedSource carries is the only thing that tells them apart.
type FlowKind uint8

// Flow kinds, in the order BuildWorkload can emit them.
const (
	FlowTCP FlowKind = iota + 1
	FlowCBR
	FlowAttack
	FlowPulsing
	FlowRotating
)

// FlowState is the dynamic state of one flow, held by the flow as it runs: a
// superset across the flow kinds, of which a TCP source uses the congestion
// fields and the paced kinds only the counters and, when gated, the burst
// flag and count; the fields a kind does not use stay zero. Configuration,
// labels and host bindings are rebuild-covered.
type FlowState struct {
	Kind      FlowKind
	Running   bool
	InBurst   bool
	Cwnd      float64
	Ssthresh  float64
	Seq       int64
	LastAcked int64
	DupAcks   int64
	LastAckAt sim.Time
	Sent      uint64
	Acked     uint64
	Timeouts  uint64
	FastRetx  uint64
	ProbeSeen uint64
	Bursts    uint64
}

// flowState is the record a flow holds, or nil for a flow type that holds
// none.
func flowState(f Flow) *FlowState {
	switch s := f.(type) {
	case *TCPSource:
		return &s.st
	case *PacedSource:
		return &s.st
	}
	return nil
}

// CaptureFlowState captures the dynamic state of one flow into dst. Pending
// send and gate events are captured separately through the scheduler walk;
// the EventRef fields themselves do not travel (a stale ref is a safe no-op
// and live ones are re-bound by the restore).
func CaptureFlowState(f Flow, dst *FlowState) error {
	st := flowState(f)
	if st == nil {
		return fmt.Errorf("traffic: cannot checkpoint flow of type %T", f)
	}
	*dst = *st
	return nil
}

// RestoreFlowState overlays captured state onto the corresponding rebuilt
// flow. The kind tag must match the rebuilt flow's: a mismatch means the
// snapshot and the rebuild disagree about the workload. A TCP window no run
// reaches is refused: a NaN one paces the next send at a gap of NaN, which
// the scheduler clamps to zero, so the source would re-fire at one instant
// forever; a window below the floor or infinite is no better.
func RestoreFlowState(f Flow, st FlowState) error {
	held := flowState(f)
	if held == nil {
		return fmt.Errorf("traffic: cannot restore flow of type %T", f)
	}
	if st.Kind != held.Kind {
		return fmt.Errorf("traffic: flow %d: snapshot flow kind %d does not match the rebuilt flow's", f.ID(), st.Kind)
	}
	if s, ok := f.(*TCPSource); ok && !(st.Cwnd >= s.minWindow() && st.Cwnd <= math.MaxFloat64) {
		return fmt.Errorf("traffic: flow %d: snapshot Cwnd %v is no window a run reaches (at least %v, finite)", f.ID(), st.Cwnd, s.minWindow())
	}
	*held = st
	return nil
}

// SendHandler returns the event-handler identity a flow's send timer is
// scheduled with: the source itself, for both senders. Checkpoint capture
// matches pending events against it; restore re-binds the re-inserted event
// through SetSendEvent.
func SendHandler(f Flow) sim.EventHandler {
	h, _ := f.(sim.EventHandler)
	return h
}

// PhaseHandlers returns the gate handler identities of a gated paced flow
// (phase = the gate opens, end = it shuts), or nils for a flow without a
// gate.
func PhaseHandlers(f Flow) (phase, end sim.EventHandler) {
	if s, ok := f.(*PacedSource); ok && s.gated() {
		return &s.open, &s.shut
	}
	return nil, nil
}

// SetSendEvent re-binds a flow's send-timer EventRef after a restore
// re-inserted the pending event.
func SetSendEvent(f Flow, ref sim.EventRef) {
	switch s := f.(type) {
	case *TCPSource:
		s.sendEvent = ref
	case *PacedSource:
		s.sendEvent = ref
	}
}

// SetPhaseEvent re-binds a gated flow's next-burst EventRef after a restore
// re-inserted the pending event. The end-of-burst event is fire-and-forget
// (no ref is kept), so only the opening ref needs re-binding.
func SetPhaseEvent(f Flow, ref sim.EventRef) {
	if s, ok := f.(*PacedSource); ok {
		s.gateEvent = ref
	}
}

// VictimServerState is the dynamic state of a victim server, held by the
// server as it runs: its arrival and acknowledgement counters. The host
// binding and handler wiring are rebuild-covered.
type VictimServerState struct {
	Received      uint64
	ReceivedBad   uint64
	ReceivedGood  uint64
	AcksGenerated uint64
}

// CheckpointState captures the server's counters into dst.
func (v *VictimServer) CheckpointState(dst *VictimServerState) { *dst = v.st }

// RestoreState overlays captured counters onto a rebuilt server.
func (v *VictimServer) RestoreState(st VictimServerState) { v.st = st }
