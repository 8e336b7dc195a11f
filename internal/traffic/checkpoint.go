package traffic

import (
	"fmt"

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

// FlowState is the dynamic state of one flow, a superset across the flow
// kinds: a TCP source uses the congestion fields, the paced kinds use only
// the counters and, when gated, the burst flag and count. Configuration,
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

// CaptureFlowState captures the dynamic state of one flow into dst. Pending
// send and gate events are captured separately through the scheduler walk;
// the EventRef fields themselves do not travel (a stale ref is a safe no-op
// and live ones are re-bound by the restore).
func CaptureFlowState(f Flow, dst *FlowState) error {
	switch s := f.(type) {
	case *TCPSource:
		*dst = FlowState{
			Kind:      FlowTCP,
			Running:   s.running,
			Cwnd:      s.cwnd,
			Ssthresh:  s.ssthresh,
			Seq:       s.seq,
			LastAcked: s.lastAcked,
			DupAcks:   int64(s.dupAcks),
			LastAckAt: s.lastAckAt,
			Sent:      s.sent,
			Acked:     s.acked,
			Timeouts:  s.timeouts,
			FastRetx:  s.fastRetx,
			ProbeSeen: s.probeSeen,
		}
	case *PacedSource:
		// An ungated sender never sets inBurst or counts a burst, so it
		// writes false and zero here as the gateless kinds always have.
		*dst = FlowState{
			Kind: s.cfg.kind, Running: s.running, InBurst: s.inBurst,
			Seq: s.seq, Sent: s.sent, Bursts: s.bursts,
		}
	default:
		return fmt.Errorf("traffic: cannot checkpoint flow of type %T", f)
	}
	return nil
}

// RestoreFlowState overlays captured state onto the corresponding rebuilt
// flow. The kind tag must match the rebuilt flow's: a mismatch means the
// snapshot and the rebuild disagree about the workload.
func RestoreFlowState(f Flow, st FlowState) error {
	switch s := f.(type) {
	case *TCPSource:
		if st.Kind != FlowTCP {
			break
		}
		s.running = st.Running
		s.cwnd = st.Cwnd
		s.ssthresh = st.Ssthresh
		s.seq = st.Seq
		s.lastAcked = st.LastAcked
		s.dupAcks = int(st.DupAcks)
		s.lastAckAt = st.LastAckAt
		s.sent = st.Sent
		s.acked = st.Acked
		s.timeouts = st.Timeouts
		s.fastRetx = st.FastRetx
		s.probeSeen = st.ProbeSeen
		return nil
	case *PacedSource:
		if st.Kind != s.cfg.kind {
			break
		}
		s.running = st.Running
		s.inBurst = st.InBurst
		s.seq = st.Seq
		s.sent = st.Sent
		s.bursts = st.Bursts
		return nil
	default:
		return fmt.Errorf("traffic: cannot restore flow of type %T", f)
	}
	return fmt.Errorf("traffic: flow %d: snapshot flow kind %d does not match the rebuilt flow's", f.ID(), st.Kind)
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

// VictimServerState is the dynamic state of a victim server: its arrival and
// acknowledgement counters. The host binding and handler wiring are
// rebuild-covered.
type VictimServerState struct {
	Received      uint64
	ReceivedBad   uint64
	ReceivedGood  uint64
	AcksGenerated uint64
}

// CheckpointState captures the server's counters into dst.
func (v *VictimServer) CheckpointState(dst *VictimServerState) {
	*dst = VictimServerState{
		Received:      v.received,
		ReceivedBad:   v.receivedBad,
		ReceivedGood:  v.receivedGood,
		AcksGenerated: v.acksGenerated,
	}
}

// RestoreState overlays captured counters onto a rebuilt server.
func (v *VictimServer) RestoreState(st VictimServerState) {
	v.received = st.Received
	v.receivedBad = st.ReceivedBad
	v.receivedGood = st.ReceivedGood
	v.acksGenerated = st.AcksGenerated
}

// CheckpointTypes lists this package's structs that carry snapshotted state.
var CheckpointTypes = []any{
	TCPSource{},
	PacedSource{},
	gateOpen{},
	gateShut{},
	VictimServer{},
	Workload{},
}
