package checkpoint

import (
	"mafic/internal/baseline"
	"mafic/internal/core"
	"mafic/internal/metrics"
	"mafic/internal/netsim"
	"mafic/internal/pushback"
	"mafic/internal/sim"
	"mafic/internal/traffic"
	"mafic/internal/trafficmatrix"
)

// RunFlags is the run-level activation bookkeeping that lives in the result
// struct rather than in any engine component.
type RunFlags struct {
	Activated          bool
	ActivationSeconds  float64
	DetectedByPushback bool
	ATRCount           int64
}

// Event kinds. EvBuild marks a still-pending build-time event (the rebuild
// recreates it; the restore merely keeps it); every other kind is a
// runtime-scheduled event re-inserted explicitly. The runtime kinds form a
// closed set — a capture fails loudly on an unrecognised handler rather than
// silently dropping an event.
const (
	EvBuild uint8 = iota + 1
	_             // 2 was EvLinkTx, snapshot v1's per-packet transmit-done event: retired, not to be reused
	EvLinkArrive
	EvFlowSend
	EvFlowPhase
	EvFlowEnd
	EvMonitorTick
	EvMonitorLate
	EvProbeSend
	EvWindowEnd
)

// EventState is one pending event in a snapshot.
type EventState struct {
	At   sim.Time
	Seq  uint64
	Kind uint8
	// Index identifies the handler owner by kind: the link index (in
	// Network.ForEachLink order) for link events, the flow index (in
	// Workload.Flows order) for flow events, the defender index (ascending
	// ingress order) for probe-cycle events.
	Index uint32
	// Probe is the probe-record table index for EvProbeSend / EvWindowEnd;
	// the two events of one probe cycle share one record.
	Probe uint32
	// Packet is the in-flight payload of an EvLinkArrive event.
	Packet netsim.PacketState
	// Report is the owned payload of an EvMonitorLate delayed report, set
	// on every late event and nil on every other kind. It is held by
	// pointer because few events carry one.
	Report *trafficmatrix.EpochReportState
}

// ProbeRec is one entry of the deduplicated probe-record table.
type ProbeRec struct {
	Def   uint32
	State core.ProbeRecordState
}

// StreamState is the position of one RNG stream.
type StreamState struct {
	Seed  int64
	Draws uint64
}

// NodeState is the per-node dynamic state, exactly one of Router/Host valid.
type NodeState struct {
	ID     netsim.NodeID
	Router bool
	R      netsim.RouterState
	H      netsim.HostState
}

// Defender kinds in a snapshot.
const (
	DefNone     uint8 = 0
	DefMAFIC    uint8 = 1
	DefBaseline uint8 = 2
)

// Snapshot is the decoded in-memory form of one checkpoint: the scenario
// (JSON, so a resume can rebuild the run from nothing but the snapshot file)
// plus every piece of dynamic state the rebuild does not reproduce.
type Snapshot struct {
	Scenario []byte

	BuildSeq  uint64
	Now       sim.Time
	NextSeq   uint64
	Processed uint64

	Streams []StreamState

	Events    []EventState
	ProbeRecs []ProbeRec

	Links   []netsim.LinkState
	Nodes   []NodeState
	Network netsim.NetworkState

	Monitor     trafficmatrix.MonitorState
	Coordinator pushback.CoordinatorState
	Collector   metrics.CollectorState

	DefKind   uint8
	Defenders []core.DefenderState
	Droppers  []baseline.DropperState

	Flows   []traffic.FlowState
	Victims []traffic.VictimServerState

	Flags RunFlags

	// scratch is the codec Encode walks this snapshot with, and through it the
	// buffer the file is written into before it is copied out; it is kept
	// between calls and never part of the snapshot.
	scratch codec
}
