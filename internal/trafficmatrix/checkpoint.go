package trafficmatrix

import (
	"fmt"
	"slices"

	"mafic/internal/loglog"
	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// CounterState is the dynamic state of one per-router counter: both sketch
// pairs and the exact packet tallies for the epoch in progress. The router
// binding and bucket geometry are rebuild-covered.
type CounterState struct {
	Source     loglog.PairState
	Dest       loglog.PairState
	SourcePkts uint64
	DestPkts   uint64
	Transit    uint64
}

// MonitorState is the monitor's dynamic state. Counters are listed in
// routerIDs order (ascending router ID), which a deterministic rebuild
// reproduces exactly. The reused estimate tables are not captured: every
// epoch computation overwrites them from scratch, so their content between
// epochs is dead state, as are the generation that guards live reports (none
// outlives its callback) and the work counters of Stats.
type MonitorState struct {
	EpochIndex int64
	EpochStart sim.Time
	Stop       bool
	Running    bool
	Counters   []CounterState
}

// CheckpointState captures the monitor's dynamic state into dst. Counter
// records dst already holds are refilled in place, so their sketch bucket
// arrays are reused from one capture to the next.
func (m *Monitor) CheckpointState(dst *MonitorState) {
	dst.EpochIndex = int64(m.epochIndex)
	dst.EpochStart = m.epochStart
	dst.Stop = m.stop
	dst.Running = m.running
	n := len(m.routerIDs)
	if n > cap(dst.Counters) {
		dst.Counters = slices.Grow(dst.Counters[:cap(dst.Counters)], n-cap(dst.Counters))
	}
	dst.Counters = dst.Counters[:n]
	for i, id := range m.routerIDs {
		c := m.counters[id]
		rec := &dst.Counters[i]
		c.source.CheckpointState(&rec.Source)
		c.dest.CheckpointState(&rec.Dest)
		rec.SourcePkts = c.sourcePkts
		rec.DestPkts = c.destPkts
		rec.Transit = c.transit
	}
}

// RestoreState overlays captured dynamic state onto a rebuilt monitor with
// the same monitored set.
func (m *Monitor) RestoreState(st MonitorState) error {
	if len(st.Counters) != len(m.routerIDs) {
		return fmt.Errorf("trafficmatrix: restore has %d counters, rebuilt monitor has %d",
			len(st.Counters), len(m.routerIDs))
	}
	m.epochIndex = int(st.EpochIndex)
	m.epochStart = st.EpochStart
	m.stop = st.Stop
	m.running = st.Running
	for i, id := range m.routerIDs {
		c := m.counters[id]
		rec := &st.Counters[i]
		if err := c.source.RestoreState(rec.Source); err != nil {
			return fmt.Errorf("trafficmatrix: router %d source pair: %w", id, err)
		}
		if err := c.dest.RestoreState(rec.Dest); err != nil {
			return fmt.Errorf("trafficmatrix: router %d dest pair: %w", id, err)
		}
		c.sourcePkts = rec.SourcePkts
		c.destPkts = rec.DestPkts
		c.transit = rec.Transit
	}
	return nil
}

// EpochReportState is the serializable form of a delayed epoch report in
// flight on the control channel. Delayed reports are owned deep copies, so
// the full contents travel in the snapshot.
type EpochReportState struct {
	Epoch      int64
	Start, End sim.Time
	Routers    []netsim.NodeID
	SourceEst  []float64
	DestEst    []float64
	Matrix     []Cell
}

// CaptureEpochReport copies the report a pending delayed-delivery event
// carries as its payload into dst, reusing dst's slices.
func (m *Monitor) CaptureEpochReport(arg any, dst *EpochReportState) error {
	r, ok := arg.(*EpochReport)
	if !ok {
		return fmt.Errorf("trafficmatrix: delayed-report payload is %T, not an epoch report", arg)
	}
	dst.Epoch = int64(r.Epoch)
	dst.Start = r.Start
	dst.End = r.End
	dst.Routers = append(dst.Routers[:0], r.Routers...)
	dst.SourceEst = append(dst.SourceEst[:0], r.SourceEst...)
	dst.DestEst = append(dst.DestEst[:0], r.DestEst...)
	dst.Matrix = append(dst.Matrix[:0], r.Matrix...)
	return nil
}

// RestoreEpochReport materializes a delayed report from its captured state,
// for use as the payload of the re-inserted delivery event. Like the original
// delayed copy, the restored report owns its backing: it copies st's tables,
// so that the snapshot it came from may be decoded or captured into again
// while the report is in flight.
func (m *Monitor) RestoreEpochReport(st *EpochReportState) any {
	return &EpochReport{
		Epoch:     int(st.Epoch),
		Start:     st.Start,
		End:       st.End,
		Routers:   slices.Clone(st.Routers),
		SourceEst: slices.Clone(st.SourceEst),
		DestEst:   slices.Clone(st.DestEst),
		Matrix:    slices.Clone(st.Matrix),
	}
}
