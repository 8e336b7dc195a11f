package pushback

import (
	"fmt"

	"mafic/internal/netsim"
)

// CoordinatorState is the coordinator's dynamic state: the learned |D_j|
// baselines, the ATR hysteresis tables and the pushback activation record.
// Config, callbacks and the eligibility map are rebuild-covered; cellScratch
// and shareScratch are per-epoch scratch whose content is dead between
// epochs (shareScratch only needs its length to track atrScore).
type CoordinatorState struct {
	History       []float64
	HistoryOK     []bool
	HistorySeen   int64
	ATRScore      []float64
	IdentifiedATR []bool
	Identified    int64
	Active        bool
	ActiveVictim  netsim.NodeID
	TriggerLoad   float64
	CalmEpochs    int64
	RequestsFired int64
	LastEpoch     int64
	LastFireEpoch int64
	PendingRefire bool
}

// CheckpointState captures the coordinator's dynamic state into dst, reusing
// dst's table backing.
func (c *Coordinator) CheckpointState(dst *CoordinatorState) {
	dst.History = append(dst.History[:0], c.history...)
	dst.HistoryOK = append(dst.HistoryOK[:0], c.historyOK...)
	dst.HistorySeen = int64(c.historySeen)
	dst.ATRScore = append(dst.ATRScore[:0], c.atrScore...)
	dst.IdentifiedATR = append(dst.IdentifiedATR[:0], c.identifiedATR...)
	dst.Identified = int64(c.identified)
	dst.Active = c.active
	dst.ActiveVictim = c.activeVictim
	dst.TriggerLoad = c.triggerLoad
	dst.CalmEpochs = int64(c.calmEpochs)
	dst.RequestsFired = int64(c.requestsFired)
	dst.LastEpoch = int64(c.lastEpoch)
	dst.LastFireEpoch = int64(c.lastFireEpoch)
	dst.PendingRefire = c.pendingRefire
}

// RestoreState overlays captured dynamic state onto a rebuilt coordinator.
// The dense tables keep their pooled backing (append into the truncated
// slices), preserving the zero-alloc discipline across a restore.
func (c *Coordinator) RestoreState(st CoordinatorState) error {
	if len(st.History) != len(st.HistoryOK) {
		return fmt.Errorf("pushback: restore history tables disagree: %d loads, %d flags",
			len(st.History), len(st.HistoryOK))
	}
	if len(st.ATRScore) != len(st.IdentifiedATR) {
		return fmt.Errorf("pushback: restore hysteresis tables disagree: %d scores, %d flags",
			len(st.ATRScore), len(st.IdentifiedATR))
	}
	c.history = append(c.history[:0], st.History...)
	c.historyOK = append(c.historyOK[:0], st.HistoryOK...)
	c.historySeen = int(st.HistorySeen)
	c.atrScore = append(c.atrScore[:0], st.ATRScore...)
	c.identifiedATR = append(c.identifiedATR[:0], st.IdentifiedATR...)
	c.shareScratch = c.shareScratch[:0]
	for range st.ATRScore {
		c.shareScratch = append(c.shareScratch, 0)
	}
	c.identified = int(st.Identified)
	c.active = st.Active
	c.activeVictim = st.ActiveVictim
	c.triggerLoad = st.TriggerLoad
	c.calmEpochs = int(st.CalmEpochs)
	c.requestsFired = int(st.RequestsFired)
	c.lastEpoch = int(st.LastEpoch)
	c.lastFireEpoch = int(st.LastFireEpoch)
	c.pendingRefire = st.PendingRefire
	return nil
}

// CheckpointTypes lists this package's structs that carry snapshotted state.
var CheckpointTypes = []any{
	Coordinator{},
	ATR{},
	Request{},
}
