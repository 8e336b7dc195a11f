package pushback

import (
	"fmt"

	"mafic/internal/netsim"
)

// CoordinatorState is the coordinator's dynamic state, held by the
// coordinator as it runs: the learned |D_j| baselines, the ATR hysteresis
// tables and the pushback activation record. Config, callbacks and the
// eligibility map are rebuild-covered; cellScratch and shareScratch are
// per-epoch scratch whose content is dead between epochs (shareScratch only
// needs its length to track ATRScore).
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

// copyState sets *dst to st with its four tables copied into dst's own
// backing, so a capture reuses the session's and a restore the coordinator's.
func copyState(dst, st *CoordinatorState) {
	kept := *dst
	*dst = *st
	dst.History = append(kept.History[:0], st.History...)
	dst.HistoryOK = append(kept.HistoryOK[:0], st.HistoryOK...)
	dst.ATRScore = append(kept.ATRScore[:0], st.ATRScore...)
	dst.IdentifiedATR = append(kept.IdentifiedATR[:0], st.IdentifiedATR...)
}

// CheckpointState captures the coordinator's dynamic state into dst, reusing
// dst's table backing.
func (c *Coordinator) CheckpointState(dst *CoordinatorState) { copyState(dst, &c.st) }

// RestoreState overlays captured dynamic state onto a rebuilt coordinator.
// The dense tables keep their own backing, preserving the zero-alloc
// discipline across a restore.
func (c *Coordinator) RestoreState(st CoordinatorState) error {
	if len(st.History) != len(st.HistoryOK) {
		return fmt.Errorf("pushback: restore history tables disagree: %d loads, %d flags",
			len(st.History), len(st.HistoryOK))
	}
	if len(st.ATRScore) != len(st.IdentifiedATR) {
		return fmt.Errorf("pushback: restore hysteresis tables disagree: %d scores, %d flags",
			len(st.ATRScore), len(st.IdentifiedATR))
	}
	copyState(&c.st, &st)
	c.shareScratch = c.shareScratch[:0]
	for range st.ATRScore {
		c.shareScratch = append(c.shareScratch, 0)
	}
	return nil
}
