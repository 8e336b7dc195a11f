package metrics

import (
	"fmt"

	"mafic/internal/sim"
)

// CollectorState is the collector's dynamic state, held by the collector as
// it runs: the activation record, every raw counter, and the dense bandwidth
// time series. The bin width and the tap/hook wiring are rebuild-covered.
type CollectorState struct {
	Activated    bool
	ActivationAt sim.Time
	Counts       Counts
	Bins         []BandwidthPoint
}

// CheckpointState captures the collector's dynamic state into dst, reusing
// dst's bin backing.
func (c *Collector) CheckpointState(dst *CollectorState) {
	bins := append(dst.Bins[:0], c.st.Bins...)
	*dst = c.st
	dst.Bins = bins
}

// RestoreState overlays captured dynamic state onto a rebuilt collector. The
// series keeps its reserved backing when it is large enough.
func (c *Collector) RestoreState(st CollectorState) error {
	for i := range st.Bins {
		if want := sim.Time(i) * c.binWidth; st.Bins[i].Time != want {
			return fmt.Errorf("metrics: restore bin %d starts at %v, rebuilt bin width implies %v",
				i, st.Bins[i].Time, want)
		}
	}
	bins := append(c.st.Bins[:0], st.Bins...)
	c.st = st
	c.st.Bins = bins
	return nil
}
