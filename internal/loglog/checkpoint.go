package loglog

import (
	"fmt"
	"slices"
)

// SketchState is the dynamic state of one sketch. The parameters (bucket
// count, hash split) are rebuild-covered; only the bucket contents and the
// add counter travel in a snapshot. A sketch nothing was added to is all
// zero, and travels in the empty form: no Buckets, zero Adds.
type SketchState struct {
	Buckets []uint8
	Adds    uint64
}

// CheckpointState captures the sketch's dynamic state into dst, reusing dst's
// bucket backing; an untouched sketch's buckets are not read.
func (s *Sketch) CheckpointState(dst *SketchState) {
	dst.Buckets = dst.Buckets[:0]
	if s.adds != 0 {
		dst.Buckets = append(dst.Buckets, s.buckets...)
	}
	dst.Adds = s.adds
}

// RestoreState overlays captured dynamic state onto a rebuilt sketch of the
// same geometry; the empty form resets it. Buckets set with zero Adds is
// refused: Estimate answers that 0 unseen, so no sketch can have reached it;
// so is a bucket above the largest rank Add records.
func (s *Sketch) RestoreState(st SketchState) error {
	if len(st.Buckets) == 0 && st.Adds == 0 {
		s.Reset()
		return nil
	}
	if len(st.Buckets) != len(s.buckets) {
		return fmt.Errorf("loglog: restore bucket count %d (with %d adds) does not match rebuilt sketch %d",
			len(st.Buckets), st.Adds, len(s.buckets))
	}
	if st.Adds == 0 && slices.ContainsFunc(st.Buckets, func(b uint8) bool { return b != 0 }) {
		return fmt.Errorf("loglog: restore has non-zero buckets and zero adds")
	}
	top := s.maxRank()
	for i, b := range st.Buckets {
		if b > top {
			return fmt.Errorf("loglog: restore bucket %d holds rank %d, above the largest rank %d of a %d-bucket sketch", i, b, top, s.m)
		}
	}
	copy(s.buckets, st.Buckets)
	s.adds = st.Adds
	return nil
}

// PairState is the dynamic state of a double-buffered pair. Capturing the
// active and shadow halves by role (rather than by backing-slab position)
// makes the physical orientation — which slab slot is active after an odd or
// even number of swaps — irrelevant: the halves are only ever reached through
// Active and Shadow, so overlaying by role restores identical behaviour.
type PairState struct {
	Active SketchState
	Shadow SketchState
}

// CheckpointState captures both halves of the pair into dst.
func (p *Pair) CheckpointState(dst *PairState) {
	p.active.CheckpointState(&dst.Active)
	p.shadow.CheckpointState(&dst.Shadow)
}

// RestoreState overlays captured state onto a rebuilt pair of the same
// geometry.
func (p *Pair) RestoreState(st PairState) error {
	if err := p.active.RestoreState(st.Active); err != nil {
		return err
	}
	return p.shadow.RestoreState(st.Shadow)
}
