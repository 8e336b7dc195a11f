package loglog

import (
	"bytes"
	"strings"
	"testing"
)

// TestCheckpointRoundTrip pins the two forms a sketch's state takes: buckets
// and add count for a sketch something was added to, the empty form for an
// untouched one — which restores as a reset, whatever the target held.
func TestCheckpointRoundTrip(t *testing.T) {
	src := MustNew(64)
	for i := uint64(0); i < 500; i++ {
		src.Add(i)
	}
	var st SketchState
	src.CheckpointState(&st)
	if !bytes.Equal(st.Buckets, src.buckets) || st.Adds != 500 {
		t.Fatalf("captured %d buckets and %d adds of a sketch with 64 and 500", len(st.Buckets), st.Adds)
	}
	dst := MustNew(64)
	if err := dst.RestoreState(st); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !bytes.Equal(dst.buckets, src.buckets) || dst.adds != src.adds || dst.Estimate() != src.Estimate() {
		t.Error("the restored sketch differs from the captured one")
	}

	// The empty form onto a dirty sketch: dst now holds src's 500 items.
	MustNew(64).CheckpointState(&st)
	if len(st.Buckets) != 0 || st.Adds != 0 {
		t.Fatalf("an untouched sketch was captured as %d buckets and %d adds", len(st.Buckets), st.Adds)
	}
	if err := dst.RestoreState(st); err != nil {
		t.Fatalf("restore of the empty form: %v", err)
	}
	if !bytes.Equal(dst.buckets, make([]uint8, 64)) || dst.adds != 0 || dst.Estimate() != 0 {
		t.Error("the empty form did not reset the sketch it was restored onto")
	}
	if err := dst.RestoreState(SketchState{Buckets: make([]uint8, 64)}); err != nil {
		t.Errorf("all-zero buckets with zero adds, the empty form written out: %v", err)
	}
}

// TestCaptureOfUntouchedSketchCopiesNothing pins what eliding saves at
// capture: dst keeps the backing it had, at the capacity it had, with its
// contents where they were, and nothing is allocated.
func TestCaptureOfUntouchedSketchCopiesNothing(t *testing.T) {
	backing := bytes.Repeat([]byte{7}, 64)
	st := SketchState{Buckets: backing[:64:64], Adds: 9}
	s := MustNew(64)
	if allocs := testing.AllocsPerRun(10, func() { s.CheckpointState(&st) }); allocs != 0 {
		t.Errorf("capturing an untouched sketch allocated %v times", allocs)
	}
	if len(st.Buckets) != 0 || cap(st.Buckets) != 64 || st.Adds != 0 {
		t.Errorf("captured len %d cap %d adds %d, want 0, 64, 0", len(st.Buckets), cap(st.Buckets), st.Adds)
	}
	if &st.Buckets[:1][0] != &backing[0] || !bytes.Equal(backing, bytes.Repeat([]byte{7}, 64)) {
		t.Error("the capture replaced or wrote dst's bucket backing")
	}
	// The same destination then takes a touched sketch without growing.
	s.Add(1)
	s.CheckpointState(&st)
	if len(st.Buckets) != 64 || &st.Buckets[0] != &backing[0] {
		t.Error("a later capture of the touched sketch did not reuse the backing")
	}
}

// TestRestoreRefusesInconsistentState pins the states no sketch can be in.
// Zero adds with a bucket set would be answered 0 by Estimate without a look
// at the buckets; adds without buckets is the empty form contradicting
// itself; a rank above 64 − p + 1 (59 at 64 buckets) is one no hash produces,
// and from 128 up it would break the estimation kernel's arithmetic. A bucket
// array of the wrong length is refused as before. The largest rank itself
// restores.
func TestRestoreRefusesInconsistentState(t *testing.T) {
	set := make([]uint8, 64)
	set[63] = 1
	overRank, maxRank := make([]uint8, 64), make([]uint8, 64)
	overRank[5], maxRank[5] = 60, 59
	if err := MustNew(64).RestoreState(SketchState{Buckets: maxRank, Adds: 1}); err != nil {
		t.Errorf("the largest rank Add records was refused: %v", err)
	}
	for _, tc := range []struct {
		name string
		st   SketchState
		want string
	}{
		{"zero adds, a bucket set", SketchState{Buckets: set}, "non-zero buckets and zero adds"},
		{"adds, no buckets", SketchState{Adds: 3}, "bucket count 0 (with 3 adds)"},
		{"wrong geometry", SketchState{Buckets: make([]uint8, 32), Adds: 3}, "bucket count 32"},
		{"a rank no Add records", SketchState{Buckets: overRank, Adds: 3}, "bucket 5 holds rank 60, above the largest rank 59"},
	} {
		s := MustNew(64)
		s.Add(11)
		before := s.Clone()
		err := s.RestoreState(tc.st)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restore returned %v, want an error saying %q", tc.name, err, tc.want)
		}
		if !bytes.Equal(s.buckets, before.buckets) || s.adds != before.adds {
			t.Errorf("%s: the refused restore changed the sketch", tc.name)
		}
	}
}
