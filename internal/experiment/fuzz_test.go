package experiment

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"

	"mafic/internal/checkpoint"
	"mafic/internal/sim"
)

// FuzzSnapshotDecode lives in this package (not internal/checkpoint) because
// seeding the corpus with real snapshots needs the experiment build path, and
// checkpoint cannot import experiment. The decoder's contract under fuzzing:
// arbitrary, truncated or bit-flipped input returns a clean error — never a
// panic, and never an allocation larger than the input could justify (the
// reader's count() bounds every preallocation by the remaining payload).
// Input that decodes to a snapshot of one of the seed scenarios is restored
// as well (not run), under the same contract: Restore refuses what it cannot
// resume. The seeds are taken from the running build, so they are always at
// the current SnapshotVersion.
//
// Every input is also decoded in place, into a Snapshot that last held a
// catalog snapshot of another shape — lossy-control's, with late reports in
// flight, and a proportional-dropping stress-1k's, with the other arm of the
// defender union and routers where the seeds have hosts — as a resume
// decodes into the bundle's Snapshot. The outcome must be a fresh Decode's:
// an error in both cases, or the same snapshot.
func FuzzSnapshotDecode(f *testing.F) {
	var scenarios [][]byte
	for _, name := range []string{"table2", "flap-core"} {
		e, ok := LookupScenario(name)
		if !ok {
			continue
		}
		s := Quick(e.Build())
		var data []byte
		if _, err := RunWithCheckpoints(s, []sim.Time{s.Duration / 2}, func(_ sim.Time, d []byte) error {
			data = d
			return nil
		}); err != nil {
			f.Fatalf("seed snapshot for %s: %v", name, err)
		}
		snap, err := checkpoint.Decode(data)
		if err != nil {
			f.Fatalf("seed snapshot for %s: %v", name, err)
		}
		scenarios = append(scenarios, bytes.Clone(snap.Scenario))
		f.Add(data)
		// A file from before the oracle options were deleted: see
		// TestResumeIgnoresRetiredScenarioKeys.
		stale := mutateSnapshot(f, data, spliceRetiredKeys)
		if snap, err = checkpoint.Decode(stale); err != nil {
			f.Fatalf("seed snapshot for %s with retired keys: %v", name, err)
		}
		scenarios = append(scenarios, bytes.Clone(snap.Scenario))
		f.Add(stale)
		// Well-formed files Restore has to refuse: see
		// TestRestoreChecksLinkOccupancy.
		for _, tc := range restoreRefusals {
			f.Add(mutateSnapshot(f, data, tc.mut))
		}
		f.Add(data[:len(data)/2])
		f.Add(data[:len(data)/3])
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/2] ^= 0xff
		f.Add(flipped)
	}
	others := [][]byte{lateReportSnapshot(f)}
	s1k, ok := LookupScenario("stress-1k")
	if !ok {
		f.Fatal("stress-1k not registered")
	}
	baseline := Quick(s1k.Build())
	baseline.Defense = DefenseBaseline
	baselineData, _ := snapshotMidRun(f, baseline, baseline.Duration/2)
	others = append(others, baselineData)
	f.Add([]byte{})
	f.Add([]byte("MAFICSNP"))
	f.Add([]byte("MAFICSNP\x01\x00\x00\x00")) // the retired versions 1 and 2
	f.Add([]byte("MAFICSNP\x02\x00\x00\x00"))
	f.Add([]byte("MAFICSNP\x03\x00\x00\x00"))
	stopped := make(chan struct{})
	close(stopped)

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := checkpoint.Decode(data)
		for _, other := range others {
			kept, oerr := checkpoint.Decode(other)
			if oerr != nil {
				t.Fatalf("decode the other shape: %v", oerr)
			}
			inPlace := checkpoint.DecodeInto(kept, data)
			switch {
			case (err == nil) != (inPlace == nil):
				t.Fatalf("a fresh decode returned %v, one in place %v", err, inPlace)
			case err == nil && !sameState(reflect.ValueOf(*snap), reflect.ValueOf(*kept)):
				t.Fatalf("a decode in place differs from a fresh one in %v", differingFields(snap, kept))
			}
		}
		if err != nil {
			return
		}
		// A successfully decoded snapshot must survive a re-encode cycle:
		// Encode must not panic on it and its output must decode cleanly.
		if _, err := checkpoint.Decode(checkpoint.Encode(snap)); err != nil {
			t.Fatalf("re-encoded snapshot fails to decode: %v", err)
		}
		if slices.ContainsFunc(scenarios, func(sc []byte) bool { return bytes.Equal(sc, snap.Scenario) }) {
			// An interrupt that is already pending stops the resume right
			// after the restore.
			_, err := ResumeControlled(data, ControlOptions{Interrupt: stopped})
			if !errors.Is(err, ErrInterrupted) && !errors.Is(err, ErrSnapshot) {
				t.Fatalf("restore: %v", err)
			}
		}
	})
}

// lateReportSnapshot is a snapshot of quick lossy-control taken at the first
// of its pauses, every half report delay, that has a delayed report in flight.
func lateReportSnapshot(tb testing.TB) []byte {
	tb.Helper()
	e, ok := LookupScenario("lossy-control")
	if !ok {
		tb.Fatal("lossy-control not registered")
	}
	s := Quick(e.Build())
	var late []byte
	found := make(chan struct{})
	save := func(_ sim.Time, data []byte) error {
		if late != nil {
			return nil
		}
		snap, err := checkpoint.Decode(data)
		if err != nil {
			return err
		}
		if slices.ContainsFunc(snap.Events, func(ev checkpoint.EventState) bool { return ev.Kind == checkpoint.EvMonitorLate }) {
			late = data
			close(found)
		}
		return nil
	}
	_, err := RunControlled(s, ControlOptions{CheckpointEvery: s.Faults.ReportDelay / 2, Save: save, Interrupt: found})
	if late == nil {
		tb.Fatalf("lossy-control: no snapshot held a delayed report (run returned %v)", err)
	}
	return late
}

// differingFields names the fields of two snapshots that sameState tells
// apart.
func differingFields(a, b *checkpoint.Snapshot) []string {
	av, bv := reflect.ValueOf(*a), reflect.ValueOf(*b)
	var differ []string
	for i := 0; i < av.NumField(); i++ {
		if f := av.Type().Field(i); f.IsExported() && !sameState(av.Field(i), bv.Field(i)) {
			differ = append(differ, f.Name)
		}
	}
	return differ
}
