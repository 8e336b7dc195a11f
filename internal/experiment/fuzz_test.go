package experiment

import (
	"bytes"
	"errors"
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
	f.Add([]byte{})
	f.Add([]byte("MAFICSNP"))
	f.Add([]byte("MAFICSNP\x01\x00\x00\x00")) // the retired versions 1 and 2
	f.Add([]byte("MAFICSNP\x02\x00\x00\x00"))
	f.Add([]byte("MAFICSNP\x03\x00\x00\x00"))
	stopped := make(chan struct{})
	close(stopped)

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := checkpoint.Decode(data)
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
