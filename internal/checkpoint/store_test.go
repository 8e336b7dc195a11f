package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mafic/internal/sim"
)

// syntheticSnapshot builds a structurally valid encoded snapshot whose
// scenario payload carries a marker, so store tests can tell snapshots apart
// without building a real simulation (the experiment package owns those
// tests; this package cannot import it).
func syntheticSnapshot(marker string, at sim.Time) []byte {
	return Encode(&Snapshot{Scenario: []byte(marker), Now: at})
}

func listSnapFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read store dir: %v", err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestStoreSaveRotatesOldest(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 3)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 1; i <= 5; i++ {
		at := sim.Time(i) * 100 * sim.Millisecond
		if err := st.Save(at, syntheticSnapshot("snap", at)); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	if st.Count() != 3 {
		t.Fatalf("count after rotation: got %d, want 3", st.Count())
	}
	snaps := st.Snapshots()
	for i, want := range []uint64{3, 4, 5} {
		if snaps[i].Seq != want {
			t.Errorf("snapshot %d: seq %d, want %d", i, snaps[i].Seq, want)
		}
	}
	if files := listSnapFiles(t, dir); len(files) != 3 {
		t.Errorf("files on disk: %v, want exactly the 3 newest", files)
	}
}

func TestStoreReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 1; i <= 2; i++ {
		at := sim.Time(i) * sim.Millisecond
		if err := st.Save(at, syntheticSnapshot("snap", at)); err != nil {
			t.Fatalf("save: %v", err)
		}
	}
	st2, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if st2.Count() != 2 {
		t.Fatalf("reopened count: got %d, want 2", st2.Count())
	}
	if err := st2.Save(3*sim.Millisecond, syntheticSnapshot("snap", 3*sim.Millisecond)); err != nil {
		t.Fatalf("save after reopen: %v", err)
	}
	snaps := st2.Snapshots()
	if got := snaps[len(snaps)-1].Seq; got != 3 {
		t.Errorf("sequence did not continue across reopen: got %d, want 3", got)
	}
}

func TestStoreLatestValidFallsBackPastTruncation(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	older := syntheticSnapshot("older", 100*sim.Millisecond)
	if err := st.Save(100*sim.Millisecond, older); err != nil {
		t.Fatalf("save older: %v", err)
	}
	newer := syntheticSnapshot("newer", 200*sim.Millisecond)
	if err := st.Save(200*sim.Millisecond, newer); err != nil {
		t.Fatalf("save newer: %v", err)
	}
	// Tear the newest file in place, as a crash mid-write would have before
	// the atomic-rename discipline existed.
	newest := st.Snapshots()[1]
	if err := os.WriteFile(filepath.Join(dir, newest.Name), newer[:len(newer)/2], 0o644); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	data, info, skipped, err := st.LatestValid()
	if err != nil {
		t.Fatalf("LatestValid: %v", err)
	}
	if !bytes.Equal(data, older) {
		t.Error("fallback did not return the older valid snapshot")
	}
	if info.Seq != 1 {
		t.Errorf("fallback info: seq %d, want 1", info.Seq)
	}
	if len(skipped) != 1 || skipped[0].Seq != newest.Seq {
		t.Errorf("skipped list %v, want just the torn newest snapshot", skipped)
	}
}

func TestStoreLatestValidFallsBackPastBitFlip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	older := syntheticSnapshot("older", 100*sim.Millisecond)
	if err := st.Save(100*sim.Millisecond, older); err != nil {
		t.Fatalf("save older: %v", err)
	}
	newer := syntheticSnapshot("newer", 200*sim.Millisecond)
	if err := st.Save(200*sim.Millisecond, newer); err != nil {
		t.Fatalf("save newer: %v", err)
	}
	// Flip a byte of the version field — the same corruption family the
	// FuzzSnapshotDecode corpus exercises; Decode must reject it cleanly.
	flipped := append([]byte(nil), newer...)
	flipped[8] ^= 0xff
	newest := st.Snapshots()[1]
	if err := os.WriteFile(filepath.Join(dir, newest.Name), flipped, 0o644); err != nil {
		t.Fatalf("flip: %v", err)
	}

	data, info, skipped, err := st.LatestValid()
	if err != nil {
		t.Fatalf("LatestValid: %v", err)
	}
	if !bytes.Equal(data, older) || info.Seq != 1 {
		t.Error("fallback did not land on the older valid snapshot")
	}
	if len(skipped) != 1 {
		t.Errorf("skipped %d snapshots, want 1", len(skipped))
	}
}

// retiredVersions are the format versions earlier builds wrote.
var retiredVersions = []uint32{1, 2}

// asVersion rewrites the header of an encoded snapshot to a retired format
// version, which is all Decode ever reads of such a file.
func asVersion(data []byte, version uint32) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[len(snapshotMagic):], version)
	return out
}

// TestDecodeRefusesVersion1 pins the story of every retired version: such a
// file is not migrated (a version 1 file holds transmit-done events this
// build cannot dispatch and a Processed count on the old scale, a version 2
// file fixed-width integers this build would misread) but refused with
// ErrVersion, which is also an ErrCorrupt so that everything walking past
// corrupt files walks past it; and the retired event kind is refused wherever
// it turns up.
func TestDecodeRefusesVersion1(t *testing.T) {
	for _, v := range retiredVersions {
		_, err := Decode(asVersion(syntheticSnapshot("old", sim.Second), v))
		if !errors.Is(err, ErrVersion) || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Decode of a version %d file: %v, want ErrVersion (an ErrCorrupt)", v, err)
		}
	}
	if _, err := Decode(syntheticSnapshot("new", sim.Second)); err != nil {
		t.Fatalf("Decode of a current file: %v", err)
	}
	const evLinkTx = 2
	_, err := Decode(Encode(&Snapshot{Events: []EventState{{At: sim.Second, Seq: 7, Kind: evLinkTx}}}))
	if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrVersion) {
		t.Fatalf("Decode of a transmit-done event: %v, want ErrCorrupt", err)
	}
}

func TestStoreLatestValidSkipsVersion1(t *testing.T) {
	for _, v := range retiredVersions {
		st, err := OpenStore(t.TempDir(), 4)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		older := syntheticSnapshot("older", 100*sim.Millisecond)
		if err := st.Save(100*sim.Millisecond, older); err != nil {
			t.Fatalf("save older: %v", err)
		}
		if err := st.Save(200*sim.Millisecond, asVersion(syntheticSnapshot("newer", 200*sim.Millisecond), v)); err != nil {
			t.Fatalf("save newer: %v", err)
		}
		data, info, skipped, err := st.LatestValid()
		if err != nil {
			t.Fatalf("LatestValid: %v", err)
		}
		if !bytes.Equal(data, older) || info.Seq != 1 || len(skipped) != 1 || skipped[0].Seq != 2 {
			t.Errorf("landed on seq %d skipping %v, want seq 1 skipping the version %d file", info.Seq, skipped, v)
		}
	}
}

func TestStoreLatestValidAllCorrupt(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 1; i <= 2; i++ {
		at := sim.Time(i) * sim.Millisecond
		if err := st.Save(at, syntheticSnapshot("snap", at)); err != nil {
			t.Fatalf("save: %v", err)
		}
	}
	for _, info := range st.Snapshots() {
		if err := os.WriteFile(filepath.Join(dir, info.Name), []byte("garbage"), 0o644); err != nil {
			t.Fatalf("corrupt: %v", err)
		}
	}
	_, _, skipped, err := st.LatestValid()
	if !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("want ErrNoSnapshot, got %v", err)
	}
	if len(skipped) != 2 {
		t.Errorf("skipped %d snapshots, want 2", len(skipped))
	}
}

func TestStoreRemoveAdvancesFallback(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	older := syntheticSnapshot("older", sim.Millisecond)
	st.Save(sim.Millisecond, older)
	newer := syntheticSnapshot("newer", 2*sim.Millisecond)
	st.Save(2*sim.Millisecond, newer)

	_, info, _, err := st.LatestValid()
	if err != nil || info.Seq != 2 {
		t.Fatalf("LatestValid before remove: %v %v", info, err)
	}
	if err := st.Remove(info); err != nil {
		t.Fatalf("remove: %v", err)
	}
	data, info, _, err := st.LatestValid()
	if err != nil {
		t.Fatalf("LatestValid after remove: %v", err)
	}
	if info.Seq != 1 || !bytes.Equal(data, older) {
		t.Error("remove did not advance the fallback to the older snapshot")
	}
}

func TestStoreOpenIgnoresForeignFilesAndCleansTemps(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"job.json", "result.json", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatalf("seed %s: %v", name, err)
		}
	}
	// A leftover from an atomic write interrupted by a crash.
	tmpName := "00000007-5.snap.tmp-1234"
	if err := os.WriteFile(filepath.Join(dir, tmpName), []byte("partial"), 0o644); err != nil {
		t.Fatalf("seed temp: %v", err)
	}
	st, err := OpenStore(dir, 3)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if st.Count() != 0 {
		t.Errorf("foreign files were indexed as snapshots: %v", st.Snapshots())
	}
	for _, name := range listSnapFiles(t, dir) {
		if strings.Contains(name, ".tmp-") {
			t.Errorf("leftover temp file %s survived OpenStore", name)
		}
	}
}

func TestStoreClear(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 3)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 1; i <= 3; i++ {
		at := sim.Time(i) * sim.Millisecond
		if err := st.Save(at, syntheticSnapshot("snap", at)); err != nil {
			t.Fatalf("save: %v", err)
		}
	}
	if err := st.Clear(); err != nil {
		t.Fatalf("clear: %v", err)
	}
	if st.Count() != 0 {
		t.Errorf("count after clear: %d", st.Count())
	}
	for _, name := range listSnapFiles(t, dir) {
		if strings.HasSuffix(name, snapSuffix) {
			t.Errorf("snapshot %s survived Clear", name)
		}
	}
	// Sequence numbers keep counting so names never collide with history.
	if err := st.Save(4*sim.Millisecond, syntheticSnapshot("snap", 4*sim.Millisecond)); err != nil {
		t.Fatalf("save after clear: %v", err)
	}
	if got := st.Snapshots()[0].Seq; got != 4 {
		t.Errorf("sequence restarted after Clear: got %d, want 4", got)
	}
}

func TestWriteFileAtomicReplacesWholeFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target.json")
	if err := WriteFileAtomic(path, []byte("first version, quite long"), 0o644); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if err := WriteFileAtomic(path, []byte("second"), 0o600); err != nil {
		t.Fatalf("second write: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if string(got) != "second" {
		t.Errorf("content %q, want %q — the old tail must not survive", got, "second")
	}
	for _, name := range listSnapFiles(t, dir) {
		if strings.Contains(name, ".tmp-") {
			t.Errorf("temp file %s leaked", name)
		}
	}
}
