package checkpoint

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
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
	want := []string{"00000003-300000000.snap", "00000004-400000000.snap", "00000005-500000000.snap"}
	if files := listSnapFiles(t, dir); !slices.Equal(files, want) {
		t.Errorf("files on disk: %v, want exactly the 3 newest, %v", files, want)
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
	// Reopened with a tighter bound, the store must count the two files it
	// finds: the next save is the third in sequence and rotates out the
	// first.
	st2, err := OpenStore(dir, 2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := st2.Save(3*sim.Millisecond, syntheticSnapshot("snap", 3*sim.Millisecond)); err != nil {
		t.Fatalf("save after reopen: %v", err)
	}
	want := []string{"00000002-2000000.snap", "00000003-3000000.snap"}
	if files := listSnapFiles(t, dir); !slices.Equal(files, want) {
		t.Errorf("files after reopen and save: %v, want %v", files, want)
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
// ErrVersion, which is also an ErrCorrupt, so it is refused like a damaged
// file; and the retired event kind is refused wherever it turns up.
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
	st, err := OpenStore(dir, 1)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for _, name := range listSnapFiles(t, dir) {
		if strings.Contains(name, ".tmp-") {
			t.Errorf("leftover temp file %s survived OpenStore", name)
		}
	}
	// Were a foreign file indexed as a snapshot, the first save would take a
	// later sequence number or rotate the file out at keep 1.
	if err := st.Save(sim.Millisecond, syntheticSnapshot("snap", sim.Millisecond)); err != nil {
		t.Fatalf("save: %v", err)
	}
	want := []string{"00000001-1000000.snap", "job.json", "notes.txt", "result.json"}
	if files := listSnapFiles(t, dir); !slices.Equal(files, want) {
		t.Errorf("files after a save: %v, want %v", files, want)
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
