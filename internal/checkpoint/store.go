package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"mafic/internal/sim"
)

// snapFile is one snapshot file in a Store: its name within the store
// directory and its write sequence, which orders files that carry the same
// virtual time.
type snapFile struct {
	name string
	seq  uint64
}

// Store is a rotated on-disk snapshot store: every Save writes a new snapshot
// file atomically (temp + fsync + rename) and the oldest files beyond the keep
// bound are deleted. Files are plain snapshot wire format, so any stored file
// can be fed to `maficsim -resume`. Nothing in the store reads them back.
//
// A Store is not safe for concurrent use.
type Store struct {
	dir     string
	keep    int
	snaps   []snapFile // ascending by seq
	nextSeq uint64
}

const snapSuffix = ".snap"

func snapFileName(seq uint64, at sim.Time) string {
	return fmt.Sprintf("%08d-%d%s", seq, int64(at), snapSuffix)
}

// parseSnapName inverts snapFileName; ok is false for any other file.
func parseSnapName(name string) (snapFile, bool) {
	base, found := strings.CutSuffix(name, snapSuffix)
	if !found {
		return snapFile{}, false
	}
	seqStr, atStr, found := strings.Cut(base, "-")
	if !found {
		return snapFile{}, false
	}
	seq, err := strconv.ParseUint(seqStr, 10, 64)
	if err != nil {
		return snapFile{}, false
	}
	if at, err := strconv.ParseInt(atStr, 10, 64); err != nil || at < 0 {
		return snapFile{}, false
	}
	return snapFile{name: name, seq: seq}, true
}

// OpenStore opens (creating if needed) the snapshot store rooted at dir,
// keeping at most keep snapshots per rotation (values below 1 are treated as
// 1). Leftover temp files from an interrupted atomic write are removed;
// snapshot files are indexed by name only, for rotation and the write
// sequence, so opening a store over damaged files never fails.
func OpenStore(dir string, keep int) (*Store, error) {
	if keep < 1 {
		keep = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("open snapshot store: %w", err)
	}
	st := &Store{dir: dir, keep: keep, nextSeq: 1}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("open snapshot store: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.Contains(name, ".tmp-") {
			// A crash mid-WriteFileAtomic leaves only the temp file; the
			// real snapshot set is untouched, so the leftover is garbage.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		f, ok := parseSnapName(name)
		if !ok {
			continue
		}
		st.snaps = append(st.snaps, f)
		if f.seq >= st.nextSeq {
			st.nextSeq = f.seq + 1
		}
	}
	sort.Slice(st.snaps, func(i, j int) bool { return st.snaps[i].seq < st.snaps[j].seq })
	return st, nil
}

// Save writes one snapshot atomically and rotates out the oldest files
// beyond the keep bound. A crash during Save can never damage an existing
// snapshot: the new file appears only via rename, and rotation deletes old
// files only after the new one is durable.
func (st *Store) Save(at sim.Time, data []byte) error {
	f := snapFile{name: snapFileName(st.nextSeq, at), seq: st.nextSeq}
	if err := WriteFileAtomic(filepath.Join(st.dir, f.name), data, 0o644); err != nil {
		return fmt.Errorf("save snapshot: %w", err)
	}
	st.nextSeq++
	st.snaps = append(st.snaps, f)
	for len(st.snaps) > st.keep {
		old := st.snaps[0]
		st.snaps = append(st.snaps[:0], st.snaps[1:]...)
		if err := os.Remove(filepath.Join(st.dir, old.name)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("rotate snapshot store: %w", err)
		}
	}
	return nil
}
