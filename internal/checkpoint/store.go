package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"mafic/internal/sim"
)

// ErrNoSnapshot is returned by LatestValid when a store holds no snapshot
// that decodes cleanly (including when it holds no snapshots at all).
var ErrNoSnapshot = errors.New("checkpoint: no valid snapshot in store")

// SnapInfo describes one snapshot file in a Store.
type SnapInfo struct {
	// Name is the file name within the store directory.
	Name string
	// Seq is the monotonically increasing write sequence; it keeps
	// ordering unambiguous even when two snapshots carry the same virtual
	// time (a drain snapshot taken right after a scheduled one does).
	Seq uint64
	// At is the simulation time the snapshot was taken at.
	At sim.Time
}

// Store is a rotated on-disk snapshot store for one long-running job: every
// Save writes a new snapshot file atomically (temp + fsync + rename) and the
// oldest files beyond the keep bound are deleted. Files are plain snapshot
// wire format, so any stored file can also be fed to `maficsim -resume`.
//
// A Store is owned by a single job runner at a time; it is not safe for
// concurrent use.
type Store struct {
	dir     string
	keep    int
	snaps   []SnapInfo // ascending by Seq
	nextSeq uint64
}

const snapSuffix = ".snap"

func snapFileName(seq uint64, at sim.Time) string {
	return fmt.Sprintf("%08d-%d%s", seq, int64(at), snapSuffix)
}

// parseSnapName inverts snapFileName; ok is false for any other file.
func parseSnapName(name string) (SnapInfo, bool) {
	base, found := strings.CutSuffix(name, snapSuffix)
	if !found {
		return SnapInfo{}, false
	}
	seqStr, atStr, found := strings.Cut(base, "-")
	if !found {
		return SnapInfo{}, false
	}
	seq, err := strconv.ParseUint(seqStr, 10, 64)
	if err != nil {
		return SnapInfo{}, false
	}
	at, err := strconv.ParseInt(atStr, 10, 64)
	if err != nil || at < 0 {
		return SnapInfo{}, false
	}
	return SnapInfo{Name: name, Seq: seq, At: sim.Time(at)}, true
}

// OpenStore opens (creating if needed) the snapshot store rooted at dir,
// keeping at most keep snapshots per rotation (values below 1 are treated as
// 1). Leftover temp files from an interrupted atomic write are removed;
// snapshot files are indexed by name only — corruption is detected lazily by
// LatestValid, so opening a store over damaged files never fails.
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
		info, ok := parseSnapName(name)
		if !ok {
			continue
		}
		st.snaps = append(st.snaps, info)
		if info.Seq >= st.nextSeq {
			st.nextSeq = info.Seq + 1
		}
	}
	sort.Slice(st.snaps, func(i, j int) bool { return st.snaps[i].Seq < st.snaps[j].Seq })
	return st, nil
}

// Count returns the number of snapshot files currently tracked.
func (st *Store) Count() int { return len(st.snaps) }

// Snapshots returns the tracked snapshots in ascending write order.
func (st *Store) Snapshots() []SnapInfo {
	return append([]SnapInfo(nil), st.snaps...)
}

// Save writes one snapshot atomically and rotates out the oldest files
// beyond the keep bound. A crash during Save can never damage an existing
// snapshot: the new file appears only via rename, and rotation deletes old
// files only after the new one is durable.
func (st *Store) Save(at sim.Time, data []byte) error {
	info := SnapInfo{Seq: st.nextSeq, At: at}
	info.Name = snapFileName(info.Seq, at)
	if err := WriteFileAtomic(filepath.Join(st.dir, info.Name), data, 0o644); err != nil {
		return fmt.Errorf("save snapshot: %w", err)
	}
	st.nextSeq++
	st.snaps = append(st.snaps, info)
	for len(st.snaps) > st.keep {
		old := st.snaps[0]
		st.snaps = append(st.snaps[:0], st.snaps[1:]...)
		if err := os.Remove(filepath.Join(st.dir, old.Name)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("rotate snapshot store: %w", err)
		}
	}
	return nil
}

// Remove deletes one tracked snapshot, typically after it failed to restore
// and recovery wants the next LatestValid call to fall back past it.
func (st *Store) Remove(info SnapInfo) error {
	for i := range st.snaps {
		if st.snaps[i].Seq == info.Seq {
			st.snaps = append(st.snaps[:i], st.snaps[i+1:]...)
			break
		}
	}
	if err := os.Remove(filepath.Join(st.dir, info.Name)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Clear deletes every tracked snapshot (a completed job has no further use
// for them). The write sequence keeps counting up, so names never collide.
func (st *Store) Clear() error {
	var firstErr error
	for _, info := range st.snaps {
		if err := os.Remove(filepath.Join(st.dir, info.Name)); err != nil && !os.IsNotExist(err) && firstErr == nil {
			firstErr = err
		}
	}
	st.snaps = st.snaps[:0]
	return firstErr
}

// LatestValid returns the newest snapshot that decodes cleanly, walking
// backwards past unreadable or corrupt files. The skipped list names every
// newer snapshot that was rejected (a torn write that slipped past the
// atomic-rename discipline, a bit flip, a truncation) so callers can log the
// fallback loudly. When nothing validates it returns ErrNoSnapshot; the
// skipped list is still populated.
func (st *Store) LatestValid() (data []byte, info SnapInfo, skipped []SnapInfo, err error) {
	for i := len(st.snaps) - 1; i >= 0; i-- {
		in := st.snaps[i]
		b, rerr := os.ReadFile(filepath.Join(st.dir, in.Name))
		if rerr == nil {
			if _, derr := Decode(b); derr == nil {
				return b, in, skipped, nil
			}
		}
		skipped = append(skipped, in)
	}
	return nil, SnapInfo{}, skipped, ErrNoSnapshot
}
