package checkpoint

import (
	"os"
	"path/filepath"
)

// WriteFileAtomic writes data to path so that a crash at any instant leaves
// either the old file or the complete new one — never a torn mixture. The
// data lands in a same-directory temp file first, is fsynced, and is then
// renamed over the target; finally the directory itself is synced so the
// rename survives a power loss. Every durable writer (the snapshot Store,
// maficsim's -checkpoint flags, maficserve's manifests and results) goes
// through this helper.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer func() {
		if tmpName != "" {
			os.Remove(tmpName)
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	tmpName = ""
	// Sync the directory so the rename is durable. Some filesystems reject
	// fsync on directories; the write itself is already atomic, so that is
	// tolerated rather than failed.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}
