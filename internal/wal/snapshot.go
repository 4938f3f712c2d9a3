// Checkpoint snapshots.
//
// A snapshot is the engine's whole state at a checkpoint, written in
// the log's own record format: the magic "IFDBSNP3", then frames exactly
// as the log holds them, the first a SNAPSHOT record and the last a
// CKPT-END. The engine loads one by applying its records in order with
// the function it replays the log with. Unlike the log, a snapshot has
// no torn tail: it is written whole to a temporary file and renamed into
// place, so a frame that is not intact, or a missing CKPT-END, means the
// file is damaged, and reading it fails rather than yield a shorter
// state.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

var snapMagic = [8]byte{'I', 'F', 'D', 'B', 'S', 'N', 'P', '3'}

// ErrNotSnapshot is returned by ReadSnapshot for a file that does not
// start with a snapshot magic.
var ErrNotSnapshot = errors.New("wal: not a snapshot")

// WriteSnapshot makes frames — records framed by AppendFrame, the first
// a RecSnapshot — the snapshot at path. It writes the magic, the frames
// and a closing CKPT-END to a temporary file, fsyncs it, renames it over
// path and fsyncs the directory; nil means the new snapshot is on stable
// storage. A failed write leaves path as it was and no temporary file.
func WriteSnapshot(path string, frames []byte) error {
	frames, err := AppendFrame(frames, &Record{Type: RecCheckpointEnd})
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	_, err = f.Write(snapMagic[:])
	if err == nil {
		_, err = f.Write(frames)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // the write's failure is the one to report
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	if err := SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot calls fn with each record of the snapshot at path, in
// order; the one Record passed is reused from call to call, and its LSN
// is the frame's offset in the file. A missing file has no records. A
// file with a frame that is not intact, or that does not end in
// CKPT-END, is an error, returned after fn has seen the records before
// the damage.
func ReadSnapshot(path string, fn func(*Record) error) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(data) < len(snapMagic) || [8]byte(data[:8]) != snapMagic {
		if len(data) >= len(snapMagic) && string(data[:7]) == string(snapMagic[:7]) {
			return fmt.Errorf("wal: %s is a %q snapshot, this build reads %q; no in-place migration — restore from a basebackup or start fresh", path, data[:8], snapMagic)
		}
		return fmt.Errorf("%w: %s", ErrNotSnapshot, path)
	}
	last := RecInvalid
	if _, err := EachFrame(data[len(snapMagic):], LSN(len(snapMagic)), func(r *Record) error {
		last = r.Type
		return fn(r)
	}); err != nil {
		return fmt.Errorf("wal: snapshot %s: %w", path, err)
	}
	if last != RecCheckpointEnd {
		return fmt.Errorf("wal: snapshot %s does not end in %v", path, RecCheckpointEnd)
	}
	return nil
}

// SyncDir fsyncs the directory dir, so that files created, renamed or
// removed in it stay so after a crash.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
