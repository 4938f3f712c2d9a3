package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSnapshotRoundTrip: what WriteSnapshot is given comes back from
// ReadSnapshot record for record, closed by the CKPT-END it adds, with
// LSNs that are the frames' offsets in the file.
func TestSnapshotRoundTrip(t *testing.T) {
	want := append([]Record{{Type: RecSnapshot, Principal: 5, XID: 90, Seq: 80, Covered: 12345}}, testRecords()...)
	var frames []byte
	for i := range want {
		var err error
		if frames, err = AppendFrame(frames, &want[i]); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "checkpoint.snap")
	if err := WriteSnapshot(path, frames); err != nil {
		t.Fatal(err)
	}
	want = append(want, Record{Type: RecCheckpointEnd})
	var got []Record
	if err := ReadSnapshot(path, func(r *Record) error {
		got = append(got, *r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, wrote %d", len(got), len(want))
	}
	off := LSN(len(snapMagic))
	for i := range got {
		if got[i].LSN != off {
			t.Fatalf("record %d at lsn %d, want its file offset %d", i, got[i].LSN, off)
		}
		frame, _ := AppendFrame(nil, &want[i])
		off += LSN(len(frame))
		got[i].LSN = 0
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if err := ReadSnapshot(filepath.Join(t.TempDir(), "absent.snap"), func(*Record) error {
		t.Fatal("a missing snapshot has records")
		return nil
	}); err != nil {
		t.Fatalf("missing snapshot: %v", err)
	}
}

// TestWriteSnapshotFailureCleansUp: a snapshot write that fails says so
// and leaves neither its temporary file nor a changed target behind.
func TestWriteSnapshotFailureCleansUp(t *testing.T) {
	dir := t.TempDir()
	// A non-empty directory in the snapshot's place: the rename fails.
	path := filepath.Join(dir, "checkpoint.snap")
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	frames, _ := AppendFrame(nil, &Record{Type: RecSnapshot})
	if err := WriteSnapshot(path, frames); err == nil {
		t.Fatal("WriteSnapshot over a directory succeeded")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind: %v", err)
	}
	if st, err := os.Stat(path); err != nil || !st.IsDir() {
		t.Fatalf("target changed: %v", err)
	}
}
