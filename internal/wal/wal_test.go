package wal

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"ifdb/internal/label"
	"ifdb/internal/storage"
	"ifdb/internal/types"
)

func testRecords() []Record {
	return []Record{
		{Type: RecBegin, XID: 7},
		{Type: RecInsert, XID: 7, Table: "patients", TID: 42,
			Label:  label.New(3, 9),
			ILabel: label.New(5),
			Row:    []types.Value{types.NewInt(1), types.NewText("bob"), types.Null}},
		{Type: RecSetXmax, XID: 7, Table: "patients", TID: 41},
		{Type: RecCommit, XID: 7, Seq: 12},
		{Type: RecAbort, XID: 8},
		{Type: RecDDL, Principal: 99, Text: "CREATE TABLE t (a BIGINT)"},
		{Type: RecPrincipal, Principal: 1234, Text: "alice"},
		{Type: RecTag, Tag: 77, Owner: 1234, Text: "alice_medical", Parents: []uint64{70, 71}},
		{Type: RecDelegate, Tag: 77, From: 1234, To: 4321},
		{Type: RecRevoke, Tag: 77, From: 1234, To: 4321},
		{Type: RecSeqVal, Text: "ids", SeqKey: "{3}", Value: 41},
		{Type: RecCheckpointBegin},
		{Type: RecCheckpointEnd},
	}
}

func openTemp(t *testing.T, mode SyncMode) (*Writer, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Open(path, mode)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return w, path
}

func TestRoundTripAllRecordTypes(t *testing.T) {
	w, path := openTemp(t, SyncCommit)
	want := testRecords()
	for i := range want {
		if _, err := w.Append(&want[i]); err != nil {
			t.Fatalf("append %v: %v", want[i].Type, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	got, torn, err := ReadAll(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if torn {
		t.Fatalf("unexpected torn tail")
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range got {
		g := got[i]
		g.LSN = 0 // assigned by the log
		if !reflect.DeepEqual(g, want[i]) {
			t.Errorf("record %d: got %+v want %+v", i, g, want[i])
		}
	}
}

func TestLSNsAreMonotonic(t *testing.T) {
	w, path := openTemp(t, SyncOff)
	var lsns []LSN
	for i := 0; i < 10; i++ {
		lsn, err := w.Append(&Record{Type: RecBegin, XID: storage.XID(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	w.Close()
	recs, _, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if r.LSN != lsns[i] {
			t.Fatalf("record %d: lsn %d, appended at %d", i, r.LSN, lsns[i])
		}
		if i > 0 && r.LSN <= recs[i-1].LSN {
			t.Fatalf("lsn not monotonic at %d", i)
		}
	}
}

// TestTornTail truncates the log at every byte boundary inside the
// last record and checks the prefix always reads back intact.
func TestTornTail(t *testing.T) {
	w, path := openTemp(t, SyncCommit)
	recs := testRecords()
	for i := range recs {
		if _, err := w.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	all, _, err := ReadAll(path)
	if err != nil || len(all) != len(recs) {
		t.Fatalf("baseline read: %d records, err %v", len(all), err)
	}
	lastStart := int(all[len(all)-1].LSN)
	for cut := lastStart; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, torn, err := ReadAll(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(got) != len(recs)-1 {
			t.Fatalf("cut %d: got %d records, want %d", cut, len(got), len(recs)-1)
		}
		if cut > lastStart && !torn {
			t.Fatalf("cut %d: torn tail not reported", cut)
		}
	}
}

// TestCorruptTailFuzz flips random bytes in the tail of the log: the
// reader must never error, and records before the corruption must
// survive. Then Open must truncate the damage and support appending.
func TestCorruptTailFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		path := filepath.Join(t.TempDir(), "wal.log")
		w, err := Open(path, SyncOff)
		if err != nil {
			t.Fatal(err)
		}
		n := 3 + rng.Intn(10)
		for i := 0; i < n; i++ {
			if _, err := w.Append(&Record{Type: RecInsert, XID: storage.XID(i + 1), Table: "t",
				TID: storage.TID(i), Row: []types.Value{types.NewInt(int64(i))}}); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()

		full, _ := os.ReadFile(path)
		all, _, _ := ReadAll(path)
		if len(all) != n {
			t.Fatalf("trial %d: baseline %d != %d", trial, len(all), n)
		}
		// Corrupt one byte at or after the start of a randomly chosen
		// suffix of records.
		victim := rng.Intn(n)
		start := int(all[victim].LSN)
		pos := start + rng.Intn(len(full)-start)
		full[pos] ^= 0xFF
		if err := os.WriteFile(path, full, 0o644); err != nil {
			t.Fatal(err)
		}

		got, _, err := ReadAll(path)
		if err != nil {
			t.Fatalf("trial %d: read after corruption: %v", trial, err)
		}
		if len(got) < victim {
			t.Fatalf("trial %d: lost intact records before the corruption: %d < %d", trial, len(got), victim)
		}
		for i := 0; i < victim && i < len(got); i++ {
			if got[i].XID != storage.XID(i+1) {
				t.Fatalf("trial %d: record %d corrupted silently", trial, i)
			}
		}

		// Reopen for append: the tear is truncated, new records land
		// cleanly after the surviving prefix.
		w2, err := Open(path, SyncOff)
		if err != nil {
			t.Fatalf("trial %d: reopen: %v", trial, err)
		}
		if _, err := w2.Append(&Record{Type: RecCommit, XID: 999, Seq: 5}); err != nil {
			t.Fatal(err)
		}
		w2.Close()
		after, torn, err := ReadAll(path)
		if err != nil || torn {
			t.Fatalf("trial %d: after reopen: torn=%v err=%v", trial, torn, err)
		}
		if len(after) == 0 || after[len(after)-1].Type != RecCommit {
			t.Fatalf("trial %d: appended record missing after reopen", trial)
		}
	}
}

func TestCheckpointTruncates(t *testing.T) {
	w, path := openTemp(t, SyncCommit)
	for i := 0; i < 5; i++ {
		if _, err := w.Append(&Record{Type: RecBegin, XID: storage.XID(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	captured := false
	if err := w.Checkpoint(func(LSN) error { captured = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !captured {
		t.Fatal("capture not invoked")
	}
	if _, err := w.Append(&Record{Type: RecBegin, XID: 100}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	recs, _, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Type != RecCheckpointEnd || recs[1].XID != 100 {
		t.Fatalf("after checkpoint: %+v", recs)
	}
}

func TestCheckpointCaptureErrorLeavesLog(t *testing.T) {
	w, path := openTemp(t, SyncOff)
	if _, err := w.Append(&Record{Type: RecBegin, XID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(func(LSN) error { return os.ErrInvalid }); err == nil {
		t.Fatal("expected capture error")
	}
	w.Close()
	recs, _, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	// The failed checkpoint's begin marker may follow, but the
	// original record must survive.
	if len(recs) == 0 || recs[0].Type != RecBegin || recs[0].XID != 1 {
		t.Fatalf("log damaged by failed checkpoint: %+v", recs)
	}
}

// TestCheckpointDuringGroupCommit interleaves checkpoints with
// concurrent committers: no committer may hang waiting on a
// pre-checkpoint LSN (the snapshot covers it), and durable positions
// must stay monotonic so post-checkpoint commits still fsync.
func TestCheckpointDuringGroupCommit(t *testing.T) {
	w, _ := openTemp(t, SyncGroup)
	defer w.Close()
	const writers = 8
	const perWriter = 30
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				lsn, err := w.Append(&Record{Type: RecCommit, XID: storage.XID(g*1000 + i), Seq: 1})
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if err := w.WaitDurable(lsn); err != nil {
					t.Errorf("wait: %v", err)
					return
				}
			}
		}(g)
	}
	checkpointer := make(chan struct{})
	go func() {
		defer close(checkpointer)
		for {
			select {
			case <-stop:
				return
			default:
				if err := w.Checkpoint(func(LSN) error { return nil }); err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
			}
		}
	}()
	// The checkpointer is joined before the deferred Close, on every
	// way out of the test.
	defer func() {
		close(stop)
		<-checkpointer
	}()
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("committers hung across a checkpoint")
	}
}

// TestGroupCommitBatches drives concurrent committers through
// WaitDurable and checks that fsyncs were shared: far fewer syncs
// than commits.
func TestGroupCommitBatches(t *testing.T) {
	w, _ := openTemp(t, SyncGroup)
	defer w.Close()
	const writers = 8
	const perWriter = 25
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				lsn, err := w.Append(&Record{Type: RecCommit, XID: storage.XID(g*1000 + i), Seq: 1})
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if err := w.WaitDurable(lsn); err != nil {
					t.Errorf("wait: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	total := int64(writers * perWriter)
	if w.Syncs >= total {
		t.Fatalf("group commit did not batch: %d syncs for %d commits", w.Syncs, total)
	}
	t.Logf("group commit: %d commits in %d fsyncs", total, w.Syncs)
}
