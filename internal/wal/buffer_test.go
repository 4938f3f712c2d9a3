package wal

import (
	"os"
	"strings"
	"sync"
	"testing"

	"ifdb/internal/storage"
	"ifdb/internal/types"
)

// fileEnd is the logical LSN the log file's bytes reach: what a process
// that died now would leave behind.
func fileEnd(t *testing.T, w *Writer, path string) LSN {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return w.Base() + LSN(st.Size()-headerSize)
}

func insertRec(xid storage.XID, tid int) *Record {
	return &Record{Type: RecInsert, XID: xid, Table: "t", TID: storage.TID(tid),
		Row: []types.Value{types.NewInt(int64(tid)), types.NewText("row")}}
}

// TestTransactionIsOneWrite: the body of a transaction waits in the log
// buffer, and BEGIN + N inserts + COMMIT reach the file in exactly one
// write, in every sync mode — the commit's durability wait adds none.
func TestTransactionIsOneWrite(t *testing.T) {
	for _, mode := range []SyncMode{SyncOff, SyncCommit, SyncGroup} {
		t.Run(mode.String(), func(t *testing.T) {
			w, path := openTemp(t, mode)
			defer w.Close()
			start := w.End()
			writes, appends := mWrites.Value(), mAppends.Value()
			sizes := mWriteBytes.Sum()

			if _, err := w.Append(&Record{Type: RecBegin, XID: 7}); err != nil {
				t.Fatal(err)
			}
			const n = 30
			for i := 0; i < n; i++ {
				if _, err := w.Append(insertRec(7, i)); err != nil {
					t.Fatal(err)
				}
			}
			if got := mWrites.Value() - writes; got != 0 {
				t.Fatalf("%d writes before the commit, want 0", got)
			}
			if fileEnd(t, w, path) != start || w.End() == start {
				t.Fatalf("file ends at %d, log at %d: the body should be appended (from %d) and not yet written", fileEnd(t, w, path), w.End(), start)
			}
			lsn, err := w.Append(&Record{Type: RecCommit, XID: 7, Seq: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.WaitDurable(lsn); err != nil {
				t.Fatal(err)
			}
			if got := mWrites.Value() - writes; got != 1 {
				t.Fatalf("%d writes for one transaction, want 1", got)
			}
			if got := mAppends.Value() - appends; got != n+2 {
				t.Fatalf("%d records counted, want %d", got, n+2)
			}
			if got, want := mWriteBytes.Sum()-sizes, int64(w.End()-start); got != want {
				t.Fatalf("write sizes sum to %d bytes, the log grew by %d", got, want)
			}
			if fileEnd(t, w, path) != w.End() {
				t.Fatalf("file ends at %d, log at %d after the commit", fileEnd(t, w, path), w.End())
			}
			if mode != SyncOff && w.DurableLSN() != w.End() {
				t.Fatalf("durable %d, end %d", w.DurableLSN(), w.End())
			}
		})
	}
}

// TestWaitDurableCoversTheRecord: the durable horizon is a position
// past records, so a record that starts exactly on it — the first append
// after an fsync, or after Open — is not yet covered and must be waited
// for.
func TestWaitDurableCoversTheRecord(t *testing.T) {
	for _, mode := range []SyncMode{SyncCommit, SyncGroup} {
		w, _ := openTemp(t, mode)
		for i := 0; i < 2; i++ {
			lsn, err := w.Append(&Record{Type: RecCommit, XID: 1, Seq: uint64(i + 1)})
			if err != nil {
				t.Fatal(err)
			}
			if lsn != w.DurableLSN() {
				t.Fatalf("%v: record at %d, durable horizon %d: want it to start on the horizon", mode, lsn, w.DurableLSN())
			}
			if err := w.WaitDurable(lsn); err != nil {
				t.Fatal(err)
			}
			if w.DurableLSN() != w.End() {
				t.Fatalf("%v: WaitDurable(%d) returned with the horizon at %d, the record ends at %d", mode, lsn, w.DurableLSN(), w.End())
			}
		}
		w.Close()
	}
}

// TestOnlyTransactionBodiesAreBuffered: every record type but BEGIN,
// INSERT and SETXMAX is in the file when Append returns, with whatever
// was buffered ahead of it — so with no transaction open the file is the
// whole log.
func TestOnlyTransactionBodiesAreBuffered(t *testing.T) {
	w, path := openTemp(t, SyncOff)
	defer w.Close()
	recs := testRecords()
	for i := range recs {
		before := fileEnd(t, w, path)
		if _, err := w.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
		switch recs[i].Type {
		case RecBegin, RecInsert, RecSetXmax:
			if fileEnd(t, w, path) != before {
				t.Errorf("%v was written through", recs[i].Type)
			}
		default:
			if fileEnd(t, w, path) != w.End() {
				t.Errorf("after %v the file ends at %d, the log at %d", recs[i].Type, fileEnd(t, w, path), w.End())
			}
		}
	}
}

// TestShippingStopsAtWrittenEdge: End counts buffered bytes; what a
// replica sender may read never does. In the fsyncing modes the limit is
// the durable horizon, which trails the written edge; in SyncOff asking
// for the limit writes the buffer out first.
func TestShippingStopsAtWrittenEdge(t *testing.T) {
	for _, mode := range []SyncMode{SyncOff, SyncGroup} {
		t.Run(mode.String(), func(t *testing.T) {
			w, path := openTemp(t, mode)
			defer w.Close()
			lsn, err := w.Append(&Record{Type: RecDDL, Principal: 1, Text: "CREATE TABLE t (a BIGINT)"})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.WaitDurable(lsn); err != nil {
				t.Fatal(err)
			}
			written := w.End()
			from := w.Base()
			for i := 0; i < 5; i++ {
				if _, err := w.Append(insertRec(9, i)); err != nil {
					t.Fatal(err)
				}
			}
			if w.End() <= written || fileEnd(t, w, path) != written {
				t.Fatalf("end %d, file end %d, want the inserts buffered past %d", w.End(), fileEnd(t, w, path), written)
			}
			raw, next, err := w.ReadRaw(from, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			edge := fileEnd(t, w, path)
			if limit := w.ShipLimit(); limit > edge || next > edge {
				t.Fatalf("ShipLimit %d, ReadRaw next %d: past the written edge %d", limit, next, edge)
			}
			if mode == SyncOff && next != w.End() {
				t.Fatalf("SyncOff: read to %d, want the append edge %d (asking writes the buffer out)", next, w.End())
			}
			if mode == SyncGroup && next != written {
				t.Fatalf("SyncGroup: read to %d, want the durable horizon %d", next, written)
			}
			if _, err := DecodeFrames(raw, from); err != nil {
				t.Fatalf("shipped bytes: %v", err)
			}
		})
	}
}

// TestBufferHighWaterMark: a transaction larger than the buffer is
// written out as it grows, without a commit, in whole frames.
func TestBufferHighWaterMark(t *testing.T) {
	w, path := openTemp(t, SyncOff)
	defer w.Close()
	writes := mWrites.Value()
	start := w.End()
	for i := 0; mWrites.Value()-writes < 3; i++ {
		if _, err := w.Append(insertRec(3, i)); err != nil {
			t.Fatal(err)
		}
		if buffered := w.End() - fileEnd(t, w, path); buffered >= bufHighWater {
			t.Fatalf("%d bytes buffered, the mark is %d", buffered, bufHighWater)
		}
	}
	if written := fileEnd(t, w, path) - start; written < 3*bufHighWater || w.End() != start+written {
		t.Fatalf("3 writes carried %d bytes of %d appended: each should wait for the mark (%d) and take the whole buffer", written, w.End()-start, bufHighWater)
	}
	recs, torn, err := ReadAll(path)
	if err != nil || torn || len(recs) == 0 {
		t.Fatalf("file after the mark: %d records, torn %v, err %v", len(recs), torn, err)
	}
}

// TestCloseWritesBufferOut: Close leaves nothing behind in the buffer
// and nothing torn, in every mode.
func TestCloseWritesBufferOut(t *testing.T) {
	for _, mode := range []SyncMode{SyncOff, SyncCommit, SyncGroup} {
		w, path := openTemp(t, mode)
		const n = 100
		for i := 0; i < n; i++ {
			if _, err := w.Append(insertRec(5, i)); err != nil {
				t.Fatal(err)
			}
		}
		end := w.End()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		recs, torn, err := ReadAll(path)
		if err != nil || torn || len(recs) != n {
			t.Fatalf("%v: %d records, torn %v, err %v; want %d whole", mode, len(recs), torn, err, n)
		}
		w2, err := Open(path, mode)
		if err != nil {
			t.Fatal(err)
		}
		if w2.End() != end {
			t.Fatalf("%v: reopened at %d, closed at %d", mode, w2.End(), end)
		}
		w2.Close()
	}
}

// TestConcurrentAppendersAndCommitter: transactions appended from many
// goroutines while others commit. Every record of a committed
// transaction is in the file by the time its WaitDurable returns, at the
// LSN Append handed out, and the file is never torn.
func TestConcurrentAppendersAndCommitter(t *testing.T) {
	for _, mode := range []SyncMode{SyncOff, SyncGroup} {
		t.Run(mode.String(), func(t *testing.T) {
			w, path := openTemp(t, mode)
			const workers, txns, body = 8, 40, 6
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < txns; i++ {
						xid := storage.XID(1 + g*txns + i)
						if _, err := w.Append(&Record{Type: RecBegin, XID: xid}); err != nil {
							t.Error(err)
							return
						}
						for j := 0; j < body; j++ {
							if _, err := w.Append(insertRec(xid, j)); err != nil {
								t.Error(err)
								return
							}
						}
						lsn, err := w.Append(&Record{Type: RecCommit, XID: xid, Seq: uint64(xid)})
						if err != nil {
							t.Error(err)
							return
						}
						if err := w.WaitDurable(lsn); err != nil {
							t.Error(err)
							return
						}
						if limit := w.ShipLimit(); limit <= lsn {
							t.Errorf("xid %d committed at %d, shippable only to %d", xid, lsn, limit)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if fileEnd(t, w, path) != w.End() {
				t.Fatalf("file ends at %d, log at %d with every transaction committed", fileEnd(t, w, path), w.End())
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			recs, torn, err := ReadAll(path)
			if err != nil || torn {
				t.Fatalf("torn %v, err %v", torn, err)
			}
			inserts, commits := map[storage.XID]int{}, 0
			for i, r := range recs {
				if i > 0 && r.LSN <= recs[i-1].LSN {
					t.Fatalf("LSN %d after %d", r.LSN, recs[i-1].LSN)
				}
				switch r.Type {
				case RecInsert:
					inserts[r.XID]++
				case RecCommit:
					commits++
					if inserts[r.XID] != body {
						t.Fatalf("xid %d commits after %d of its %d inserts", r.XID, inserts[r.XID], body)
					}
				}
			}
			if commits != workers*txns {
				t.Fatalf("%d commits in the file, want %d", commits, workers*txns)
			}
		})
	}
}

// TestHugeRecordDoesNotPinBuffer: a record far larger than the
// high-water mark grows the log buffer to its size to be written; the
// write lets that buffer go, so the writer does not hold a megabyte for
// the rest of its life, and the log holds exactly what was appended.
func TestHugeRecordDoesNotPinBuffer(t *testing.T) {
	w, path := openTemp(t, SyncOff)
	defer w.Close()
	start := w.End()
	sizes := mWriteBytes.Sum()
	huge := strings.Repeat("x", 1<<20)
	recs := []*Record{
		{Type: RecBegin, XID: 4},
		{Type: RecInsert, XID: 4, Table: "t", TID: 1, Row: []types.Value{types.NewInt(1), types.NewText(huge)}},
		{Type: RecCommit, XID: 4, Seq: 1},
		{Type: RecBegin, XID: 5},
		insertRec(5, 2),
		{Type: RecCommit, XID: 5, Seq: 2},
	}
	lsns := make([]LSN, len(recs))
	for i, r := range recs {
		lsn, err := w.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		lsns[i] = lsn
		if r.Type == RecCommit {
			if err := w.WaitDurable(lsn); err != nil {
				t.Fatal(err)
			}
			w.mu.Lock()
			held := cap(w.buf)
			w.mu.Unlock()
			if held > 2*bufHighWater {
				t.Fatalf("after commit %d the log buffer holds %d bytes, want at most %d", r.XID, held, 2*bufHighWater)
			}
		}
	}
	if fileEnd(t, w, path) != w.End() {
		t.Fatalf("file ends at %d, log at %d", fileEnd(t, w, path), w.End())
	}
	if got, want := mWriteBytes.Sum()-sizes, int64(w.End()-start); got != want {
		t.Fatalf("writes carried %d bytes, the log grew by %d", got, want)
	}
	got, torn, err := ReadAll(path)
	if err != nil || torn || len(got) != len(recs) {
		t.Fatalf("%d records, torn %v, err %v; want %d whole", len(got), torn, err, len(recs))
	}
	for i, r := range got {
		if r.LSN != lsns[i] || r.Type != recs[i].Type || r.XID != recs[i].XID {
			t.Fatalf("record %d: %v xid %d at %d, appended %v xid %d at %d", i, r.Type, r.XID, r.LSN, recs[i].Type, recs[i].XID, lsns[i])
		}
	}
	if row := got[1].Row; len(row) != 2 || row[1].Text() != huge {
		t.Fatal("the huge row did not come back whole")
	}
}
