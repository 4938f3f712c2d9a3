package txn

import (
	"errors"
	"sync"
	"testing"

	"ifdb/internal/label"
	"ifdb/internal/storage"
	"ifdb/internal/types"
)

func irow(v int64) []types.Value { return []types.Value{types.NewInt(v)} }

// insert writes a version through t and records it.
func insert(h storage.Heap, t *Txn, v int64, l label.Label) storage.TID {
	tid, _ := h.Insert(storage.TupleVersion{Row: irow(v), Label: l, Xmin: t.XID()})
	t.RecordInsert(h, tid, l, nil)
	return tid
}

func TestSnapshotVisibility(t *testing.T) {
	m := NewManager()
	h := storage.NewMemHeap()

	t1 := m.Begin(SnapshotIsolation)
	tid := insert(h, t1, 1, nil)

	// Own uncommitted write is visible to t1, invisible to t2.
	t2 := m.Begin(SnapshotIsolation)
	tv, _ := h.Get(tid)
	if !t1.Visible(tv.Xmin, tv.Xmax) {
		t.Fatal("own write invisible")
	}
	if t2.Visible(tv.Xmin, tv.Xmax) {
		t.Fatal("uncommitted write visible to peer")
	}

	if err := t1.Commit(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	// t2's snapshot predates the commit: still invisible.
	if t2.Visible(tv.Xmin, tv.Xmax) {
		t.Fatal("post-snapshot commit visible")
	}
	// A new transaction sees it.
	t3 := m.Begin(SnapshotIsolation)
	if !t3.Visible(tv.Xmin, tv.Xmax) {
		t.Fatal("committed write invisible to later snapshot")
	}
	t2.Abort()
	t3.Abort()
}

func TestAbortHidesInserts(t *testing.T) {
	m := NewManager()
	h := storage.NewMemHeap()
	t1 := m.Begin(SnapshotIsolation)
	tid := insert(h, t1, 1, nil)
	t1.Abort()
	tv, _ := h.Get(tid)
	t2 := m.Begin(SnapshotIsolation)
	if t2.Visible(tv.Xmin, tv.Xmax) {
		t.Fatal("aborted insert visible")
	}
	if !m.Aborted(t1.XID()) {
		t.Fatal("abort not recorded")
	}
}

func TestDeleteVisibilityAndRollback(t *testing.T) {
	m := NewManager()
	h := storage.NewMemHeap()
	setup := m.Begin(SnapshotIsolation)
	tid := insert(h, setup, 1, nil)
	if err := setup.Commit(nil, nil, nil); err != nil {
		t.Fatal(err)
	}

	// Deleter in progress: row still visible to others.
	del := m.Begin(SnapshotIsolation)
	if err := del.Delete(h, tid, nil, nil); err != nil {
		t.Fatal(err)
	}
	peer := m.Begin(SnapshotIsolation)
	tv, _ := h.Get(tid)
	if !peer.Visible(tv.Xmin, tv.Xmax) {
		t.Fatal("in-progress delete hid row from peer")
	}
	// And invisible to the deleter itself.
	if del.Visible(tv.Xmin, tv.Xmax) {
		t.Fatal("deleter still sees deleted row")
	}
	// Roll back: stamp cleared, row lives.
	del.Abort()
	tv, _ = h.Get(tid)
	if tv.Xmax != storage.InvalidXID {
		t.Fatal("xmax not cleared on abort")
	}
	peer.Abort()

	// Commit a delete: later snapshots lose the row.
	del2 := m.Begin(SnapshotIsolation)
	if err := del2.Delete(h, tid, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := del2.Commit(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	after := m.Begin(SnapshotIsolation)
	tv, _ = h.Get(tid)
	if after.Visible(tv.Xmin, tv.Xmax) {
		t.Fatal("committed delete still visible")
	}
	after.Abort()
}

func TestWriteWriteConflict(t *testing.T) {
	m := NewManager()
	h := storage.NewMemHeap()
	setup := m.Begin(SnapshotIsolation)
	tid := insert(h, setup, 1, nil)
	if err := setup.Commit(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	a := m.Begin(SnapshotIsolation)
	b := m.Begin(SnapshotIsolation)
	if err := a.Delete(h, tid, nil, nil); err != nil {
		t.Fatal(err)
	}
	// First-committer-wins: b's delete of the same version fails fast.
	if err := b.Delete(h, tid, nil, nil); !errors.Is(err, ErrSerialization) {
		t.Fatalf("got %v, want ErrSerialization", err)
	}
	a.Abort()
	// After a aborts, b can retry.
	if err := b.Delete(h, tid, nil, nil); err != nil {
		t.Fatal(err)
	}
	b.Abort()
}

func TestCommitLabelRule(t *testing.T) {
	m := NewManager()
	h := storage.NewMemHeap()
	lo := label.Label(nil)
	hi := label.New(7)

	tx := m.Begin(SnapshotIsolation)
	insert(h, tx, 1, lo) // public write
	// Commit label {7} ⊄ {} → must fail and roll back.
	err := tx.Commit(nil, hi, nil)
	if !errors.Is(err, ErrCommitLabel) {
		t.Fatalf("got %v, want ErrCommitLabel", err)
	}
	if !tx.Done() {
		t.Fatal("failed commit left txn open")
	}
	if !m.Aborted(tx.XID()) {
		t.Fatal("failed commit did not abort")
	}

	// Same shape but writes at {7}: commit at {7} is fine.
	tx2 := m.Begin(SnapshotIsolation)
	insert(h, tx2, 2, hi)
	if err := tx2.Commit(nil, hi, nil); err != nil {
		t.Fatal(err)
	}

	// Deletes count as writes for the rule too.
	setup := m.Begin(SnapshotIsolation)
	tid := insert(h, setup, 3, lo)
	if err := setup.Commit(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	tx3 := m.Begin(SnapshotIsolation)
	if err := tx3.Delete(h, tid, lo, nil); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(nil, hi, nil); !errors.Is(err, ErrCommitLabel) {
		t.Fatalf("delete write-set: got %v", err)
	}
	// The delete stamp must have been rolled back.
	tv, _ := h.Get(tid)
	if tv.Xmax != storage.InvalidXID {
		t.Fatal("aborted commit left delete stamp")
	}
}

func TestCommitLabelWithHierarchy(t *testing.T) {
	hier := label.NewHierarchy()
	const compound, member = label.Tag(100), label.Tag(1)
	if err := hier.Declare(member, compound); err != nil {
		t.Fatal(err)
	}
	m := NewManager()
	h := storage.NewMemHeap()
	tx := m.Begin(SnapshotIsolation)
	insert(h, tx, 1, label.New(compound))
	// Commit label {member} flows to {compound} by subsumption.
	if err := tx.Commit(hier, label.New(member), nil); err != nil {
		t.Fatalf("hierarchy-aware commit: %v", err)
	}
}

func TestDeferredActions(t *testing.T) {
	m := NewManager()
	ran := 0
	tx := m.Begin(SnapshotIsolation)
	tx.Defer(func() error { ran++; return nil })
	tx.Defer(func() error { ran++; return nil })
	if err := tx.Commit(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("deferred ran %d times", ran)
	}
	// A failing deferred action aborts the transaction.
	h := storage.NewMemHeap()
	tx2 := m.Begin(SnapshotIsolation)
	tid := insert(h, tx2, 1, nil)
	tx2.Defer(func() error { return errors.New("constraint failed at commit") })
	if err := tx2.Commit(nil, nil, nil); err == nil {
		t.Fatal("failing deferred action did not abort commit")
	}
	tv, _ := h.Get(tid)
	probe := m.Begin(SnapshotIsolation)
	if probe.Visible(tv.Xmin, tv.Xmax) {
		t.Fatal("aborted deferred-failure txn visible")
	}
	probe.Abort()
}

func TestTxnDoneErrors(t *testing.T) {
	m := NewManager()
	tx := m.Begin(SnapshotIsolation)
	if err := tx.Commit(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(nil, nil, nil); !errors.Is(err, ErrTxnDone) {
		t.Fatal("double commit")
	}
	h := storage.NewMemHeap()
	if err := tx.Delete(h, 0, nil, nil); !errors.Is(err, ErrTxnDone) {
		t.Fatal("delete after done")
	}
	tx.Abort() // no-op
}

// TestRecycledWriteSetUnreachable: a finished transaction's write set
// is the next writer's, and nothing done with the finished Txn — a
// second Abort or Commit — reaches it: the later transaction's xmax
// stamp survives, and its commit deletes the row.
func TestRecycledWriteSetUnreachable(t *testing.T) {
	m := NewManager()
	h := storage.NewMemHeap()
	setup := m.Begin(SnapshotIsolation)
	r1, r2 := insert(h, setup, 1, nil), insert(h, setup, 2, nil)
	if err := setup.Commit(nil, nil, nil); err != nil {
		t.Fatal(err)
	}

	a := m.Begin(SnapshotIsolation)
	if err := a.Delete(h, r1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if a.writes != nil {
		t.Fatal("a committed Txn still holds its write set")
	}
	b := m.Begin(SnapshotIsolation)
	if cap(b.writes) == 0 {
		t.Fatal("the next writer did not get the finished write set")
	}
	if err := b.Delete(h, r2, nil, nil); err != nil {
		t.Fatal(err)
	}

	a.Abort()
	if err := a.Commit(nil, nil, nil); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("second commit: %v", err)
	}
	if tv, _ := h.Get(r2); tv.Xmax != b.XID() {
		t.Fatalf("b's xmax stamp on row 2 is %d, want %d", tv.Xmax, b.XID())
	}
	if err := b.Commit(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	r := m.Begin(SnapshotIsolation)
	defer r.Abort()
	for _, tid := range []storage.TID{r1, r2} {
		if tv, _ := h.Get(tid); r.Visible(tv.Xmin, tv.Xmax) {
			t.Errorf("row %d is visible after its delete committed", tv.Row[0].Int())
		}
	}
}

// TestRecycledWriteSetsAcrossGoroutines: write sets pass from one
// session's finished transaction to another's under the manager, and
// each rollback still undoes exactly its own writes — its inserts
// invisible, its delete stamps cleared.
func TestRecycledWriteSetsAcrossGoroutines(t *testing.T) {
	m := NewManager()
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := storage.NewMemHeap()
			setup := m.Begin(SnapshotIsolation)
			base := insert(h, setup, -1, nil)
			if err := setup.Commit(nil, nil, nil); err != nil {
				t.Error(err)
				return
			}
			for r := 0; r < rounds; r++ {
				tx := m.Begin(SnapshotIsolation)
				var tids []storage.TID
				for i := 0; i <= (w+r)%7; i++ {
					tids = append(tids, insert(h, tx, int64(r), nil))
				}
				if err := tx.Delete(h, base, nil, nil); err != nil {
					t.Error(err)
					return
				}
				tx.Abort()
				if tv, _ := h.Get(base); tv.Xmax != storage.InvalidXID {
					t.Errorf("worker %d round %d: rollback left xmax %d on the base row", w, r, tv.Xmax)
					return
				}
				rd := m.Begin(SnapshotIsolation)
				for _, tid := range tids {
					if tv, _ := h.Get(tid); rd.Visible(tv.Xmin, tv.Xmax) {
						t.Errorf("worker %d round %d: a rolled-back insert is visible", w, r)
					}
				}
				rd.Abort()
			}
		}(w)
	}
	wg.Wait()
}

func TestOldestSnapshotAndVacuumHorizon(t *testing.T) {
	m := NewManager()
	h := storage.NewMemHeap()
	setup := m.Begin(SnapshotIsolation)
	tid := insert(h, setup, 1, nil)
	if err := setup.Commit(nil, nil, nil); err != nil {
		t.Fatal(err)
	}

	old := m.Begin(SnapshotIsolation) // holds the horizon back... but its snapshot is after setup
	del := m.Begin(SnapshotIsolation)
	if err := del.Delete(h, tid, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := del.Commit(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	// `old` predates the delete: the version must not be reclaimed.
	dead := m.DeadVersion()
	tv, _ := h.Get(tid)
	if dead(&tv) {
		t.Fatal("vacuum would reclaim a version an active snapshot can see")
	}
	old.Abort()
	dead = m.DeadVersion()
	if !dead(&tv) {
		t.Fatal("vacuum horizon did not advance")
	}
	// Aborted inserts are always dead.
	ab := m.Begin(SnapshotIsolation)
	tid2 := insert(h, ab, 9, nil)
	ab.Abort()
	tv2, _ := h.Get(tid2)
	if !m.DeadVersion()(&tv2) {
		t.Fatal("aborted insert not dead")
	}
}

func TestConcurrentCommitsAreOrdered(t *testing.T) {
	m := NewManager()
	const n = 100
	var wg sync.WaitGroup
	seqs := make([]uint64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx := m.Begin(SnapshotIsolation)
			if err := tx.Commit(nil, nil, nil); err != nil {
				t.Error(err)
				return
			}
			seq, ok := m.Committed(tx.XID())
			if !ok {
				t.Error("commit not recorded")
				return
			}
			seqs[i] = seq
		}(i)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, s := range seqs {
		if s == 0 || seen[s] {
			t.Fatalf("duplicate or zero commit seq %d", s)
		}
		seen[s] = true
	}
}

func TestStatusTableGrowth(t *testing.T) {
	st := newStatusTable()
	// Spanning multiple chunks.
	ids := []storage.XID{1, chunkSize - 1, chunkSize, chunkSize * 3}
	for i, id := range ids {
		st.set(id, uint64(i)+firstSeq)
	}
	for i, id := range ids {
		if got := st.get(id); got != uint64(i)+firstSeq {
			t.Fatalf("get(%d) = %d", id, got)
		}
	}
	if st.get(chunkSize*10) != 0 {
		t.Fatal("unknown xid nonzero")
	}
}
