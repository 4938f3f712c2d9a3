package plan

// The scan leaf: the one operator in the package that reads a heap or
// an index. Every access path goes through scanIter — a heap scan, an
// index prefix scan, and an index join's probe, which re-seeks the
// right table's scan once per left row — so each polls cancellation,
// applies the heap's visibility filter and reports its counts the same
// way.

import (
	"ifdb/internal/exec"
	"ifdb/internal/index"
	"ifdb/internal/label"
	"ifdb/internal/storage"
	"ifdb/internal/types"
)

// scanBatch is how many tuples a scan visits per refill. The heap (or
// index) position is released between batches, so a million-row scan
// never pins a lock or buffers more than one batch.
const scanBatch = 1024

// scanIter is the scan's iterator. scanRun is everything one opening
// starts afresh — the position, the counts, the verdict memo and arena
// of its storage.ScanState — and open resets it whole; the rest is
// kept from opening to opening of the tree.
type scanIter struct {
	scanRun

	key  []types.Value // index probe prefix (index mode)
	buf  []Row         // the batch a refill admitted
	row1 [1]Row        // buf's storage until a refill admits a second row
	// encoded holds, beside buf, each row's stored bytes when the scan
	// was asked for them (Handle.SendStored), and is empty otherwise;
	// scratch is the one row a pushed predicate judges them decoded in.
	encoded [][]byte
	scratch []types.Value

	// visit is visitHeap and confine is confineLabels, each bound once,
	// when the iterator is made: a closure made per refill or per
	// opening would be an allocation each.
	visit   func(storage.TID, *storage.TupleVersion) bool
	confine func(l, il label.Label) (label.Label, bool)
}

type scanRun struct {
	n   *ScanNode
	rt  *Runtime
	env exec.Env // pushed-predicate env over the full table schema; unset without pushed predicates

	// vis is handed to the heap, which applies it before decoding a
	// row; st is what the scan keeps between refills and reports.
	vis storage.Visibility
	st  storage.ScanState
	// pl and pil are the process labels as they stood when the scan
	// opened: the labels confine judges every tuple under.
	pl, pil label.Label

	visitErr error // what stopped visit's last batch
	pos      int

	next storage.TID // heap mode resume position

	lastKey index.Key // index mode resume position
	lastTID storage.TID

	err      error
	done     bool
	reported bool
	// probe marks a scan an index join re-seeks: it reports when the
	// join closes it, not each time a probe runs dry.
	probe bool
}

func (n *ScanNode) open(rt *Runtime, old Iter) (Iter, error) {
	it := recycle[scanIter](old)
	if it.visit == nil {
		it.visit, it.confine = it.visitHeap, it.confineLabels
	}
	it.scanRun = scanRun{n: n, rt: rt}
	it.buf, it.encoded = it.row1[:0], it.encoded[:0]
	if len(n.Pushed) > 0 {
		it.env = rt.env(n.schema, n.Strip)
	}
	// The filter the heap applies: the statement's snapshot, then Label
	// Confinement under the process labels of this moment, both before
	// the heap decodes a row. st's memo also holds each admitted label
	// less the strip (st.Label).
	it.vis = storage.Visibility{See: rt.Visible, Scan: &it.st}
	if rt.Confinement != nil {
		it.pl, it.pil = rt.Confinement.ProcessLabels()
		it.vis.LabelOK = it.confine
	}
	if cap(it.key) < n.Prefix {
		it.key = make([]types.Value, n.Prefix)
	}
	it.key = it.key[:n.Prefix]
	clear(it.key)
	// Bind the filter's constants, each into the probe key slots of its
	// column (of two constants for one column the later wins).
	// Evaluation (and its errors — e.g. a missing parameter) happens
	// here, before any tuple is visited: an empty table does not hide a
	// missing parameter.
	consts := exec.Env{Params: rt.Params}
	for _, e := range n.Eq {
		v, err := exec.Eval(e.Expr, &consts)
		if err != nil {
			return nil, err
		}
		for i := range it.key {
			if n.Index.Cols[i] == e.Col {
				it.key[i] = v
			}
		}
	}
	return it, nil
}

// confineLabels is the scan's label predicate (storage.Visibility.LabelOK):
// the session's judgment under the scan's strip and the process labels
// it opened with.
func (it *scanIter) confineLabels(l, il label.Label) (label.Label, bool) {
	return it.rt.Confinement.LabelsOK(it.pl, it.pil, it.n.Strip, l, il)
}

// accept buffers a tuple the heap's visibility filter admitted: by
// then MVCC visibility and the Label Confinement Rule have passed, in
// that order, and only now do pushed predicates run — a pushed
// predicate can never touch a tuple the process label does not cover.
// An accepted row is the version's own, not a copy, and carries the TID
// it was read from, and the label the scan's verdict stripped. A
// version the heap handed over as its stored bytes keeps them, beside
// a row with no values; a pushed predicate judges them decoded into
// scratch.
func (it *scanIter) accept(tid storage.TID, tv *storage.TupleVersion) error {
	lbl := it.st.Label(tv)
	enc := it.st.Encoded
	if len(it.n.Pushed) > 0 {
		it.env.Row = tv.Row
		if enc != nil {
			var err error
			if it.scratch, _, err = types.DecodeRowInto(it.scratch, enc, ""); err != nil {
				return err
			}
			it.env.Row = it.scratch
		}
		it.env.RowLabel = lbl
		it.env.RowILabel = tv.ILabel
		for _, p := range it.n.Pushed {
			v, err := exec.Eval(p, &it.env)
			if err != nil {
				return err
			}
			if !v.Truthy() {
				return nil
			}
		}
	}
	it.buf = append(it.buf, Row{Vals: tv.Row, Lbl: lbl, ILbl: tv.ILabel, TID: tid})
	if it.st.WantEncoded {
		it.encoded = append(it.encoded, enc)
		if enc != nil {
			it.st.Stored++
		}
	}
	return nil
}

// refillHeap pulls one batch through the heap's filtered scan.
// Cancellation is polled per batch and per admitted tuple: a scan the
// label hides entirely still stops within one batch.
func (it *scanIter) refillHeap() error {
	if err := it.rt.check(); err != nil {
		return err
	}
	next, more, err := it.n.Table.Heap.ScanFrom(it.next, scanBatch, it.vis, it.visit)
	it.next = next
	if it.visitErr != nil {
		return it.visitErr
	}
	it.done = !more
	return err
}

// visitHeap is the heap's callback for one admitted tuple.
func (it *scanIter) visitHeap(tid storage.TID, tv *storage.TupleVersion) bool {
	if it.visitErr = it.rt.check(); it.visitErr == nil {
		it.visitErr = it.accept(tid, tv)
	}
	return it.visitErr == nil
}

// refillIndex pulls one batch of the index prefix's entries, polling
// cancellation as refillHeap does, so a probe that matches nothing still
// stops.
func (it *scanIter) refillIndex() error {
	if err := it.rt.check(); err != nil {
		return err
	}
	var cbErr error
	lastKey, lastTID, more := it.n.Index.Tree.AscendPrefixAfter(it.key, it.lastKey, it.lastTID, scanBatch,
		func(k index.Key, tid storage.TID) bool {
			if cbErr = it.rt.check(); cbErr != nil {
				return false
			}
			if tv, ok := it.n.Table.Heap.Get(tid); ok && it.vis.Sees(&tv) {
				cbErr = it.accept(tid, &tv)
			}
			return cbErr == nil
		})
	if cbErr != nil {
		return cbErr
	}
	if more {
		it.lastKey, it.lastTID = lastKey, lastTID
	} else {
		it.done = true
	}
	return nil
}

func (it *scanIter) Next() (*Row, error) {
	if it.err != nil {
		return nil, it.err
	}
	for it.pos >= len(it.buf) {
		if it.done {
			if !it.probe {
				it.finish()
			}
			return nil, nil
		}
		it.buf, it.encoded = it.buf[:0], it.encoded[:0]
		it.pos = 0
		var err error
		if it.n.Index != nil {
			err = it.refillIndex()
		} else {
			err = it.refillHeap()
		}
		if err != nil {
			it.err = err
			it.finish()
			return nil, err
		}
	}
	r := &it.buf[it.pos]
	it.pos++
	return r, nil
}

// seek restarts an index-mode scan at the prefix vals binds: vals[cols[i]]
// is the value of the index's i-th column. An index join calls it once
// per left row; the scan's state, its verdict memo included, carries
// over from probe to probe.
func (it *scanIter) seek(vals []types.Value, cols []int) {
	for i, c := range cols {
		it.key[i] = vals[c]
	}
	it.buf, it.pos, it.done, it.probe = it.buf[:0], 0, false, true
	it.lastKey, it.lastTID = nil, 0
}

func (it *scanIter) finish() {
	if !it.reported {
		it.reported = true
		it.rt.report(&it.st)
	}
}

// storedRow returns the stored bytes of the row Next returned last, nil
// when it has none.
func (it *scanIter) storedRow() []byte {
	if i := it.pos - 1; i >= 0 && i < len(it.encoded) {
		return it.encoded[i]
	}
	return nil
}

// Close reports the scan and lets go of the rows it read, their stored
// bytes and blocks, and a batch buffer grown past row1: the tree waits
// for its next opening holding none of them.
func (it *scanIter) Close() {
	it.finish()
	it.buf, it.row1[0], it.st, it.env.Row = nil, Row{}, storage.ScanState{}, nil
	it.encoded, it.scratch = nil, nil
}

// report hands a finished scan's counts to OnScanned.
func (rt *Runtime) report(st *storage.ScanState) {
	if rt.OnScanned != nil {
		rt.OnScanned(st.Visited, st.Denied, st.Stored)
	}
}
