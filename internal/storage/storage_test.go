package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ifdb/internal/label"
	"ifdb/internal/types"
)

func row(vals ...int64) []types.Value {
	out := make([]types.Value, len(vals))
	for i, v := range vals {
		out[i] = types.NewInt(v)
	}
	return out
}

func TestMemHeapInsertGetScan(t *testing.T) {
	h := NewMemHeap()
	t1, err := h.Insert(TupleVersion{Row: row(1), Xmin: 1})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := h.Insert(TupleVersion{Row: row(2), Xmin: 1, Label: label.New(9)})
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 2 {
		t.Fatalf("Len = %d", h.Len())
	}
	tv, ok := h.Get(t1)
	if !ok || tv.Row[0].Int() != 1 {
		t.Fatal("Get t1")
	}
	tv, ok = h.Get(t2)
	if !ok || !tv.Label.Equal(label.New(9)) {
		t.Fatal("Get t2 label")
	}
	if _, ok := h.Get(TID(99)); ok {
		t.Fatal("Get bogus TID")
	}
	var seen []TID
	h.Scan(func(tid TID, tv *TupleVersion) bool {
		seen = append(seen, tid)
		return true
	})
	if len(seen) != 2 || seen[0] != t1 || seen[1] != t2 {
		t.Fatalf("Scan order: %v", seen)
	}
	// Early stop.
	n := 0
	h.Scan(func(TID, *TupleVersion) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Scan early stop visited %d", n)
	}
}

func TestMemHeapXmaxProtocol(t *testing.T) {
	h := NewMemHeap()
	tid, _ := h.Insert(TupleVersion{Row: row(1), Xmin: 1})
	if !h.SetXmax(tid, 5) {
		t.Fatal("SetXmax failed")
	}
	// A second writer conflicts.
	if h.SetXmax(tid, 6) {
		t.Fatal("conflicting SetXmax succeeded")
	}
	// Same xid is idempotent.
	if !h.SetXmax(tid, 5) {
		t.Fatal("idempotent SetXmax failed")
	}
	// Clearing another xid's stamp is a no-op.
	h.ClearXmax(tid, 6)
	if tv, _ := h.Get(tid); tv.Xmax != 5 {
		t.Fatal("ClearXmax removed foreign stamp")
	}
	h.ClearXmax(tid, 5)
	if tv, _ := h.Get(tid); tv.Xmax != InvalidXID {
		t.Fatal("ClearXmax failed")
	}
	// Now 6 can stamp.
	if !h.SetXmax(tid, 6) {
		t.Fatal("restamp failed")
	}
}

func TestMemHeapVacuum(t *testing.T) {
	h := NewMemHeap()
	t1, _ := h.Insert(TupleVersion{Row: row(1), Xmin: 1})
	t2, _ := h.Insert(TupleVersion{Row: row(2), Xmin: 2})
	h.SetXmax(t1, 3)
	n := h.Vacuum(func(tv *TupleVersion) bool { return tv.Xmax != InvalidXID })
	if n != 1 || h.Len() != 1 {
		t.Fatalf("Vacuum reclaimed %d, len %d", n, h.Len())
	}
	if _, ok := h.Get(t1); ok {
		t.Fatal("vacuumed version still visible")
	}
	// TIDs remain stable after vacuum.
	if tv, ok := h.Get(t2); !ok || tv.Row[0].Int() != 2 {
		t.Fatal("surviving TID broken")
	}
	if h.ApproxBytes() <= 0 {
		t.Fatal("ApproxBytes")
	}
}

func TestMemHeapBytesAccounting(t *testing.T) {
	h := NewMemHeap()
	tid, _ := h.Insert(TupleVersion{Row: row(1, 2, 3), Xmin: 1, Label: label.New(1, 2)})
	before := h.ApproxBytes()
	if before <= 0 {
		t.Fatal("no bytes accounted")
	}
	h.SetXmax(tid, 2)
	h.Vacuum(func(tv *TupleVersion) bool { return true })
	if h.ApproxBytes() != 0 {
		t.Fatalf("bytes after vacuum: %d", h.ApproxBytes())
	}
}

func TestVisibilityPredicate(t *testing.T) {
	var st ScanState
	vis := Visibility{
		See:     func(xmin, xmax XID) bool { return xmin == 1 && xmax == 0 },
		LabelOK: func(l, il label.Label) (label.Label, bool) { return l, l.IsEmpty() && il.Has(9) },
		Scan:    &st,
	}
	if !vis.Sees(&TupleVersion{Xmin: 1, ILabel: label.New(9)}) {
		t.Fatal("visible version rejected")
	}
	if vis.Sees(&TupleVersion{Xmin: 2, ILabel: label.New(9)}) {
		t.Fatal("invisible xmin accepted")
	}
	if vis.Sees(&TupleVersion{Xmin: 1, Label: label.New(5), ILabel: label.New(9)}) {
		t.Fatal("labeled version accepted")
	}
	if vis.Sees(&TupleVersion{Xmin: 1}) {
		t.Fatal("version below the integrity label accepted")
	}
	// A version the snapshot hides is not a label denial.
	if st.Visited != 4 || st.Denied != 2 {
		t.Fatalf("visited %d denied %d, want 4 and 2", st.Visited, st.Denied)
	}
	// Nil predicates are exempt.
	if !(Visibility{}).Sees(&TupleVersion{Xmin: 77, Label: label.New(1)}) {
		t.Fatal("exempt visibility rejected")
	}
}

// TestSeesStored: the stored-form check gives Sees's answers, decodes
// and judges each distinct label pair once, and still counts every
// version.
func TestSeesStored(t *testing.T) {
	enc := func(l, il label.Label) []byte {
		b, _ := label.AppendEncode(nil, l)
		b, _ = label.AppendEncode(b, il)
		return append(b, 0xEE, 0xEE) // the row follows the labels
	}
	calls := 0
	var st ScanState
	vis := Visibility{
		See:     func(xmin, xmax XID) bool { return xmax == 0 },
		LabelOK: func(l, il label.Label) (label.Label, bool) { calls++; return l, !l.Has(7) },
		Scan:    &st,
	}
	open, secret := enc(label.New(1, 2), label.New(3)), enc(label.New(7), nil)
	for i := 0; i < 100; i++ {
		rec, want := open, true
		if i%2 == 1 {
			rec, want = secret, false
		}
		l, il, n, ok, err := vis.SeesStored(1, 0, rec)
		if err != nil || ok != want || n != len(rec)-2 {
			t.Fatalf("version %d: ok=%v n=%d err=%v", i, ok, n, err)
		}
		if want && (!l.Equal(label.New(1, 2)) || !il.Equal(label.New(3))) {
			t.Fatalf("version %d decoded as %v / %v", i, l, il)
		}
	}
	if _, _, _, ok, _ := vis.SeesStored(1, 5, secret); ok {
		t.Fatal("deleted version accepted")
	}
	if calls != 2 {
		t.Fatalf("LabelOK ran %d times for 2 distinct labels", calls)
	}
	if st.Visited != 101 || st.Denied != 50 {
		t.Fatalf("visited %d denied %d, want 101 and 50", st.Visited, st.Denied)
	}
	for _, bad := range [][]byte{nil, {1}, {0}, {1, 0, 0, 0, 0}, {0, 2, 0, 0, 0, 0}} {
		if _, _, _, _, err := vis.SeesStored(1, 0, bad); err == nil {
			t.Fatalf("truncated labels %v accepted", bad)
		}
	}
}

// TestSeesMemoMatchesDirect: over seeded version sequences, the memo's
// verdict and stripped label equal a direct LabelOK call for every
// version, on the decoded path (Sees) and the stored one (SeesStored);
// LabelOK runs once per distinct pair up to the bound, and past it once
// per version whose pair is neither remembered nor the last one; and
// Visited and Denied stay exact.
func TestSeesMemoMatchesDirect(t *testing.T) {
	strip := label.New(2)
	direct := func(l, il label.Label) (label.Label, bool) {
		seen := l.Minus(strip)
		return seen, !seen.Has(7) && (il.IsEmpty() || il.Has(9))
	}
	small := [][2]label.Label{
		{nil, nil}, {{}, {}}, {{}, nil}, // nil and empty are one pair
		{label.New(1), nil}, {label.New(1, 2), nil}, // a prefix of a label
		{label.New(1, 2), label.New(9)}, {label.New(1, 2), label.New(8)}, // one secrecy label, two integrity labels
		{label.New(7), nil}, {label.New(2, 7), label.New(9)}, {label.New(2), label.New(8, 9)},
	}
	var many [][2]label.Label // more distinct pairs than the bound
	for i := 0; i < maxVerdicts+60; i++ {
		l := label.New(label.Tag(1000 + i))
		if i%2 == 1 {
			l = l.Add(7)
		}
		many = append(many, [2]label.Label{l, label.New(9)})
	}
	fresh := func(l label.Label) label.Label { // equal content, a slice of its own
		if l == nil {
			return nil
		}
		return append(label.Label{}, l...)
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := small
		if seed > 10 {
			pool = many
		}
		var versions []TupleVersion
		for len(versions) < 2000 {
			p := pool[rng.Intn(len(pool))]
			for run := 1 + rng.Intn(4); run > 0; run-- {
				versions = append(versions, TupleVersion{Xmin: XID(rng.Intn(5)), Label: fresh(p[0]), ILabel: fresh(p[1])})
			}
		}
		see := func(xmin, xmax XID) bool { return xmin != 0 }

		// model is the memo as specified: the last pair, then the
		// remembered ones, the first maxVerdicts distinct pairs met.
		type model struct {
			remembered   map[string]bool
			last         string
			calls        int
			denied, seen int64
		}
		run := func(path string, check func(vis Visibility, tv *TupleVersion, rec []byte) (ok bool, seen label.Label)) {
			var st ScanState
			calls := 0
			vis := Visibility{See: see, Scan: &st, LabelOK: func(l, il label.Label) (label.Label, bool) {
				calls++
				return direct(l, il)
			}}
			m := model{remembered: map[string]bool{}}
			for i := range versions {
				tv := &versions[i]
				rec, err := appendPair(nil, tv.Label, tv.ILabel)
				if err != nil {
					t.Fatal(err)
				}
				ok, seen := check(vis, tv, append(rec, 0xEE))
				if !see(tv.Xmin, tv.Xmax) {
					if ok {
						t.Fatalf("%s seed %d version %d: the snapshot hides it, the scan admitted it", path, seed, i)
					}
					continue
				}
				wantSeen, want := direct(tv.Label, tv.ILabel)
				if ok != want || ok && !seen.Equal(wantSeen) {
					t.Fatalf("%s seed %d version %d %v/%v: memo says %v %v, direct %v %v",
						path, seed, i, tv.Label, tv.ILabel, ok, seen, want, wantSeen)
				}
				if !want {
					m.denied++
				}
				if k := string(rec); k != m.last {
					m.last = k
					if !m.remembered[k] {
						m.calls++
						if len(m.remembered) < maxVerdicts {
							m.remembered[k] = true
						}
					}
				}
			}
			if calls != m.calls {
				t.Errorf("%s seed %d: LabelOK ran %d times, want %d (%d pairs remembered)", path, seed, calls, m.calls, len(m.remembered))
			}
			if len(st.verdicts) > maxVerdicts {
				t.Errorf("%s seed %d: memo holds %d pairs, bound %d", path, seed, len(st.verdicts), maxVerdicts)
			}
			if st.Visited != int64(len(versions)) || st.Denied != m.denied {
				t.Errorf("%s seed %d: visited %d denied %d, want %d and %d", path, seed, st.Visited, st.Denied, len(versions), m.denied)
			}
		}
		run("Sees", func(vis Visibility, tv *TupleVersion, _ []byte) (bool, label.Label) {
			ok := vis.Sees(tv)
			return ok, vis.Scan.Label(tv)
		})
		run("SeesStored", func(vis Visibility, tv *TupleVersion, rec []byte) (bool, label.Label) {
			l, il, n, ok, err := vis.SeesStored(tv.Xmin, tv.Xmax, rec)
			if err != nil || n != len(rec)-1 {
				t.Fatalf("SeesStored: n=%d err=%v", n, err)
			}
			if ok && (!l.Equal(tv.Label) || !il.Equal(tv.ILabel)) {
				t.Fatalf("SeesStored decoded %v/%v, stored %v/%v", l, il, tv.Label, tv.ILabel)
			}
			return ok, vis.Scan.Label(&TupleVersion{Label: l})
		})
	}
}

// TestSeesOneLabelAllocatesNothing: a scan that meets one label pair
// keeps its verdict in the scan state, and a hit on a remembered pair
// encodes its key on the stack.
func TestSeesOneLabelAllocatesNothing(t *testing.T) {
	a := TupleVersion{Xmin: 1, Label: label.New(1), ILabel: label.New(9)}
	b := TupleVersion{Xmin: 1, Label: label.New(2)}
	ok := func(l, il label.Label) (label.Label, bool) { return l, true }
	var st ScanState // a scan's state lives in its iterator
	vis := Visibility{LabelOK: ok, Scan: &st}
	if n := testing.AllocsPerRun(100, func() {
		st = ScanState{}
		for i := 0; i < 100; i++ {
			vis.Sees(&a)
		}
	}); n != 0 {
		t.Fatalf("one-label scan: %.0f allocations, want 0", n)
	}
	st = ScanState{}
	vis.Sees(&a)
	vis.Sees(&b)
	if n := testing.AllocsPerRun(100, func() { vis.Sees(&a); vis.Sees(&b) }); n != 0 {
		t.Fatalf("alternating remembered pairs: %.0f allocations per pair, want 0", n)
	}
}

// TestMemHeapScanFrom: batches resume where they stopped, hidden
// versions never reach fn, and every live version is counted once.
func TestMemHeapScanFrom(t *testing.T) {
	h := NewMemHeap()
	for i := 0; i < 10; i++ {
		tv := TupleVersion{Row: row(int64(i)), Xmin: 1}
		if i%2 == 1 {
			tv.Label = label.New(7)
		}
		h.Insert(tv)
	}
	h.Vacuum(func(tv *TupleVersion) bool { return tv.Row[0].Int() == 4 })
	var st ScanState
	vis := Visibility{LabelOK: func(l, il label.Label) (label.Label, bool) { return l, l.IsEmpty() }, Scan: &st}
	var got []int64
	next, more := TID(0), true
	for batches := 0; more; batches++ {
		var err error
		next, more, err = h.ScanFrom(next, 3, vis, func(_ TID, tv *TupleVersion) bool {
			got = append(got, tv.Row[0].Int())
			return true
		})
		if err != nil || batches > 4 {
			t.Fatalf("batch %d: err %v", batches, err)
		}
	}
	if fmt.Sprint(got) != "[0 2 6 8]" {
		t.Fatalf("scan saw %v", got)
	}
	if st.Visited != 9 || st.Denied != 5 {
		t.Fatalf("visited %d denied %d, want 9 and 5", st.Visited, st.Denied)
	}
}

func TestMemHeapConcurrentInsertScan(t *testing.T) {
	h := NewMemHeap()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := h.Insert(TupleVersion{Row: row(int64(w), int64(i)), Xmin: XID(w + 1)}); err != nil {
					t.Error(err)
					return
				}
				if i%17 == 0 {
					h.Scan(func(TID, *TupleVersion) bool { return true })
				}
			}
		}(w)
	}
	wg.Wait()
	if h.Len() != 8*200 {
		t.Fatalf("Len = %d", h.Len())
	}
}
