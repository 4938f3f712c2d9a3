package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"ifdb/internal/storage"
	"ifdb/internal/types"
)

func k(vals ...int64) Key {
	out := make(Key, len(vals))
	for i, v := range vals {
		out[i] = types.NewInt(v)
	}
	return out
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Key
		want int
	}{
		{k(1), k(2), -1},
		{k(2), k(1), 1},
		{k(1, 2), k(1, 2), 0},
		{k(1), k(1, 2), -1}, // prefix sorts first
		{k(1, 3), k(1, 2), 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestInsertLookupDelete(t *testing.T) {
	tr := New()
	tr.Insert(k(1), 10)
	tr.Insert(k(2), 20)
	tr.Insert(k(2), 21) // duplicate key, distinct TID
	tr.Insert(k(2), 21) // exact duplicate, ignored
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	var tids []storage.TID
	tr.AscendEqual(k(2), func(tid storage.TID) bool {
		tids = append(tids, tid)
		return true
	})
	if len(tids) != 2 || tids[0] != 20 || tids[1] != 21 {
		t.Fatalf("AscendEqual: %v", tids)
	}
	if !tr.Delete(k(2), 20) {
		t.Fatal("Delete failed")
	}
	if tr.Delete(k(2), 20) {
		t.Fatal("double Delete succeeded")
	}
	if tr.Len() != 2 {
		t.Fatalf("Len after delete = %d", tr.Len())
	}
}

func TestAscendPrefix(t *testing.T) {
	tr := New()
	for i := int64(0); i < 100; i++ {
		tr.Insert(k(i/10, i%10), storage.TID(i))
	}
	// Prefix (7,*) = 10 entries in order.
	var got []storage.TID
	tr.AscendPrefix(k(7), func(key Key, tid storage.TID) bool {
		got = append(got, tid)
		return true
	})
	if len(got) != 10 || got[0] != 70 || got[9] != 79 {
		t.Fatalf("prefix: %v", got)
	}
	// A full key is its own prefix.
	got = got[:0]
	tr.AscendEqual(k(4, 2), func(tid storage.TID) bool {
		got = append(got, tid)
		return true
	})
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("equal: %v", got)
	}
	// A nil prefix walks everything; early termination.
	n := 0
	tr.AscendPrefix(nil, func(Key, storage.TID) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestLargeOrderedInsertAndSplits(t *testing.T) {
	tr := New()
	const n = 5000
	for i := 0; i < n; i++ {
		tr.Insert(k(int64(i)), storage.TID(i))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	prev := int64(-1)
	tr.AscendPrefix(nil, func(key Key, tid storage.TID) bool {
		v := key[0].Int()
		if v != prev+1 {
			t.Fatalf("order broken at %d (prev %d)", v, prev)
		}
		prev = v
		return true
	})
	if prev != n-1 {
		t.Fatalf("visited up to %d", prev)
	}
	// An ascending run leaves full nodes behind it: every node off the
	// rightmost path holds btreeOrder-1 entries.
	var walk func(nd *node, rightmost bool)
	walk = func(nd *node, rightmost bool) {
		if !rightmost && len(nd.entries) != btreeOrder-1 {
			t.Fatalf("a node off the rightmost path holds %d entries, want %d", len(nd.entries), btreeOrder-1)
		}
		for i, c := range nd.children {
			walk(c, rightmost && i == len(nd.children)-1)
		}
	}
	walk(tr.root, true)
}

func TestMixedTypeKeys(t *testing.T) {
	tr := New()
	tr.Insert(Key{types.NewText("bob"), types.NewInt(1)}, 1)
	tr.Insert(Key{types.NewText("alice"), types.NewInt(2)}, 2)
	tr.Insert(Key{types.NewText("bob"), types.NewInt(0)}, 3)
	var got []storage.TID
	tr.AscendPrefix(Key{types.NewText("bob")}, func(_ Key, tid storage.TID) bool {
		got = append(got, tid)
		return true
	})
	if len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Fatalf("text prefix: %v", got)
	}
}

// TestQuickMatchesReference: under random inserts and deletes the tree
// agrees with a sorted reference slice. Insert and Delete change what
// they change in the reference; a full walk, every one-column prefix
// walk and walks resumed after each entry (AscendPrefixAfter with a
// batch of one) yield the reference's entries in order; and a resumed
// walk that deletes each entry before resuming from it drains the tree.
// Each run's two key columns hold one kind, BIGINT, DOUBLE or TEXT, with
// NULLs among it, from domains small enough that equal keys with
// distinct TIDs and exact duplicates are common. The DOUBLE domain holds
// -0.0 and 0.0, which are one key, and NaN.
func TestQuickMatchesReference(t *testing.T) {
	domains := [][]types.Value{
		{types.Null, types.NewInt(math.MinInt64), types.NewInt(-1), types.NewInt(0), types.NewInt(1), types.NewInt(math.MaxInt64)},
		{types.Null, types.NewFloat(math.Copysign(0, -1)), types.NewFloat(0), types.NewFloat(-2.5), types.NewFloat(1.5), types.NewFloat(math.Inf(1)), types.NewFloat(math.NaN())},
		{types.Null, types.NewText(""), types.NewText("\x00"), types.NewText("a"), types.NewText("ab"), types.NewText("b")},
	}
	// same is entry identity: a key equal column by column, bit for bit
	// (the tree keeps the key it was first given), and the TID.
	same := func(a, b entry) bool {
		if len(a.key) != len(b.key) || a.tid != b.tid {
			return false
		}
		for i := range a.key {
			if !a.key[i].Equal(b.key[i]) {
				return false
			}
		}
		return true
	}
	// resumed walks prefix one entry per batch from the start, calling
	// between(e) after each batch's entry e.
	resumed := func(tr *Btree, prefix Key, between func(entry)) []entry {
		var got []entry
		var after entry
		for {
			var last entry
			lastKey, lastTID, more := tr.AscendPrefixAfter(prefix, after.key, after.tid, 1, func(k Key, tid storage.TID) bool {
				last = entry{k, tid}
				got = append(got, last)
				return true
			})
			if last.key != nil {
				between(last)
			}
			if !more {
				return got
			}
			after = entry{lastKey, lastTID}
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dom := domains[r.Intn(len(domains))]
		tr := New()
		var ref []entry // sorted by entryCmp
		find := func(e entry) (int, bool) {
			return slices.BinarySearchFunc(ref, e, func(a, b entry) int { return entryCmp(&a, &b) })
		}
		for op := 0; op < 600; op++ {
			e := entry{Key{dom[r.Intn(len(dom))], dom[r.Intn(len(dom))]}, storage.TID(r.Intn(8))}
			if r.Intn(4) > 0 {
				tr.Insert(e.key, e.tid)
				if i, found := find(e); !found {
					ref = slices.Insert(ref, i, e)
				}
				continue
			}
			if len(ref) > 0 && r.Intn(2) == 0 {
				e = ref[r.Intn(len(ref))]
			}
			i, want := find(e)
			if got := tr.Delete(e.key, e.tid); got != want {
				t.Logf("seed %d: Delete(%v, %d) = %v, reference %v", seed, e.key, e.tid, got, want)
				return false
			}
			if want {
				ref = slices.Delete(ref, i, i+1)
			}
		}
		if tr.Len() != len(ref) {
			t.Logf("seed %d: Len %d, reference %d", seed, tr.Len(), len(ref))
			return false
		}
		check := func(what string, got, want []entry) bool {
			if !slices.EqualFunc(got, want, same) {
				t.Logf("seed %d: %s: %d entries, reference %d: %v\nwant %v", seed, what, len(got), len(want), got, want)
				return false
			}
			return true
		}
		var all []entry
		tr.AscendPrefix(nil, func(k Key, tid storage.TID) bool { all = append(all, entry{k, tid}); return true })
		if !check("full walk", all, ref) || !check("resumed walk", resumed(tr, nil, func(entry) {}), ref) {
			return false
		}
		for _, v := range dom {
			prefix := Key{v}
			var want, got []entry
			for _, e := range ref {
				if types.Compare(&e.key[0], &v) == 0 {
					want = append(want, e)
				}
			}
			tr.AscendPrefix(prefix, func(k Key, tid storage.TID) bool { got = append(got, entry{k, tid}); return true })
			if !check(fmt.Sprintf("prefix %v", v), got, want) || !check(fmt.Sprintf("resumed prefix %v", v), resumed(tr, prefix, func(entry) {}), want) {
				return false
			}
		}
		drained := resumed(tr, nil, func(e entry) {
			if !tr.Delete(e.key, e.tid) {
				t.Errorf("seed %d: Delete(%v, %d) of a walked entry failed", seed, e.key, e.tid)
			}
		})
		return check("draining walk", drained, ref) && tr.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentReadersWriters(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Insert(k(int64(w*1000+i)), storage.TID(i))
				if i%13 == 0 {
					tr.AscendPrefix(k(int64(w*1000)), func(Key, storage.TID) bool { return true })
				}
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != 4*500 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

// TestDrainAndRefill regression-tests deletion when subtrees empty out
// entirely (the tree never rebalances, so interior separators must
// fall back to successors or splice themselves away).
func TestDrainAndRefill(t *testing.T) {
	tr := New()
	const n = 2000
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			tr.Insert(k(int64(i)), storage.TID(i))
		}
		// Delete in an order that drains left subtrees first.
		for i := 0; i < n; i++ {
			if !tr.Delete(k(int64(i)), storage.TID(i)) {
				t.Fatalf("round %d: delete %d failed", round, i)
			}
		}
		if tr.Len() != 0 {
			t.Fatalf("round %d: Len = %d", round, tr.Len())
		}
	}
	// And a reverse-order drain.
	for i := 0; i < n; i++ {
		tr.Insert(k(int64(i)), storage.TID(i))
	}
	for i := n - 1; i >= 0; i-- {
		if !tr.Delete(k(int64(i)), storage.TID(i)) {
			t.Fatalf("reverse delete %d failed", i)
		}
	}
	// Interleaved middle-out drain.
	for i := 0; i < n; i++ {
		tr.Insert(k(int64(i)), storage.TID(i))
	}
	for i := 0; i < n/2; i++ {
		if !tr.Delete(k(int64(n/2+i)), storage.TID(n/2+i)) {
			t.Fatalf("mid delete %d failed", i)
		}
		if !tr.Delete(k(int64(n/2-1-i)), storage.TID(n/2-1-i)) {
			t.Fatalf("mid delete %d failed", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
}
