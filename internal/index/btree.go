// Package index provides the ordered secondary-index structure used by
// the engine: an in-memory B-tree mapping composite value keys to tuple
// version TIDs.
//
// The index is deliberately version-oblivious: it stores one entry per
// tuple *version*, and readers filter entries through their snapshot
// and label visibility exactly as heap scans do. This mirrors the
// paper's observation (§7.1) that PostgreSQL's unique indexes "already
// had to be prepared to deal with multiple versions", which is why
// polyinstantiation needed no special index support — uniqueness is
// checked against *visible* tuples at the access layer, not inside the
// tree.
package index

import (
	"sync"

	"ifdb/internal/storage"
	"ifdb/internal/types"
)

// Key is a composite index key.
type Key []types.Value

// Compare orders keys lexicographically; shorter prefixes sort first.
// It compares the columns in place, without copying a Value.
func Compare(a, b Key) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := types.Compare(&a[i], &b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// prefixCmp compares k's first len(prefix) columns with prefix: 0 when
// k begins with prefix. Every key begins with a nil prefix.
func prefixCmp(k, prefix Key) int {
	return Compare(k[:min(len(k), len(prefix))], prefix)
}

const btreeOrder = 64 // max children per interior node

type entry struct {
	key Key
	tid storage.TID
}

// entryCmp orders entries by key, then TID (so duplicate keys are
// permitted and entries are totally ordered).
func entryCmp(a, b *entry) int {
	if c := Compare(a.key, b.key); c != 0 {
		return c
	}
	switch {
	case a.tid < b.tid:
		return -1
	case a.tid > b.tid:
		return 1
	default:
		return 0
	}
}

// search returns the position of the first entry in n not below e, and
// whether that entry is e. One comparison per step decides both.
func search(n *node, e *entry) (int, bool) {
	lo, hi := 0, len(n.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		switch c := entryCmp(&n.entries[mid], e); {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

type node struct {
	entries  []entry // sorted; leaf payload or interior separators
	children []*node // nil for leaves; len = len(entries)+1 otherwise
}

func (n *node) leaf() bool { return n.children == nil }

// Btree is an ordered multimap from Key to TID. Safe for concurrent
// use; writes take an exclusive lock.
type Btree struct {
	mu   sync.RWMutex
	root *node
	size int
}

// New returns an empty B-tree.
func New() *Btree {
	return &Btree{root: &node{}}
}

// Len returns the number of entries.
func (t *Btree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// Insert adds (key, tid). Duplicate (key, tid) pairs are ignored.
func (t *Btree) Insert(key Key, tid storage.TID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := entry{key: key, tid: tid}
	if t.insertInto(t.root, e) {
		t.size++
	}
	if len(t.root.entries) >= btreeOrder {
		old := t.root
		left, sep, right := splitNode(old, &e)
		t.root = &node{entries: []entry{sep}, children: []*node{left, right}}
	}
}

// insertInto inserts e under n, reporting whether a new entry was
// added. Children that overflow are split by the caller's parent; to
// keep the code simple we split eagerly on the way back up.
func (t *Btree) insertInto(n *node, e entry) bool {
	lo, dup := search(n, &e)
	if dup {
		return false
	}
	if n.leaf() {
		n.entries = append(n.entries, entry{})
		copy(n.entries[lo+1:], n.entries[lo:])
		n.entries[lo] = e
		return true
	}
	child := n.children[lo]
	added := t.insertInto(child, e)
	if len(child.entries) >= btreeOrder {
		left, sep, right := splitNode(child, &e)
		n.entries = append(n.entries, entry{})
		copy(n.entries[lo+1:], n.entries[lo:])
		n.entries[lo] = sep
		n.children = append(n.children, nil)
		copy(n.children[lo+2:], n.children[lo+1:])
		n.children[lo] = left
		n.children[lo+1] = right
	}
	return added
}

// splitNode splits n, which the insert of e filled, into n itself, cut
// short, a separator, and a new right node. It splits about the middle
// entry, or about e when e is n's last entry: an ascending run of
// inserts then leaves full nodes behind it, not half-full ones, and
// goes on in the empty right node. Both nodes have room for btreeOrder
// entries (and children), which a node holds before it splits again,
// so no insert into either grows its arrays.
func splitNode(n *node, e *entry) (left *node, sep entry, right *node) {
	mid := len(n.entries) / 2
	if last := len(n.entries) - 1; entryCmp(&n.entries[last], e) == 0 {
		mid = last
	}
	sep = n.entries[mid]
	right = &node{entries: append(make([]entry, 0, btreeOrder), n.entries[mid+1:]...)}
	clear(n.entries[mid:])
	n.entries = n.entries[:mid]
	if !n.leaf() {
		right.children = append(make([]*node, 0, btreeOrder+1), n.children[mid+1:]...)
		clear(n.children[mid+1:])
		n.children = n.children[:mid+1]
	}
	return n, sep, right
}

// Delete removes (key, tid) if present, reporting whether it was found.
// Underflow is tolerated (nodes may become sparse); the tree never
// rebalances on delete, which is acceptable for an index whose entries
// are reclaimed wholesale by vacuum.
func (t *Btree) Delete(key Key, tid storage.TID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := entry{key: key, tid: tid}
	if t.deleteFrom(t.root, e) {
		t.size--
		return true
	}
	return false
}

func (t *Btree) deleteFrom(n *node, e entry) bool {
	lo, found := search(n, &e)
	if found {
		if n.leaf() {
			n.entries = append(n.entries[:lo], n.entries[lo+1:]...)
			return true
		}
		// Replace the separator with its predecessor (or successor if
		// the left subtree has emptied out — the tree never rebalances
		// on delete, so subtrees can drain).
		if pred, ok := maxEntry(n.children[lo]); ok {
			n.entries[lo] = pred
			return t.deleteFrom(n.children[lo], pred)
		}
		if succ, ok := minEntry(n.children[lo+1]); ok {
			n.entries[lo] = succ
			return t.deleteFrom(n.children[lo+1], succ)
		}
		// Both neighbors are empty: drop the separator and one of the
		// empty children.
		n.entries = append(n.entries[:lo], n.entries[lo+1:]...)
		n.children = append(n.children[:lo], n.children[lo+1:]...)
		return true
	}
	if n.leaf() {
		return false
	}
	return t.deleteFrom(n.children[lo], e)
}

// maxEntry returns the largest entry in the subtree; ok is false if
// the subtree is empty. Because separators dominate everything in the
// subtrees to their left, the maximum is the rightmost subtree's max,
// or failing that the last separator.
func maxEntry(n *node) (entry, bool) {
	if n.leaf() {
		if len(n.entries) == 0 {
			return entry{}, false
		}
		return n.entries[len(n.entries)-1], true
	}
	if e, ok := maxEntry(n.children[len(n.children)-1]); ok {
		return e, true
	}
	if len(n.entries) > 0 {
		return n.entries[len(n.entries)-1], true
	}
	return entry{}, false
}

// minEntry mirrors maxEntry.
func minEntry(n *node) (entry, bool) {
	if n.leaf() {
		if len(n.entries) == 0 {
			return entry{}, false
		}
		return n.entries[0], true
	}
	if e, ok := minEntry(n.children[0]); ok {
		return e, true
	}
	if len(n.entries) > 0 {
		return n.entries[0], true
	}
	return entry{}, false
}

// AscendEqual visits all entries with key exactly equal to k. The keys
// of one tree have one length, so they are the entries with prefix k.
func (t *Btree) AscendEqual(k Key, fn func(tid storage.TID) bool) {
	t.AscendPrefix(k, func(_ Key, tid storage.TID) bool { return fn(tid) })
}

// AscendPrefix visits all entries whose key begins with prefix, in
// order, until fn returns false. A nil prefix visits every entry.
func (t *Btree) AscendPrefix(prefix Key, fn func(key Key, tid storage.TID) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.ascendPrefixAfter(t.root, prefix, nil, fn)
}

// AscendPrefixAfter is the resumable form of AscendPrefix for the
// pull-based executor: it visits entries whose key begins with prefix
// and that sort strictly after (afterKey, afterTID) in the tree's
// (key, TID) total order, delivering at most max of them. A nil
// afterKey starts at the beginning. It returns the position of the
// last delivered entry — the resume point for the next batch — and
// whether the batch stopped on the max budget (more=true) rather than
// exhausting the prefix. Returned keys alias tree memory and are
// immutable. The read lock is released between batches; entries
// inserted meanwhile may be visited, which is sound because a
// statement snapshot cannot see their tuples.
func (t *Btree) AscendPrefixAfter(prefix, afterKey Key, afterTID storage.TID, max int, fn func(key Key, tid storage.TID) bool) (lastKey Key, lastTID storage.TID, more bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var after *entry
	if afterKey != nil {
		after = &entry{key: afterKey, tid: afterTID}
	}
	n := 0
	t.ascendPrefixAfter(t.root, prefix, after, func(k Key, tid storage.TID) bool {
		if n >= max {
			more = true
			return false
		}
		n++
		lastKey, lastTID = k, tid
		return fn(k, tid)
	})
	return lastKey, lastTID, more
}

// ascendPrefixAfter is the one walk: it visits n's entries that begin
// with prefix, in order, skipping by binary search those at or before
// after (when set) or below prefix (when not). The bound is dropped
// once the walk passes it: whole subtrees are descended after that.
func (t *Btree) ascendPrefixAfter(n *node, prefix Key, after *entry, fn func(Key, storage.TID) bool) bool {
	lo, hi := 0, len(n.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		var skip bool
		if after != nil {
			skip = entryCmp(&n.entries[mid], after) <= 0
		} else {
			skip = prefixCmp(n.entries[mid].key, prefix) < 0
		}
		if skip {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo; i <= len(n.entries); i++ {
		if !n.leaf() {
			if !t.ascendPrefixAfter(n.children[i], prefix, after, fn) {
				return false
			}
		}
		if i == len(n.entries) {
			break
		}
		e := &n.entries[i]
		c := prefixCmp(e.key, prefix)
		if c > 0 {
			return false
		}
		if c == 0 {
			if !fn(e.key, e.tid) {
				return false
			}
		}
		after = nil
	}
	return true
}
