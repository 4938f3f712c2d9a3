package plan_test

import (
	"errors"
	"strings"
	"testing"

	"ifdb/internal/plan"
	"ifdb/internal/types"
)

// memIter is an in-memory child of the ordered merge. failAt >= 0 makes
// the Next that would return rows[failAt] fail instead.
type memIter struct {
	rows   []plan.Row
	pos    int
	failAt int
	closes int
}

func (m *memIter) Next() (*plan.Row, error) {
	if m.pos == m.failAt {
		return nil, errors.New("child broke")
	}
	if m.pos >= len(m.rows) {
		return nil, nil
	}
	m.pos++
	return &m.rows[m.pos-1], nil
}

func (m *memIter) Close() { m.closes++ }

// mrow is a row named id, sorted by keys; a nil key is NULL.
func mrow(id string, keys ...any) plan.Row {
	r := plan.Row{Vals: []types.Value{types.NewText(id)}}
	for _, k := range keys {
		if k == nil {
			r.Sort = append(r.Sort, types.Null)
		} else {
			r.Sort = append(r.Sort, types.NewInt(int64(k.(int))))
		}
	}
	return r
}

func openMerge(t *testing.T, desc []bool, children ...*memIter) plan.Iter {
	t.Helper()
	n := &plan.MergeNode{Desc: desc}
	for _, c := range children {
		n.Children = append(n.Children, &plan.SourceNode{Rows: c})
	}
	it, err := (&plan.Plan{Root: n}).Open(&plan.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	return &it
}

func mergedIDs(t *testing.T, it plan.Iter) string {
	t.Helper()
	var ids []string
	for {
		r, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			return strings.Join(ids, " ")
		}
		ids = append(ids, r.Vals[0].Text())
	}
}

func TestMergeOrder(t *testing.T) {
	child := func(rows ...plan.Row) *memIter { return &memIter{rows: rows, failAt: -1} }
	cases := []struct {
		name     string
		desc     []bool
		children []*memIter
		want     string
	}{
		{"asc", []bool{false},
			[]*memIter{child(mrow("a1", 1), mrow("a4", 4)), child(mrow("b2", 2), mrow("b3", 3)), child()},
			"a1 b2 b3 a4"},
		{"desc", []bool{true},
			[]*memIter{child(mrow("a9", 9), mrow("a2", 2)), child(mrow("b5", 5))},
			"a9 b5 a2"},
		// First key ascending, second descending; NULL sorts before
		// every value, so first ascending and last descending.
		{"asc-desc-null", []bool{false, true},
			[]*memIter{
				child(mrow("a", nil, 1), mrow("b", 1, 7), mrow("c", 1, nil)),
				child(mrow("d", nil, 5), mrow("e", 1, 3), mrow("f", 2, 0)),
			},
			"d a b e c f"},
		// Equal keys go to the lower child and never reorder a child.
		{"ties", []bool{false},
			[]*memIter{child(mrow("a1", 1), mrow("a2", 1)), child(mrow("b1", 1), mrow("b2", 2)), child(mrow("c1", 1))},
			"a1 a2 b1 c1 b2"},
		// No keys: plain concatenation in child order.
		{"keyless", nil,
			[]*memIter{child(mrow("a1"), mrow("a2")), child(mrow("b1"))},
			"a1 a2 b1"},
	}
	for _, tc := range cases {
		it := openMerge(t, tc.desc, tc.children...)
		if got := mergedIDs(t, it); got != tc.want {
			t.Errorf("%s: merged %q, want %q", tc.name, got, tc.want)
		}
		it.Close()
		it.Close()
		for i, c := range tc.children {
			if c.closes == 0 {
				t.Errorf("%s: child %d never closed", tc.name, i)
			}
		}
	}
}

// TestMergeChildError: a child failing mid-merge surfaces from Next,
// stays, and closes every child — the others are still mid-stream.
func TestMergeChildError(t *testing.T) {
	a := &memIter{rows: []plan.Row{mrow("a1", 1), mrow("a5", 5)}, failAt: -1}
	b := &memIter{rows: []plan.Row{mrow("b2", 2), mrow("b3", 3)}, failAt: 1}
	c := &memIter{rows: []plan.Row{mrow("c4", 4)}, failAt: -1}
	it := openMerge(t, []bool{false}, a, b, c)
	if r, err := it.Next(); err != nil || r.Vals[0].Text() != "a1" {
		t.Fatalf("first row: %v, %v", r, err)
	}
	// b2 is the next smallest, and advancing b past it is what fails.
	for i := 0; i < 2; i++ {
		if r, err := it.Next(); err == nil || err.Error() != "child broke" {
			t.Fatalf("Next %d after the failure: row %v, err %v", i, r, err)
		}
	}
	for i, ch := range []*memIter{a, b, c} {
		if ch.closes == 0 {
			t.Errorf("child %d left open after the error", i)
		}
	}
	it.Close()
	if a.pos != 2 || c.pos != 1 {
		t.Errorf("children pulled past their heads: a=%d c=%d", a.pos, c.pos)
	}
}
