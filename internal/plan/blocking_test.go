package plan

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"ifdb/internal/exec"
	"ifdb/internal/label"
	"ifdb/internal/sql"
	"ifdb/internal/types"
)

// The blocking operators — sort and aggregate — against what they
// replaced: the stable sort of the whole input, the legacy tuple key,
// and a buffer of every input row.

// genIter produces n rows from gen into one Row it reuses, so an
// operator that keeps a *Row instead of copying it fails every test
// here. failAt >= 0 makes the Next that would produce row failAt
// return errBroke.
type genIter struct {
	n      int
	gen    func(i int, r *Row)
	failAt int
	pos    int
	closes int
	row    Row
}

var errBroke = errors.New("child broke")

func (g *genIter) Next() (*Row, error) {
	if g.pos == g.failAt {
		return nil, errBroke
	}
	if g.pos >= g.n {
		return nil, nil
	}
	g.gen(g.pos, &g.row)
	g.pos++
	return &g.row, nil
}

func (g *genIter) Close() { g.closes++ }

func fromRows(rows []Row) *genIter {
	return &genIter{n: len(rows), failAt: -1, gen: func(i int, r *Row) { *r = rows[i] }}
}

func lit(n int64) sql.Expr { return &sql.Literal{Value: types.NewInt(n)} }

func openNode(t testing.TB, n Node, params ...types.Value) Iter {
	t.Helper()
	it, err := (&Plan{Root: n}).Open(&Runtime{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	return &it
}

// ids drains it and returns every row's first value.
func ids(t testing.TB, it Iter) []int64 {
	t.Helper()
	var out []int64
	for {
		r, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			it.Close()
			return out
		}
		out = append(out, r.Vals[0].Int())
	}
}

// topkSeeds parses IFDB_TOPK_SEEDS (comma-separated; the CI race job
// runs a wider matrix than the default).
func topkSeeds(t *testing.T) []int64 {
	env := os.Getenv("IFDB_TOPK_SEEDS")
	if env == "" {
		return []int64{1, 2, 3}
	}
	var seeds []int64
	for _, f := range strings.Split(env, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("IFDB_TOPK_SEEDS: bad seed %q: %v", f, err)
		}
		seeds = append(seeds, n)
	}
	return seeds
}

// TestBoundedSortIsStableSortPrefix: for random rows, key counts,
// directions and bounds, the bounded sort's output is the first rows of
// sort.SliceStable over the whole input — the sort this operator ran
// before it had a bound — and the unbounded sort's output is all of it.
// Keys come from a small domain (NULL, ints, floats equal to ints), so
// ties are the common case. Each row carries its keys twice, as Sort
// values and as columns after its id, and a sort by columns (Keys, the
// sort below a projection) must answer exactly as a sort by Sort does.
func TestBoundedSortIsStableSortPrefix(t *testing.T) {
	for _, seed := range topkSeeds(t) {
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 300; round++ {
			n, nkeys := rng.Intn(120), 1+rng.Intn(3)
			desc := make([]bool, nkeys)
			for i := range desc {
				desc[i] = rng.Intn(2) == 0
			}
			rows := make([]Row, n)
			for i := range rows {
				rows[i] = Row{Vals: []types.Value{types.NewInt(int64(i))}, Sort: make([]types.Value, nkeys)}
				for k := range rows[i].Sort {
					switch d := rng.Intn(6); d {
					case 0:
						rows[i].Sort[k] = types.Null
					case 1:
						rows[i].Sort[k] = types.NewFloat(float64(rng.Intn(4)))
					default:
						rows[i].Sort[k] = types.NewInt(int64(rng.Intn(4)))
					}
				}
			}
			keys := make([]int, nkeys)
			for i := range rows {
				rows[i].Vals = append(rows[i].Vals, rows[i].Sort...)
			}
			for k := range keys {
				keys[k] = 1 + k
			}
			want := append([]Row(nil), rows...)
			sort.SliceStable(want, func(i, j int) bool { return keyOrder{desc: desc}.cmp(&want[i], &want[j]) < 0 })
			wantIDs := make([]int64, n)
			for i := range want {
				wantIDs[i] = want[i].Vals[0].Int()
			}

			limit, offset := int64(rng.Intn(n+5)), int64(rng.Intn(4))
			var off sql.Expr
			k := limit
			if rng.Intn(2) == 0 {
				off = lit(offset)
				k += offset
			}
			for _, by := range [][]int{nil, keys} {
				got := ids(t, openNode(t, &SortNode{
					Child: &SourceNode{Rows: fromRows(rows)}, Desc: desc, Keys: by, Limit: lit(limit), Offset: off,
				}))
				if fmt.Sprint(got) != fmt.Sprint(wantIDs[:min(k, int64(n))]) {
					t.Fatalf("seed %d round %d: n=%d desc=%v keys=%v k=%d\n got %v\nwant %v", seed, round, n, desc, by, k, got, wantIDs[:min(k, int64(n))])
				}
				all := ids(t, openNode(t, &SortNode{Child: &SourceNode{Rows: fromRows(rows)}, Desc: desc, Keys: by}))
				if fmt.Sprint(all) != fmt.Sprint(wantIDs) {
					t.Fatalf("seed %d round %d: unbounded n=%d desc=%v keys=%v\n got %v\nwant %v", seed, round, n, desc, by, all, wantIDs)
				}
			}
		}
	}
}

// TestSortBoundFromParams: the bound is evaluated when the sort opens,
// from the statement's parameters, and a bound LimitNode would refuse
// is refused.
func TestSortBoundFromParams(t *testing.T) {
	src := func() *genIter {
		return &genIter{n: 10, failAt: -1, gen: func(i int, r *Row) {
			*r = Row{Vals: []types.Value{types.NewInt(int64(i))}, Sort: []types.Value{types.NewInt(int64(i % 3))}}
		}}
	}
	n := &SortNode{Child: &SourceNode{Rows: src()}, Desc: []bool{true}, Limit: &sql.Param{Index: 1}, Offset: &sql.Param{Index: 2}}
	if got := fmt.Sprint(ids(t, openNode(t, n, types.NewInt(3), types.NewInt(1)))); got != "[2 5 8 1]" {
		t.Fatalf("LIMIT $1 OFFSET $2 kept %s", got)
	}
	n.Child = &SourceNode{Rows: src()}
	if _, err := (&Plan{Root: n}).Open(&Runtime{Params: []types.Value{types.NewInt(-1), types.NewInt(0)}}); err == nil ||
		err.Error() != "engine: LIMIT/OFFSET must be a non-negative integer" {
		t.Fatalf("negative bound: %v", err)
	}
	// A sum past int64 is no bound at all.
	n.Child = &SourceNode{Rows: src()}
	if got := len(ids(t, openNode(t, n, types.NewInt(math.MaxInt64), types.NewInt(5)))); got != 10 {
		t.Fatalf("overflowing bound kept %d rows", got)
	}
}

// legacyRowKey is the tuple key the legacy executor builds (and this
// package built before appendKey): kind, length, string form.
func legacyRowKey(vals []types.Value) string {
	var b strings.Builder
	for _, v := range vals {
		s := v.String()
		var n [binary.MaxVarintLen64]byte
		b.WriteByte(byte(v.Kind()))
		b.Write(n[:binary.PutUvarint(n[:], uint64(len(s)))])
		b.WriteString(s)
	}
	return b.String()
}

// TestKeyMatchesLegacyKey: two tuples share a key exactly when they
// shared a legacy key, over values chosen to collide — text holding
// NUL and kind bytes, empty text, ints and floats of equal value,
// signed zeros, NaNs, NULL, booleans, times a microsecond apart, labels.
func TestKeyMatchesLegacyKey(t *testing.T) {
	t0 := time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)
	pool := []types.Value{
		types.Null,
		types.NewInt(0), types.NewInt(1), types.NewInt(-1), types.NewInt(math.MaxInt64),
		types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(1), types.NewFloat(1.5),
		types.NewFloat(math.NaN()), types.NewFloat(math.Float64frombits(0x7ff8000000000001)), types.NewFloat(math.Inf(1)),
		types.NewText(""), types.NewText("a"), types.NewText("a\x00\x03b"), types.NewText("b\x00\x03c"),
		types.NewText("\x00"), types.NewText("1"), types.NewText("NULL"), types.NewText("t"),
		types.NewBool(true), types.NewBool(false),
		types.NewTime(t0), types.NewTime(t0.Add(time.Microsecond)), types.NewTime(time.UnixMicro(0)),
		types.NewLabel(nil), types.NewLabel(label.New(1)), types.NewLabel(label.New(1, 2)), types.NewLabel(label.New(12)),
	}
	for _, seed := range topkSeeds(t) {
		rng := rand.New(rand.NewSource(seed))
		tuple := func(n int) []types.Value {
			vs := make([]types.Value, n)
			for i := range vs {
				vs[i] = pool[rng.Intn(len(pool))]
			}
			return vs
		}
		for round := 0; round < 20000; round++ {
			a, b := tuple(1+rng.Intn(3)), tuple(1+rng.Intn(3))
			if rng.Intn(4) == 0 {
				b = append(b[:0], a...) // equal tuples must be tried too
				b[rng.Intn(len(b))] = pool[rng.Intn(len(pool))]
			}
			old := legacyRowKey(a) == legacyRowKey(b)
			if now := string(appendRowKey(nil, a)) == string(appendRowKey(nil, b)); now != old {
				t.Fatalf("seed %d: %v vs %v: legacy keys equal=%v, keys equal=%v", seed, a, b, old, now)
			}
		}
	}
	// The column boundary, explicitly.
	x := []types.Value{types.NewText("a\x00\x03b"), types.NewText("c")}
	y := []types.Value{types.NewText("a"), types.NewText("b\x00\x03c")}
	if string(appendRowKey(nil, x)) == string(appendRowKey(nil, y)) {
		t.Fatal("keys lose the column boundary")
	}
	if cols := string(appendColsKey(nil, x, []int{1, 0})); cols != string(appendRowKey(nil, []types.Value{x[1], x[0]})) {
		t.Fatal("appendColsKey and appendRowKey encode differently")
	}
}

// salesIter is the budget tests' input: n rows (id, region, v) over 12
// regions, the ORDER BY v DESC, id keys attached, built without
// allocating — region texts are shared and the value slices are
// rewritten in place, which is allowed here because neither operator
// under test keeps a row's Vals past the group's first or the k kept.
func salesIter(n int) *genIter {
	regions := make([]types.Value, 12)
	for i := range regions {
		regions[i] = types.NewText(fmt.Sprintf("region-%02d", i))
	}
	vals := make([]types.Value, 3*n)
	keys := make([]types.Value, 2*n)
	return &genIter{n: n, failAt: -1, gen: func(i int, r *Row) {
		id, v := types.NewInt(int64(i)), types.NewInt(int64(i*7919%10007))
		r.Vals, r.Sort = vals[3*i:3*i+3:3*i+3], keys[2*i:2*i+2:2*i+2]
		r.Vals[0], r.Vals[1], r.Vals[2] = id, regions[i%12], v
		r.Sort[0], r.Sort[1] = v, id
	}}
}

var salesCols = exec.Schema{{Name: "id"}, {Name: "region"}, {Name: "v"}}

// allocated is what one run of f allocates: bytes and objects.
func allocated(f func()) (bytes, objects uint64) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc, b.Mallocs - a.Mallocs
}

// TestBoundedSortBudget: ORDER BY v DESC, id LIMIT 50 holds 50 rows
// whatever the input's size, and allocates the same for ten times the
// input. (The unbounded sort of the same input holds all of it.)
func TestBoundedSortBudget(t *testing.T) {
	const k = 50
	run := func(n int, limit sql.Expr) (held int, bytes uint64) {
		src := salesIter(n)
		node := &SortNode{Child: &SourceNode{Rows: src}, Desc: []bool{true, false}, Limit: limit}
		bytes, _ = allocated(func() {
			h := openNode(t, node).(*Handle)
			r, err := h.Next()
			if err != nil || r == nil {
				t.Fatalf("first row: %v, %v", r, err)
			}
			held = len(h.t.root.(*sortIter).rows)
			h.Close()
		})
		if src.pos != n {
			t.Fatalf("sort pulled %d of %d rows", src.pos, n)
		}
		return held, bytes
	}
	held1k, bytes1k := run(1_000, lit(k))
	held10k, bytes10k := run(10_000, lit(k))
	if held1k != k || held10k != k {
		t.Errorf("bounded sort holds %d rows of 1000 and %d of 10000, want %d", held1k, held10k, k)
	}
	if bytes10k > bytes1k+bytes1k/10 {
		t.Errorf("bounded sort allocates %d B over 10000 rows, %d B over 1000: grows with its input", bytes10k, bytes1k)
	}
	if held, _ := run(10_000, nil); held != 10_000 {
		t.Errorf("unbounded sort holds %d rows of 10000", held)
	}
}

// TestStreamingFoldBudget: GROUP BY over 12 groups allocates per group,
// not per input row — ten times the rows, the same objects.
func TestStreamingFoldBudget(t *testing.T) {
	col := func(name string) sql.Expr { return &sql.ColumnRef{Column: name} }
	run := func(n int) (groups int, objects uint64) {
		src := salesIter(n)
		node := &AggregateNode{
			Child: &SourceNode{Cols: salesCols, Rows: src},
			Items: []sql.SelectItem{
				{Expr: col("region")},
				{Expr: &sql.FuncCall{Name: "count", Star: true}},
				{Expr: &sql.FuncCall{Name: "sum", Args: []sql.Expr{col("v")}}},
			},
			GroupBy: []sql.Expr{col("region")},
			NewAcc:  EvalAcc,
		}
		_, objects = allocated(func() {
			it := openNode(t, node)
			for {
				r, err := it.Next()
				if err != nil {
					t.Fatal(err)
				}
				if r == nil {
					break
				}
				groups++
			}
			it.Close()
		})
		if src.pos != n || src.closes != 1 {
			t.Fatalf("fold pulled %d of %d rows, closed its child %d times", src.pos, n, src.closes)
		}
		return groups, objects
	}
	g1k, objs1k := run(1_000)
	g10k, objs10k := run(10_000)
	if g1k != 12 || g10k != 12 {
		t.Fatalf("groups: %d and %d, want 12", g1k, g10k)
	}
	if objs10k > objs1k+12 {
		t.Errorf("fold allocates %d objects over 10000 rows, %d over 1000: grows with its input", objs10k, objs1k)
	}
}

// TestBlockingOperatorsCloseChildOnce: whether the child fails
// mid-stream or runs dry, the sort (bounded or not) and the aggregate
// close it exactly once — however often they are closed themselves —
// and a failure reaches the caller as the child returned it.
func TestBlockingOperatorsCloseChildOnce(t *testing.T) {
	ops := map[string]func(src Iter) Node{
		"sort": func(src Iter) Node { return &SortNode{Child: &SourceNode{Rows: src}, Desc: []bool{false, false}} },
		"sort top 3": func(src Iter) Node {
			return &SortNode{Child: &SourceNode{Rows: src}, Desc: []bool{false, false}, Limit: lit(3)}
		},
		"aggregate": func(src Iter) Node {
			return &AggregateNode{
				Child:   &SourceNode{Cols: salesCols, Rows: src},
				Items:   []sql.SelectItem{{Expr: &sql.FuncCall{Name: "count", Star: true}}},
				GroupBy: []sql.Expr{&sql.ColumnRef{Column: "region"}},
				NewAcc:  EvalAcc,
			}
		},
	}
	for name, op := range ops {
		for _, failAt := range []int{-1, 0, 40} {
			src := salesIter(100)
			src.failAt = failAt
			it := openNode(t, op(src))
			var err error
			for {
				var r *Row
				if r, err = it.Next(); r == nil {
					break
				}
			}
			if failAt >= 0 && err != errBroke {
				t.Errorf("%s, child fails at %d: err = %v, want the child's own", name, failAt, err)
			}
			if failAt < 0 && err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if src.closes != 1 {
				t.Errorf("%s, child fails at %d: child closed %d times before Close", name, failAt, src.closes)
			}
			it.Close()
			it.Close()
			if src.closes != 1 {
				t.Errorf("%s, child fails at %d: child closed %d times after Close", name, failAt, src.closes)
			}
		}
		// Closed before the first Next: the child is still released.
		src := salesIter(10)
		it := openNode(t, op(src))
		it.Close()
		if r, err := it.Next(); r != nil || err != nil || src.closes != 1 || src.pos != 0 {
			t.Errorf("%s closed unread: row %v, err %v, %d closes, %d rows pulled", name, r, err, src.closes, src.pos)
		}
	}
}
