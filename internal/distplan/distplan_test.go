package distplan

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ifdb/internal/label"
	"ifdb/internal/types"
)

// fakeStream is an in-memory shard stream.
type fakeStream struct {
	cols   []string
	rows   []feedRow
	pos    int
	err    error // reported after the rows drain
	closed atomic.Bool
}

func (f *fakeStream) Columns() []string { return f.cols }
func (f *fakeStream) Next() bool {
	if f.pos >= len(f.rows) {
		return false
	}
	f.pos++
	return true
}
func (f *fakeStream) Row() []types.Value    { return f.rows[f.pos-1].vals }
func (f *fakeStream) RowLabel() label.Label { return f.rows[f.pos-1].lbl }
func (f *fakeStream) Err() error {
	if f.pos >= len(f.rows) {
		return f.err
	}
	return nil
}
func (f *fakeStream) Close() error { f.closed.Store(true); return nil }

func vi(n int64) types.Value        { return types.NewInt(n) }
func vt(s string) types.Value       { return types.NewText(s) }
func row(vs ...types.Value) feedRow { return feedRow{vals: vs} }

func cfgFor(shards [][]feedRow, cols []string) (Config, []*fakeStream) {
	streams := make([]*fakeStream, len(shards))
	cfg := Config{
		Shards: len(shards),
		Open: func(i int) (Stream, error) {
			streams[i] = &fakeStream{cols: cols, rows: shards[i]}
			return streams[i], nil
		},
	}
	return cfg, streams
}

func drain(t *testing.T, s Stream) []feedRow {
	t.Helper()
	var out []feedRow
	for s.Next() {
		vals := append([]types.Value{}, s.Row()...)
		out = append(out, feedRow{vals: vals, lbl: s.RowLabel()})
	}
	if err := s.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	return out
}

func render(rows []feedRow) string {
	var b strings.Builder
	for _, r := range rows {
		for j, v := range r.vals {
			if j > 0 {
				b.WriteByte('|')
			}
			fmt.Fprintf(&b, "%v", v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Split decisions

// TestSplitRefusals: the statements Split does not split, and which of
// them Analyze refuses — those whose answer needs a merge — rather
// than leaving to the union of the shards' answers.
func TestSplitRefusals(t *testing.T) {
	cases := []struct {
		src     string
		refused bool
	}{
		{"INSERT INTO t (a) VALUES (1)", false},
		{"SELECT a FROM t JOIN u ON t.a = u.a", false},
		{"SELECT a FROM t JOIN u ON t.a = u.a ORDER BY a", true},
		{"SELECT a FROM (SELECT a FROM t) AS d", false},
		{"SELECT DISTINCT a FROM (SELECT a FROM t) AS d", true},
		{"SELECT a FROM t WHERE a IN (SELECT b FROM u)", false},
		{"SELECT a FROM t FOR UPDATE", false},
		{"SELECT a FROM t", false},                                                       // nothing to merge
		{"SELECT *, count(*) FROM t GROUP BY a", true},                                   // star needs rep-row expansion
		{"SELECT a, count(*) FROM t GROUP BY g", true},                                   // rep-row column reference
		{"SELECT now(), count(*) FROM t", true},                                          // engine-resident function in glue
		{"SELECT declassify(a, 't'), count(*) FROM t GROUP BY declassify(a, 't')", true}, // never split declassify
		{"SELECT count(*) FROM t LIMIT count(*)", true},
		{"SELECT a FROM t ORDER BY count(*)", false},
		{"SELECT a FROM t ORDER BY 2", false},              // a position outside the list: the engine's error to word
		{"SELECT a, count(*) FROM t GROUP BY 3", false},    // likewise
		{"SELECT * FROM t ORDER BY 2 LIMIT 2", true},       // only a shard can count to a position under a star
		{"SELECT a, count(*) FROM t GROUP BY 1, 0", false}, // position 0
	}
	for _, c := range cases {
		if sp := Split(c.src, Options{}); sp != nil {
			t.Errorf("Split(%q) = %+v, want nil", c.src, sp)
		}
		sp, err := Analyze(c.src, Options{})
		var ue *ErrUnmergeable
		refused := errors.As(err, &ue)
		union := sp != nil && sp.Mode == ModeUnion && sp.Fragment == c.src
		if refused != c.refused || (err != nil && ue == nil) || union == c.refused {
			t.Errorf("Analyze(%q) = %+v, %v; want refused=%v, else the union", c.src, sp, err, c.refused)
		}
	}
}

func TestSplitModes(t *testing.T) {
	cases := []struct {
		src  string
		mode Mode
	}{
		{"SELECT a FROM t ORDER BY a", ModeOrdered},
		{"SELECT a FROM t LIMIT 5", ModeOrdered},
		{"SELECT DISTINCT a FROM t", ModeOrdered},
		{"SELECT count(*) FROM t", ModePartialAgg},
		{"SELECT g, count(*), sum(v), avg(v), min(v), max(v) FROM t GROUP BY g", ModePartialAgg},
		{"SELECT g, count(DISTINCT v) FROM t GROUP BY g", ModeGatherAgg},
		{"SELECT count(*) + sum(v) FROM t HAVING count(*) > 0", ModePartialAgg},
		{"SELECT g, _label, count(*) FROM t GROUP BY g, _label", ModePartialAgg},
	}
	for _, tc := range cases {
		sp := Split(tc.src, Options{})
		if sp == nil {
			t.Errorf("Split(%q) = nil", tc.src)
			continue
		}
		if sp.Mode != tc.mode {
			t.Errorf("Split(%q).Mode = %v, want %v", tc.src, sp.Mode, tc.mode)
		}
	}
	if sp := Split("SELECT count(*) FROM t", Options{NoPartial: true}); sp == nil || sp.Mode != ModeGatherAgg {
		t.Errorf("NoPartial: got %+v, want gather", sp)
	}
}

func TestSplitFragments(t *testing.T) {
	sp := Split("SELECT g, count(*), avg(v) FROM events WHERE v > 2 GROUP BY g", Options{})
	if sp == nil {
		t.Fatal("no split")
	}
	want := `SELECT "g" AS "__ifdb_g0", count(*) AS "__ifdb_a0", sum("v") AS "__ifdb_a1s", count("v") AS "__ifdb_a1c" FROM "events" WHERE ("v" > 2) GROUP BY "g"`
	if sp.Fragment != want {
		t.Errorf("fragment:\n got %s\nwant %s", sp.Fragment, want)
	}
	if sp.Table != "events" {
		t.Errorf("table = %q", sp.Table)
	}

	// Ordered with pushed LIMIT: per-shard bound is limit+offset.
	sp = Split("SELECT a FROM t ORDER BY b DESC LIMIT 3 OFFSET 2", Options{})
	if sp == nil {
		t.Fatalf("ordered split: %+v", sp)
	}
	if want := `SELECT "a", "b" AS "__ifdb_s0" FROM "t" ORDER BY "b" DESC LIMIT 5`; sp.Fragment != want {
		t.Errorf("fragment:\n got %s\nwant %s", sp.Fragment, want)
	}

	// A position is the select item it names: no hidden constant
	// column to merge on, and the fragment groups by the expression.
	sp = Split("SELECT a, b FROM t ORDER BY 2 DESC, 1", Options{})
	if sp == nil || len(sp.keyItems) != 2 || sp.keyItems[0] != 1 || sp.keyItems[1] != 0 || sp.hidden != 0 {
		t.Fatalf("positional ORDER BY: %+v", sp)
	}
	if want := `SELECT "a", "b" FROM "t" ORDER BY 2 DESC, 1`; sp.Fragment != want {
		t.Errorf("fragment:\n got %s\nwant %s", sp.Fragment, want)
	}
	sp = Split("SELECT v, count(*) FROM t GROUP BY 1", Options{})
	if sp == nil {
		t.Fatal("no split")
	}
	if want := `SELECT "v" AS "__ifdb_g0", count(*) AS "__ifdb_a0" FROM "t" GROUP BY "v"`; sp.Fragment != want {
		t.Errorf("fragment:\n got %s\nwant %s", sp.Fragment, want)
	}

	// Gather mode ships group keys and raw argument values, ungrouped.
	sp = Split("SELECT g, count(DISTINCT v) FROM t GROUP BY g", Options{})
	if sp == nil {
		t.Fatal("no split")
	}
	if want := `SELECT "g" AS "__ifdb_g0", "v" AS "__ifdb_a0" FROM "t"`; sp.Fragment != want {
		t.Errorf("fragment:\n got %s\nwant %s", sp.Fragment, want)
	}

	// Pure COUNT(*) gather ships a constant column per row.
	sp = Split("SELECT count(*) FROM t WHERE a = 1", Options{NoPartial: true})
	if sp == nil {
		t.Fatal("no split")
	}
	if want := `SELECT 1 AS "__ifdb_one" FROM "t" WHERE ("a" = 1)`; sp.Fragment != want {
		t.Errorf("fragment:\n got %s\nwant %s", sp.Fragment, want)
	}
}

// ---------------------------------------------------------------------------
// Union gateway

// union is the gateway recipe of a read with nothing to merge.
func union(t *testing.T) *Spec {
	t.Helper()
	sp, err := Analyze("SELECT a FROM t", Options{})
	if err != nil || sp == nil || sp.Mode != ModeUnion {
		t.Fatalf("Analyze = %+v, %v; want the union", sp, err)
	}
	return sp
}

func TestUnionShardOrderAndWindow(t *testing.T) {
	shards := [][]feedRow{
		{row(vi(1)), row(vi(2))},
		{row(vi(3))},
		{row(vi(4)), row(vi(5))},
	}
	var mu atomic.Int32
	cfg, _ := cfgFor(shards, []string{"a"})
	inner := cfg.Open
	cfg.Open = func(i int) (Stream, error) { mu.Add(1); return inner(i) }
	cfg.Window = 2
	closed := atomic.Int32{}
	cfg.OnClose = func() { closed.Add(1) }

	u, err := union(t).Gateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(u.Columns(), ","); got != "a" {
		t.Fatalf("cols = %s", got)
	}
	rows := drain(t, u)
	if render(rows) != "1\n2\n3\n4\n5\n" {
		t.Fatalf("rows:\n%s", render(rows))
	}
	u.Close()
	if closed.Load() != 1 {
		t.Fatalf("OnClose ran %d times", closed.Load())
	}
	if mu.Load() != 3 {
		t.Fatalf("opened %d shards", mu.Load())
	}
}

func TestUnionShardError(t *testing.T) {
	cfg := Config{
		Shards: 2,
		Open: func(i int) (Stream, error) {
			if i == 1 {
				return &fakeStream{cols: []string{"a"}, err: errors.New("boom")}, nil
			}
			return &fakeStream{cols: []string{"a"}, rows: []feedRow{row(vi(1))}}, nil
		},
		Wrap: func(shard int, err error) error {
			return fmt.Errorf("shard %d: %w", shard, err)
		},
	}
	u, err := union(t).Gateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for u.Next() {
		n++
	}
	if n != 1 {
		t.Fatalf("rows before error = %d", n)
	}
	if err := u.Err(); err == nil || err.Error() != "shard 1: boom" {
		t.Fatalf("err = %v", err)
	}
}

// TestUnionCloseReleasesBlockedFeeds drives CANCEL propagation: a feed
// blocked on a full channel must exit when the consumer closes.
func TestUnionCloseReleasesBlockedFeeds(t *testing.T) {
	big := make([]feedRow, feedDepth*4)
	for i := range big {
		big[i] = row(vi(int64(i)))
	}
	cfg, streams := cfgFor([][]feedRow{big, big}, []string{"a"})
	u, err := union(t).Gateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !u.Next() {
		t.Fatal("no first row")
	}
	u.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if streams[0] != nil && streams[0].closed.Load() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("feed 0 not closed after Close")
		}
		time.Sleep(time.Millisecond)
	}
}

// ---------------------------------------------------------------------------
// Ordered merge

func TestOrderedMerge(t *testing.T) {
	sp := Split("SELECT a, b FROM t ORDER BY b, a DESC LIMIT 4 OFFSET 1", Options{})
	if sp == nil {
		t.Fatal("no split")
	}
	// Both sort keys are output items, so the fragment appends no
	// hidden columns; the merge reads ordinals 1 and 0.
	if sp.hidden != 0 {
		t.Fatalf("hidden = %d", sp.hidden)
	}
	h := func(a, b int64) feedRow { return row(vi(a), vi(b)) }
	shards := [][]feedRow{
		{h(1, 1), h(9, 3)},
		{h(5, 2), h(7, 3)},
	}
	cfg, _ := cfgFor(shards, []string{"a", "b"})
	st, err := sp.Gateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(st.Columns(), ","); got != "a,b" {
		t.Fatalf("cols = %s", got)
	}
	// Global order: (1,1) (5,2) (9,3) (7,3) — b asc then a desc;
	// OFFSET 1 drops the first.
	rows := drain(t, st)
	if render(rows) != "5|2\n9|3\n7|3\n" {
		t.Fatalf("rows:\n%s", render(rows))
	}
}

func TestOrderedDistinct(t *testing.T) {
	sp := Split("SELECT DISTINCT a FROM t ORDER BY a", Options{})
	if sp == nil {
		t.Fatal("no split")
	}
	shards := [][]feedRow{
		{row(vi(1)), row(vi(2))},
		{row(vi(1)), row(vi(3))},
	}
	cfg, _ := cfgFor(shards, []string{"a"})
	st, err := sp.Gateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, st)
	if render(rows) != "1\n2\n3\n" {
		t.Fatalf("rows:\n%s", render(rows))
	}
}

// ---------------------------------------------------------------------------
// Aggregate merges

func TestPartialAggMerge(t *testing.T) {
	sp := Split("SELECT g, count(*), sum(v), avg(v), min(v), max(v) FROM t GROUP BY g", Options{})
	if sp == nil || sp.Mode != ModePartialAgg {
		t.Fatalf("split: %+v", sp)
	}
	// Shard partial rows: g, count, sum, avg-sum, avg-count, min, max.
	part := func(g string, c, s, as, ac, mn, mx int64) feedRow {
		return row(vt(g), vi(c), vi(s), vi(as), vi(ac), vi(mn), vi(mx))
	}
	shards := [][]feedRow{
		{part("x", 2, 10, 10, 2, 3, 7), part("y", 1, 5, 5, 1, 5, 5)},
		{part("x", 1, 4, 4, 1, 4, 4)},
	}
	cfg, _ := cfgFor(shards, nil)
	st, err := sp.Gateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Engine naming: no alias and not a bare column reference means a
	// positional name.
	if got := strings.Join(st.Columns(), ","); got != "g,column2,column3,column4,column5,column6" {
		t.Fatalf("cols = %s", got)
	}
	rows := drain(t, st)
	want := "x|3|14|4.666666666666667|3|7\ny|1|5|5|5|5\n"
	if render(rows) != want {
		t.Fatalf("rows:\n%s\nwant:\n%s", render(rows), want)
	}
}

func TestPartialAggMergeLabels(t *testing.T) {
	sp := Split("SELECT count(*) FROM t", Options{})
	shards := [][]feedRow{
		{{vals: []types.Value{vi(2)}, lbl: label.Label{label.Tag(1)}}},
		{{vals: []types.Value{vi(3)}, lbl: label.Label{label.Tag(2)}}},
	}
	cfg, _ := cfgFor(shards, nil)
	st, err := sp.Gateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Next() {
		t.Fatal("no row")
	}
	if st.Row()[0].Int() != 5 {
		t.Fatalf("count = %v", st.Row()[0])
	}
	lbl := st.RowLabel()
	if len(lbl) != 2 {
		t.Fatalf("label = %v, want union of both shards", lbl)
	}
}

func TestGatherAggMerge(t *testing.T) {
	sp := Split("SELECT g, count(DISTINCT v) FROM t GROUP BY g ORDER BY g", Options{})
	if sp == nil || sp.Mode != ModeGatherAgg {
		t.Fatalf("split: %+v", sp)
	}
	// Ships (g, v) pairs; value 10 appears on both shards and must
	// count once.
	shards := [][]feedRow{
		{row(vt("x"), vi(10)), row(vt("x"), vi(20))},
		{row(vt("x"), vi(10)), row(vt("y"), vi(30))},
	}
	cfg, _ := cfgFor(shards, nil)
	st, err := sp.Gateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, st)
	if render(rows) != "x|2\ny|1\n" {
		t.Fatalf("rows:\n%s", render(rows))
	}
}

func TestAggHavingOrderLimit(t *testing.T) {
	sp := Split("SELECT g, count(*) AS c FROM t GROUP BY g HAVING count(*) > 1 ORDER BY c DESC, g LIMIT 2", Options{})
	if sp == nil || sp.Mode != ModePartialAgg {
		t.Fatalf("split: %+v", sp)
	}
	// The item's count(*) and HAVING's count(*) are distinct call
	// nodes, so the fragment carries two count columns — exactly like
	// the engine's placeholder allocation.
	part := func(g string, c int64) feedRow { return row(vt(g), vi(c), vi(c)) }
	shards := [][]feedRow{
		{part("a", 2), part("b", 1), part("c", 3)},
		{part("b", 2), part("d", 1)},
	}
	cfg, _ := cfgFor(shards, nil)
	st, err := sp.Gateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, st)
	// a=2 b=3 c=3 d=1; HAVING>1 keeps a,b,c; order c desc then g:
	// b(3), c(3), a(2); LIMIT 2.
	if render(rows) != "b|3\nc|3\n" {
		t.Fatalf("rows:\n%s", render(rows))
	}
}

// TestGatewaySortBound: the gateway's tail is the engine's, so its sort
// over an aggregate's groups is bounded by LIMIT + OFFSET, and not when
// DISTINCT stands between them.
func TestGatewaySortBound(t *testing.T) {
	for _, tc := range []struct{ sql, want string }{
		{"SELECT g, count(*) AS c FROM t GROUP BY g ORDER BY c DESC LIMIT 2 OFFSET 1", "sort [count(*) DESC] top 3\n"},
		{"SELECT g, count(*) AS c FROM t GROUP BY g ORDER BY c DESC LIMIT $1", "sort [count(*) DESC] top $1\n"},
		{"SELECT DISTINCT g, count(*) AS c FROM t GROUP BY g ORDER BY c DESC LIMIT 2", "sort [count(*) DESC]\n"},
		{"SELECT g, count(*) AS c FROM t GROUP BY g ORDER BY c DESC", "sort [count(*) DESC]\n"},
	} {
		sp := Split(tc.sql, Options{})
		if sp == nil {
			t.Fatalf("%s: no split", tc.sql)
		}
		cfg, _ := cfgFor([][]feedRow{nil}, nil)
		if _, p := sp.tree(cfg); !strings.Contains(p.Explain(), tc.want) {
			t.Errorf("%s: gateway tree lacks %q:\n%s", tc.sql, tc.want, p.Explain())
		}
	}
}

func TestAggEmptyInputDefaultGroup(t *testing.T) {
	for _, opts := range []Options{{}, {NoPartial: true}} {
		sp := Split("SELECT count(*), sum(v) FROM t", opts)
		if sp == nil {
			t.Fatal("no split")
		}
		var shards [][]feedRow
		if sp.Mode == ModePartialAgg {
			// Each shard still reports its default group.
			shards = [][]feedRow{
				{row(vi(0), types.Null)},
				{row(vi(0), types.Null)},
			}
		} else {
			shards = [][]feedRow{nil, nil} // no rows shipped at all
		}
		cfg, _ := cfgFor(shards, nil)
		st, err := sp.Gateway(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rows := drain(t, st)
		if render(rows) != "0|NULL\n" {
			t.Fatalf("mode %v rows:\n%s", sp.Mode, render(rows))
		}
	}
}

// TestExplain renders the gateway half of a sharded EXPLAIN for each
// gateway shape: the tree Gateway opens, as the single-node EXPLAIN
// renders it, between the Scatter header and the fragment line.
func TestExplain(t *testing.T) {
	cases := []struct {
		sql, want string
	}{
		{"SELECT a FROM t", `
Scatter [shards=3 window=2 mode=union]
├─ source shards 0..2 in order
└─ Fragment (each shard): SELECT a FROM t`},
		{"SELECT a FROM t ORDER BY b DESC, a LIMIT 3", `
Scatter [shards=3 window=3 mode=ordered-merge]
├─ limit 3 (early-exit)
│  └─ merge [DESC, ASC]
│     ├─ source shard 0
│     ├─ source shard 1
│     └─ source shard 2
└─ Fragment (each shard): SELECT "a", "b" AS "__ifdb_s0" FROM "t" ORDER BY "b" DESC, "a" LIMIT 3`},
		{"SELECT g, count(*) FROM t GROUP BY g ORDER BY g", `
Scatter [shards=3 window=2 mode=partial-agg]
├─ sort [__ifdb_g0]
│  └─ aggregate [__ifdb_g0 AS g, count(*) AS column2] group by=[__ifdb_g0]
│     └─ source shards 0..2 in order
└─ Fragment (each shard): SELECT "g" AS "__ifdb_g0", count(*) AS "__ifdb_a0" FROM "t" GROUP BY "g"`},
		{"SELECT g, count(DISTINCT v) FROM t GROUP BY g HAVING count(DISTINCT v) > 1", `
Scatter [shards=3 window=2 mode=gather-agg]
├─ aggregate [__ifdb_g0 AS g, count(DISTINCT v) AS column2] group by=[__ifdb_g0] having=(count(DISTINCT v) > 1)
│  └─ source shards 0..2 in order
└─ Fragment (each shard): SELECT "g" AS "__ifdb_g0", "v" AS "__ifdb_a0", "v" AS "__ifdb_a1" FROM "t"`},
	}
	for _, tc := range cases {
		sp, err := Analyze(tc.sql, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		got := strings.Join(sp.Explain(Config{Shards: 3, Window: 2}), "\n")
		if want := strings.TrimPrefix(tc.want, "\n"); got != want {
			t.Errorf("%s:\n%s\nwant:\n%s", tc.sql, got, want)
		}
	}
}

// ---------------------------------------------------------------------------
// Shutdown: feeds and OnClose, in every gateway mode

// watched lets a test wait for the feed goroutine to let go of a shard
// stream: the feed closes its stream on every way out.
type watched struct {
	*fakeStream
	released chan struct{}
}

func (w *watched) Close() error {
	close(w.released)
	return w.fakeStream.Close()
}

// TestGatewayReleasesFeeds: whether a shard fails after its first row
// or the consumer walks away after one, every feed goroutine exits —
// including those blocked on a full channel — and OnClose fires once.
func TestGatewayReleasesFeeds(t *testing.T) {
	const perShard = feedDepth * 4
	modes := []struct {
		name string
		sql  string
		opts Options
		row  func(i int64) feedRow
	}{
		{"union", "SELECT a FROM t", Options{}, func(i int64) feedRow { return row(vi(i)) }},
		{"ordered", "SELECT a FROM t ORDER BY a", Options{}, func(i int64) feedRow { return row(vi(i)) }},
		{"partial", "SELECT g, count(*) FROM t GROUP BY g", Options{}, func(i int64) feedRow { return row(vi(i), vi(1)) }},
		{"gather", "SELECT g, count(*) FROM t GROUP BY g", Options{NoPartial: true}, func(i int64) feedRow { return row(vi(i)) }},
		// The streaming fold under the bounded sort: both let go of the
		// gather on a shard's error as on their own exhaustion.
		{"partial-top", "SELECT g, count(*) AS c FROM t GROUP BY g ORDER BY c DESC, g LIMIT 2", Options{}, func(i int64) feedRow { return row(vi(i), vi(1)) }},
	}
	for _, m := range modes {
		for _, shardFails := range []bool{true, false} {
			sp, err := Analyze(m.sql, m.opts)
			if sp == nil {
				t.Fatalf("%s: no gateway: %v", m.name, err)
			}
			streams := make([]*watched, 3)
			for s := range streams {
				fs := &fakeStream{}
				for i := int64(0); i < perShard; i++ {
					fs.rows = append(fs.rows, m.row(i))
				}
				if shardFails && s == 1 {
					fs.rows, fs.err = fs.rows[:1], errors.New("boom")
				}
				streams[s] = &watched{fakeStream: fs, released: make(chan struct{})}
			}
			var onClose atomic.Int32
			st, err := sp.Gateway(Config{
				Shards:  len(streams),
				Open:    func(i int) (Stream, error) { return streams[i], nil },
				Wrap:    func(shard int, err error) error { return fmt.Errorf("shard %d: %w", shard, err) },
				OnClose: func() { onClose.Add(1) },
			})
			if err == nil {
				// The union and ordered merges report from Next; aggregate
				// merges have already run and hand out a finished result.
				if !st.Next() {
					t.Fatalf("%s: no first row: %v", m.name, st.Err())
				}
				if shardFails {
					for st.Next() {
					}
					err = st.Err()
				}
				st.Close()
				st.Close()
			}
			if shardFails && (err == nil || err.Error() != "shard 1: boom") {
				t.Errorf("%s: err = %v, want shard 1's", m.name, err)
			}
			if !shardFails && err != nil {
				t.Errorf("%s: %v", m.name, err)
			}
			for s, w := range streams {
				select {
				case <-w.released:
				case <-time.After(2 * time.Second):
					t.Fatalf("%s (shard fails=%v): feed %d still holds its stream", m.name, shardFails, s)
				}
			}
			if n := onClose.Load(); n != 1 {
				t.Errorf("%s (shard fails=%v): OnClose ran %d times", m.name, shardFails, n)
			}
		}
	}
}
