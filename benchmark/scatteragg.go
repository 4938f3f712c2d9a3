package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"ifdb"
	"ifdb/client"
	"ifdb/internal/catalog"
	"ifdb/internal/distplan"
	"ifdb/internal/engine"
	"ifdb/internal/exec"
	"ifdb/internal/label"
	"ifdb/internal/sql"
	"ifdb/internal/storage"
	"ifdb/internal/types"
	"ifdb/internal/wire"
)

// scatter-agg: one client.Router session over three in-process
// shards. An op is a dashboard refresh: a keyless GROUP BY with
// COUNT/SUM/AVG (partial-aggregate merge at the gateway) followed by
// a keyless ORDER BY … LIMIT 50 (k-way ordered merge with the limit
// pushed to the shards). distplan's split and gateway and the
// Router's fan-out do the work while few bytes cross the wire, and
// the two statements use the gateway differently.
var scatterAgg = &workload{
	name: "scatter-agg",
	// With the collector's cycles a round takes nearer 1.15 s than 0.75;
	// ten rounds of twenty ops are kept for the samples.
	newTwin: newScatterTwin,
	expect: func(c config) func(int) (int64, uint64, bool) {
		n, d := scatterExpect(c).digest()
		_, ops := scatterSizes(c)
		return constantAnswer(n*int64(ops), d*uint64(ops))
	},
	scheduleDigest: func(c config, _ int) uint64 { _, d := scatterExpect(c).digest(); return d },
	statements:     []string{scatterAggIFC, scatterTopIFC},
}

const (
	scatterShards  = 3
	scatterRegions = 12
	scatterValMod  = 10_000
	scatterTopK    = 50

	scatterAggIFC  = `SELECT region, count(*), sum(v), avg(v) FROM sales GROUP BY region`
	scatterAggBase = `SELECT region, count(*), sum(v), avg(v) FROM sales WHERE ` + basePredicate + ` GROUP BY region`
	scatterTopIFC  = `SELECT id, v FROM sales ORDER BY v DESC, id LIMIT 50`
	scatterTopBase = `SELECT id, v FROM sales WHERE ` + basePredicate + ` ORDER BY v DESC, id LIMIT 50`
)

// scatterSizes: rows across the cluster, and ops per round. Half the
// ISSUE's 3 × 40 k rows, and twice the ops in the same time: with the
// collector running inside the rounds an op's time depends on where its
// cycles fall, and at 100 ops a run that noise alone put
// bench.round_drift outside its range in one pass in five and spread
// ifc_cost_ratio over 1.02–1.29. Ten ops a round, so a twenty-second
// run has a dozen round pairs for ifc_cost_ratio to be the median of:
// with twenty ops and six pairs it spread 7–12 % from run to run.
func scatterSizes(c config) (rows, roundOps int) {
	if c.toy {
		return 3_000, 3
	}
	return 60_000, 10
}

func regionOf(id int64) string { return fmt.Sprintf("region-%02d", mix64(uint64(id))%scatterRegions) }

// scatterAnswer is the closed-form answer to one op, from the
// generator alone.
type scatterAnswer struct {
	count, sum map[string]int64
	top        [][2]int64 // (id, v), v descending then id ascending
}

func scatterExpect(c config) scatterAnswer {
	rows, _ := scatterSizes(c)
	a := scatterAnswer{count: map[string]int64{}, sum: map[string]int64{}}
	var all [][2]int64
	for id := int64(0); id < int64(rows); id++ {
		if id%tenants >= visibleTenants {
			continue
		}
		v := genValue(c.seed, id, scatterValMod)
		a.count[regionOf(id)]++
		a.sum[regionOf(id)] += v
		all = append(all, [2]int64{id, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i][1] != all[j][1] {
			return all[i][1] > all[j][1]
		}
		return all[i][0] < all[j][0]
	})
	a.top = all[:scatterTopK]
	return a
}

// Digests: the aggregate rows are hashed by group key (their order is
// unspecified), the top-K rows by position (their order is the point).
func aggRowDigest(region string, count, sum int64) uint64 {
	var h uint64
	for _, b := range []byte(region) {
		h = mix64(h ^ uint64(b))
	}
	return mix64(h ^ mix64(uint64(count)) ^ mix64(uint64(sum))<<1)
}

func topRowDigest(pos int, id, v int64) uint64 {
	return mix64(uint64(pos+1)*0x9e3779b97f4a7c15 ^ rowDigest(id, v))
}

func (a scatterAnswer) digest() (rows int64, d uint64) {
	for region, n := range a.count {
		d += aggRowDigest(region, n, a.sum[region])
	}
	for i, r := range a.top {
		d += topRowDigest(i, r[0], r[1])
	}
	return int64(len(a.count) + len(a.top)), d
}

type scatterTwin struct {
	c      config
	ifc    bool
	shards []*served
	tn     tenancy
	smap   *wire.ShardMap
	router *client.Router // the GROUP BY statement's session
	agg    *client.RouterStmt
	// The LIMIT statement has a Router of its own. Its merge stops at 50
	// rows and closes its shard streams, and the Router then fires an
	// out-of-band CANCEL at each stream it had not read to the end —
	// even one whose statement has already finished, where the CANCEL
	// marks the session's *next* statement instead (a program defect,
	// reported in CHANGES.md; the benchmark may not fix the program).
	// On a Router of its own the next statement on those sessions is
	// the next op's LIMIT statement, a whole GROUP BY later, by which
	// time the CANCEL has long landed on an idle session and been reset.
	topRouter *client.Router
	top       *client.RouterStmt

	// The lower altitudes of the traced pass, opened on first use: the
	// shard that owns the most rows (the op waits for the slowest
	// fragment, not the mean one).
	slow      int
	sess      *ifdb.Session
	frags     [2]*engine.Prepared
	reader    label.Label
	labels    []label.Label
	values    []ifdb.Value // column v of the slow shard's visible rows
	resRows   [][]ifdb.Value
	resLabels []label.Label
}

// startShards opens the shards, serves them under one shard map with
// the ownership guard installed, and loads each shard's rows
// in-process.
func newScatterTwin(c config, ifc bool) (twin, error) {
	t := &scatterTwin{c: c, ifc: ifc, smap: &wire.ShardMap{Version: 1, Keys: map[string]string{"sales": "id"}}}
	mapFn := func() *wire.ShardMap { return t.smap }
	for i := 0; i < scatterShards; i++ {
		db, tn, err := openDB(ifdb.Config{IFC: ifc})
		if err != nil {
			return nil, err
		}
		t.tn = tn // the same ids on every shard, by construction
		sv, err := serve(db)
		if err != nil {
			return nil, err
		}
		sv.srv.ShardMap = mapFn
		t.shards = append(t.shards, sv)
		t.smap.Shards = append(t.smap.Shards, wire.Shard{ID: uint32(i), Primary: sv.addr})
	}
	rows, _ := scatterSizes(c)
	owned := make([][]int64, scatterShards)
	for id := int64(0); id < int64(rows); id++ {
		sid := t.smap.ShardOf(strconv.FormatInt(id, 10))
		owned[sid] = append(owned[sid], id)
	}
	for i, sv := range t.shards {
		sid := uint32(i)
		sv.db.Engine().SetShardGuard(func(tb *catalog.Table, row []types.Value) error {
			if own := t.smap.ShardOf(row[0].String()); tb.Name == "sales" && own != sid {
				return fmt.Errorf("misrouted id %s: shard %d owns it, shard %d got it", row[0], own, sid)
			}
			return nil
		})
		if _, err := sv.db.AdminSession().Exec(`CREATE TABLE sales (id BIGINT PRIMARY KEY, tenant BIGINT, region TEXT, v BIGINT)`); err != nil {
			return nil, err
		}
		ids := owned[i]
		err := bulkLoad(sv.db, t.tn, "sales", 4, len(ids), func(j int, row []ifdb.Value) int {
			id := ids[j]
			row[0], row[1] = ifdb.Int(id), ifdb.Int(id%tenants)
			row[2], row[3] = ifdb.Text(regionOf(id)), ifdb.Int(genValue(c.seed, id, scatterValMod))
			return int(id % tenants)
		})
		if err != nil {
			return nil, err
		}
	}
	var err error
	if t.router, err = t.openRouter(t.tn.readerTags()); err != nil {
		return nil, err
	}
	aggText, topText := scatterAggBase, scatterTopBase
	if ifc {
		aggText, topText = scatterAggIFC, scatterTopIFC
	}
	// A silent fallback to the ship-all-rows union would still return
	// the right rows; assert each statement takes the merge it is here
	// to measure.
	for text, want := range map[string]distplan.Mode{aggText: distplan.ModePartialAgg, topText: distplan.ModeOrdered} {
		sp := distplan.Split(text, distplan.Options{})
		if sp == nil || sp.Mode != want {
			return nil, fmt.Errorf("scatter-agg: %q does not split as %v", text, want)
		}
		if want == distplan.ModeOrdered && !strings.Contains(sp.Fragment, "LIMIT") {
			return nil, fmt.Errorf("scatter-agg: LIMIT not pushed into fragment %q", sp.Fragment)
		}
	}
	if t.agg, err = t.router.Prepare(aggText); err != nil {
		return nil, err
	}
	if t.topRouter, err = t.openRouter(t.tn.readerTags()); err != nil {
		return nil, err
	}
	t.top, err = t.topRouter.Prepare(topText)
	return t, err
}

func (t *scatterTwin) openRouter(tags []ifdb.Tag) (*client.Router, error) {
	cfg := client.RouterConfig{ShardMap: t.smap, Principal: uint64(t.tn.owner), PoolSize: 1}
	for _, sv := range t.shards {
		cfg.Addrs = append(cfg.Addrs, sv.addr)
	}
	if t.ifc {
		cfg.Secrecy = tags
	}
	return client.OpenRouter(cfg)
}

func (t *scatterTwin) prepare(int) int {
	_, n := scatterSizes(t.c)
	return n
}

func (t *scatterTwin) do(int) (o opResult) {
	t0 := time.Now()
	rows, err := t.agg.Query()
	err = drainRows(rows, err, t0, &o, func(_ int, row []ifdb.Value) uint64 {
		// avg is checked against sum/count here, so the digest can
		// stay integral.
		if c := row[1].Int(); c == 0 || math.Abs(row[3].Float()-float64(row[2].Int())/float64(c)) > 1e-9 {
			return 1
		}
		return aggRowDigest(row[0].Text(), row[1].Int(), row[2].Int())
	})
	groups := o.rows
	if err == nil {
		rows, err = t.top.Query()
		err = drainRows(rows, err, t0, &o, func(pos int, row []ifdb.Value) uint64 {
			return topRowDigest(pos, row[0].Int(), row[1].Int())
		})
	}
	o.latNs = int64(time.Since(t0))
	o.failed, o.err = err != nil || groups != scatterRegions || o.rows != scatterRegions+scatterTopK, err
	return o
}

func (t *scatterTwin) maintain() int64 { return 0 }

func (t *scatterTwin) verify() []string {
	if !t.ifc {
		return nil
	}
	// Confinement probe: a Router whose connections hold no tags sees
	// an empty cluster.
	probe, err := t.openRouter(nil)
	if err != nil {
		return []string{"scatter-agg: confinement probe: " + err.Error()}
	}
	defer probe.Close()
	res, err := probe.Exec(`SELECT count(*) FROM sales`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 0 {
		return []string{fmt.Sprintf("scatter-agg: unlabeled probe count(*) is not 0 (err %v)", err)}
	}
	return nil
}

func (t *scatterTwin) close() {
	for _, r := range []*client.Router{t.router, t.topRouter} {
		if r != nil {
			r.Close()
		}
	}
	for _, sv := range t.shards {
		sv.close()
	}
}

// ---------------------------------------------------------------------------
// Traced pass.

func (t *scatterTwin) texts() [2]string {
	if t.ifc {
		return [2]string{scatterAggIFC, scatterTopIFC}
	}
	return [2]string{scatterAggBase, scatterTopBase}
}

func (t *scatterTwin) lower() error {
	if t.sess != nil {
		return nil
	}
	for i, sv := range t.shards {
		if sv.db.Stats().Tuples > t.shards[t.slow].db.Stats().Tuples {
			t.slow = i
		}
	}
	db := t.shards[t.slow].db
	var err error
	if t.sess, err = t.tn.session(db, t.tn.readerTags()...); err != nil {
		return err
	}
	for i, text := range t.texts() {
		if t.frags[i], err = t.sess.Prepare(distplan.Split(text, distplan.Options{}).Fragment); err != nil {
			return err
		}
	}
	t.reader = t.sess.Label()
	table, _ := db.Engine().Catalog().Table("sales")
	table.Heap.Scan(func(_ storage.TID, tv *storage.TupleVersion) bool {
		t.labels = append(t.labels, tv.Label.Clone())
		if tv.Row[1].Int() < visibleTenants {
			t.values = append(t.values, tv.Row[3])
		}
		return true
	})
	return nil
}

// engineDo runs both fragments on the slow shard in-process.
func (t *scatterTwin) engineDo(int) (bool, error) {
	if err := t.lower(); err != nil {
		return true, err
	}
	t.resRows, t.resLabels = t.resRows[:0], t.resLabels[:0]
	for _, frag := range t.frags {
		cur, err := t.sess.ExecPreparedStream(frag)
		err = drainCursor(cur, err, func(rows [][]ifdb.Value, labels []label.Label) {
			t.resRows, t.resLabels = append(t.resRows, rows...), append(t.resLabels, labels...)
		})
		if err != nil {
			return true, err
		}
	}
	return true, nil
}

// scatterAggCalls are the aggregate statement's three accumulators.
var scatterAggCalls = []*sql.FuncCall{{Name: "count", Star: true}, {Name: "sum"}, {Name: "avg"}}

func (t *scatterTwin) layerCalls(int) []layerCall {
	if t.lower() != nil {
		return nil
	}
	db := t.shards[t.slow].db
	hier := db.Engine().Hierarchy()
	table, _ := db.Engine().Catalog().Table("sales")
	var frames [][]byte
	// Each of the op's two statements scans the shard once.
	return []layerCall{
		{"storage.scan", "engine", 2 * len(t.labels), func() {
			for pass := 0; pass < 2; pass++ {
				table.Heap.Scan(func(storage.TID, *storage.TupleVersion) bool { return true })
			}
		}},
		{"label.flows", "engine", 2 * len(t.labels), func() {
			for pass := 0; pass < 2; pass++ {
				for _, l := range t.labels {
					sinkBool = hier.Flows(l, t.reader)
				}
			}
		}},
		{"exec.agg_add", "engine", len(scatterAggCalls) * len(t.values), func() {
			for _, fc := range scatterAggCalls {
				st := exec.NewAggState(fc)
				for _, v := range t.values {
					_ = st.Add(v) // BIGINT inputs cannot fail
				}
				sinkValue = st.Result()
			}
		}},
		{"wire.rows_encode", "client", len(t.resRows), func() { frames = encodeRows(t.resRows, t.resLabels) }},
		{"wire.rows_decode", "client", len(t.resRows), func() { decodeRows(frames) }},
	}
}
