package main

import (
	"os"
	"path/filepath"
	"strconv"
	"time"

	"ifdb"
	"ifdb/client"
	"ifdb/internal/catalog"
	"ifdb/internal/distplan"
	"ifdb/internal/engine"
	"ifdb/internal/exec"
	"ifdb/internal/index"
	"ifdb/internal/label"
	"ifdb/internal/obs"
	"ifdb/internal/pager"
	"ifdb/internal/plan"
	"ifdb/internal/sql"
	"ifdb/internal/storage"
	"ifdb/internal/txn"
	"ifdb/internal/types"
	"ifdb/internal/wal"
	"ifdb/internal/wire"
)

// Per-layer timings taken from outside: every number here is a call
// from this package into a layer's exported functions, timed with the
// wall clock, or a delta of the program's own internal/obs counters.
// Nothing in the program is instrumented for the benchmark.

// layerMetric is one per_layer entry of BENCHMARK.json. moves names
// the end-to-end metric and workload it should move when it changes.
type layerMetric struct {
	name, unit, better, moves string
}

var perLayer = []layerMetric{
	{"sql.parse_ns", "ns", "lower", "neworder ops_per_s; point-read p50_us only if engine.parses_per_op > 0"},
	{"sql.lex_ns", "ns", "lower", "as sql.parse_ns"},
	{"plan.build_ns", "ns", "lower", "point-read p50_us when engine.plans_per_op > 0; none on scan-drain"},
	{"engine.plans_per_op", "count", "lower", "point-read p50_us"},
	{"engine.plan_cache_hit_ratio", "ratio", "higher", "point-read p50_us"},
	{"engine.parses_per_op", "count", "lower", "point-read p50_us"},
	{"engine.exec_us", "us", "lower", "p50_us on every workload"},
	{"engine.self_us", "us", "lower", "p50_us: engine time the isolated layer calls do not explain"},
	{"engine.rows_scanned_per_row", "ratio", "lower", "scan-drain and neworder ops_per_s"},
	{"engine.label_denials_per_op", "count", "lower", "ifc_cost_ratio on scan-drain and scatter-agg"},
	{"engine.vacuum_ms", "ms", "lower", "none (untimed); neworder only"},
	{"engine.novacuum_decay", "ratio", "higher", "neworder ops_per_s if vacuum stops keeping up"},
	{"exec.eval_ns", "ns", "lower", "point-read p50_us; scan-drain baseline twin"},
	{"exec.agg_add_ns", "ns", "lower", "scatter-agg p50_us"},
	{"label.flows_ns", "ns", "lower", "ifc_cost_ratio on scan-drain and neworder; ≈ nothing on scatter-agg"},
	{"label.encode_ns", "ns", "lower", "ifc_cost_ratio on neworder (WAL, heap records)"},
	{"authority.has_authority_ns", "ns", "lower", "none of the four (no declassification in the loops)"},
	{"storage.scan_ns_per_tuple", "ns", "lower", "scatter-agg p50_us"},
	{"storage.get_ns", "ns", "lower", "point-read and neworder p50_us"},
	{"storage.insert_ns", "ns", "lower", "neworder ops_per_s; setup_s"},
	{"pager.scan_ns_per_tuple", "ns", "lower", "scan-drain ops_per_s (pool a tenth of the table)"},
	{"pager.scan_cached_ns_per_tuple", "ns", "lower", "scan-drain ops_per_s (pool holds the table)"},
	{"index.seek_ns", "ns", "lower", "point-read and neworder p50_us"},
	{"index.insert_ns", "ns", "lower", "neworder ops_per_s; setup_s"},
	{"txn.begin_commit_ns", "ns", "lower", "neworder p50_us; none on read workloads"},
	{"wal.append_ns", "ns", "lower", "neworder p50_us; none on read workloads"},
	{"wal.appends_per_txn", "count", "lower", "neworder p50_us"},
	{"wal.bytes_per_txn", "bytes", "lower", "neworder p50_us"},
	{"wal.fsync_us", "us", "lower", "none (no end-to-end workload fsyncs); sandbox disk"},
	{"wal.fsyncs_per_commit.commit", "ratio", "lower", "none; SyncMode commit, sandbox disk"},
	{"wal.fsyncs_per_commit.group", "ratio", "lower", "none; SyncMode group, sandbox disk"},
	{"wire.rows_encode_ns_per_row", "ns", "lower", "scan-drain ops_per_s; point-read p50_us"},
	{"wire.rows_decode_ns_per_row", "ns", "lower", "scan-drain ops_per_s; point-read p50_us"},
	{"wire.bytes_per_row", "bytes", "lower", "scan-drain ops_per_s"},
	{"wire.frames_per_op", "count", "lower", "scan-drain ops_per_s; point-read p50_us"},
	{"client.self_us", "us", "lower", "point-read p50_us: what client, wire and server add around the engine"},
	{"client.p99_us", "us", "lower", "none (tail, reported only)"},
	{"router.route_ns", "ns", "lower", "scatter-agg p50_us"},
	{"router.fanout_width", "count", "lower", "scatter-agg p50_us"},
	{"router.shard_frag_us", "us", "lower", "scatter-agg p50_us, through the slowest of 3 fragments"},
	{"distplan.split_ns", "ns", "lower", "scatter-agg p50_us only on a split-cache miss"},
	{"distplan.gateway_us", "us", "lower", "scatter-agg p50_us"},
	{"host.ref_ops_per_s", "1/s", "higher", "none: the host reference's words read per second (median slice); the host, not the program"},
	{"bench.round_iqr", "ratio", "lower", "none: the rounds' spread"},
	{"bench.round_drift", "ratio", "higher", "none: stationarity of round throughput"},
	{"bench.work_drift", "ratio", "lower", "none: stationarity of the work per round"},
	{"bench.trace_overhead_ratio", "ratio", "higher", "none: traced ÷ untraced ops_per_s"},
	{"bench.gc_cycles_per_round", "count", "lower", "ops_per_s: collections that ran inside a measured round"},
	{"bench.alloc_bytes_per_op", "bytes", "lower", "bench.gc_cycles_per_round; ops_per_s through allocation cost"},
	{"bench.allocs_per_op", "count", "lower", "as bench.alloc_bytes_per_op"},
	{"trace.ops_dropped", "count", "lower", "none: sampled ops whose children outran their parent"},
}

// Results of isolated calls land here so the compiler cannot drop them.
var (
	sinkBool  bool
	sinkValue types.Value
)

// perCallNs times reps batches of n calls and returns the median
// batch's nanoseconds per call.
func perCallNs(reps, n int, fn func(i int)) float64 {
	per := make([]float64, reps)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(r*n + i)
		}
		per[r] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// drainCursor pulls an in-process cursor to exhaustion in the server's
// chunk size; keep, when set, sees every batch.
func drainCursor(cur *engine.Cursor, err error, keep func(rows [][]types.Value, labels []label.Label)) error {
	if err != nil {
		return err
	}
	for {
		rows, labels, err := cur.NextBatch(wire.DefaultChunkRows)
		if err != nil || len(rows) == 0 {
			return err
		}
		if keep != nil {
			keep(rows, labels)
		}
	}
}

func tableSchema(t *catalog.Table) exec.Schema {
	s := make(exec.Schema, len(t.Columns))
	for i, col := range t.Columns {
		s[i] = exec.ColMeta{Table: t.Name, Name: col.Name}
	}
	return s
}

// encodeRows frames a result the way the server does: ROWS chunks of
// the default chunk size, the last one Done.
func encodeRows(rows [][]types.Value, labels []label.Label) [][]byte {
	var frames [][]byte
	for lo := 0; lo == 0 || lo < len(rows); lo += wire.DefaultChunkRows {
		hi := min(lo+wire.DefaultChunkRows, len(rows))
		chunk := wire.RowsChunk{First: lo == 0, Done: hi == len(rows), Rows: rows[lo:hi]}
		if chunk.First && len(rows) > 0 {
			chunk.Cols = make([]string, len(rows[0]))
			for i := range chunk.Cols {
				chunk.Cols[i] = "col" + strconv.Itoa(i)
			}
		}
		if len(labels) == len(rows) {
			chunk.RowLabels = labels[lo:hi]
		}
		buf, err := chunk.Encode()
		if err != nil {
			panic(err) // rows came out of the engine; they encode
		}
		frames = append(frames, buf)
	}
	return frames
}

func decodeRows(frames [][]byte) {
	for _, f := range frames {
		if _, err := wire.DecodeRowsChunk(f); err != nil {
			panic(err) // frames came out of encodeRows
		}
	}
}

// microLayers times the layer calls that are not part of an op's
// replay — parsing (the workloads' statements are prepared or cached),
// planning, the write path's pieces on stand-alone instances, fsync —
// on this workload's statements and label shapes.
func microLayers(w *workload, c config, db *ifdb.DB, tn tenancy, m metrics) error {
	reps, rows, keys := 15, 20_000, 100_000
	if c.toy {
		reps, rows, keys = 3, 2_000, 5_000
	}

	// SQL front end, over the workload's own statements.
	var parse, lex, build, split float64
	selects := 0
	for _, text := range w.statements {
		parse += perCallNs(reps, 20, func(int) { _, _ = sql.Parse(text) })
		lex += perCallNs(reps, 20, func(int) { _, _ = sql.Lex(text) })
		split += perCallNs(reps, 10, func(int) { distplan.Split(text, distplan.Options{}) })
		if st, err := sql.Parse(text); err == nil {
			if sel, ok := st.(*sql.SelectStmt); ok {
				selects++
				build += perCallNs(reps, 20, func(int) { _, _ = plan.Build(db.Engine().Catalog(), sel, nil) })
			}
		}
	}
	n := float64(len(w.statements))
	m.set("sql.parse_ns", parse/n, "ns")
	m.set("sql.lex_ns", lex/n, "ns")
	m.set("distplan.split_ns", split/n, "ns")
	if selects > 0 {
		m.set("plan.build_ns", build/float64(selects), "ns")
	}

	// Labels and authority, with the workloads' label shapes: a
	// two-tag row label against the reader's five tags.
	rowLabel := ifdb.NewLabel(tn.shared, tn.tenant[0])
	var buf []byte
	m.set("label.encode_ns", perCallNs(reps, 1000, func(int) { buf, _ = label.AppendEncode(buf[:0], rowLabel) }), "ns")
	m.set("authority.has_authority_ns", perCallNs(reps, 1000, func(int) { sinkBool = db.HasAuthority(tn.owner, tn.shared) }), "ns")

	// Heap, pager and index on stand-alone instances holding rows of
	// the workloads' shape.
	tuple := func(k int) storage.TupleVersion {
		return storage.TupleVersion{Xmin: 1, Label: rowLabel, Row: []types.Value{
			types.NewInt(int64(k)), types.NewInt(int64(k % tenants)), types.NewInt(int64(k) * 3), types.NewText(pad(int64(k)))}}
	}
	mem := storage.NewMemHeap()
	m.set("storage.insert_ns", perCallNs(reps, rows/reps, func(i int) { _, _ = mem.Insert(tuple(i)) }), "ns")
	scan := func(h storage.Heap) float64 {
		return perCallNs(reps, 1, func(int) { h.Scan(func(storage.TID, *storage.TupleVersion) bool { return true }) }) / float64(h.Len())
	}
	m.set("storage.scan_ns_per_tuple", scan(mem), "ns")
	for _, pg := range []struct {
		name string
		pool int
	}{{"pager.scan_ns_per_tuple", 32}, {"pager.scan_cached_ns_per_tuple", 1024}} {
		h := pager.NewPagedHeap(pager.NewMemStore(), pg.pool)
		for k := 0; k < rows; k++ {
			if _, err := h.Insert(tuple(k)); err != nil {
				return err
			}
		}
		m.set(pg.name, scan(h), "ns")
	}
	tree := index.New()
	for k := 0; k < keys; k++ {
		tree.Insert(index.Key{types.NewInt(int64(k))}, storage.TID(k))
	}
	m.set("index.insert_ns", perCallNs(reps, 1000, func(i int) { tree.Insert(index.Key{types.NewInt(int64(keys + i))}, storage.TID(i)) }), "ns")
	if m["index.seek_ns"].Value == 0 { // not already taken from this workload's spans
		g := newRNG(1)
		m.set("index.seek_ns", perCallNs(reps, 1000, func(int) {
			tree.AscendEqual(index.Key{types.NewInt(int64(g.intn(keys)))}, func(storage.TID) bool { return false })
		}), "ns")
	}

	// The write path's pieces. fsync numbers are this sandbox's disk.
	dir, err := os.MkdirTemp(c.tmpDir, "layers-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if m["txn.begin_commit_ns"].Value == 0 { // not already taken from this workload's spans
		mgr, hier := txn.NewManager(), label.NewHierarchy()
		m.set("txn.begin_commit_ns", perCallNs(reps, 200, func(int) { _ = mgr.Begin(txn.SnapshotIsolation).Commit(hier, nil, nil) }), "ns")
	}
	if m["wal.append_ns"].Value == 0 { // not already taken from this workload's spans
		log, err := wal.Open(filepath.Join(dir, "append.wal"), wal.SyncOff)
		if err != nil {
			return err
		}
		rec := tuple(1)
		m.set("wal.append_ns", perCallNs(reps, 200, func(i int) {
			_, _ = log.Append(&wal.Record{Type: wal.RecInsert, XID: 1, Table: "t", TID: storage.TID(i), Label: rec.Label, Row: rec.Row})
		}), "ns")
		log.Close()
	}
	for _, mode := range []string{"commit", "group"} {
		sub := filepath.Join(dir, mode)
		if err := os.Mkdir(sub, 0o755); err != nil {
			return err
		}
		d, err := ifdb.Open(ifdb.Config{DataDir: sub, SyncMode: mode})
		if err != nil {
			return err
		}
		s := d.AdminSession()
		if _, err := s.Exec(`CREATE TABLE t (a BIGINT PRIMARY KEY)`); err != nil {
			return err
		}
		const commits = 40
		before := obs.Default.Snapshot()
		for i := 0; i < commits; i++ {
			if _, err := s.Exec(`INSERT INTO t VALUES ($1)`, ifdb.Int(int64(i))); err != nil {
				return err
			}
		}
		delta := obs.Default.Snapshot().Sub(before)
		d.Close()
		m.set("wal.fsyncs_per_commit."+mode, float64(delta.Counters["ifdb_wal_fsync_total"])/commits, "ratio")
		if h := delta.Hists["ifdb_wal_fsync_seconds"]; mode == "commit" && h.Count > 0 {
			m.set("wal.fsync_us", float64(h.Sum)/float64(h.Count)/1e3, "us")
		}
	}
	return nil
}

// shardFragments is router.shard_frag_us and distplan.gateway_us: the
// op's two fragments run straight against each shard's own Conn; the
// op waits for the slowest shard, so the gateway's share is the
// Router's p50 minus the slowest shard's.
func shardFragments(t *scatterTwin, clientP50us float64, m metrics) error {
	var slowest float64
	var all []float64
	for _, sv := range t.shards {
		conn, err := dialAs(sv, t.tn, t.ifc, t.tn.readerTags())
		if err != nil {
			return err
		}
		var stmts [2]*client.Stmt
		for i, text := range t.texts() {
			if stmts[i], err = conn.Prepare(distplan.Split(text, distplan.Options{}).Fragment); err != nil {
				conn.Close()
				return err
			}
		}
		var us []float64
		for rep := 0; rep < 12; rep++ {
			t0 := time.Now()
			for _, st := range stmts {
				if _, err := st.Exec(); err != nil {
					conn.Close()
					return err
				}
			}
			if rep > 1 { // the first two warm the connection and plan cache
				us = append(us, float64(time.Since(t0))/1e3)
			}
		}
		conn.Close()
		all = append(all, median(us))
		slowest = max(slowest, median(us))
	}
	m.set("router.shard_frag_us", median(all), "us")
	m.set("distplan.gateway_us", clientP50us-slowest, "us")
	route := 0.0
	for _, text := range t.texts() {
		route += perCallNs(9, 20, func(int) {
			if st, err := t.router.Prepare(text); err == nil {
				st.Close()
			}
		})
	}
	m.set("router.route_ns", route/2, "ns")
	return nil
}
