package main

import (
	"fmt"
	"math"
	"runtime"

	"ifdb"
)

// traceDetail is what a traced run adds on standard error.
type traceDetail struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	SpanFile  string   `json:"span_file"`
	Spans     int      `json:"spans"`
	SampledOp int      `json:"sampled_ops"`
	Failures  []string `json:"failures,omitempty"`
}

// lowered gives the micro timings the loaded IFC twin's database (the
// slow shard's, for the sharded workload) and its tags.
type lowered interface {
	database() (*ifdb.DB, tenancy)
}

func (t *pointTwin) database() (*ifdb.DB, tenancy)   { return t.sv.db, t.tn }
func (t *scanTwin) database() (*ifdb.DB, tenancy)    { return t.sv.db, t.tn }
func (t *scatterTwin) database() (*ifdb.DB, tenancy) { return t.shards[t.slow].db, t.tn }
func (t *orderTwin) database() (*ifdb.DB, tenancy)   { return t.db, t.tn }

// tracedRound is runRound with every sampleEvery-th op replayed at all
// altitudes. The replays below the client are not part of the op, so
// the round's wall time counts each op's client altitude only — the
// span bookkeeping included, which is what bench.trace_overhead_ratio
// then measures.
func tracedRound(tr *tracer, sampled *int) func(twin, int) roundResult {
	return func(tw twin, r int) roundResult {
		n := tw.prepare(r)
		sampleEvery := max(1, n/100)
		res := roundResult{ops: n, lat: make([]int64, n), ttfr: make([]int64, n)}
		for i := 0; i < n; i++ {
			if i%sampleEvery != 0 {
				o := tw.do(i)
				res.add(i, o)
				res.wallNs += o.latNs
				continue
			}
			*sampled++
			o, clientNs := tr.traceOp(tw, *sampled, i)
			res.add(i, o)
			res.wallNs += clientNs
		}
		return res
	}
}

// sumCounter adds one counter over a twin's rounds.
func sumCounter(rs []roundResult, name string) float64 {
	var n int64
	for _, r := range rs {
		n += r.counters[name]
	}
	return float64(n)
}

// runTraced is `--trace 1`: per-layer metrics and the span file. Its
// end-to-end numbers are not reported — those always come from an
// untraced run.
func runTraced(w *workload, c config, seconds float64, outDir string) (result, traceDetail, error) {
	m := metrics{}
	for _, lm := range perLayer {
		m.set(lm.name, 0, lm.unit)
	}
	h, err := newHostRef()
	if err != nil {
		return result{}, traceDetail{}, err
	}
	defer h.close()
	t, _, err := timedSetUp(w, c, h)
	if err != nil {
		return result{}, traceDetail{}, err
	}
	defer t.close()

	// Untraced pass: the counts, and the throughput the traced pass is
	// compared with. Then the traced pass: 3 rounds.
	stop, tracedRounds := afterSeconds(seconds/2), 3
	if c.toy {
		stop, tracedRounds = afterRounds(2), 1
	}
	p := measure(w, c, t, h, 0, stop, runRound)
	tr, sampled := newTracer(), 0
	traced := measure(w, c, t, h, len(p.ifc), afterRounds(tracedRounds), tracedRound(tr, &sampled))
	p.attempted += traced.attempted
	p.failed += traced.failed
	p.failures = append(p.failures, traced.failures...)

	ops, rows := 0.0, 0.0
	var walBytes int64
	for _, r := range p.ifc {
		ops += float64(r.ops)
		rows += float64(r.rows)
		walBytes += r.walBytes
	}
	per := func(name string) float64 { return sumCounter(p.ifc, name) / ops }
	m.set("engine.parses_per_op", per("ifdb_engine_parses_total"), "count")
	m.set("engine.plans_per_op", per("ifdb_engine_plans_total"), "count")
	if hits, built := sumCounter(p.ifc, "ifdb_engine_plan_cache_hits_total"), sumCounter(p.ifc, "ifdb_engine_plans_total"); hits+built > 0 {
		m.set("engine.plan_cache_hit_ratio", hits/(hits+built), "ratio")
	}
	if rows > 0 {
		m.set("engine.rows_scanned_per_row", sumCounter(p.ifc, rowsScannedCounter)/rows, "ratio")
		m.set("wire.bytes_per_row", sumCounter(p.ifc, "ifdb_wire_rows_bytes_total")/rows, "bytes")
	}
	m.set("engine.label_denials_per_op", per("ifdb_ifc_label_denials_total"), "count")
	m.set("wire.frames_per_op", per("ifdb_server_frames_out_total"), "count")
	m.set("wal.appends_per_txn", per("ifdb_wal_appends_total"), "count")
	m.set("wal.bytes_per_txn", float64(walBytes)/ops, "bytes")
	if n := sumCounter(p.ifc, fanoutCount); n > 0 {
		m.set("router.fanout_width", sumCounter(p.ifc, fanoutSum)/n, "count")
	}
	m.set("engine.vacuum_ms", float64(p.maintNs)/1e6/float64(2*len(p.ifc)), "ms")
	var alloc, mallocs, cycles float64
	for _, r := range p.ifc {
		alloc, mallocs, cycles = alloc+float64(r.alloc), mallocs+float64(r.mallocs), cycles+float64(r.gcCycles)
	}
	m.set("bench.alloc_bytes_per_op", alloc/ops, "bytes")
	m.set("bench.allocs_per_op", mallocs/ops, "count")
	m.set("bench.gc_cycles_per_round", cycles/float64(len(p.ifc)), "count")
	tp := throughputs(p.ifc)
	m.set("bench.round_iqr", iqrShare(tp), "ratio")
	m.set("bench.round_drift", roundDrift(tp), "ratio")
	m.set("bench.work_drift", workDrift(p.ifc), "ratio")
	m.set("bench.trace_overhead_ratio", median(throughputs(traced.ifc))/median(tp), "ratio")
	clientP50, _ := percentileUs(p.ifc, 0.50, lats)
	p99, _ := percentileUs(p.ifc, 0.99, lats)
	m.set("client.p99_us", p99, "us")

	// Spans: self time per altitude, per-call time per layer.
	self, perCall := tr.selfTimes()
	for span, name := range map[string]string{
		"index.seek": "index.seek_ns", "storage.get": "storage.get_ns", "label.flows": "label.flows_ns",
		"exec.eval": "exec.eval_ns", "exec.agg_add": "exec.agg_add_ns", "storage.scan": "storage.scan_ns_per_tuple",
		"pager.scan": "pager.scan_ns_per_tuple", "wire.rows_encode": "wire.rows_encode_ns_per_row",
		"wire.rows_decode": "wire.rows_decode_ns_per_row", "wal.append": "wal.append_ns",
		"storage.insert": "storage.insert_ns", "txn.begin_commit": "txn.begin_commit_ns",
	} {
		if xs := perCall[span]; len(xs) > 0 {
			m.set(name, median(xs), "ns")
		}
	}
	if xs := self["engine"]; len(xs) > 0 {
		var engine []float64
		for _, s := range tr.spans {
			if s.Name == "engine" {
				engine = append(engine, float64(s.dur())/1e3)
			}
		}
		m.set("engine.exec_us", median(engine), "us")
		m.set("engine.self_us", median(xs)/1e3, "us")
		m.set("client.self_us", median(self["client"])/1e3, "us")
	} else {
		// In-process workload: the op is the engine's.
		m.set("engine.exec_us", clientP50, "us")
		m.set("engine.self_us", median(self["client"])/1e3, "us")
	}
	m.set("trace.ops_dropped", float64(tr.dropped), "count")

	det := traceDetail{Workload: w.name, Seed: c.seed, Spans: len(tr.spans), SampledOp: sampled}
	if lw, ok := t.ifc.(lowered); ok {
		db, tn := lw.database()
		if err := microLayers(w, c, db, tn, m); err != nil {
			return result{}, det, fmt.Errorf("%s: layer timings: %w", w.name, err)
		}
	}
	if st, ok := t.ifc.(*scatterTwin); ok {
		if err := shardFragments(st, clientP50, m); err != nil {
			return result{}, det, fmt.Errorf("%s: fragment timings: %w", w.name, err)
		}
	}
	if ot, ok := t.ifc.(*orderTwin); ok {
		m.set("engine.novacuum_decay", noVacuumDecay(ot), "ratio")
	}
	p.finish(t)
	m.set("host.ref_ops_per_s", refOpsPerSec(median(append(p.slices, traced.slices...))), "1/s")

	if det.SpanFile, err = tr.write(outDir, w.name); err != nil {
		return result{}, det, err
	}
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			m.set(name, 0, v.Unit)
		}
	}
	det.Failures = p.failures
	runtime.KeepAlive(t)
	return result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: m}, det, nil
}

// noVacuumDecay is engine.novacuum_decay: a short pass of New-Order
// rounds with no vacuum between them, last third ÷ first third of
// round throughput — the slope that made the earlier benchmarks
// measure how far down it the host got.
func noVacuumDecay(t *orderTwin) float64 {
	const rounds = 6
	t.maintain()
	tp := make([]float64, rounds)
	for i := range tp {
		tp[i] = opsPerSec(runRound(t, novacuumRound+i))
	}
	return thirdsRatio(tp)
}

// novacuumRound is where the un-vacuumed pass's schedule starts, clear
// of the measured and warm-up rounds.
const novacuumRound = 1 << 21
