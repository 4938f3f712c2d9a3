package main

import (
	"fmt"
	"net"
	"strings"
	"time"

	"ifdb"
	"ifdb/client"
	"ifdb/internal/wire"
)

// config is what one run is made from: the seed every input derives
// from, and the size class.
type config struct {
	seed uint64
	// toy shrinks every table and round to what a unit test can run in
	// well under a second; BENCHMARK.json measures the full size only.
	toy bool
	// corrupt flips one bit of every closed-form expectation, to show
	// that the correctness gate fails the command.
	corrupt bool
	// strict makes a bench.round_drift outside the guard's range fail
	// the run.
	strict bool
	// tmpDir is where a workload that needs files (neworder's WAL)
	// makes its data directory.
	tmpDir string
}

// opResult is one op as its caller saw it.
type opResult struct {
	latNs  int64  // submit → result fully drained
	ttfrNs int64  // submit → first row (or ack) of the op's first statement in hand
	rows   int64  // result rows drained
	digest uint64 // order-independent digest of what came back
	failed bool   // an error or a wrong per-op answer; an expected abort is not one
	err    error  // why, when an error is the reason
}

// roundResult is one fixed-work round as the client saw it.
type roundResult struct {
	ops    int
	failed int
	wallNs int64   // first submit to last completion
	lat    []int64 // per op, ns
	ttfr   []int64 // per op, ns
	rows   int64
	digest uint64
	errs   []string // the first few failed ops' errors, for the detail line

	// Filled in by the harness around the round: where it ran in the
	// pass and what the host reference said there, and what the program
	// did.
	slot     int              // this was the slot-th round run of the pass
	hostAdj  float64          // the round's host adjustment (see adjust)
	alloc    uint64           // bytes allocated
	mallocs  uint64           // objects allocated
	gcCycles uint32           // collections that finished inside the round
	counters map[string]int64 // internal/obs counter deltas
	walBytes int64            // write-ahead log growth (twins with a log)
}

// twin is one loaded, served and connected copy of a workload's
// database: the product (IFC on) or the paper's baseline (IFC off).
// Every workload is one closed loop: the next op is submitted when the
// previous one's result has been drained.
type twin interface {
	// prepare generates round r of the seeded schedule, before the
	// clock starts, and returns its op count.
	prepare(r int) (ops int)
	// do runs op i of the prepared round the way a user would: through
	// the client library (through the session, for the in-process
	// workload).
	do(i int) opResult
	// maintain is the workload's stated between-round maintenance; it
	// runs untimed and returns how long it took.
	maintain() (ns int64)
	// verify runs the end-of-run checks and returns one line per
	// violated expectation.
	verify() []string
	close()
}

// runRound runs round r of tw's schedule.
func runRound(tw twin, r int) roundResult {
	n := tw.prepare(r)
	res := roundResult{ops: n, lat: make([]int64, n), ttfr: make([]int64, n)}
	start := time.Now()
	for i := 0; i < n; i++ {
		res.add(i, tw.do(i))
	}
	res.wallNs = int64(time.Since(start))
	return res
}

// add folds op i's result into the round.
func (res *roundResult) add(i int, o opResult) {
	res.lat[i], res.ttfr[i] = o.latNs, o.ttfrNs
	res.rows += o.rows
	res.digest += o.digest
	if o.failed {
		res.failed++
		if len(res.errs) < 3 {
			res.errs = append(res.errs, fmt.Sprintf("op %d: %v", i, o.err))
		}
	}
}

// constantAnswer wraps an expectation that does not depend on the
// round.
func constantAnswer(rows int64, digest uint64) func(int) (int64, uint64, bool) {
	return func(int) (int64, uint64, bool) { return rows, digest, true }
}

// workload is one entry of BENCHMARK.json's workloads list.
type workload struct {
	name string
	// newTwin loads, serves, connects and returns one twin.
	newTwin func(c config, ifc bool) (twin, error)
	// expect returns the closed-form answer to round r, computed from
	// the generator alone: rows drained and, when hasDigest, their
	// digest. It is built once per run, so workloads whose answer is
	// the same every round compute it once.
	expect func(c config) func(r int) (rows int64, digest uint64, hasDigest bool)
	// scheduleDigest hashes round r's generated ops and data, so a
	// test can tell two schedules apart without running them.
	scheduleDigest func(c config, r int) uint64
	// statements are the workload's SQL texts on the IFC twin (parse,
	// lex, plan and split are timed over them).
	statements []string
}

var workloads = []*workload{pointRead, scanDrain, scatterAgg, newOrder}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// warmRound is the schedule index of the untimed warm-up round; it is
// far from any measured index so the warm-up never pre-plays a
// measured round's keys.
const warmRound = 1 << 20

// roundRNG seeds round r's generator. Rounds are generated
// independently so round r is the same whether or not earlier rounds
// ran — the time-boxed run and the fixed-round tests share schedules.
func roundRNG(c config, w string, r int) *rng {
	h := c.seed
	for _, b := range []byte(w) {
		h = mix64(h ^ uint64(b))
	}
	return newRNG(mix64(h ^ uint64(r)*0x9e3779b97f4a7c15))
}

// ---------------------------------------------------------------------------
// The label model every workload shares.
//
// Rows belong to one of eight tenants. In the IFC twin a row carries
// two tags, {shared, tenant_i}, and the reader holds the shared tag
// plus the first four tenant tags, so exactly the rows of tenants 0–3
// flow to it (Label Confinement). The baseline twin stores the same
// rows unlabeled and the reader says `tenant < 4` instead, so both
// twins return the same rows.

const (
	tenants        = 8
	visibleTenants = 4
	basePredicate  = "tenant < 4"
)

type tenancy struct {
	owner  ifdb.Principal
	shared ifdb.Tag
	tenant [tenants]ifdb.Tag
}

// openDB opens one twin's database with sequential principal and tag
// ids: the same creation order then yields the same ids on every
// shard (the Router needs that) and on every run (so label bytes, and
// with them every byte count, repeat exactly).
func openDB(cfg ifdb.Config) (*ifdb.DB, tenancy, error) {
	db, err := ifdb.Open(cfg)
	if err != nil {
		return nil, tenancy{}, err
	}
	var n uint64
	db.Engine().Authority().SetIDSourceForTest(func() uint64 { n++; return n })
	tn := tenancy{owner: db.CreatePrincipal("bench")}
	if tn.shared, err = db.CreateTag(tn.owner, "shared"); err != nil {
		return nil, tenancy{}, err
	}
	for i := range tn.tenant {
		if tn.tenant[i], err = db.CreateTag(tn.owner, fmt.Sprintf("tenant%d", i)); err != nil {
			return nil, tenancy{}, err
		}
	}
	return db, tn, nil
}

// readerTags is the reader's secrecy label.
func (tn tenancy) readerTags() []ifdb.Tag {
	return append([]ifdb.Tag{tn.shared}, tn.tenant[:visibleTenants]...)
}

// session opens an in-process session holding the given tags (a no-op
// on the baseline twin, where AddSecrecy does nothing).
func (tn tenancy) session(db *ifdb.DB, tags ...ifdb.Tag) (*ifdb.Session, error) {
	s := db.NewSession(tn.owner)
	for _, t := range tags {
		if err := s.AddSecrecy(t); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// loadBatch is the rows per bulk INSERT statement.
const loadBatch = 250

// bulkLoad inserts n rows. fill writes row i's column values and
// returns its tenant; the row goes through that tenant's session, so
// it is stamped {shared, tenant_t}. Inserts are prepared multi-row
// statements: one parsed statement per batch shape, bound to fresh
// parameters, so the load leaves one AST behind, not one per batch.
// Tenants' batches fill up in turn, so the heap interleaves them the
// way concurrent tenants would and a scan meets visible and hidden
// rows throughout.
func bulkLoad(db *ifdb.DB, tn tenancy, table string, ncols, n int, fill func(i int, row []ifdb.Value) (tenant int)) error {
	texts := map[int]string{}
	insertText := func(rows int) string {
		if t, ok := texts[rows]; ok {
			return t
		}
		var sb strings.Builder
		sb.WriteString("INSERT INTO " + table + " VALUES ")
		for r, p := 0, 1; r < rows; r++ {
			if r > 0 {
				sb.WriteByte(',')
			}
			sb.WriteByte('(')
			for c := 0; c < ncols; c, p = c+1, p+1 {
				if c > 0 {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, "$%d", p)
			}
			sb.WriteByte(')')
		}
		texts[rows] = sb.String()
		return texts[rows]
	}
	var sess [tenants]*ifdb.Session
	var bufs [tenants][]ifdb.Value
	for t := range sess {
		s, err := tn.session(db, tn.shared, tn.tenant[t])
		if err != nil {
			return err
		}
		sess[t] = s
		bufs[t] = make([]ifdb.Value, 0, loadBatch*ncols)
	}
	flush := func(t int) error {
		if len(bufs[t]) == 0 {
			return nil
		}
		p, err := sess[t].Prepare(insertText(len(bufs[t]) / ncols))
		if err != nil {
			return err
		}
		_, err = sess[t].ExecPrepared(p, bufs[t]...)
		bufs[t] = bufs[t][:0]
		return err
	}
	row := make([]ifdb.Value, ncols)
	for i := 0; i < n; i++ {
		t := fill(i, row)
		bufs[t] = append(bufs[t], row...)
		if len(bufs[t]) == cap(bufs[t]) {
			if err := flush(t); err != nil {
				return err
			}
		}
	}
	for t := range bufs {
		if err := flush(t); err != nil {
			return err
		}
	}
	return nil
}

// served is a database behind a wire server on a loopback port.
type served struct {
	db   *ifdb.DB
	srv  *wire.Server
	addr string
}

func serve(db *ifdb.DB) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := wire.NewServer(db.Engine(), "")
	go srv.Serve(ln) //nolint:errcheck // returns when close() closes the listener
	return &served{db: db, srv: srv, addr: ln.Addr().String()}, nil
}

func (s *served) close() {
	s.srv.Close()
	s.db.Close()
}

// dialAs opens a connection whose process label holds tags (on the
// baseline twin labels do not exist and the tags are dropped).
func dialAs(sv *served, tn tenancy, ifc bool, tags []ifdb.Tag) (*client.Conn, error) {
	conn, err := client.Dial(sv.addr, "", uint64(tn.owner))
	if err != nil {
		return nil, err
	}
	if ifc {
		for _, tg := range tags {
			conn.AddSecrecy(tg)
		}
	}
	return conn, nil
}

// drainRows consumes one statement's streamed result, folding each row
// into the op's digest. The op's ttfrNs is set when its first
// statement's first row arrives.
func drainRows(rows client.Rows, err error, t0 time.Time, o *opResult, fold func(pos int, row []ifdb.Value) uint64) error {
	if err != nil {
		return err
	}
	n := 0
	for rows.Next() {
		if o.ttfrNs == 0 {
			o.ttfrNs = int64(time.Since(t0))
		}
		o.digest += fold(n, rows.Row())
		n++
	}
	o.rows += int64(n)
	return rows.Close()
}

// genValue is column v of row k under seed: the one place row
// contents come from, shared by the loaders and the closed-form
// expectations.
func genValue(seed uint64, k int64, mod int64) int64 {
	return int64(mix64(seed^uint64(k)*0xd1342543de82ef95) % uint64(mod))
}

// pad is the filler column: fixed width, distinct per row.
func pad(k int64) string { return fmt.Sprintf("p%039d", k) }
