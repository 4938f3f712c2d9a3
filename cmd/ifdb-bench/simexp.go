// Sim-backed experiments. replica-read, shard-write and mixed-tenant
// consume deterministic schedules from internal/sim: two runs under the
// same -seed execute the same operations in the same order, and
// -record/-replay round-trip the schedules through JSONL traces (one
// file per experiment), so one recorded trace replays against any
// topology.

package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ifdb"
	"ifdb/client"
	"ifdb/internal/catalog"
	"ifdb/internal/repl"
	"ifdb/internal/sim"
	"ifdb/internal/types"
	"ifdb/internal/wire"
)

// ---------------------------------------------------------------------------
// Schedule plumbing (-seed/-arrival/-rate/-record/-replay)

// simWorkload builds the flag-derived workload shared by the sim
// experiments. Closed-loop schedules are a fixed lap the runner cycles
// for -duration; open-loop schedules span -duration at -rate.
func simWorkload(table string, keys int, cohorts []sim.Cohort) sim.Workload {
	w := sim.Workload{
		Seed:    *seedFlag,
		Arrival: *arrivalFlag,
		Workers: *workersFlag,
		Table:   table,
		Keys:    keys,
		Cohorts: cohorts,
	}
	if w.Arrival == sim.ArrivalClosed {
		w.Ops = 4096
	} else {
		w.Rate = *rateFlag
		w.Duration = *durFlag
	}
	return w
}

func tracePath(dir, exp string) string { return filepath.Join(dir, exp+".trace") }

// scheduleFor resolves one experiment's schedule: replayed from a
// recorded trace when -replay is set, generated from the workload (and
// optionally recorded) otherwise. A replayed schedule carries its own
// workload from the trace header — seed, arrival, cohorts and all —
// so it runs identically no matter what the current flags say.
func scheduleFor(name string, w sim.Workload) *sim.Schedule {
	if *replayFlag != "" {
		p := tracePath(*replayFlag, name)
		s, err := sim.ReadTraceFile(p)
		check(err)
		fmt.Printf("(replaying %s)\n", p)
		return s
	}
	s, err := sim.Generate(w)
	check(err)
	if *recordFlag != "" {
		check(os.MkdirAll(*recordFlag, 0o755))
		p := tracePath(*recordFlag, name)
		check(sim.WriteTraceFile(p, s))
		fmt.Printf("(recorded %s: %d ops)\n", p, len(s.Ops))
	}
	return s
}

// simRunOpts: a closed-loop lap cycles for the wall-clock budget; an
// open-loop schedule is its own timeline and plays exactly once.
func simRunOpts(s *sim.Schedule) sim.Options {
	if s.W.Arrival == sim.ArrivalClosed {
		return sim.Options{Duration: *durFlag, Loop: true}
	}
	return sim.Options{}
}

func describeSched(s *sim.Schedule) string {
	if s.W.Arrival == sim.ArrivalClosed {
		return fmt.Sprintf("closed loop: %d-op lap, %d workers, seed %d, %v budget",
			len(s.Ops), s.W.Workers, s.W.Seed, *durFlag)
	}
	return fmt.Sprintf("%s arrivals: %.0f ops/s over %v (%d ops), %d workers, seed %d",
		s.W.Arrival, s.W.Rate, s.W.Duration, len(s.Ops), s.W.Workers, s.W.Seed)
}

// printGroup prints one group's throughput over the run and the latency
// percentiles of its successful statements, and returns the throughput.
func printGroup(label string, cs *sim.CohortStats, elapsed time.Duration) float64 {
	rate := 0.0
	if secs := elapsed.Seconds(); secs > 0 {
		rate = float64(len(cs.LatenciesUs)) / secs
	}
	fmt.Printf("%-28s %9.0f stmts/s   p50=%dµs p99=%dµs", label, rate, cs.Percentile(0.50), cs.Percentile(0.99))
	if cs.Failures > 0 {
		fmt.Printf("  (%d failures)", cs.Failures)
	}
	fmt.Println()
	return rate
}

func vals(args []int64) []ifdb.Value {
	out := make([]ifdb.Value, len(args))
	for i, a := range args {
		out[i] = ifdb.Int(a)
	}
	return out
}

// ---------------------------------------------------------------------------
// -exp replica-read

// expReplicaRead measures read scale-out through the routing client:
// a durable primary plus -replicas WAL-shipped read replicas, all
// behind real sockets, driven with a 90/10 read/write sim schedule
// (cohorts "reads" and "writes", printed as two statement classes).
// The baseline is the identical schedule against the primary alone.
func expReplicaRead() {
	fmt.Println("== replica-read: read scale-out through client.Router ==")
	fmt.Printf("(in-process cluster on GOMAXPROCS=%d; replicas only pay off once\n", runtime.GOMAXPROCS(0))
	fmt.Println(" the primary is CPU-bound, so expect overhead-only numbers on few cores)")
	const seedRows = 1000
	sched := scheduleFor("replica-read", simWorkload("kv", seedRows, []sim.Cohort{
		{Name: "reads", Weight: 9, Mix: sim.StmtMix{PointRead: 1}},
		{Name: "writes", Weight: 1, Mix: sim.StmtMix{PointWrite: 1}},
	}))
	fmt.Printf("(%s)\n", describeSched(sched))

	// Primary: durable engine, client server, replication listener.
	primDir, err := os.MkdirTemp("", "ifdb-bench-prim")
	check(err)
	defer os.RemoveAll(primDir)
	db, err := ifdb.Open(ifdb.Config{DataDir: primDir, SyncMode: "off"})
	check(err)
	defer db.Close()
	admin := db.AdminSession()
	check(errOf(admin.Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT)`)))
	// Seed every cohort's key domain: cohort i's point ops draw from
	// [i·CohortKeyStride, i·CohortKeyStride+seedRows).
	for ci := range sched.W.Cohorts {
		base := int64(ci) * sim.CohortKeyStride
		for i := 0; i < seedRows; i++ {
			check(errOf(admin.Exec(`INSERT INTO kv VALUES ($1, $2)`, ifdb.Int(base+int64(i)), ifdb.Int(0))))
		}
	}
	primSrv := wire.NewServer(db.Engine(), "")
	primLn, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	go primSrv.Serve(primLn)
	defer primSrv.Close()
	replPrim := repl.NewPrimary(db.Engine(), "")
	replLn, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	go replPrim.Serve(replLn)
	defer replPrim.Close()

	// Replicas: followers over the stream, each with a client server.
	addrs := []string{primLn.Addr().String()}
	for i := 0; i < *replicasFlag; i++ {
		dir, err := os.MkdirTemp("", "ifdb-bench-repl")
		check(err)
		defer os.RemoveAll(dir)
		f, err := repl.Open(repl.Config{Addr: replLn.Addr().String(), DataDir: dir, SyncMode: "off"})
		check(err)
		defer f.Close()
		srv := wire.NewServer(f.Engine(), "")
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		check(err)
		go srv.Serve(ln)
		defer srv.Close()
		addrs = append(addrs, ln.Addr().String())
	}

	runTopo := func(label string, addrs []string, stale bool) {
		router, err := client.OpenRouter(client.RouterConfig{
			Addrs: addrs, AllowStaleReads: stale, PoolSize: sched.W.Workers,
		})
		check(err)
		defer router.Close()
		st, err := sim.Run(sched, simRunOpts(sched), func(op *sim.Op, lap int) error {
			_, err := router.Exec(op.SQL, vals(op.LapArgs(lap))...)
			return err
		})
		check(err)
		for _, c := range sched.W.Cohorts {
			printGroup(label+"/"+c.Name, st.Cohorts[c.Name], st.Elapsed)
		}
	}
	runTopo("primary", addrs[:1], false)
	runTopo("ryw", addrs, false)
	runTopo("stale", addrs, true)
	fmt.Println("(RYW = read-your-writes tokens: each read waits out the")
	fmt.Println(" replication lag of the router's last write; stale drops that.)")
	fmt.Println()
}

// ---------------------------------------------------------------------------
// Shard topology (shared by shard-write and mixed-tenant)

type benchShard struct {
	db  *ifdb.DB
	srv *wire.Server
	ln  net.Listener
}

// startShards stands up n primaries behind real sockets, each pinned
// to its slice of the keyspace via an ownership guard, sharing one
// shard map keyed on kv.k. Hooks are installed before Serve: handlers
// must not race hook installation.
func startShards(n int, ifc bool) ([]benchShard, *wire.ShardMap, []string) {
	shards := make([]benchShard, n)
	var addrs []string
	for i := range shards {
		db := ifdb.MustOpen(ifdb.Config{IFC: ifc})
		srv := wire.NewServer(db.Engine(), "")
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		check(err)
		shards[i] = benchShard{db, srv, ln}
		addrs = append(addrs, ln.Addr().String())
	}
	smap := &wire.ShardMap{Version: 1, Keys: map[string]string{"kv": "k"}}
	for i, a := range addrs {
		smap.Shards = append(smap.Shards, wire.Shard{ID: uint32(i), Primary: a})
	}
	for i := range shards {
		sid := uint32(i)
		shards[i].srv.ShardMap = func() *wire.ShardMap { return smap }
		eng := shards[i].db.Engine()
		eng.SetShardGuard(func(t *catalog.Table, row []types.Value) error {
			if col := smap.KeyColumn(t.Name); col != "" && len(row) > 0 {
				if own := smap.ShardOf(row[0].String()); own != sid {
					return fmt.Errorf("misrouted key %s: owned by shard %d, landed on %d", row[0], own, sid)
				}
			}
			return nil
		})
		go shards[i].srv.Serve(shards[i].ln)
	}
	return shards, smap, addrs
}

func stopShards(shards []benchShard) {
	for i := range shards {
		shards[i].srv.Close()
		shards[i].db.Close()
	}
}

// ---------------------------------------------------------------------------
// -exp shard-write

// expShardWrite measures write scale-out across sharded primaries:
// -shards engines behind real sockets, an insert-only sim schedule
// (unique per-worker ascending keys) routed by hashed key through a
// shard-mapped client.Router. The baseline is the same schedule
// against one shard.
//
// In-process, every shard shares this machine's cores, so the
// aggregate write throughput scales with shards only until GOMAXPROCS
// saturates — on a one-core box expect the curve to be nearly flat.
// What this experiment demonstrates end-to-end is that the write path
// — routing, ownership, version fencing — partitions, which the
// per-shard row counts make visible.
func expShardWrite() {
	fmt.Println("== shard-write: write scale-out across sharded primaries ==")
	fmt.Printf("(in-process shards on GOMAXPROCS=%d: aggregate scaling is capped by cores)\n", runtime.GOMAXPROCS(0))
	sched := scheduleFor("shard-write", simWorkload("kv", 0,
		[]sim.Cohort{{Name: "ingest", Weight: 1, Mix: sim.StmtMix{Insert: 1}}}))
	fmt.Printf("(%s)\n", describeSched(sched))

	run := func(label string, nShards int, detail bool) float64 {
		shards, smap, addrs := startShards(nShards, false)
		defer stopShards(shards)
		// PoolSize = workers: every worker keeps a pooled connection per
		// shard, so the measurement is the write path, not dial churn.
		router, err := client.OpenRouter(client.RouterConfig{Addrs: addrs, ShardMap: smap, PoolSize: sched.W.Workers})
		check(err)
		defer router.Close()
		_, err = router.Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT)`) // DDL fans out
		check(err)

		st, err := sim.Run(sched, simRunOpts(sched), func(op *sim.Op, lap int) error {
			_, err := router.Exec(op.SQL, vals(op.LapArgs(lap))...)
			return err
		})
		check(err)
		rate := printGroup(label, st.Cohorts["ingest"], st.Elapsed)
		if detail {
			// The tangible half of the demonstration: the keyspace
			// really partitioned (every row passed its shard's
			// ownership guard on the way in).
			for i := range shards {
				res, err := shards[i].db.AdminSession().Exec(`SELECT COUNT(*) FROM kv`)
				check(err)
				var rows int64
				check(client.ScanValue(res.Rows[0][0], &rows))
				fmt.Printf("  shard %d holds %d rows\n", i, rows)
			}
		}
		return rate
	}
	base := run("1 shard", 1, false)
	scaled := run(fmt.Sprintf("%d shards", *shardsFlag), *shardsFlag, true)
	if base > 0 {
		fmt.Printf("aggregate scaling: x%.2f\n", scaled/base)
	}
	fmt.Println("(insert-only schedule routed by hashed key; each shard is its own")
	fmt.Println(" epoch-fenced replication group, so adding shard primaries scales the")
	fmt.Println(" write path the way adding replicas scales reads — per machine, once")
	fmt.Println(" shards stop sharing cores.)")
	fmt.Println()
}

// ---------------------------------------------------------------------------
// -exp mixed-tenant

// tenantCohorts builds n tenant classes with distinct traffic shares,
// statement mixes, and prepared-statement appetites, each carrying its
// own secrecy tag. Patterns cycle for n > 3.
func tenantCohorts(n int) []sim.Cohort {
	patterns := []sim.Cohort{
		{Weight: 3, Mix: sim.StmtMix{PointRead: 8, PointWrite: 2}, PreparedPct: 100},
		{Weight: 2, Mix: sim.StmtMix{PointRead: 5, PointWrite: 2, Insert: 2, Scan: 1}, PreparedPct: 50},
		{Weight: 1, Mix: sim.StmtMix{PointWrite: 3, Insert: 6, Scan: 1}, PreparedPct: 0},
	}
	out := make([]sim.Cohort, n)
	for i := range out {
		c := patterns[i%len(patterns)]
		c.Name = fmt.Sprintf("tenant%d", i)
		c.Tags = []string{fmt.Sprintf("t_tenant%d", i)}
		out[i] = c
	}
	return out
}

// expMixedTenant drives -tenants labeled cohorts through one shared
// sharded cluster (-shards IFC-enabled primaries). Each cohort runs
// behind its own client.Router whose pooled connections carry the
// cohort's secrecy tag (RouterConfig.Secrecy), so every write is
// stamped per-tenant and Query by Label confines every read — DIFC
// isolation under multi-tenant load, with per-cohort throughput and
// tail latency as the measured numbers.
func expMixedTenant() {
	fmt.Println("== mixed-tenant: labeled tenant cohorts on one sharded cluster ==")
	fmt.Printf("(in-process shards on GOMAXPROCS=%d; IFC on, one secrecy tag per tenant)\n", runtime.GOMAXPROCS(0))
	const keys = 256
	sched := scheduleFor("mixed-tenant", simWorkload("kv", keys, tenantCohorts(*tenantsFlag)))
	fmt.Printf("(%s, %d tenants)\n", describeSched(sched), len(sched.W.Cohorts))
	cohorts := sched.W.Cohorts

	shards, smap, addrs := startShards(*shardsFlag, true)
	defer stopShards(shards)
	// Tags are created in the same order on every shard, so the tag
	// IDs align cluster-wide and one client.Tag value is valid on
	// whichever shard a statement routes to.
	tags := map[string]client.Tag{}
	for i := range shards {
		check(errOf(shards[i].db.AdminSession().Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT)`)))
		for _, c := range cohorts {
			prin := shards[i].db.CreatePrincipal(c.Name)
			for _, tn := range c.Tags {
				tg, err := shards[i].db.CreateTag(prin, tn)
				check(err)
				if i == 0 {
					tags[tn] = tg
				}
			}
		}
	}

	// One Router per cohort: the cohort's secrecy label rides every
	// pooled connection.
	routers := map[string]*client.Router{}
	stmts := map[string]map[string]*client.RouterStmt{}
	var smu sync.Mutex
	for _, c := range cohorts {
		var sec []client.Tag
		for _, tn := range c.Tags {
			sec = append(sec, tags[tn])
		}
		r, err := client.OpenRouter(client.RouterConfig{
			Addrs: addrs, ShardMap: smap, PoolSize: sched.W.Workers, Secrecy: sec,
		})
		check(err)
		defer r.Close()
		routers[c.Name] = r
		stmts[c.Name] = map[string]*client.RouterStmt{}
	}

	// Seed each tenant's point-op key domain through the tenant's own
	// labeled router, so every seeded row carries exactly that tenant's
	// label — the IFDB write rule then lets the tenant (and only the
	// tenant) update it.
	for ci, c := range cohorts {
		base := int64(ci) * sim.CohortKeyStride
		r := routers[c.Name]
		for k := int64(0); k < keys; k++ {
			if _, err := r.Exec(`INSERT INTO kv VALUES ($1, $2)`, ifdb.Int(base+k), ifdb.Int(0)); err != nil {
				check(err)
			}
		}
	}

	st, err := sim.Run(sched, simRunOpts(sched), func(op *sim.Op, lap int) error {
		r := routers[op.Cohort]
		if r == nil {
			return fmt.Errorf("unknown cohort %q", op.Cohort)
		}
		args := vals(op.LapArgs(lap))
		if op.Prepared {
			smu.Lock()
			pst := stmts[op.Cohort][op.SQL]
			if pst == nil {
				var perr error
				pst, perr = r.Prepare(op.SQL)
				if perr != nil {
					smu.Unlock()
					return perr
				}
				stmts[op.Cohort][op.SQL] = pst
			}
			smu.Unlock()
			_, err := pst.Exec(args...)
			return err
		}
		_, err := r.Exec(op.SQL, args...)
		return err
	})
	check(err)

	for _, c := range cohorts {
		printGroup(c.Name, st.Cohorts[c.Name], st.Elapsed)
	}
	for i := range shards {
		fmt.Printf("  shard %d holds %d tuples\n", i, shards[i].db.Engine().Stats().Tuples)
	}
	fmt.Println("(each tenant's rows carry its tag: writes are stamped with the")
	fmt.Println(" cohort label and reads are confined by Query by Label. See the")
	fmt.Println(" root simworkload e2e test for the isolation proof.)")
	fmt.Println()
}
