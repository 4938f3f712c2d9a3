package ifdb_test

import (
	"net"
	"strconv"
	"testing"

	"ifdb"
	"ifdb/client"
	"ifdb/internal/obs"
	"ifdb/internal/sim"
	"ifdb/internal/wire"
)

// TestMixedTenantWorkloadShardedIFC is the end-to-end proof behind
// `ifdb-bench -exp mixed-tenant`: a deterministic multi-tenant sim
// schedule driven through per-cohort Routers (each carrying its
// tenant's secrecy tag via RouterConfig.Secrecy) against a sharded
// IFC-enabled cluster, asserting the two things the bench only
// gestures at —
//
//  1. DIFC isolation held per cohort: every row a tenant can see
//     carries exactly that tenant's label, cross-tenant point reads
//     come back empty, and cross-tenant updates touch zero rows;
//  2. the workload really foamed across the cluster: the per-shard
//     routing counters moved on every shard.
func TestMixedTenantWorkloadShardedIFC(t *testing.T) {
	const nShards = 2
	const keys = 32

	// Cohorts: two tenants with different mixes; no scans/DDL so every
	// op is keyed and the routing counters attribute cleanly.
	w := sim.Workload{
		Seed:    7,
		Workers: 3,
		Ops:     240,
		Table:   "kv",
		Keys:    keys,
		Cohorts: []sim.Cohort{
			{Name: "acme", Weight: 2, Tags: []string{"t_acme"}, Mix: sim.StmtMix{PointRead: 3, PointWrite: 1}},
			{Name: "umbrella", Weight: 1, Tags: []string{"t_umbrella"}, Mix: sim.StmtMix{PointRead: 1, PointWrite: 1, Insert: 1}},
		},
	}
	sched, err := sim.Generate(w)
	if err != nil {
		t.Fatal(err)
	}

	// Shard topology: IFC-on engines behind real sockets, one shard
	// map keyed on kv.k, ownership guards installed before Serve.
	smap := &wire.ShardMap{Version: 1, Keys: map[string]string{"kv": "k"}}
	type shard struct {
		db *ifdb.DB
	}
	var shards []shard
	var addrs []string
	for i := 0; i < nShards; i++ {
		db := ifdb.MustOpen(ifdb.Config{IFC: true})
		t.Cleanup(func() { db.Close() })
		if _, err := db.AdminSession().Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT)`); err != nil {
			t.Fatal(err)
		}
		srv := wire.NewServer(db.Engine(), "")
		srv.ShardMap = func() *wire.ShardMap { return smap }
		sid := uint32(i)
		db.Engine().SetShardGuard(shardGuardFor(func() *wire.ShardMap { return smap }, sid))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		shards = append(shards, shard{db})
		addrs = append(addrs, ln.Addr().String())
	}
	for i, a := range addrs {
		smap.Shards = append(smap.Shards, wire.Shard{ID: uint32(i), Primary: a})
	}

	// Tags created in the same order on every shard, so the IDs align
	// cluster-wide and one client.Tag value routes anywhere.
	tags := map[string]client.Tag{}
	for i := range shards {
		for _, c := range sched.W.Cohorts {
			prin := shards[i].db.CreatePrincipal(c.Name)
			for _, tn := range c.Tags {
				tg, err := shards[i].db.CreateTag(prin, tn)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					tags[tn] = tg
				}
			}
		}
	}

	// One Router per cohort, its label pinned by RouterConfig.Secrecy.
	routers := map[string]*client.Router{}
	labels := map[string]client.Label{}
	for _, c := range sched.W.Cohorts {
		var sec []client.Tag
		var lb client.Label
		for _, tn := range c.Tags {
			sec = append(sec, tags[tn])
			lb = lb.Add(tags[tn])
		}
		r, err := client.OpenRouter(client.RouterConfig{
			Addrs: addrs, ShardMap: smap, PoolSize: w.Workers, Secrecy: sec,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		routers[c.Name] = r
		labels[c.Name] = lb
	}

	// Seed each tenant's key domain through its own labeled router, so
	// the rows carry exactly the tenant's label.
	for ci, c := range sched.W.Cohorts {
		base := int64(ci) * sim.CohortKeyStride
		for k := int64(0); k < keys; k++ {
			if _, err := routers[c.Name].Exec(`INSERT INTO kv VALUES ($1, $2)`, ifdb.Int(base+k), ifdb.Int(100+k)); err != nil {
				t.Fatalf("seed %s key %d: %v", c.Name, base+k, err)
			}
		}
	}

	snap0 := obs.Default.Snapshot()

	// Drive the schedule: each op through its cohort's router.
	st, err := sim.Run(sched, sim.Options{}, func(op *sim.Op, lap int) error {
		args := op.LapArgs(lap)
		vals := make([]ifdb.Value, len(args))
		for i, a := range args {
			vals[i] = ifdb.Int(a)
		}
		_, err := routers[op.Cohort].Exec(op.SQL, vals...)
		if err != nil {
			t.Logf("cohort %s: %s %v: %v", op.Cohort, op.SQL, args, err)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalOps() != int64(len(sched.Ops)) {
		t.Fatalf("ran %d ops, schedule has %d", st.TotalOps(), len(sched.Ops))
	}
	for name, cs := range st.Cohorts {
		if cs.Ops == 0 {
			t.Fatalf("cohort %s executed nothing", name)
		}
		if cs.Failures != 0 {
			t.Fatalf("cohort %s: %d/%d ops failed", name, cs.Failures, cs.Ops)
		}
	}

	// (1) DIFC isolation. Every row a tenant's fan-out scan surfaces
	// must carry exactly that tenant's label...
	for _, c := range sched.W.Cohorts {
		rows, err := routers[c.Name].Query(`SELECT k, v FROM kv`)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
			if rl := rows.RowLabel(); !rl.Equal(labels[c.Name]) {
				t.Fatalf("tenant %s sees a row labeled %v (its label is %v)", c.Name, rl, labels[c.Name])
			}
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		if n < keys {
			t.Fatalf("tenant %s sees %d rows, expected at least its %d seeded", c.Name, n, keys)
		}
	}
	// ...cross-tenant point reads come back empty...
	otherBase := int64(1) * sim.CohortKeyStride // umbrella's first seeded key
	res, err := routers["acme"].Exec(`SELECT v FROM kv WHERE k = $1`, ifdb.Int(otherBase))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("acme read umbrella's row through query-by-label: %v", res.Rows)
	}
	// ...and cross-tenant updates touch zero rows, leaving the victim
	// row intact.
	res, err = routers["acme"].Exec(`UPDATE kv SET v = v + 1000 WHERE k = $1`, ifdb.Int(otherBase))
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 0 {
		t.Fatalf("acme updated %d of umbrella's rows", res.Affected)
	}
	res, err = routers["umbrella"].Exec(`SELECT v FROM kv WHERE k = $1`, ifdb.Int(otherBase))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("umbrella lost sight of its own row: %d rows", len(res.Rows))
	}
	var v int64
	if err := client.ScanValue(res.Rows[0][0], &v); err != nil {
		t.Fatal(err)
	}
	if v >= 1000 {
		t.Fatalf("umbrella's row was mutated cross-tenant: v=%d", v)
	}

	// (2) The schedule foamed across the cluster: the per-shard routing
	// counters moved on every shard during the run.
	routed := obs.Default.Snapshot().Sub(snap0).Vecs["ifdb_router_shard_routed_total"]
	for i := 0; i < nShards; i++ {
		key := strconv.Itoa(i)
		if routed[key] == 0 {
			t.Fatalf("shard %d routed no keyed statements during the run (vec: %v)", i, routed)
		}
	}

	// Belt and braces: both shards actually hold tuples (the keyspace
	// partitioned server-side, not just in the client's counters).
	for i := range shards {
		if n := shards[i].db.Engine().Stats().Tuples; n == 0 {
			t.Fatalf("shard %d holds no tuples", i)
		}
	}
	// Pin what the run was: deterministic schedule, so this count is
	// stable across machines and runs.
	if len(sched.Ops) != 240 {
		t.Fatalf("schedule length drifted: %d", len(sched.Ops))
	}
}
