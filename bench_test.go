// Benchmarks regenerating every table and figure in the paper's
// evaluation (§8). Each benchmark corresponds to one experiment of the
// index in cmd/ifdb-bench's package doc:
//
//	BenchmarkFig3Workload   — E1: the Fig. 3 request mix, exercised end to end
//	BenchmarkFig4Web*       — E2: CarTel web throughput, db-bound and web-bound
//	BenchmarkFig5Script*    — E3: per-script idle latency
//	BenchmarkSensorIngest*  — E4: §8.2.2 sensor processing throughput
//	BenchmarkFig6DBT2*      — E5: DBT-2 NOTPM vs tags/label, in-memory & disk
//	BenchmarkLabelSpace     — E7: §8.3 per-tag tuple space overhead
//
// `go test -bench . -benchmem` runs them all; `cmd/ifdb-bench` prints
// the paper-style tables instead.
package ifdb_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ifdb"
	"ifdb/internal/bench/cartelweb"
	"ifdb/internal/bench/dbt2"
	"ifdb/internal/bench/sensor"
)

// --- shared fixtures -------------------------------------------------------

var (
	webOnce sync.Once
	webFixt map[string]*cartelweb.Bench
	webErr  error
)

func webBench(tb testing.TB, key string) *cartelweb.Bench {
	webOnce.Do(func() {
		webFixt = make(map[string]*cartelweb.Bench)
		for _, ifc := range []bool{false, true} {
			name := "baseline"
			if ifc {
				name = "ifdb"
			}
			cfg := cartelweb.DefaultConfig(ifc)
			b, err := cartelweb.Setup(cfg)
			if err != nil {
				webErr = err
				return
			}
			webFixt[name] = b

			cfgW := cfg
			cfgW.RenderWork = 400
			bw, err := cartelweb.Setup(cfgW)
			if err != nil {
				webErr = err
				return
			}
			webFixt[name+"-web"] = bw
		}
	})
	if webErr != nil {
		tb.Fatal(webErr)
	}
	return webFixt[key]
}

// --- E1 / Fig. 3 -----------------------------------------------------------

// BenchmarkFig3Workload runs the exact Fig. 3 request mix end to end
// (IFDB configuration), one sampled request per iteration.
func BenchmarkFig3Workload(b *testing.B) {
	fx := webBench(b, "ifdb")
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fx.DoSampledRequest(rng); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2 / Fig. 4 -----------------------------------------------------------

func benchWebThroughput(b *testing.B, key string, workers int) {
	fx := webBench(b, key)
	b.SetParallelism(workers)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(int64(b.N)))
		for pb.Next() {
			if err := fx.DoSampledRequest(rng); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig4WebDBBoundBaseline is Fig. 4's db-bound row, PostgreSQL+PHP column.
func BenchmarkFig4WebDBBoundBaseline(b *testing.B) { benchWebThroughput(b, "baseline", 8) }

// BenchmarkFig4WebDBBoundIFDB is Fig. 4's db-bound row, IFDB+PHP-IF column.
func BenchmarkFig4WebDBBoundIFDB(b *testing.B) { benchWebThroughput(b, "ifdb", 8) }

// BenchmarkFig4WebServerBoundBaseline is Fig. 4's web-server-bound row, baseline.
func BenchmarkFig4WebServerBoundBaseline(b *testing.B) { benchWebThroughput(b, "baseline-web", 2) }

// BenchmarkFig4WebServerBoundIFDB is Fig. 4's web-server-bound row, IFDB.
func BenchmarkFig4WebServerBoundIFDB(b *testing.B) { benchWebThroughput(b, "ifdb-web", 2) }

// --- E3 / Fig. 5 -----------------------------------------------------------

func benchScript(b *testing.B, key, script string) {
	fx := webBench(b, key)
	rng := rand.New(rand.NewSource(11))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fx.DoScript(rng, script); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Script covers all seven Fig. 5 scripts in both
// configurations as sub-benchmarks.
func BenchmarkFig5Script(b *testing.B) {
	scripts := []string{"login.php", "drives.php", "cars.php", "get_cars.php",
		"drives_top.php", "edit_account.php", "friends.php"}
	for _, key := range []string{"baseline", "ifdb"} {
		for _, script := range scripts {
			b.Run(key+"/"+script, func(b *testing.B) { benchScript(b, key, script) })
		}
	}
}

// --- E4 / §8.2.2 -----------------------------------------------------------

func benchSensor(b *testing.B, ifc bool) {
	fx, err := sensor.Setup(ifc, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	ts := int64(1000)
	for i := 0; i < b.N; i++ {
		if err := fx.ReplayOne(i, ts); err != nil {
			b.Fatal(err)
		}
		ts += sensor.BatchSize*15 + 3600
	}
	b.StopTimer()
	// One iteration ingests BatchSize measurements.
	b.ReportMetric(float64(b.N*sensor.BatchSize)/b.Elapsed().Seconds(), "meas/s")
}

// BenchmarkSensorIngestBaseline is §8.2.2's PostgreSQL column
// (2479 meas/s on the paper's hardware).
func BenchmarkSensorIngestBaseline(b *testing.B) { benchSensor(b, false) }

// BenchmarkSensorIngestIFDB is §8.2.2's IFDB column (2439 meas/s;
// −1.6%).
func BenchmarkSensorIngestIFDB(b *testing.B) { benchSensor(b, true) }

// --- E5 / Fig. 6 -----------------------------------------------------------

func benchDBT2(b *testing.B, cfg dbt2.Config) {
	fx, err := dbt2.Setup(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s, err := fx.Session()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fx.NewOrder(s, rng); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Minutes(), "NOTPM")
}

// BenchmarkFig6DBT2 sweeps tags-per-label for the in-memory and
// disk-bound DBT-2 databases, with the IFC-off baseline alongside —
// the full Fig. 6 series.
func BenchmarkFig6DBT2(b *testing.B) {
	for _, disk := range []bool{false, true} {
		regime := "inmem"
		base := dbt2.DefaultInMemory()
		if disk {
			regime = "disk"
			base = dbt2.DefaultOnDisk()
		}
		b.Run(regime+"/baseline", func(b *testing.B) {
			cfg := base
			benchDBT2(b, cfg)
		})
		for _, k := range []int{0, 1, 2, 4, 6, 8, 10} {
			b.Run(fmt.Sprintf("%s/ifdb-k%d", regime, k), func(b *testing.B) {
				cfg := base
				cfg.IFC = true
				cfg.TagsPerLabel = k
				benchDBT2(b, cfg)
			})
		}
	}
}

// --- E7 / §8.3 space overhead ---------------------------------------------

// BenchmarkLabelSpace measures stored bytes per tuple as tags are
// added: the paper reports 4 bytes per tag (on an 89-byte Order_Line
// tuple, +4.5% per tag).
func BenchmarkLabelSpace(b *testing.B) {
	for _, k := range []int{0, 1, 2, 5, 10} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			db := ifdb.MustOpen(ifdb.Config{IFC: true})
			admin := db.AdminSession()
			if _, err := admin.Exec(`CREATE TABLE t (a BIGINT, b BIGINT, c TEXT)`); err != nil {
				b.Fatal(err)
			}
			owner := db.CreatePrincipal("o")
			s := db.NewSession(owner)
			tags := make([]ifdb.Tag, k)
			for i := 0; i < k; i++ {
				tg, err := s.CreateTag(fmt.Sprintf("sp%d", i))
				if err != nil {
					b.Fatal(err)
				}
				tags[i] = tg
			}
			for _, tg := range tags {
				if err := s.AddSecrecy(tg); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec(`INSERT INTO t VALUES ($1, $2, 'order-line-ish')`,
					ifdb.Int(int64(i)), ifdb.Int(int64(i*2))); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			stats := db.Engine().Stats()
			b.ReportMetric(float64(stats.TupleBytes)/float64(stats.Tuples), "bytes/tuple")
		})
	}
}
