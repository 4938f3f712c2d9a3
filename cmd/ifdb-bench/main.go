// Command ifdb-bench regenerates the tables and figures of the IFDB
// paper's evaluation (§8) on this machine, printing paper-style rows,
// and runs the sim-backed cluster experiments: the replication and
// sharding scale-out numbers nothing else measures. It keeps no report
// file and compares no runs; the measurement of record, with its
// comparator and bounds, is the benchmark/ module (benchmark/README.md).
//
// Usage:
//
//	ifdb-bench -fig 3        # Fig. 3: request mix (spec vs observed)
//	ifdb-bench -fig 4        # Fig. 4: CarTel web throughput
//	ifdb-bench -fig 5        # Fig. 5: per-script idle latency
//	ifdb-bench -fig 6        # Fig. 6: DBT-2 NOTPM vs tags/label
//	ifdb-bench -exp sensor   # §8.2.2: sensor ingest throughput
//	ifdb-bench -exp space    # §8.3: bytes/tuple vs tags
//	ifdb-bench -exp trustedbase  # §6.3: trusted-base accounting
//	ifdb-bench -exp replica-read # read scale-out through the Router
//	ifdb-bench -exp shard-write  # write scale-out across sharded primaries
//	ifdb-bench -exp mixed-tenant # labeled tenant cohorts on one sharded cluster
//	ifdb-bench -all          # everything
//
// The three sim-backed experiments (replica-read, shard-write,
// mixed-tenant) consume deterministic schedules from internal/sim:
// -seed pins every random choice, -arrival/-rate pick the arrival
// process (closed loop, open-loop Poisson, bursty), and -record/-replay
// round-trip the schedules through JSONL traces so the exact operation
// sequence of one run replays against any topology:
//
//	ifdb-bench -seed 7 -record traces -exp shard-write  # record the schedule
//	ifdb-bench -replay traces -exp shard-write          # replay it exactly
//
// replica-read goes beyond the paper: it stands up an in-process
// cluster (one durable primary, -replicas read replicas fed by WAL
// shipping, all behind real sockets), then drives a 90/10 read/write
// schedule through client.Router — writes to the primary, reads
// load-balanced across replicas with read-your-writes LSN tokens — and
// compares against the same schedule aimed at the primary alone, so
// the scale-out from adding replicas is a measured number rather than
// a promise.
//
// shard-write goes further: -shards primaries behind real sockets,
// each owning one slice of the keyspace via a client.Router shard map,
// driven with an insert-only schedule routed by hashed key. The
// baseline is the identical schedule against a single shard, so the
// write scale-out from adding primaries — the first number the HA pair
// cannot produce — is measured, not promised. Per-tuple IFC labels are
// ordinary row data, so they shard with their rows.
//
// mixed-tenant is the DIFC-under-load experiment: -tenants labeled
// cohorts with distinct statement mixes share one sharded cluster,
// each behind a Router whose pooled connections carry the cohort's
// secrecy tag, so writes are stamped per-tenant and Query by Label
// confines reads; each cohort's throughput and tail latency print on
// their own row.
//
// Absolute numbers differ from the paper's 2013 testbed; the shapes —
// who wins, by roughly what factor, where the slope lies — are the
// reproduction targets.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"ifdb"
	"ifdb/internal/bench/cartelweb"
	"ifdb/internal/bench/dbt2"
	"ifdb/internal/bench/sensor"
)

var (
	figFlag      = flag.Int("fig", 0, "figure to regenerate (3, 4, 5, 6)")
	expFlag      = flag.String("exp", "", "comma-separated experiments: sensor, space, trustedbase, replica-read, shard-write, mixed-tenant")
	allFlag      = flag.Bool("all", false, "run everything")
	durFlag      = flag.Duration("duration", 3*time.Second, "measurement duration per cell")
	workersFlag  = flag.Int("workers", 8, "concurrent clients for throughput runs")
	srcFlag      = flag.String("src", ".", "repository root (for trusted-base line counts)")
	tagSweepFlag = flag.String("tags", "0,1,2,4,6,8,10", "tag counts for fig 6")
	replicasFlag = flag.Int("replicas", 2, "read replicas for -exp replica-read")
	shardsFlag   = flag.Int("shards", 2, "shard primaries for -exp shard-write / mixed-tenant")

	seedFlag    = flag.Int64("seed", 42, "sim workload seed: same seed, same schedule")
	arrivalFlag = flag.String("arrival", "closed", "sim arrival process: closed, poisson, bursty")
	rateFlag    = flag.Float64("rate", 2000, "open-loop arrival rate in ops/sec (poisson, bursty)")
	tenantsFlag = flag.Int("tenants", 3, "tenant cohorts for -exp mixed-tenant")
	recordFlag  = flag.String("record", "", "record each sim experiment's schedule to <dir>/<exp>.trace")
	replayFlag  = flag.String("replay", "", "replay sim schedules from <dir>/<exp>.trace instead of generating")
)

// experiments are the -exp names, in the order -all runs them.
var experiments = []struct {
	name string
	run  func()
}{
	{"sensor", expSensor},
	{"space", expSpace},
	{"trustedbase", expTrustedBase},
	{"replica-read", expReplicaRead},
	{"shard-write", expShardWrite},
	{"mixed-tenant", expMixedTenant},
}

func main() {
	flag.Parse()
	exps := map[string]bool{}
	for _, e := range experiments {
		exps[e.name] = false
	}
	for _, name := range strings.Split(*expFlag, ",") {
		name = strings.TrimSpace(name)
		if _, ok := exps[name]; !ok && name != "" {
			fmt.Fprintf(os.Stderr, "ifdb-bench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		exps[name] = true
	}
	ran := false
	if *allFlag || *figFlag == 3 {
		fig3()
		ran = true
	}
	if *allFlag || *figFlag == 4 {
		fig4()
		ran = true
	}
	if *allFlag || *figFlag == 5 {
		fig5()
		ran = true
	}
	if *allFlag || *figFlag == 6 {
		fig6()
		ran = true
	}
	for _, e := range experiments {
		if *allFlag || exps[e.name] {
			e.run()
			ran = true
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ifdb-bench:", err)
		os.Exit(1)
	}
}

// fig3 prints the request-mix table (E1).
func fig3() {
	fmt.Println("== Fig. 3: CarTel web benchmark request distribution ==")
	fmt.Printf("%-20s %8s %10s\n", "request", "spec", "observed")
	obs := cartelweb.ObservedMix(200000)
	for _, m := range cartelweb.Mix {
		fmt.Printf("%-20s %8.2f %10.4f\n", m.Script, m.Freq, obs[m.Script])
	}
	fmt.Println()
}

// fig4 prints the web-throughput table (E2). Baseline and IFDB run in
// alternating slices; the ratio is the median of per-round ratios.
func fig4() {
	fmt.Println("== Fig. 4: CarTel website throughput (web interactions/sec) ==")
	type cell struct {
		name   string
		render int
		conc   int
	}
	rows := []cell{
		{"database-bound", 0, *workersFlag},
		{"web-server-bound", 400, 2},
	}
	fmt.Printf("%-18s %14s %8s\n", "workload", "baseline", "ratio")
	for _, r := range rows {
		var benches [2]*cartelweb.Bench
		for i, ifc := range []bool{false, true} {
			cfg := cartelweb.DefaultConfig(ifc)
			cfg.RenderWork = r.render
			b, err := cartelweb.Setup(cfg)
			check(err)
			benches[i] = b
		}
		const rounds = 5
		slice := *durFlag / (2 * rounds)
		var ratios []float64
		bestBase := 0.0
		for round := 0; round < rounds; round++ {
			wBase, err := benches[0].Run(r.conc, slice)
			check(err)
			wIFC, err := benches[1].Run(r.conc, slice)
			check(err)
			ratios = append(ratios, wIFC/wBase)
			if wBase > bestBase {
				bestBase = wBase
			}
		}
		sortFloats(ratios)
		fmt.Printf("%-18s %12.1f/s %7.1f%%\n", r.name, bestBase, 100*ratios[len(ratios)/2])
	}
	fmt.Println()
}

// fig5 prints the per-script latency table (E3). Baseline and IFDB
// latencies are measured in alternating rounds; the reported increase
// per script is the median of per-round ratios, cancelling host drift.
func fig5() {
	fmt.Println("== Fig. 5: CarTel web request latency on an idle system ==")
	const samples = 150
	var benches [2]*cartelweb.Bench
	for i, ifc := range []bool{false, true} {
		b, err := cartelweb.Setup(cartelweb.DefaultConfig(ifc))
		check(err)
		benches[i] = b
	}
	const rounds = 5
	ratios := map[string][]float64{}
	baseMs := map[string]float64{}
	var scriptOrder []string
	for round := 0; round < rounds; round++ {
		stBase, err := benches[0].Latencies(samples)
		check(err)
		stIFC, err := benches[1].Latencies(samples)
		check(err)
		for i := range stBase {
			script := stBase[i].Script
			if round == 0 {
				scriptOrder = append(scriptOrder, script)
			}
			b := stBase[i].Mean.Seconds() * 1000
			f := stIFC[i].Mean.Seconds() * 1000
			ratios[script] = append(ratios[script], f/b)
			if cur, ok := baseMs[script]; !ok || b < cur {
				baseMs[script] = b
			}
		}
	}
	fmt.Printf("%-20s %14s %14s\n", "script", "baseline mean", "IFDB increase")
	var wDelta, wTot float64
	for _, script := range scriptOrder {
		rs := ratios[script]
		sortFloats(rs)
		med := rs[len(rs)/2]
		freq := 1.0 / float64(len(scriptOrder))
		for _, m := range cartelweb.Mix {
			if m.Script == script {
				freq = m.Freq
			}
		}
		wDelta += freq * baseMs[script] * (med - 1)
		wTot += freq * baseMs[script]
		fmt.Printf("%-20s %12.3fms %13.1f%%\n", script, baseMs[script], 100*(med-1))
	}
	fmt.Printf("weighted mean increase: %.1f%% (paper: 24%%)\n\n", 100*wDelta/wTot)
}

// fig6 prints the DBT-2 label sweep (E5). Each IFDB configuration is
// measured against the baseline with chunk-interleaved execution
// (dbt2.CompareInterleaved), so host-speed drift cancels out of the
// reported ratio.
func fig6() {
	fmt.Println("== Fig. 6: DBT-2 throughput (new-order transactions per minute) ==")
	var ks []int
	for _, part := range strings.Split(*tagSweepFlag, ",") {
		var k int
		fmt.Sscanf(strings.TrimSpace(part), "%d", &k)
		ks = append(ks, k)
	}
	for _, disk := range []bool{false, true} {
		regime := "in-memory"
		base := dbt2.DefaultInMemory()
		if disk {
			regime = "on-disk (paged heap, small buffer pool)"
			base = dbt2.DefaultOnDisk()
		}
		fmt.Printf("-- %s --\n", regime)
		chunk := 150
		chunks := 2 * int(durFlag.Seconds())
		if disk {
			chunk = 100
			chunks /= 2
		}
		// The in-memory heaps are pointer-heavy; damping GC churn keeps
		// mark-assist pauses from landing asymmetrically on one side.
		old := debug.SetGCPercent(400)
		defer debug.SetGCPercent(old)
		// Global warm-up: a throwaway comparison levels the process and
		// host state before the first reported cell.
		{
			wb, err := dbt2.Setup(base)
			check(err)
			wc := base
			wc.IFC = true
			wcell, err := dbt2.Setup(wc)
			check(err)
			_, _, err = dbt2.CompareInterleaved(wb, wcell, 2, chunk)
			check(err)
		}
		prevPct := 100.0
		for i, k := range ks {
			// Fresh baseline per cell: both databases must start at the
			// same size, since DBT-2 grows its tables as it runs.
			baseBench, err := dbt2.Setup(base)
			check(err)
			cfg := base
			cfg.IFC = true
			cfg.TagsPerLabel = k
			cell, err := dbt2.Setup(cfg)
			check(err)
			runtime.GC()
			ratio, notpm, err := dbt2.CompareInterleaved(baseBench, cell, chunks, chunk)
			check(err)
			pct := 100 * ratio
			if i == 0 {
				fmt.Printf("%-22s              (baseline = 100%%)\n", "PostgreSQL-baseline")
			}
			fmt.Printf("%-22s %12.0f NOTPM  (%.1f%% of interleaved baseline, %+.1f pts vs prev)\n",
				fmt.Sprintf("IFDB %d tags/label", k), notpm, pct, pct-prevPct)
			prevPct = pct
		}
	}
	fmt.Println()
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// expSensor prints the §8.2.2 comparison (E4).
func expSensor() {
	fmt.Println("== §8.2.2: sensor data processing throughput ==")
	// Batch-interleaved A/B measurement: shared-host interference hits
	// both configurations equally.
	const cars, batches = 8, 60
	baseRate, ifdbRate, err := sensor.CompareInterleaved(cars, batches)
	check(err)
	fmt.Printf("baseline: %8.0f measurements/s   (paper: 2479)\n", baseRate)
	fmt.Printf("IFDB:     %8.0f measurements/s   (paper: 2439, -1.6%%)\n", ifdbRate)
	fmt.Printf("overhead: %.1f%%\n\n", 100*(baseRate-ifdbRate)/baseRate)
}

// expSpace prints the §8.3 space table (E7).
func expSpace() {
	fmt.Println("== §8.3: tuple space overhead per tag ==")
	fmt.Printf("%6s %14s %12s\n", "tags", "bytes/tuple", "delta")
	var prev float64
	for _, k := range []int{0, 1, 2, 5, 10} {
		db := ifdb.MustOpen(ifdb.Config{IFC: true})
		admin := db.AdminSession()
		check(errOf(admin.Exec(`CREATE TABLE t (a BIGINT, b BIGINT, c TEXT)`)))
		owner := db.CreatePrincipal("o")
		s := db.NewSession(owner)
		var tags []ifdb.Tag
		for i := 0; i < k; i++ {
			tg, err := s.CreateTag(fmt.Sprintf("sp%d", i))
			check(err)
			tags = append(tags, tg)
		}
		for _, tg := range tags {
			check(s.AddSecrecy(tg))
		}
		for i := 0; i < 1000; i++ {
			check(errOf(s.Exec(`INSERT INTO t VALUES ($1, $2, 'order-line-ish')`,
				ifdb.Int(int64(i)), ifdb.Int(int64(i*2)))))
		}
		st := db.Engine().Stats()
		bpt := float64(st.TupleBytes) / float64(st.Tuples)
		delta := ""
		if prev > 0 {
			delta = fmt.Sprintf("%+.1f", bpt-prev)
		}
		fmt.Printf("%6d %14.1f %12s\n", k, bpt, delta)
		prev = bpt
	}
	fmt.Println("(paper: 4 bytes per tag; Order_Line at 89 bytes ⇒ +4.5%/tag)")
	fmt.Println()
}

func errOf(_ *ifdb.Result, err error) error { return err }

// expTrustedBase counts authority-bearing code in the two app ports —
// the §6.3 accounting (380/10k LoC in CarTel, 760/29k in HotCRP).
func expTrustedBase() {
	fmt.Println("== §6.3: trusted-base accounting ==")
	for _, app := range []string{"cartel", "hotcrp"} {
		dir := filepath.Join(*srcFlag, "apps", app)
		trusted, total := 0, 0
		entries, err := os.ReadDir(dir)
		check(err)
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			check(err)
			n := 0
			for _, line := range strings.Split(string(data), "\n") {
				if strings.TrimSpace(line) != "" {
					n++
				}
			}
			total += n
			if e.Name() == "trusted.go" {
				trusted += n
			}
		}
		fmt.Printf("%-8s trusted %4d / %5d LoC (%.1f%%)\n", app, trusted, total,
			100*float64(trusted)/float64(total))
	}
	fmt.Println(`(paper: CarTel 380/10000 LoC, HotCRP 760/29000. The paper's
denominators include the full web applications — presentation, session
management, thousands of lines of untrusted display code — while these
ports implement only the data paths, so the *ratio* is not comparable.
The comparable quantity is the absolute size of the authority-bearing
code: a few hundred lines per application in both the paper and here,
small enough to audit.)`)
	fmt.Println()
}
