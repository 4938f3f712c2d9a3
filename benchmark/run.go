package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"ifdb/internal/obs"
)

// Run shape: fixed-work rounds inside a fixed-time box. A run is set-up
// (its last step an untimed warm-up per twin) → measured rounds,
// alternating ifc, base, base, ifc, … so host drift hits both twins
// alike, for --seconds of wall time → setupRepeats-1 more set-ups (see
// moreSetUps). A round is a fixed op count from the seeded schedule, so
// every round of a workload does identical work and program-side counts
// per op repeat exactly; --seconds decides only how many rounds a run
// gets through, and every reported number is a median over rounds,
// which does not move with their count. A slow host therefore gives a
// run fewer rounds, never a longer run: the driver's time limits hold
// whatever the host is doing. The workload's maintenance and one
// runtime.GC() run untimed before every round, so each round starts
// from the same heap and the collector (GOGC at its default) paces
// itself the same way in every round: its cycles run inside the rounds
// and their cost is inside every end-to-end metric.
const (
	// setupRepeats is how many times a run sets up; setup_s is their
	// median, so one slow load does not decide it.
	setupRepeats = 3
	// minRounds is the fewest measured rounds per twin, however slow the
	// host: one per third of bench.round_drift.
	minRounds = 3
	// gcSettle is an untimed pause after the untimed collection.
	// runtime.GC() returns while the runtime's background sweeper and
	// scavenger are still at work, and a round that starts at once runs
	// beside them: scan-drain's time to first row read 7 ms with no
	// pause, 1.2–6 ms with 5 ms, 1.1–1.5 ms with 25.
	gcSettle = 25 * time.Millisecond
	// minPerRound is the per-round sample count from which latency
	// percentiles are taken per round and then medianed over rounds;
	// below it the samples of all rounds are pooled.
	minPerRound = 200
	// driftLo..driftHi is the stationarity guard on bench.round_drift.
	driftLo, driftHi = 0.90, 1.10

	rowsScannedCounter = "ifdb_engine_rows_scanned_total"
	fanoutHist         = "ifdb_router_fanout_width"
	fanoutSum          = fanoutHist + "_sum"
	fanoutCount        = fanoutHist + "_count"
)

// A measured pass ends when its stop rule says so, asked after every
// round pair with the pairs done so far.

// afterRounds stops after exactly n round pairs.
func afterRounds(n int) func(int) bool { return func(done int) bool { return done >= n } }

// afterSeconds stops at the first round pair that ends more than
// `seconds` after now, and never before minRounds pairs.
func afterSeconds(seconds float64) func(int) bool {
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	return func(done int) bool { return done >= minRounds && time.Now().After(end) }
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// twins is one set-up: both copies of the workload, warmed.
type twins struct {
	ifc, base twin
}

func (t *twins) close() {
	if t.ifc != nil {
		t.ifc.close()
	}
	if t.base != nil {
		t.base.close()
	}
}

// setUp loads, serves, connects and warms up both twins.
func setUp(w *workload, c config) (*twins, error) {
	t := &twins{}
	var err error
	if t.ifc, err = w.newTwin(c, true); err != nil {
		t.close()
		return nil, fmt.Errorf("%s: set-up (ifc): %w", w.name, err)
	}
	if t.base, err = w.newTwin(c, false); err != nil {
		t.close()
		return nil, fmt.Errorf("%s: set-up (baseline): %w", w.name, err)
	}
	warmUp(t.ifc)
	warmUp(t.base)
	return t, nil
}

// warmUp runs the first fifth of a round of its own (at least one op),
// untimed: enough to fill the plan cache, the connection's buffers and
// the buffer pool, at a fifth of the cost in every one of a run's
// set-ups.
func warmUp(tw twin) {
	n := tw.prepare(warmRound)
	for i := 0; i < max(1, n/5); i++ {
		tw.do(i)
	}
}

// setUpTime is one set-up's wall time in seconds and the host factor
// over the reference slices taken just before and after it.
type setUpTime struct {
	Seconds    float64 `json:"seconds"`
	HostFactor float64 `json:"host_factor"`
}

// timedSetUp sets up once and returns the set with its time.
func timedSetUp(w *workload, c config, h *hostRef) (*twins, setUpTime, error) {
	slices := h.slices(setupSlices)
	t0 := time.Now()
	t, err := setUp(w, c)
	seconds := time.Since(t0).Seconds()
	slices = append(slices, h.slices(setupSlices)...)
	return t, setUpTime{Seconds: seconds, HostFactor: hostFactor(slices)}, err
}

// moreSetUps sets up and tears down n more times and returns each
// one's time. It runs after the measured rounds, on the closed first set:
// setup_s is the median of all of a run's set-ups, and sets that only
// exist to be timed must not sit in the heap the rounds are measured
// on — which closed ones still do: engine.uniqueLocks keeps every table
// that had a unique index reachable, ≈100 MB a set.
func moreSetUps(w *workload, c config, h *hostRef, n int) ([]setUpTime, error) {
	var times []setUpTime
	for i := 0; i < n; i++ {
		t, s, err := timedSetUp(w, c, h)
		if err != nil {
			return nil, err
		}
		t.close()
		times = append(times, s)
	}
	return times, nil
}

// pass is the measured part of a run: alternating fixed-work rounds.
type pass struct {
	ifc, base []roundResult // round i of each twin ran the same schedule
	slices    []float64     // host-reference slice times, s: taken before every round run and after the last
	sliceS    float64       // their sum
	expect    func(r int) (rows int64, digest uint64, hasDigest bool)
	gcNs      int64    // untimed runtime.GC before rounds
	maintNs   int64    // untimed maintenance before rounds
	failures  []string // violated expectations, one line each
	attempted int
	failed    int
}

// measure runs round pairs of the schedule, from round `first` on,
// until stop says so. ifcRound runs the IFC twin's rounds (runRound, or
// the traced pass's variant); the baseline twin's always run plain.
func measure(w *workload, c config, t *twins, h *hostRef, first int, stop func(done int) bool, ifcRound func(twin, int) roundResult) *pass {
	p := &pass{expect: w.expect(c)}
	start := time.Now()
	// probe runs the host reference between rounds: at least one slice,
	// and as many as keep it at refShare of the pass's time, so a
	// workload with few long rounds reads the host as often as one with
	// many short ones.
	probe := func() {
		for n := 0; n == 0 || p.sliceS < refShare*time.Since(start).Seconds(); n++ {
			s := h.slice()
			p.slices, p.sliceS = append(p.slices, s), p.sliceS+s
		}
	}
	one := func(tw twin, r int, run func(twin, int) roundResult) roundResult {
		probe()
		p.maintNs += tw.maintain()
		t0 := time.Now()
		runtime.GC()
		p.gcNs += int64(time.Since(t0))
		time.Sleep(gcSettle)
		logged, hasLog := tw.(interface{ walEnd() uint64 })
		var wal0 uint64
		if hasLog {
			wal0 = logged.walEnd()
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		before := obs.Default.Snapshot()
		res := run(tw, r)
		delta := obs.Default.Snapshot().Sub(before)
		runtime.ReadMemStats(&ms1)
		res.counters = delta.Counters
		res.counters[fanoutSum], res.counters[fanoutCount] = delta.Hists[fanoutHist].Sum, delta.Hists[fanoutHist].Count
		if hasLog {
			res.walBytes = int64(logged.walEnd() - wal0)
		}
		res.alloc, res.mallocs, res.gcCycles = ms1.TotalAlloc-ms0.TotalAlloc, ms1.Mallocs-ms0.Mallocs, ms1.NumGC-ms0.NumGC
		p.attempted += res.ops
		p.failed += res.failed
		p.failures = append(p.failures, res.errs...)
		return res
	}
	for i := 0; !stop(i); i++ {
		r := first + i
		var a, b roundResult
		if i%2 == 0 {
			a = one(t.ifc, r, ifcRound)
			b = one(t.base, r, runRound)
		} else {
			b = one(t.base, r, runRound)
			a = one(t.ifc, r, ifcRound)
		}
		p.ifc = append(p.ifc, a)
		p.base = append(p.base, b)
		p.check(w, c, r, a, b)
	}
	probe()
	return p
}

// check is the per-round correctness gate: both twins returned the
// same rows, and those are the rows the generator says they should be.
func (p *pass) check(w *workload, c config, r int, a, b roundResult) {
	fail := func(format string, args ...any) {
		p.failed++
		p.failures = append(p.failures, fmt.Sprintf("%s round %d: ", w.name, r)+fmt.Sprintf(format, args...))
	}
	if a.rows != b.rows || a.digest != b.digest {
		fail("twins disagree: ifc %d rows digest %016x, baseline %d rows digest %016x", a.rows, a.digest, b.rows, b.digest)
	}
	rows, digest, hasDigest := p.expect(r)
	if c.corrupt {
		digest ^= 1
		rows ^= 1
	}
	if a.rows != rows {
		fail("ifc twin drained %d rows, generator says %d", a.rows, rows)
	}
	if hasDigest && a.digest != digest {
		fail("ifc twin digest %016x, generator says %016x", a.digest, digest)
	}
}

// finish runs the end-of-run checks of both twins.
func (p *pass) finish(t *twins) {
	for _, line := range append(t.ifc.verify(), t.base.verify()...) {
		p.failed++
		p.failures = append(p.failures, line)
	}
	p.attempted += 2
}

func opsPerSec(r roundResult) float64 { return float64(r.ops) / (float64(r.wallNs) / 1e9) }

func throughputs(rs []roundResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = opsPerSec(r)
	}
	return out
}

// percentileUs is the ISSUE's rule: per round then median of rounds
// when every round has at least minPerRound samples, else pooled over
// the run. pick selects the sample series.
func percentileUs(rs []roundResult, q float64, pick func(roundResult) []int64) (us float64, samples int) {
	perRound := true
	for _, r := range rs {
		samples += len(pick(r))
		if len(pick(r)) < minPerRound {
			perRound = false
		}
	}
	if perRound {
		var qs []float64
		for _, r := range rs {
			qs = append(qs, quantile(toFloats(pick(r), 1e-3), q))
		}
		return median(qs), samples
	}
	var pool []float64
	for _, r := range rs {
		pool = append(pool, toFloats(pick(r), 1e-3)...)
	}
	return quantile(pool, q), samples
}

func lats(r roundResult) []int64  { return r.lat }
func ttfrs(r roundResult) []int64 { return r.ttfr }

// costRatios is, per round pair, IFC throughput ÷ the adjacent
// baseline round's — the paper's Fig. 4/6 quantity.
func costRatios(p *pass) []float64 {
	out := make([]float64, len(p.ifc))
	for i := range p.ifc {
		out[i] = opsPerSec(p.ifc[i]) / opsPerSec(p.base[i])
	}
	return out
}

// workDrift is the same ratio over what the program did per round
// rather than how long it took: tuple versions visited and bytes
// allocated, whichever moved more. Both are counts, so the host cannot
// move them; a workload whose version chains or tables grow does.
func workDrift(rs []roundResult) float64 {
	scanned, alloc := make([]float64, len(rs)), make([]float64, len(rs))
	for i, r := range rs {
		scanned[i], alloc[i] = float64(r.counters[rowsScannedCounter]), float64(r.alloc)
	}
	a, b := thirdsRatio(scanned), thirdsRatio(alloc)
	if math.Abs(math.Log(a)) > math.Abs(math.Log(b)) {
		return a
	}
	return b
}

// roundDrift is last-third ÷ first-third round throughput (medians of
// the thirds): 1.0 on a stationary workload, and what would have
// caught an un-vacuumed New-Order's decay.
func roundDrift(tp []float64) float64 { return thirdsRatio(tp) }

func thirdsRatio(xs []float64) float64 {
	n := len(xs) / 3
	if n == 0 || median(xs[:n]) == 0 || median(xs[len(xs)-n:]) == 0 {
		return 1
	}
	return median(xs[len(xs)-n:]) / median(xs[:n])
}

// endToEnd computes the six end-to-end metrics from the IFC twin. The
// five that are times or rates are host-adjusted (see hostRef) — the
// rounds' by the pass's host factor, each set-up by its own; raw
// carries the same five as the clock saw them.
func endToEnd(p *pass, setups []setUpTime) (m, raw metrics, counts map[string]int) {
	m, raw = metrics{}, metrics{}
	f := hostFactor(p.slices)
	raw.set("ops_per_s", median(throughputs(p.ifc)), "1/s")
	p50, n := percentileUs(p.ifc, 0.50, lats)
	raw.set("p50_us", p50, "us")
	p90, _ := percentileUs(p.ifc, 0.90, lats)
	raw.set("p90_us", p90, "us")
	t50, _ := percentileUs(p.ifc, 0.50, ttfrs)
	raw.set("ttfr_p50_us", t50, "us")
	for name, v := range raw { // the rounds' four
		if name == "ops_per_s" {
			m.set(name, v.Value*f, v.Unit)
		} else {
			m.set(name, v.Value/f, v.Unit)
		}
	}
	rawSetups, adjSetups := make([]float64, len(setups)), make([]float64, len(setups))
	for i, su := range setups {
		rawSetups[i], adjSetups[i] = su.Seconds, su.Seconds/su.HostFactor
	}
	raw.set("setup_s", median(rawSetups), "s")
	m.set("setup_s", median(adjSetups), "s")
	m.set("ifc_cost_ratio", median(costRatios(p)), "ratio")
	return m, raw, map[string]int{"latency_samples": n, "rounds": len(p.ifc)}
}

// result is the line the driver reads: exactly these four keys.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// detail is what a run adds on standard error for people and for the
// calibration tool: sample counts and the numbers that say whether the
// host or the workload, not the program, moved.
type detail struct {
	Workload      string         `json:"workload"`
	Seed          uint64         `json:"seed"`
	Counts        map[string]int `json:"counts"`
	Raw           metrics        `json:"as_the_clock_saw_them"`
	HostFactor    float64        `json:"host_factor"`
	RoundsOpsPerS []float64      `json:"rounds_ops_per_s"`
	Slices        []float64      `json:"slices_s"`
	RoundIQR      float64        `json:"round_iqr"`
	RoundDrift    float64        `json:"round_drift"`
	WorkDrift     float64        `json:"work_drift"`
	HostRef       float64        `json:"host_ref_ops_per_s"`
	GCMsRound     float64        `json:"gc_ms_per_round"`
	GCCycles      int            `json:"gc_cycles_in_rounds"`
	MaintMs       float64        `json:"maintenance_ms_per_round"`
	Setups        []setUpTime    `json:"setups"`
	MeasuredS     float64        `json:"measured_s"`
	Failures      []string       `json:"failures,omitempty"`
	OpsAttempt    int            `json:"ops_attempted"`
	OpsFailed     int            `json:"ops_failed"`
	GoMaxProcs    int            `json:"gomaxprocs"`
	FullSize      bool           `json:"full_size"`
}

// runEndToEnd is `--trace 0`: the run whose numbers the ledger keeps.
func runEndToEnd(w *workload, c config, seconds float64) (result, detail, error) {
	h, err := newHostRef()
	if err != nil {
		return result{}, detail{}, err
	}
	defer h.close()
	t, firstSetUp, err := timedSetUp(w, c, h)
	if err != nil {
		return result{}, detail{}, err
	}
	stop := afterSeconds(seconds)
	if c.toy {
		stop = afterRounds(2)
	}
	p := measure(w, c, t, h, 0, stop, runRound)
	if !c.toy {
		p.driftGuard(w.name, c.strict)
	}
	p.finish(t)
	t.close()
	setups, err := moreSetUps(w, c, h, setupRepeats-1)
	if err != nil {
		return result{}, detail{}, err
	}
	setups = append([]setUpTime{firstSetUp}, setups...)

	m, raw, counts := endToEnd(p, setups)
	tp := throughputs(p.ifc)
	d := detail{
		Workload: w.name, Seed: c.seed, Counts: counts, Raw: raw, HostFactor: hostFactor(p.slices), RoundsOpsPerS: tp,
		RoundIQR: iqrShare(tp), RoundDrift: roundDrift(tp), WorkDrift: workDrift(p.ifc),
		HostRef:   refOpsPerSec(median(p.slices)),
		GCMsRound: float64(p.gcNs) / 1e6 / float64(2*len(p.ifc)),
		MaintMs:   float64(p.maintNs) / 1e6 / float64(2*len(p.ifc)),
		Setups:    setups, Slices: p.slices, Failures: p.failures,
		GoMaxProcs: runtime.GOMAXPROCS(0), FullSize: !c.toy,
	}
	for _, r := range append(p.ifc, p.base...) {
		d.MeasuredS += float64(r.wallNs) / 1e9
		d.GCCycles += int(r.gcCycles)
	}
	d.OpsAttempt, d.OpsFailed = p.attempted, p.failed
	return result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: m}, d, nil
}

// driftGuard is the stationarity guard — the check that would have
// caught the un-vacuumed New-Order decay that sank the earlier
// benchmarks. bench.round_drift is always reported; outside
// driftLo..driftHi it is warned about, and it fails the run only under
// -strict, because on a shared host a neighbour's burst moves a
// twenty-second window as a decaying workload does and the driver's
// runs must not fail for what the host did. bench.work_drift says
// beside it whether the program's work per round moved too, or only
// the clock.
func (p *pass) driftGuard(workload string, strict bool) {
	drift := roundDrift(throughputs(p.ifc))
	if stationary(drift) {
		return
	}
	line := fmt.Sprintf("%s: not stationary: bench.round_drift %.3f outside %.2f–%.2f", workload, drift, driftLo, driftHi)
	if !strict {
		warnf("warning: %s", line)
		return
	}
	p.failed++
	p.failures = append(p.failures, line)
}

func stationary(roundDrift float64) bool { return roundDrift >= driftLo && roundDrift <= driftHi }

func warnf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
