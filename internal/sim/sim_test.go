package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// closedWorkload is the reference closed-loop workload the golden test
// pins. Closed-loop generation draws only integer rng values, so its
// trace bytes are stable across platforms (no float formatting in
// play) and safe to commit.
func closedWorkload(seed int64) Workload {
	return Workload{
		Seed:    seed,
		Arrival: ArrivalClosed,
		Workers: 4,
		Ops:     200,
		Table:   "kv",
		Keys:    256,
		Cohorts: []Cohort{
			{Name: "gold", Weight: 3, Tags: []string{"t_gold"},
				Mix: StmtMix{PointRead: 8, PointWrite: 2}, PreparedPct: 100},
			{Name: "silver", Weight: 1, Tags: []string{"t_silver"},
				Mix: StmtMix{PointRead: 4, PointWrite: 2, Insert: 2, Scan: 1, DDL: 1}},
		},
	}
}

func openWorkload(seed int64, arrival string) Workload {
	return Workload{
		Seed:     seed,
		Arrival:  arrival,
		Workers:  4,
		Duration: 2 * time.Second,
		Rate:     500,
		Table:    "kv",
		Keys:     256,
		Cohorts: []Cohort{
			{Name: "gold", Weight: 3, Tags: []string{"t_gold"},
				Mix: StmtMix{PointRead: 8, PointWrite: 2}, PreparedPct: 50},
			{Name: "silver", Weight: 1,
				Mix: StmtMix{PointRead: 4, PointWrite: 2, Insert: 2, Scan: 1, DDL: 1}},
		},
	}
}

func allWorkloads(seed int64) map[string]Workload {
	return map[string]Workload{
		ArrivalClosed:  closedWorkload(seed),
		ArrivalPoisson: openWorkload(seed, ArrivalPoisson),
		ArrivalBursty:  openWorkload(seed, ArrivalBursty),
	}
}

func traceBytes(t *testing.T, w Workload) []byte {
	t.Helper()
	s, err := Generate(w)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, s); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	return buf.Bytes()
}

// TestGenerateDeterministic is the headline property: same seed, same
// workload ⇒ byte-identical trace, for every arrival process; and a
// different seed actually changes the schedule.
func TestGenerateDeterministic(t *testing.T) {
	for name, w := range allWorkloads(42) {
		t.Run(name, func(t *testing.T) {
			a := traceBytes(t, w)
			b := traceBytes(t, w)
			if !bytes.Equal(a, b) {
				t.Fatalf("same seed produced different traces (%d vs %d bytes)", len(a), len(b))
			}
			w2 := w
			w2.Seed = 43
			if bytes.Equal(a, traceBytes(t, w2)) {
				t.Fatalf("different seeds produced identical traces")
			}
		})
	}
}

// TestClosedLoopGolden pins the closed-loop trace bytes for seed 42.
// Regenerate with: SIM_UPDATE_GOLDEN=1 go test ./internal/sim -run Golden
func TestClosedLoopGolden(t *testing.T) {
	got := traceBytes(t, closedWorkload(42))
	path := filepath.Join("testdata", "closed_seed42.trace")
	if os.Getenv("SIM_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with SIM_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace diverged from golden: got %d bytes, want %d", len(got), len(want))
	}
}

func TestGenerateShape(t *testing.T) {
	s, err := Generate(closedWorkload(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Ops) != 200 {
		t.Fatalf("ops = %d, want 200", len(s.Ops))
	}
	cohorts := map[string]int{}
	kinds := map[OpKind]int{}
	for i, op := range s.Ops {
		if op.Seq != int64(i) {
			t.Fatalf("op %d has seq %d", i, op.Seq)
		}
		if op.At != 0 {
			t.Fatalf("closed-loop op %d has arrival %d", i, op.At)
		}
		if op.Worker != i%4 {
			t.Fatalf("op %d on worker %d, want %d", i, op.Worker, i%4)
		}
		cohorts[op.Cohort]++
		kinds[op.Kind]++
		if op.Cohort == "gold" && op.Kind != OpDDL && !op.Prepared {
			t.Fatalf("gold op %d not prepared despite PreparedPct 100", i)
		}
	}
	if cohorts["gold"] == 0 || cohorts["silver"] == 0 {
		t.Fatalf("cohort draw skipped a cohort: %v", cohorts)
	}
	if kinds[OpPointRead] == 0 || kinds[OpPointWrite] == 0 {
		t.Fatalf("kind draw skipped a class: %v", kinds)
	}
}

func TestOpenLoopArrivalsMonotone(t *testing.T) {
	for _, arrival := range []string{ArrivalPoisson, ArrivalBursty} {
		s, err := Generate(openWorkload(9, arrival))
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Ops) == 0 {
			t.Fatalf("%s generated no ops", arrival)
		}
		var last int64
		for _, op := range s.Ops {
			if op.At < last {
				t.Fatalf("%s arrival regressed at seq %d: %d < %d", arrival, op.Seq, op.At, last)
			}
			last = op.At
		}
		if last >= s.W.Duration.Nanoseconds() {
			t.Fatalf("%s arrival %d past duration %d", arrival, last, s.W.Duration.Nanoseconds())
		}
	}
}

func TestNormalizeErrors(t *testing.T) {
	base := closedWorkload(1)
	cases := map[string]func(*Workload){
		"bad arrival":    func(w *Workload) { w.Arrival = "warp" },
		"no workers":     func(w *Workload) { w.Workers = 0 },
		"no table":       func(w *Workload) { w.Table = "" },
		"no cohorts":     func(w *Workload) { w.Cohorts = nil },
		"dup cohort":     func(w *Workload) { w.Cohorts[1].Name = w.Cohorts[0].Name },
		"zero weight":    func(w *Workload) { w.Cohorts[0].Weight = 0 },
		"empty mix":      func(w *Workload) { w.Cohorts[0].Mix = StmtMix{} },
		"bad prepared":   func(w *Workload) { w.Cohorts[0].PreparedPct = 101 },
		"closed no ops":  func(w *Workload) { w.Ops = 0 },
		"ops over cap":   func(w *Workload) { w.Ops = MaxOps + 1 },
		"open no rate":   func(w *Workload) { w.Arrival = ArrivalPoisson; w.Rate = 0 },
		"rate over cap":  func(w *Workload) { w.Arrival = ArrivalPoisson; w.Rate = 1e12; w.Duration = time.Hour },
		"bad burst amp":  func(w *Workload) { w.Arrival = ArrivalBursty; w.Rate = 10; w.Duration = time.Second; w.BurstAmp = 1.5 },
		"cohort no name": func(w *Workload) { w.Cohorts[0].Name = "" },
	}
	for name, mutate := range cases {
		w := base
		w.Cohorts = append([]Cohort(nil), base.Cohorts...)
		mutate(&w)
		if _, err := Generate(w); err == nil {
			t.Errorf("%s: Generate accepted an invalid workload", name)
		}
	}
}

func TestRunClosedLoop(t *testing.T) {
	s, err := Generate(closedWorkload(3))
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	st, err := Run(s, Options{}, func(op *Op, lap int) error {
		calls.Add(1)
		if op.Kind == OpDDL {
			return os.ErrInvalid // exercise the failure path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 200 || st.TotalOps() != 200 {
		t.Fatalf("calls=%d totalOps=%d, want 200", calls.Load(), st.TotalOps())
	}
	var wantFail int64
	for _, op := range s.Ops {
		if op.Kind == OpDDL {
			wantFail++
		}
	}
	if st.TotalFailures() != wantFail {
		t.Fatalf("failures=%d, want %d", st.TotalFailures(), wantFail)
	}
	for name, cs := range st.Cohorts {
		if int64(len(cs.LatenciesUs)) != cs.Ops-cs.Failures {
			t.Fatalf("cohort %s: %d samples for %d successes", name, len(cs.LatenciesUs), cs.Ops-cs.Failures)
		}
		for i := 1; i < len(cs.LatenciesUs); i++ {
			if cs.LatenciesUs[i] < cs.LatenciesUs[i-1] {
				t.Fatalf("cohort %s latencies not sorted", name)
			}
		}
	}
}

func TestRunLoopCyclesSchedule(t *testing.T) {
	w := closedWorkload(5)
	w.Ops = 16
	s, err := Generate(w)
	if err != nil {
		t.Fatal(err)
	}
	maxLap := make([]atomic.Int64, w.Workers)
	st, err := Run(s, Options{Duration: 150 * time.Millisecond, Loop: true}, func(op *Op, lap int) error {
		if cur := maxLap[op.Worker].Load(); int64(lap) > cur {
			maxLap[op.Worker].Store(int64(lap))
		}
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalOps() <= 16 {
		t.Fatalf("loop mode completed only %d ops over one schedule of 16", st.TotalOps())
	}
	var sawLap bool
	for i := range maxLap {
		if maxLap[i].Load() > 0 {
			sawLap = true
		}
	}
	if !sawLap {
		t.Fatalf("no worker advanced past lap 0")
	}
	if _, err := Run(s, Options{Loop: true}, func(*Op, int) error { return nil }); err == nil {
		t.Fatalf("Loop without Duration accepted")
	}
}

func TestRunOpenLoopExecutesAll(t *testing.T) {
	w := openWorkload(11, ArrivalPoisson)
	w.Duration = 300 * time.Millisecond
	w.Rate = 2000
	s, err := Generate(w)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	st, err := Run(s, Options{}, func(op *Op, lap int) error {
		calls.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != int64(len(s.Ops)) {
		t.Fatalf("executed %d of %d ops", calls.Load(), len(s.Ops))
	}
	// Pacing: the last arrival is inside Duration, so the run should
	// take a meaningful fraction of it (loose bound to stay unflaky).
	if st.Elapsed < w.Duration/10 {
		t.Fatalf("open loop finished in %v — pacing not applied", st.Elapsed)
	}
}

func TestLapArgs(t *testing.T) {
	ins := Op{Seq: 9, Kind: OpInsert, SQL: "INSERT INTO kv VALUES ($1, $2)", Args: []int64{100, 7}}
	if got := ins.LapArgs(0); &got[0] != &ins.Args[0] {
		t.Fatalf("lap 0 should alias Args")
	}
	l2 := ins.LapArgs(2)
	if l2[0] != 100+2*LapKeyStride || l2[1] != 7 {
		t.Fatalf("lap 2 args = %v", l2)
	}
	if ins.Args[0] != 100 {
		t.Fatalf("LapArgs mutated the op")
	}
	rd := Op{Kind: OpPointRead, SQL: "SELECT v FROM kv WHERE k = $1", Args: []int64{33}}
	if got := rd.LapArgs(3); &got[0] != &rd.Args[0] {
		t.Fatalf("a read's args should not move with the lap")
	}
}

func TestPercentile(t *testing.T) {
	cs := &CohortStats{LatenciesUs: []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}
	if p := cs.Percentile(0.5); p != 5 {
		t.Fatalf("p50 = %d", p)
	}
	if p := cs.Percentile(1.0); p != 10 {
		t.Fatalf("p100 = %d", p)
	}
	if p := (&CohortStats{}).Percentile(0.5); p != 0 {
		t.Fatalf("empty p50 = %d", p)
	}
}
