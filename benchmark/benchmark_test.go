package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// These tests run every workload at toy size. None of them asserts a
// duration: they check answers, determinism and file formats.

func toyConfig(t *testing.T, seed uint64) config {
	return config{seed: seed, toy: true, tmpDir: t.TempDir()}
}

var endToEndNames = []string{"setup_s", "ops_per_s", "p50_us", "p90_us", "ttfr_p50_us", "ifc_cost_ratio"}

func TestWorkloadsAnswerCorrectly(t *testing.T) {
	for _, w := range workloads {
		res, det, err := runEndToEnd(w, toyConfig(t, 7), 0)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d: %v", w.name, res.Correct, res.Failed, res.Attempted, det.Failures)
		}
		if len(res.Metrics) != len(endToEndNames) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.name, len(res.Metrics), len(endToEndNames))
		}
		for _, name := range endToEndNames {
			if m, ok := res.Metrics[name]; !ok || !(m.Value > 0) || m.Unit == "" {
				t.Errorf("%s: metric %s = %+v, want a positive value with a unit", w.name, name, m)
			}
		}
	}
}

func TestCorruptedExpectationFails(t *testing.T) {
	for _, w := range workloads {
		c := toyConfig(t, 7)
		c.corrupt = true
		res, _, err := runEndToEnd(w, c, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a corrupted expectation passed (correct=%v failed=%d)", w.name, res.Correct, res.Failed)
		}
	}
}

func TestScheduleFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, other := toyConfig(t, 11), toyConfig(t, 11), toyConfig(t, 12)
		for r := 0; r < 3; r++ {
			if w.scheduleDigest(a, r) != w.scheduleDigest(b, r) {
				t.Errorf("%s round %d: same seed, different schedule digest", w.name, r)
			}
			if w.scheduleDigest(a, r) == w.scheduleDigest(other, r) {
				t.Errorf("%s round %d: different seeds, same schedule digest", w.name, r)
			}
		}
	}
}

// The count metrics come from the program's own counters and from byte
// counts; with the same seed they must repeat exactly.
func TestCountMetricsRepeatExactly(t *testing.T) {
	counts := []string{"engine.parses_per_op", "engine.plans_per_op", "engine.rows_scanned_per_row",
		"engine.label_denials_per_op", "wal.appends_per_txn", "wal.bytes_per_txn", "wire.bytes_per_row",
		"wire.frames_per_op", "router.fanout_width"}
	for _, w := range workloads {
		var runs [2]result
		for i := range runs {
			c := toyConfig(t, 5)
			res, det, err := runTraced(w, c, 0, c.tmpDir)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !res.Correct {
				t.Fatalf("%s: traced run incorrect: %v", w.name, det.Failures)
			}
			runs[i] = res
		}
		if len(runs[0].Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(runs[0].Metrics), len(perLayer))
		}
		for _, name := range counts {
			// The Router's LIMIT merge closes the shard streams as soon
			// as it has its 50 rows, so how many trailing frames a
			// shard got out first is a race, not a count.
			if w == scatterAgg && (name == "wire.bytes_per_row" || name == "wire.frames_per_op") {
				continue
			}
			a, b := runs[0].Metrics[name], runs[1].Metrics[name]
			if a.Value != b.Value {
				t.Errorf("%s: %s = %v then %v with the same seed", w.name, name, a.Value, b.Value)
			}
		}
	}
}

func TestSpanFileIsATree(t *testing.T) {
	for _, w := range workloads {
		c := toyConfig(t, 3)
		_, det, err := runTraced(w, c, 0, c.tmpDir)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		f, err := os.Open(det.SpanFile)
		if err != nil {
			t.Fatal(err)
		}
		byID := map[int]span{}
		children := map[int]int64{}
		var spans []span
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var s span
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				t.Fatalf("%s: bad span line %q: %v", w.name, sc.Text(), err)
			}
			if s.EndNs < s.StartNs || s.Name == "" || s.ID == 0 {
				t.Errorf("%s: malformed span %+v", w.name, s)
			}
			byID[s.ID] = s
			spans = append(spans, s)
		}
		f.Close()
		if len(spans) == 0 && det.SampledOp > 0 && det.Spans > 0 {
			t.Errorf("%s: span file is empty", w.name)
		}
		for _, s := range spans {
			if s.Parent == 0 {
				continue
			}
			p, ok := byID[s.Parent]
			if !ok || p.OpID != s.OpID {
				t.Errorf("%s: span %d names parent %d, which is not a span of op %d", w.name, s.ID, s.Parent, s.OpID)
			}
			children[s.Parent] += s.dur()
		}
		for id, sum := range children {
			if sum > byID[id].dur() {
				t.Errorf("%s: children of span %d (%s) take %d ns, the span %d ns", w.name, id, byID[id].Name, sum, byID[id].dur())
			}
		}
	}
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), program has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndNames) {
		t.Fatalf("%d end-to-end metrics listed, want %d", len(spec.EndToEnd), len(endToEndNames))
	}
	// The contract caps a bound at 0.25. ifc_cost_ratio is paired round
	// by round, so the host cannot move it: it must stay well under that.
	for i, m := range spec.EndToEnd {
		limit := 0.25
		if m.Name == "ifc_cost_ratio" {
			limit = 0.15
		}
		if m.Name != endToEndNames[i] || m.Bound <= 0 || m.Bound > limit {
			t.Errorf("end-to-end metric %d: %+v (bound limit %v)", i, m, limit)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, the program reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if lm := perLayer[i]; m.Name != lm.name || m.Unit != lm.unit || m.Better != lm.better {
			t.Errorf("per-layer metric %d: listed %+v, program has %+v", i, m, lm)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := iqrShare(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("iqrShare = %v, want 1", got)
	}
	if worseBy(100, 90, "higher") != 0.1 || worseBy(100, 110, "lower") != 0.1 || worseBy(100, 110, "higher") >= 0 {
		t.Error("worseBy does not follow the metric's direction")
	}
}

func TestStationarityGuard(t *testing.T) {
	for drift, want := range map[float64]bool{1.02: true, 0.90: true, 1.10: true, 0.80: false, 1.25: false} {
		if stationary(drift) != want {
			t.Errorf("round drift %v: stationary=%v, want %v", drift, !want, want)
		}
	}
	// A pass that loses a third of its throughput, as the un-vacuumed
	// New-Order did: reported always, a failure only under -strict.
	decaying := func() *pass {
		p := &pass{}
		for _, ms := range []int64{100, 100, 110, 120, 140, 150} {
			p.ifc = append(p.ifc, roundResult{ops: 100, wallNs: ms * 1e6})
		}
		return p
	}
	if p := decaying(); roundDrift(throughputs(p.ifc)) > 0.75 {
		t.Fatalf("round drift %v of a decaying pass", roundDrift(throughputs(p.ifc)))
	}
	lax, strict := decaying(), decaying()
	lax.driftGuard("w", false)
	strict.driftGuard("w", true)
	if lax.failed != 0 || strict.failed != 1 || len(strict.failures) != 1 {
		t.Errorf("decaying pass: %d failures without -strict, %d with; want 0 and 1", lax.failed, strict.failed)
	}
}

// The adjusted metrics are the raw ones scaled by the run's host
// factor, the right way round: a host running the reference slower than
// nominal has its throughput raised and its latencies lowered.
func TestHostAdjustment(t *testing.T) {
	round := roundResult{ops: 2, wallNs: 1e9, lat: []int64{1000, 3000}, ttfr: []int64{1000, 1000}}
	p := &pass{ifc: []roundResult{round, round, round}, base: []roundResult{round, round, round},
		slices: []float64{2 * refNominalS, 2 * refNominalS, refNominalS}}
	m, raw, _ := endToEnd(p, []setUpTime{{Seconds: 1, HostFactor: 2}, {Seconds: 3, HostFactor: 2}, {Seconds: 9, HostFactor: 1}})
	if hostFactor(p.slices) != 2 {
		t.Fatalf("host factor %v, want 2", hostFactor(p.slices))
	}
	if raw["ops_per_s"].Value != 2 || m["ops_per_s"].Value != 4 {
		t.Errorf("ops_per_s raw %v adjusted %v, want 2 and 4", raw["ops_per_s"].Value, m["ops_per_s"].Value)
	}
	for _, name := range []string{"p50_us", "p90_us", "ttfr_p50_us"} {
		if m[name].Value != raw[name].Value/2 {
			t.Errorf("%s raw %v adjusted %v, want half", name, raw[name].Value, m[name].Value)
		}
	}
	if raw["setup_s"].Value != 3 || m["setup_s"].Value != 1.5 {
		t.Errorf("setup_s raw %v adjusted %v, want 3 and 1.5 (each set-up by its own factor)", raw["setup_s"].Value, m["setup_s"].Value)
	}
	if m["ifc_cost_ratio"].Value != 1 {
		t.Errorf("ifc_cost_ratio %v must not be adjusted", m["ifc_cost_ratio"].Value)
	}
}
