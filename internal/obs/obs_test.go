package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestRegistryGetOrCreate: registering the same name twice returns the
// same collector, so multi-instance processes aggregate rather than
// shadow.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "first help wins")
	b := r.Counter("x_total", "ignored")
	if a != b {
		t.Fatal("same name produced distinct counters")
	}
	a.Add(2)
	if got := b.Value(); got != 2 {
		t.Fatalf("aliased counter = %d, want 2", got)
	}
	if h := r.Histogram("h", "", 1000, 1e-9); h != r.Histogram("h", "", 1, 1) {
		t.Fatal("same name produced distinct histograms")
	}
	if v := r.CounterVec("v", "", "l"); v.With("a") != v.With("a") {
		t.Fatal("same label value produced distinct children")
	}
}

// TestRegistryConcurrent hammers registration, mutation, and scraping
// from many goroutines at once; its real assertion is the race
// detector (the CI race job runs this package under -race).
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("conc_total", "")
			h := r.Histogram("conc_seconds", "", 1000, 1e-9)
			v := r.CounterVec("conc_by_shard", "", "shard")
			gu := r.Gauge("conc_gauge", "")
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i) * 100)
				v.With(string(rune('a' + g%3))).Inc()
				gu.Set(int64(i))
				if i%100 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("conc_total", "").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("conc_seconds", "", 1000, 1e-9).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

// TestHistogramBuckets checks the doubling-bucket boundaries and the
// upper-bound quantile estimate.
func TestHistogramBuckets(t *testing.T) {
	h := NewRegistry().Histogram("b_seconds", "", 1000, 1e-9)
	for _, tc := range []struct {
		v    int64
		want int
	}{
		{0, 0}, {1, 0}, {1000, 0}, {1001, 1}, {2000, 1}, {2001, 2}, {4000, 2},
	} {
		if got := h.bucketOf(tc.v); got != tc.want {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
	// 90 fast observations and 10 slow: p50 lands in the fast bucket's
	// bound, p99 in the slow one's.
	for i := 0; i < 90; i++ {
		h.Observe(500) // bucket 0, bound 1000
	}
	for i := 0; i < 10; i++ {
		h.Observe(1_500_000) // bound 2_048_000
	}
	if got := h.Quantile(0.50); got != 1000 {
		t.Fatalf("p50 = %d, want 1000", got)
	}
	if got := h.Quantile(0.99); got != 2_048_000 {
		t.Fatalf("p99 = %d, want 2048000", got)
	}
	// Values beyond the last finite bound count toward +Inf only.
	h2 := NewRegistry().Histogram("inf_seconds", "", 1000, 1e-9)
	h2.Observe(1000 << 40)
	if h2.Count() != 1 || h2.Quantile(1.0) != h2.Bound(histBuckets-1) {
		t.Fatal("+Inf observation mishandled")
	}
}

// TestTraceID: IDs are non-zero (zero means untraced on the wire),
// distinct per call, and format as fixed-width lowercase hex.
func TestTraceID(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("NewTraceID returned 0")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %x", id)
		}
		seen[id] = true
	}
	if got := TraceID(0xdeadbeef); got != "00000000deadbeef" {
		t.Fatalf("TraceID(0xdeadbeef) = %q", got)
	}
	if got := TraceID(0); got != "0000000000000000" {
		t.Fatalf("TraceID(0) = %q", got)
	}
}

// TestParseLevel maps the -log-level spellings.
func TestParseLevel(t *testing.T) {
	if _, err := ParseLevel("chatty"); err == nil {
		t.Fatal(`ParseLevel("chatty") accepted`)
	}
	for _, good := range []string{"debug", "", "info", "warn", "error"} {
		if _, err := ParseLevel(good); err != nil {
			t.Fatalf("ParseLevel(%q): %v", good, err)
		}
	}
}

// TestSnapshot covers the point-in-time copy and the delta arithmetic
// the bench harness uses to scope registry numbers to one experiment.
func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	v := r.CounterVec("v_total", "", "shard")
	h := r.Histogram("h_seconds", "", 1000, 1e-9)

	c.Add(5)
	g.Set(3)
	v.With("0").Add(2)
	v.With("1").Add(7)
	for i := 0; i < 100; i++ {
		h.Observe(1500) // second bucket (bound 2000)
	}

	s1 := r.Snapshot()
	if s1.Counters["c_total"] != 5 || s1.Gauges["g"] != 3 {
		t.Fatalf("scalar snapshot wrong: %+v", s1)
	}
	if s1.Vecs["v_total"]["0"] != 2 || s1.Vecs["v_total"]["1"] != 7 {
		t.Fatalf("vec snapshot wrong: %+v", s1.Vecs)
	}
	hs := s1.Hists["h_seconds"]
	if hs.Count != 100 || hs.Sum != 150000 || hs.P50 != 2000 || hs.P99 != 2000 {
		t.Fatalf("hist snapshot wrong: %+v", hs)
	}

	c.Add(10)
	g.Set(1)
	v.With("1").Add(3)
	v.With("2").Inc() // series born after s1
	h.Observe(1_000_000)

	d := r.Snapshot().Sub(s1)
	if d.Counters["c_total"] != 10 {
		t.Fatalf("counter delta = %d, want 10", d.Counters["c_total"])
	}
	if d.Gauges["g"] != 1 {
		t.Fatalf("gauge keeps point-in-time value, got %d", d.Gauges["g"])
	}
	if d.Vecs["v_total"]["0"] != 0 || d.Vecs["v_total"]["1"] != 3 || d.Vecs["v_total"]["2"] != 1 {
		t.Fatalf("vec delta wrong: %+v", d.Vecs["v_total"])
	}
	dh := d.Hists["h_seconds"]
	if dh.Count != 1 || dh.Sum != 1_000_000 {
		t.Fatalf("hist delta wrong: %+v", dh)
	}
}
