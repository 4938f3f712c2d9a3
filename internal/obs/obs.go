// Package obs is the zero-dependency observability substrate: a
// process-wide metrics registry (atomic counters, gauges, and
// log-bucketed latency histograms), a Prometheus text-format encoder,
// leveled slog helpers with a dedicated audit channel, and the trace
// IDs that ride the wire protocol from client to slow-query log.
//
// Metrics are registered by package-level var declarations in the
// instrumented packages, so every series a binary can emit appears in
// /metrics from the first scrape (at zero) rather than materializing
// on first use. Registration is get-or-create: asking twice for the
// same name returns the same collector, which keeps tests and
// multi-instance processes (the bench harness opens many engines)
// well-defined — counters aggregate across instances.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that can move both ways.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// CounterVec is a family of counters distinguished by one label
// (e.g. per-shard routing counts).
type CounterVec struct {
	name  string
	label string
	mu    sync.Mutex
	kids  map[string]*Counter
}

// With returns the counter for one label value, creating it on first
// use.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.kids[value]
	if !ok {
		c = &Counter{name: v.name}
		v.kids[value] = c
	}
	return c
}

// snapshot returns label values in sorted order with their counters.
func (v *CounterVec) snapshot() ([]string, []*Counter) {
	v.mu.Lock()
	defer v.mu.Unlock()
	keys := make([]string, 0, len(v.kids))
	for k := range v.kids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Counter, len(keys))
	for i, k := range keys {
		out[i] = v.kids[k]
	}
	return keys, out
}

// Registry holds every registered collector. The package-level
// Default registry is what the instrumented packages use and what the
// /metrics endpoint serves.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	vecs     map[string]*CounterVec
	help     map[string]string
}

// NewRegistry returns an empty registry (tests; production code uses
// Default).
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		vecs:     map[string]*CounterVec{},
		help:     map[string]string{},
	}
}

// Default is the process-wide registry.
var Default = NewRegistry()

// Counter returns the counter registered under name, creating it with
// the given help text on first call.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	r.help[name] = help
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// call.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	r.help[name] = help
	return g
}

// CounterVec returns the one-label counter family registered under
// name, creating it on first call.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vecs[name]; ok {
		return v
	}
	v := &CounterVec{name: name, label: label, kids: map[string]*Counter{}}
	r.vecs[name] = v
	r.help[name] = help
	return v
}

// Histogram returns the histogram registered under name, creating it
// on first call. base is the upper bound of the first bucket; each
// subsequent bucket doubles it. scale converts stored values to the
// exposition unit (1e-9 turns nanoseconds into seconds; 1 leaves
// counts as counts).
func (r *Registry) Histogram(name, help string, base int64, scale float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{name: name, base: base, scale: scale}
	r.hists[name] = h
	r.help[name] = help
	return h
}

// NewCounter registers a counter in the Default registry.
func NewCounter(name, help string) *Counter { return Default.Counter(name, help) }

// NewGauge registers a gauge in the Default registry.
func NewGauge(name, help string) *Gauge { return Default.Gauge(name, help) }

// NewCounterVec registers a one-label counter family in the Default
// registry.
func NewCounterVec(name, help, label string) *CounterVec {
	return Default.CounterVec(name, help, label)
}

// NewDurationHistogram registers a nanosecond-valued histogram whose
// first bucket tops out at 1µs and whose exposition unit is seconds.
func NewDurationHistogram(name, help string) *Histogram {
	return Default.Histogram(name, help, 1000, 1e-9)
}

// NewSizeHistogram registers a histogram over plain counts (batch
// sizes, fan-out widths): first bucket ≤ 1, doubling.
func NewSizeHistogram(name, help string) *Histogram {
	return Default.Histogram(name, help, 1, 1)
}
