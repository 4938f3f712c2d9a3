package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"time"
)

// Tracing from outside. The program has no spans of its own yet, so
// the traced pass replays each sampled op at three altitudes, all on
// the same statement and the same rows:
//
//	client  the op through the client library — what a user sees
//	engine  the same statements through an in-process session: no
//	        socket, no frames, no client
//	layers  the isolated calls into exported layer functions that the
//	        statements make: index seek, heap get or scan, Label
//	        Confinement, predicate evaluation, ROWS encode and decode
//
// A span's parent is the altitude it is part of: the engine span is a
// child of the client span, an index seek a child of the engine span,
// a ROWS encode a child of the client span (the server encodes after
// the engine has produced the rows). Self time is a span's duration
// minus its children's, so client self time is what client, wire and
// server add around the engine, and engine self time is what the
// isolated calls do not explain (plan-cache lookup, iterators,
// transaction begin and commit).
//
// The altitudes run one after another, so start_ns and end_ns are the
// times of each replay, not of nested execution. A child that is a
// strict part of its parent's work can still measure longer on a noisy
// host; it is then measured again (up to layerRetries times, keeping
// the fastest), and an op whose children still exceed a parent is left
// out of the span file and counted in trace.ops_dropped.

// layerCall is one isolated call into a layer, repeated n times (n
// tuples scanned, n labels checked) inside one span.
type layerCall struct {
	name string // span name, e.g. "label.flows"
	// parent is "engine" or "client" — or "parallel" for work that
	// overlaps its op instead of being a step of it (the client
	// decoding one chunk while the server produces the next): such a
	// span is a root of its own and takes nothing from any parent.
	parent string
	n      int
	fn     func()
}

// layered is what a twin implements to be traced.
type layered interface {
	// engineDo runs op i of the prepared round in-process. Workloads
	// that are already in-process return false: there is no lower
	// altitude, and their layer calls hang off the client span.
	engineDo(i int) (ran bool, err error)
	// layerCalls lists the isolated calls behind op i.
	layerCalls(i int) []layerCall
}

const layerRetries = 3

// span is one line of the span file.
type span struct {
	OpID    int    `json:"op_id"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: root
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the tracer started
	EndNs   int64  `json:"end_ns"`
	N       int    `json:"n,omitempty"` // calls inside the span
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tracer keeps spans in memory and writes them out at exit.
type tracer struct {
	t0      time.Time
	spans   []span
	nextID  int
	dropped int
	// emptyNs is what an empty span measures: the clock's own cost,
	// taken off a span before it is divided into a per-call time.
	emptyNs float64
}

func newTracer() *tracer {
	tr := &tracer{t0: time.Now()}
	empty := make([]float64, 1001)
	for i := range empty {
		empty[i] = float64(tr.timed(0, "", 0, func() {}).dur())
	}
	tr.emptyNs = median(empty)
	tr.nextID = 0
	return tr
}

// timed runs fn inside a span that is not yet kept.
func (tr *tracer) timed(op int, name string, n int, fn func()) span {
	tr.nextID++
	s := span{OpID: op, ID: tr.nextID, Name: name, N: n, StartNs: int64(time.Since(tr.t0))}
	fn()
	s.EndNs = int64(time.Since(tr.t0))
	return s
}

// traceOp replays op i of tw's prepared round at every altitude and
// keeps its spans if they form a tree whose children fit their
// parents. It returns the client-altitude result and that span's
// duration.
func (tr *tracer) traceOp(tw twin, opID, i int) (res opResult, clientNs int64) {
	client := tr.timed(opID, "client", 1, func() { res = tw.do(i) })
	lt, ok := tw.(layered)
	if !ok {
		tr.spans = append(tr.spans, client)
		return res, client.dur()
	}
	kept := []span{client}
	ids := map[string]int{"client": client.ID}
	budget := map[string]int64{"client": client.dur()}
	var engineErr error
	ran := false
	engine := tr.refit(client.dur(), func() span {
		return tr.timed(opID, "engine", 1, func() { ran, engineErr = lt.engineDo(i) })
	})
	if engineErr != nil {
		res.failed = true
	}
	if ran {
		engine.Parent = client.ID
		kept = append(kept, engine)
		ids["engine"], budget["engine"] = engine.ID, engine.dur()
		budget["client"] -= engine.dur()
	}
	fits := budget["client"] >= 0
	for _, lc := range lt.layerCalls(i) {
		lc := lc
		if lc.parent == "parallel" {
			kept = append(kept, tr.timed(opID, lc.name, lc.n, lc.fn))
			continue
		}
		pname := lc.parent
		if _, ok := ids[pname]; !ok {
			pname = "client"
		}
		s := tr.refit(budget[pname], func() span { return tr.timed(opID, lc.name, lc.n, lc.fn) })
		s.Parent = ids[pname]
		budget[pname] -= s.dur()
		fits = fits && budget[pname] >= 0
		kept = append(kept, s)
	}
	if fits {
		tr.spans = append(tr.spans, kept...)
	} else {
		tr.dropped++
	}
	return res, client.dur()
}

// refit measures a child again while it exceeds what is left of its
// parent, keeping the fastest attempt.
func (tr *tracer) refit(budget int64, measure func() span) span {
	best := measure()
	for try := 1; try < layerRetries && best.dur() > budget; try++ {
		if s := measure(); s.dur() < best.dur() {
			best = s
		}
	}
	return best
}

// write saves the spans as JSON lines.
func (tr *tracer) write(dir, workload string) (string, error) {
	path := filepath.Join(dir, workload+".trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// selfTimes returns, per span name, each kept op's self time in ns
// (duration minus children) — and perCall, duration ÷ n, for the layer
// spans.
func (tr *tracer) selfTimes() (self, perCall map[string][]float64) {
	self, perCall = map[string][]float64{}, map[string][]float64{}
	children := map[int]int64{}
	for _, s := range tr.spans {
		children[s.Parent] += s.dur()
	}
	for _, s := range tr.spans {
		self[s.Name] = append(self[s.Name], float64(s.dur()-children[s.ID]))
		if s.N > 0 {
			perCall[s.Name] = append(perCall[s.Name], math.Max(0, float64(s.dur())-tr.emptyNs)/float64(s.N))
		}
	}
	return self, perCall
}
