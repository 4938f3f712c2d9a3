package sim

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Exec executes one scheduled operation. lap is the schedule cycle
// (0 on the first pass); executors pass it to LapArgs so cycled
// inserts stay unique. Returning an error counts a failure; the runner
// keeps going.
type Exec func(op *Op, lap int) error

// Options controls a Run.
type Options struct {
	// Duration is the wall-clock budget. Zero means one pass over the
	// schedule; nonzero stops issuing new ops once elapsed.
	Duration time.Duration
	// Loop cycles the schedule (with an incrementing lap) until
	// Duration elapses. Requires Duration > 0.
	Loop bool
}

// CohortStats aggregates one cohort's outcomes across workers.
type CohortStats struct {
	// Ops counts completed operations (successes and failures).
	Ops int64
	// Failures counts operations whose Exec returned an error.
	Failures int64
	// LatenciesUs holds one sample per successful op, sorted
	// ascending. Closed loop: service time. Open loop: sojourn time
	// (completion minus scheduled arrival), which includes the queueing
	// delay an open arrival process exists to expose.
	LatenciesUs []int64
}

// Percentile returns the q-quantile (0 < q ≤ 1) of the sorted latency
// samples, or 0 with no samples.
func (cs *CohortStats) Percentile(q float64) int64 {
	if len(cs.LatenciesUs) == 0 {
		return 0
	}
	i := int(q*float64(len(cs.LatenciesUs))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(cs.LatenciesUs) {
		i = len(cs.LatenciesUs) - 1
	}
	return cs.LatenciesUs[i]
}

// Stats is a Run's outcome.
type Stats struct {
	// Elapsed is the wall-clock time from first issue to last
	// completion.
	Elapsed time.Duration
	// Cohorts maps cohort name to its aggregated stats. Every cohort
	// in the workload appears, even with zero ops.
	Cohorts map[string]*CohortStats
}

// TotalOps sums completed ops across cohorts.
func (st *Stats) TotalOps() int64 {
	var n int64
	for _, cs := range st.Cohorts {
		n += cs.Ops
	}
	return n
}

// TotalFailures sums failures across cohorts.
func (st *Stats) TotalFailures() int64 {
	var n int64
	for _, cs := range st.Cohorts {
		n += cs.Failures
	}
	return n
}

// Run drives the schedule with one goroutine per workload worker.
// Worker i executes exactly the ops with Op.Worker == i, in schedule
// order — so a replayed trace runs the same ops on the same slots in
// the same per-slot order every time. Under the open loops each op
// additionally waits for its arrival offset, turning the schedule's
// virtual timeline into wall-clock offered load.
//
// exec is called concurrently from all workers and must be safe for
// that (one connection per worker is the usual shape).
func Run(s *Schedule, opts Options, exec Exec) (*Stats, error) {
	if opts.Loop && opts.Duration <= 0 {
		return nil, fmt.Errorf("sim: Loop requires Duration > 0")
	}
	span := s.Span()
	if opts.Loop && s.W.Arrival != ArrivalClosed && span <= 0 {
		return nil, fmt.Errorf("sim: cannot loop an open-loop schedule with no duration")
	}

	// Partition ops by worker once, preserving schedule order.
	parts := make([][]*Op, s.W.Workers)
	for i := range s.Ops {
		op := &s.Ops[i]
		parts[op.Worker] = append(parts[op.Worker], op)
	}

	locals := make([]map[string]*CohortStats, s.W.Workers)
	start := time.Now()
	deadline := time.Time{}
	if opts.Duration > 0 {
		deadline = start.Add(opts.Duration)
	}

	var wg sync.WaitGroup
	for wi := 0; wi < s.W.Workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			local := map[string]*CohortStats{}
			locals[wi] = local
			for lap := 0; ; lap++ {
				for _, op := range parts[wi] {
					if !deadline.IsZero() && time.Now().After(deadline) {
						return
					}
					issued := time.Now()
					if op.At > 0 {
						due := start.Add(time.Duration(int64(lap)*int64(span) + op.At))
						if d := time.Until(due); d > 0 {
							time.Sleep(d)
						}
						issued = due
					}
					err := exec(op, lap)
					cs := local[op.Cohort]
					if cs == nil {
						cs = &CohortStats{}
						local[op.Cohort] = cs
					}
					cs.Ops++
					if err != nil {
						cs.Failures++
					} else {
						cs.LatenciesUs = append(cs.LatenciesUs, time.Since(issued).Microseconds())
					}
				}
				if !opts.Loop {
					return
				}
			}
		}(wi)
	}
	wg.Wait()

	st := &Stats{Elapsed: time.Since(start), Cohorts: map[string]*CohortStats{}}
	for _, c := range s.W.Cohorts {
		st.Cohorts[c.Name] = &CohortStats{}
	}
	for _, local := range locals {
		for name, cs := range local {
			agg := st.Cohorts[name]
			agg.Ops += cs.Ops
			agg.Failures += cs.Failures
			agg.LatenciesUs = append(agg.LatenciesUs, cs.LatenciesUs...)
		}
	}
	for _, cs := range st.Cohorts {
		sort.Slice(cs.LatenciesUs, func(i, j int) bool { return cs.LatenciesUs[i] < cs.LatenciesUs[j] })
	}
	return st, nil
}
