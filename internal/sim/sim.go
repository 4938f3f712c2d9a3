// Package sim is the deterministic workload layer under ifdb-bench:
// seedable arrival-process generators (closed loop, open-loop Poisson,
// bursty/diurnal modulation), tenant cohorts with distinct IFC label
// mixes and statement mixes, and a replayable JSONL trace format.
//
// Determinism is the headline property: the same Workload (seed
// included) always generates the same Schedule, and recording a
// schedule to a trace twice produces byte-identical files — asserted
// by golden tests. That is what makes a benchmark number reproducible
// and a perf regression attributable: two PRs measured under the same
// seed ran the *same operations in the same order*, so the delta is
// the code, not the dice.
//
// The package deliberately knows nothing about connections or servers.
// A Schedule is data; Run drives it against any executor — a single
// Conn per worker, a replicated Router, a sharded Router — which is
// what lets one recorded trace replay against every topology.
package sim

import (
	"fmt"
	"time"
)

// Arrival names an arrival process.
const (
	// ArrivalClosed is the classic closed loop: each worker issues its
	// next operation as soon as the previous one completes. Offered
	// load tracks service rate, so it measures capacity, not queueing.
	ArrivalClosed = "closed"
	// ArrivalPoisson is an open loop: operations arrive on a Poisson
	// process at Workload.Rate regardless of completions, the way
	// independent users arrive. Latency under it includes queueing
	// delay, which the closed loop structurally cannot show.
	ArrivalPoisson = "poisson"
	// ArrivalBursty modulates the Poisson rate sinusoidally
	// (rate(t) = Rate·(1+BurstAmp·sin(2πt/BurstPeriod))) — a compressed
	// diurnal cycle. Tail latencies are made at the crest.
	ArrivalBursty = "bursty"
)

// OpKind is the statement class of one scheduled operation.
type OpKind string

const (
	// OpPointRead is a single-key SELECT.
	OpPointRead OpKind = "read"
	// OpPointWrite is a single-key UPDATE.
	OpPointWrite OpKind = "write"
	// OpInsert is a single-row INSERT (unique keys when
	// Workload.Keys == 0).
	OpInsert OpKind = "insert"
	// OpScan is a bounded range aggregate.
	OpScan OpKind = "scan"
	// OpDDL is a CREATE TABLE IF NOT EXISTS against a small rotating
	// set of per-cohort table names (idempotent, so cycling a schedule
	// stays clean).
	OpDDL OpKind = "ddl"
)

// valid reports whether k is one of the defined kinds.
func (k OpKind) valid() bool {
	switch k {
	case OpPointRead, OpPointWrite, OpInsert, OpScan, OpDDL:
		return true
	}
	return false
}

// Op is one scheduled operation — the unit a trace records and a
// runner executes. Fields are plain integers and strings so the JSONL
// encoding is byte-stable.
type Op struct {
	// Seq is the operation's position in the schedule (0-based,
	// dense). Validated on trace decode: a dropped line is an error,
	// not a silently shorter schedule.
	Seq int64 `json:"seq"`
	// At is the arrival offset from run start in nanoseconds. 0 under
	// the closed loop (issue when the worker is free); monotonically
	// nondecreasing under the open loops.
	At int64 `json:"at_ns"`
	// Worker is the executing worker slot (connection affinity).
	Worker int `json:"worker"`
	// Cohort names the issuing tenant cohort.
	Cohort string `json:"cohort"`
	// Kind is the statement class.
	Kind OpKind `json:"kind"`
	// Prepared asks the executor to run this op through a prepared
	// handle rather than inline/parameterized text.
	Prepared bool `json:"prepared,omitempty"`
	// SQL is the canonical parameterized statement text ($1-style).
	SQL string `json:"sql"`
	// Args are the integer arguments for SQL's placeholders.
	Args []int64 `json:"args,omitempty"`
}

// StmtMix weights the statement classes within a cohort. Weights are
// relative (they need not sum to anything); a zero mix is invalid.
type StmtMix struct {
	PointRead  int `json:"point_read,omitempty"`
	PointWrite int `json:"point_write,omitempty"`
	Insert     int `json:"insert,omitempty"`
	Scan       int `json:"scan,omitempty"`
	DDL        int `json:"ddl,omitempty"`
}

func (m StmtMix) total() int {
	return m.PointRead + m.PointWrite + m.Insert + m.Scan + m.DDL
}

// Cohort is one tenant class: a share of the traffic, an IFC label
// mix (tag names the harness resolves against each server), and a
// statement mix.
type Cohort struct {
	// Name identifies the cohort in ops, stats, and reports.
	Name string `json:"name"`
	// Weight is the cohort's relative share of arrivals.
	Weight int `json:"weight"`
	// Tags are the secrecy tag names forming the cohort's process
	// label. The generator records them; the executor resolves names
	// to tag IDs per server and runs the cohort's sessions
	// contaminated with them, so writes are stamped per-tenant and
	// Query by Label confines reads.
	Tags []string `json:"tags,omitempty"`
	// Mix weights the cohort's statement classes.
	Mix StmtMix `json:"mix"`
	// PreparedPct is the percentage of this cohort's ops flagged for
	// prepared-handle execution (the rest run as parameterized text,
	// or inline literals if the executor chooses).
	PreparedPct int `json:"prepared_pct,omitempty"`
}

// Workload is the full generator configuration. It is embedded in the
// trace header, so a replayed schedule carries its own provenance.
type Workload struct {
	// Seed drives every random choice. Same seed, same schedule.
	Seed int64 `json:"seed"`
	// Arrival picks the arrival process (ArrivalClosed if empty).
	Arrival string `json:"arrival"`
	// Workers is the number of executor slots ops are spread over.
	Workers int `json:"workers"`
	// Ops bounds the closed-loop schedule length. Ignored by the open
	// loops, whose length is Rate×Duration.
	Ops int `json:"ops,omitempty"`
	// Duration is the open-loop virtual time span.
	Duration time.Duration `json:"duration_ns,omitempty"`
	// Rate is the open-loop mean arrival rate (ops/sec).
	Rate float64 `json:"rate,omitempty"`
	// BurstAmp is the bursty modulation amplitude in [0,1)
	// (default 0.8): peak rate is Rate·(1+BurstAmp).
	BurstAmp float64 `json:"burst_amp,omitempty"`
	// BurstPeriod is the bursty modulation period (default
	// Duration/4).
	BurstPeriod time.Duration `json:"burst_period_ns,omitempty"`
	// Table is the target table name.
	Table string `json:"table"`
	// Keys is the per-cohort keyspace size for point ops. 0 means
	// unique ascending keys per worker (insert-only workloads).
	Keys int `json:"keys,omitempty"`
	// ScanSpan is the range width of OpScan (default 64 keys).
	ScanSpan int `json:"scan_span,omitempty"`
	// Cohorts are the tenant classes sharing the schedule.
	Cohorts []Cohort `json:"cohorts"`
}

// Generation limits: a misconfigured rate must fail loudly, not
// allocate without bound.
const (
	// MaxOps caps the number of operations one schedule may hold.
	MaxOps = 1 << 22
	// maxCohorts bounds the cohort list (also enforced on decode).
	maxCohorts = 4096
	// maxWorkers bounds worker slots (also enforced on decode).
	maxWorkers = 1 << 16
)

// CohortKeyStride separates cohort key domains: cohort i's point ops
// draw keys from [i·CohortKeyStride, i·CohortKeyStride+Keys). Distinct
// domains keep IFC write rules clean — a tenant only rewrites rows its
// own label stamped.
const CohortKeyStride = int64(1) << 20

// uniqueKeyStride separates per-worker unique-key ranges when
// Keys == 0.
const uniqueKeyStride = int64(1) << 40

// LapKeyStride offsets insert keys per schedule lap so cycling a
// finite schedule for a fixed wall-clock duration stays unique-key
// clean. See LapArgs.
const LapKeyStride = int64(1) << 32

// ddlTables is the size of the rotating per-cohort DDL table-name set.
const ddlTables = 16

// normalized fills defaults and validates. The returned Workload is
// what Generate uses and what the trace header records, so defaults
// are pinned at generation time and replay cannot drift.
func (w Workload) normalized() (Workload, error) {
	if w.Arrival == "" {
		w.Arrival = ArrivalClosed
	}
	switch w.Arrival {
	case ArrivalClosed, ArrivalPoisson, ArrivalBursty:
	default:
		return w, fmt.Errorf("sim: unknown arrival process %q", w.Arrival)
	}
	if w.Workers <= 0 || w.Workers > maxWorkers {
		return w, fmt.Errorf("sim: workers must be in [1,%d], got %d", maxWorkers, w.Workers)
	}
	if w.Table == "" {
		return w, fmt.Errorf("sim: empty table name")
	}
	if len(w.Cohorts) == 0 || len(w.Cohorts) > maxCohorts {
		return w, fmt.Errorf("sim: cohort count must be in [1,%d], got %d", maxCohorts, len(w.Cohorts))
	}
	seen := map[string]bool{}
	for i, c := range w.Cohorts {
		if c.Name == "" {
			return w, fmt.Errorf("sim: cohort %d has no name", i)
		}
		if seen[c.Name] {
			return w, fmt.Errorf("sim: duplicate cohort %q", c.Name)
		}
		seen[c.Name] = true
		if c.Weight <= 0 {
			return w, fmt.Errorf("sim: cohort %q weight must be positive", c.Name)
		}
		if c.Mix.total() <= 0 {
			return w, fmt.Errorf("sim: cohort %q has an empty statement mix", c.Name)
		}
		if c.PreparedPct < 0 || c.PreparedPct > 100 {
			return w, fmt.Errorf("sim: cohort %q prepared_pct out of [0,100]", c.Name)
		}
	}
	if w.ScanSpan <= 0 {
		w.ScanSpan = 64
	}
	switch w.Arrival {
	case ArrivalClosed:
		if w.Ops <= 0 {
			return w, fmt.Errorf("sim: closed loop needs ops > 0")
		}
		if w.Ops > MaxOps {
			return w, fmt.Errorf("sim: ops %d exceeds cap %d", w.Ops, MaxOps)
		}
	default:
		if w.Rate <= 0 || w.Duration <= 0 {
			return w, fmt.Errorf("sim: open loop needs rate > 0 and duration > 0")
		}
		if est := w.Rate * w.Duration.Seconds() * 2; est > MaxOps {
			return w, fmt.Errorf("sim: rate %.0f over %v could exceed the %d-op cap", w.Rate, w.Duration, MaxOps)
		}
		if w.Arrival == ArrivalBursty {
			if w.BurstAmp == 0 {
				w.BurstAmp = 0.8
			}
			if w.BurstAmp < 0 || w.BurstAmp >= 1 {
				return w, fmt.Errorf("sim: burst_amp must be in [0,1), got %g", w.BurstAmp)
			}
			if w.BurstPeriod <= 0 {
				w.BurstPeriod = w.Duration / 4
			}
		}
	}
	return w, nil
}

// Schedule is a generated (or replayed) operation sequence plus the
// normalized workload that produced it.
type Schedule struct {
	W   Workload
	Ops []Op
}

// Span is the schedule's virtual time extent: the open-loop Duration,
// or 0 for the closed loop (whose ops carry no arrival times).
func (s *Schedule) Span() time.Duration {
	if s.W.Arrival == ArrivalClosed {
		return 0
	}
	return s.W.Duration
}

// LapArgs returns the op's arguments adjusted for schedule lap: when
// a finite schedule is cycled to fill a wall-clock duration, insert
// keys are offset by lap·LapKeyStride so every lap inserts fresh keys.
// Other kinds return Args unchanged. The result aliases Args when no
// adjustment applies.
func (op *Op) LapArgs(lap int) []int64 {
	if lap == 0 || op.Kind != OpInsert || len(op.Args) == 0 {
		return op.Args
	}
	out := make([]int64, len(op.Args))
	copy(out, op.Args)
	out[0] += int64(lap) * LapKeyStride
	return out
}
