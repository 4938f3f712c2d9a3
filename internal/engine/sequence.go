package engine

import (
	"fmt"
	"sort"
	"sync"

	"ifdb/internal/types"
)

// Labeled sequences.
//
// The paper leaves sequences as future work: "we are also interested
// in how to incorporate other SQL abstractions, such as sequences,
// into the IFDB model without introducing covert channels" (§10). The
// covert channel is the counter itself: if nextval() drew from one
// shared counter, a public process could watch the counter jump and
// learn that some secret process allocated ids — the same class of
// channel as the tuple-allocation ordering of §7.3.
//
// The design here partitions every sequence by the *exact* process
// label: nextval(seq) draws from the counter for the calling process's
// current label. Counters for different labels are independent, so
// observing any one partition reveals only allocations by processes at
// that same label — which could already communicate freely. The cost
// is that sequence values are unique per (sequence, label) rather than
// globally; applications that need global uniqueness combine the value
// with a tag id, exactly as they must already cope with
// polyinstantiated keys (§5.2.1).
type sequence struct {
	mu       sync.Mutex
	counters map[string]int64 // label-key -> last value

	// recovered marks a sequence whose counters were rebuilt by crash
	// recovery before the application re-registered it; the next
	// CreateSequence call adopts it instead of erroring.
	recovered bool
}

// CreateSequence registers a sequence. Creating one requires nothing
// special: the sequence object itself carries no data. Sequences are
// registered from application code each run (like stored procedures),
// but their counters are durable: re-creating a sequence recovery
// already rebuilt adopts the recovered counters.
func (e *Engine) CreateSequence(name string) error {
	e.seqMu.Lock()
	defer e.seqMu.Unlock()
	if e.sequences == nil {
		e.sequences = make(map[string]*sequence)
	}
	if existing, dup := e.sequences[name]; dup {
		existing.mu.Lock()
		wasRecovered := existing.recovered
		existing.recovered = false
		existing.mu.Unlock()
		if wasRecovered {
			return nil
		}
		return fmt.Errorf("engine: sequence %q already exists", name)
	}
	e.sequences[name] = &sequence{counters: make(map[string]int64)}
	return nil
}

// nextval returns the next value of the named sequence in the calling
// session's label partition. Each allocation is WAL-logged so a
// recovered database never re-issues a value a committed transaction
// already consumed (durability rides on that transaction's fsync).
func (s *Session) nextval(name string) (types.Value, error) {
	// Allocation is a mutation: on a replica the stream owns the
	// counters (an unlogged local bump would collide with the value
	// the primary hands out next).
	if err := s.requireWritable(); err != nil {
		return types.Null, err
	}
	s.eng.seqMu.RLock()
	seq, ok := s.eng.sequences[name]
	s.eng.seqMu.RUnlock()
	if !ok {
		return types.Null, fmt.Errorf("engine: no sequence %q", name)
	}
	key := ""
	if s.eng.cfg.IFC {
		key = s.plabel.String()
	}
	seq.mu.Lock()
	seq.counters[key]++
	v := seq.counters[key]
	seq.mu.Unlock()
	s.eng.logSeqVal(name, key, v)
	return types.NewInt(v), nil
}

// restoreSeqVal replays one RecSeqVal record: counters only move
// forward, and the sequence is created (marked recovered) if the
// application has not re-registered it yet.
func (e *Engine) restoreSeqVal(name, key string, value int64) {
	e.seqMu.Lock()
	if e.sequences == nil {
		e.sequences = make(map[string]*sequence)
	}
	seq, ok := e.sequences[name]
	if !ok {
		seq = &sequence{counters: make(map[string]int64), recovered: true}
		e.sequences[name] = seq
	}
	e.seqMu.Unlock()
	seq.mu.Lock()
	if value > seq.counters[key] {
		seq.counters[key] = value
	}
	seq.mu.Unlock()
}

// eachSeqVal calls fn with every counter — the last value of one label
// partition of one sequence — sorted by sequence name and then by
// partition, for a checkpoint to capture as SEQVAL records.
func (e *Engine) eachSeqVal(fn func(name, key string, value int64)) {
	e.seqMu.RLock()
	defer e.seqMu.RUnlock()
	names := make([]string, 0, len(e.sequences))
	for n := range e.sequences {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		seq := e.sequences[n]
		seq.mu.Lock()
		keys := make([]string, 0, len(seq.counters))
		for k := range seq.counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fn(n, k, seq.counters[k])
		}
		seq.mu.Unlock()
	}
}
