// Log shipping: the primary-side APIs replication is built on.
//
// A replica stream is raw log bytes — whole frames, CRC and all —
// copied from the primary's log file starting at a logical LSN. The
// frame CRCs therefore protect records end to end: what the follower
// decodes is bit-identical to what the primary's committers appended.
// Only durable bytes are shipped (except in SyncOff mode, where
// nothing ever is durable and the stream follows the written edge —
// the append edge less whatever is still in the log buffer): a
// follower must never apply a commit the primary could still lose.
//
// Subscriptions serve two purposes: they wake tailing senders when the
// shippable region grows, and they pin the log — Checkpoint skips file
// truncation while any subscriber still needs bytes below the end, the
// single-file analogue of PostgreSQL's replication slots.
package wal

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// ErrPositionGone is returned by ReadRaw when the requested LSN
// precedes the oldest record still in the log file (a checkpoint
// truncated it away). The caller must fall back to a full state
// transfer (basebackup).
var ErrPositionGone = fmt.Errorf("wal: position predates retained log")

// Base returns the oldest logical LSN still present in the log file.
func (w *Writer) Base() LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.base
}

// DurableLSN returns the highest LSN covered by a completed fsync.
func (w *Writer) DurableLSN() LSN {
	w.gmu.Lock()
	defer w.gmu.Unlock()
	return w.durable
}

// LastStateLSN returns the position just past the newest record that
// carries database state.
func (w *Writer) LastStateLSN() LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastState
}

// TruncatedStateLSN returns the state floor of the truncated history:
// every state-carrying record below Base ends at or before it. A
// replica whose position is at or past this value (but below Base)
// missed only checkpoint markers — the shape a clean primary restart
// leaves — and may fast-forward to Base instead of re-bootstrapping.
func (w *Writer) TruncatedStateLSN() LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.truncState
}

// SetRetainBudget caps how many log bytes a lagging subscription may
// pin against checkpoint truncation. When a checkpoint finds a
// subscription more than budget bytes behind the append edge, the
// subscription is dropped (Dropped reports true, its channel is
// signalled) and the log truncates; the follower behind it must
// re-bootstrap via basebackup. Zero (the default) retains the log for
// every subscriber indefinitely.
func (w *Writer) SetRetainBudget(bytes int64) { w.retainBudget.Store(bytes) }

// ShipLimit returns the LSN up to which records may be shipped to a
// replica: the durable horizon, or in SyncOff mode (where no fsync ever
// runs and "durable" is meaningless) the append edge, with the log
// buffer written out first so that every byte below the answer is in
// the file. If that write fails the answer is the edge it left.
func (w *Writer) ShipLimit() LSN {
	if w.mode != SyncOff {
		return w.DurableLSN()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	_ = w.flushLocked() // the failure is the next Append's to report
	return w.end - LSN(len(w.buf))
}

// ReadRaw copies whole frames from the log, starting at logical LSN
// from, up to roughly maxBytes (always at least one frame when any is
// shippable). It returns the raw bytes, the LSN just past them, and —
// when from has been truncated away — ErrPositionGone. An empty result
// with next == from means the stream is caught up; wait on a
// Subscription and retry.
func (w *Writer) ReadRaw(from LSN, maxBytes int) ([]byte, LSN, error) {
	if maxBytes < 64 {
		maxBytes = 64
	}
	limit := w.ShipLimit()
	w.mu.Lock()
	defer w.mu.Unlock()
	if from < w.base {
		return nil, from, fmt.Errorf("%w: want %d, base %d", ErrPositionGone, from, w.base)
	}
	if written := w.end - LSN(len(w.buf)); limit > written {
		// Appends since ShipLimit answered may sit in the log buffer;
		// never read past the written edge.
		limit = written
	}
	if from >= limit {
		return nil, from, nil
	}
	n := int(limit - from)
	if n > maxBytes {
		n = maxBytes
	}
	buf := make([]byte, n)
	if _, err := w.f.ReadAt(buf, w.fileOff(from)); err != nil {
		return nil, from, fmt.Errorf("wal: read at %d: %w", from, err)
	}
	// Trim to whole frames. If even the first frame overflows the
	// budget, reread exactly that frame: progress beats the budget.
	off := 0
	for off+8 <= len(buf) {
		plen := int(binary.LittleEndian.Uint32(buf[off:]))
		if plen <= 0 || off+8+plen > len(buf) {
			break
		}
		off += 8 + plen
	}
	if off == 0 {
		if len(buf) < 8 {
			return nil, from, nil
		}
		plen := int(binary.LittleEndian.Uint32(buf[0:]))
		if plen <= 0 || from+LSN(8+plen) > limit {
			return nil, from, nil
		}
		buf = make([]byte, 8+plen)
		if _, err := w.f.ReadAt(buf, w.fileOff(from)); err != nil {
			return nil, from, fmt.Errorf("wal: read at %d: %w", from, err)
		}
		off = len(buf)
	}
	return buf[:off], from + LSN(off), nil
}

// DecodeFrames decodes a run of raw frames as shipped by ReadRaw.
// base is the logical LSN of the first frame (records carry their
// primary-side LSNs). Unlike a crash-tail scan, shipped bytes must be
// whole, intact frames: any tear or CRC mismatch is an error.
func DecodeFrames(buf []byte, base LSN) ([]Record, error) {
	var recs []Record
	if _, err := EachFrame(buf, base, func(r *Record) error {
		recs = append(recs, *r)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("shipped batch: %w", err)
	}
	return recs, nil
}

// AppendRaw appends pre-framed bytes verbatim — whole frames shipped
// from a primary, already CRC-verified by DecodeFrames. The replica
// uses it to persist a shipped batch in one write, keeping the
// primary's frame bytes (and CRCs) bit-identical in its own log. Like
// a record that is no transaction body, the batch is in the file when
// AppendRaw returns, and withdrawn if the write fails.
func (w *Writer) AppendRaw(frames []byte) (LSN, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	lsn, lastState := w.end, w.lastState
	if len(frames) == 0 {
		return lsn, nil
	}
	w.buf = append(w.buf, frames...)
	w.end += LSN(len(frames))
	w.lastState = w.end // shipped batches carry state; be conservative
	if err := w.flushLocked(); err != nil {
		w.withdrawLocked(lsn, lastState)
		return 0, err
	}
	return lsn, nil
}

// ---------------------------------------------------------------------------
// Subscriptions

// Subscription is a replica sender's handle on the log: a wakeup
// channel signalled whenever the shippable region may have grown, and
// a position that pins the log file against checkpoint truncation.
type Subscription struct {
	w *Writer
	// C receives a (coalesced) signal after appends and durability
	// advances. Spurious wakeups are possible; consumers re-check
	// ReadRaw and wait again.
	C chan struct{}

	pos     atomic.Uint64
	closed  atomic.Bool
	dropped atomic.Bool
}

// Subscribe registers a subscription whose consumer has shipped
// everything before from.
func (w *Writer) Subscribe(from LSN) *Subscription {
	s := &Subscription{w: w, C: make(chan struct{}, 1)}
	s.pos.Store(uint64(from))
	w.smu.Lock()
	w.subs[s] = true
	w.smu.Unlock()
	return s
}

// Advance records that the consumer has shipped everything before lsn,
// releasing the log below it for truncation.
func (s *Subscription) Advance(lsn LSN) { s.pos.Store(uint64(lsn)) }

// Pos returns the subscription's current position.
func (s *Subscription) Pos() LSN { return LSN(s.pos.Load()) }

// Dropped reports whether a checkpoint dropped this subscription for
// exceeding the retained-WAL budget. The sender must stop streaming:
// the bytes it still needed are gone, and its follower has to
// re-bootstrap.
func (s *Subscription) Dropped() bool { return s.dropped.Load() }

// Close unregisters the subscription; the log is no longer pinned.
func (s *Subscription) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.w.smu.Lock()
	delete(s.w.subs, s)
	s.w.smu.Unlock()
}

// notifySubs signals every subscription (non-blocking; the channel
// coalesces).
func (w *Writer) notifySubs() {
	w.smu.Lock()
	for s := range w.subs {
		select {
		case s.C <- struct{}{}:
		default:
		}
	}
	w.smu.Unlock()
}

// minSubPos returns the lowest live (non-dropped) subscriber position
// and whether any exists. Caller may hold mu (smu is independent).
func (w *Writer) minSubPos() (LSN, bool) {
	w.smu.Lock()
	defer w.smu.Unlock()
	var min LSN
	found := false
	for s := range w.subs {
		if s.Dropped() {
			continue
		}
		p := s.Pos()
		if !found || p < min {
			min, found = p, true
		}
	}
	return min, found
}

// dropSubsBelow marks every subscription positioned below lsn as
// dropped — it no longer pins the log — and wakes it so its sender
// notices promptly. Caller may hold mu.
func (w *Writer) dropSubsBelow(lsn LSN) {
	w.smu.Lock()
	defer w.smu.Unlock()
	for s := range w.subs {
		if s.Pos() < lsn && !s.dropped.Swap(true) {
			select {
			case s.C <- struct{}{}:
			default:
			}
		}
	}
}
