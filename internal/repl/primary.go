// Package repl implements WAL log shipping: physical replication of
// an IFDB primary to read-only followers over the wire layer's framed
// protocol.
//
// Primary side (this file): wire.Server's Replicate hook on a node's
// client port, serving the write-ahead log from whatever LSN a
// follower presents — reading retained log bytes from disk, then
// tailing live appends through a wal subscription. A follower whose
// position has been truncated away (or a fresh one, position 0) first
// receives a basebackup: the checkpoint snapshot plus every disk
// table's checksummed pages, produced under the checkpoint lock.
//
// Follower side (follower.go): opens its own DataDir, recovers, and
// applies the stream continuously through the engine's replica mode.
//
// The package's two safety invariants:
//
//   - ship-only-durable (wal.ShipLimit): only fsynced log bytes ship,
//     so a follower can never apply a commit the primary could still
//     lose to a crash — a failed-over replica never shows state the
//     primary did not acknowledge;
//   - epoch fencing: every hello and every shipped batch carries the
//     promotion epoch, and LSNs are only comparable within one epoch
//     chain. A follower from a newer epoch proves this primary is the
//     stale side of a failover — its hello is refused AND the engine's
//     write side is fenced (direct client writes stop); a follower
//     from an older epoch may carry history the failover cut
//     discarded, so it is forced through a basebackup.
//
// See ARCHITECTURE.md § Replication (stream protocol, LSN handoff,
// retention) and § Failover & epochs (the fencing rules in full).
package repl

import (
	"bufio"
	"crypto/subtle"
	"fmt"
	"log/slog"
	"net"
	"sync/atomic"
	"time"

	"ifdb/internal/engine"
	"ifdb/internal/obs"
	"ifdb/internal/wal"
	"ifdb/internal/wire"
)

// sendChunk bounds one ReplFile / ReplRecs payload. Well under
// wire.MaxFrame; big enough to amortize framing.
const sendChunk = 1 << 20

// tailPoll bounds how long a caught-up sender sleeps between wakeup
// checks (subscription signals normally wake it much sooner).
const tailPoll = 250 * time.Millisecond

// Primary serves the replication stream over an engine's WAL. It owns
// no listener: Stream is the Replicate hook of the node's wire.Server.
type Primary struct {
	eng   *engine.Engine
	token string

	// Logger, when set, receives connection and stream diagnostics.
	Logger *slog.Logger

	// Basebackups counts full state transfers served (monitoring: a
	// climbing count means followers keep falling off the retained
	// log).
	Basebackups atomic.Int64
}

// NewPrimary creates a replication handler over eng (which must have a
// DataDir). token guards the stream, like the platform token: a
// replica receives every tuple regardless of label, so it must be part
// of the trusted base. Empty accepts anyone (tests, local examples).
func NewPrimary(eng *engine.Engine, token string) *Primary {
	return &Primary{eng: eng, token: token}
}

func (p *Primary) logger() *slog.Logger {
	if p.Logger != nil {
		return p.Logger
	}
	return obs.Nop()
}

// bail sends a fatal ReplErr before hanging up.
func bail(w *bufio.Writer, msg string) {
	_ = wire.WriteFrame(w, wire.MsgReplErr, (&wire.ReplErr{Msg: msg}).Encode())
	_ = w.Flush()
}

// Stream serves one follower whose hello has been read from r, until
// the connection drops; the caller owns conn and closes it. A replica
// refuses (no cascading replication) until it is promoted, and from
// then on serves on the same address.
func (p *Primary) Stream(conn net.Conn, r *bufio.Reader, hello *wire.ReplHello) {
	w := bufio.NewWriterSize(conn, 64<<10)
	if p.token != "" && subtle.ConstantTimeCompare([]byte(hello.Token), []byte(p.token)) != 1 {
		bail(w, "repl: bad token")
		return
	}
	wlog := p.eng.WAL()
	if wlog == nil {
		bail(w, "repl: primary has no WAL (no DataDir)")
		return
	}
	if p.eng.IsReplica() {
		bail(w, "repl: this node is a replica; it serves followers once promoted")
		return
	}
	// Epoch fencing. A primary's epoch is fixed for its lifetime
	// (promotion bumps it before the replica flag clears), so read it
	// once and stamp every frame with it.
	epoch := wlog.Epoch()
	from := wal.LSN(hello.From)
	switch {
	case hello.Epoch > epoch:
		// The follower streamed under a newer epoch: somewhere a
		// replica was promoted and this primary never heard — it is the
		// stale side of a failover. Refusing is the fence: accepting
		// would let a split brain feed an up-to-date replica. And since
		// the hello just *proved* a newer epoch exists, fence the write
		// side too: direct client writes stop landing in this doomed
		// history (they were previously accepted until the operator
		// stopped the node — the ROADMAP's write-side epoch check).
		p.eng.FenceWrites(hello.Epoch)
		p.logger().Warn("repl: fenced by follower hello; client writes now refused",
			"follower_epoch", hello.Epoch, "local_epoch", epoch)
		bail(w, fmt.Sprintf("repl: fenced: follower at epoch %d, this primary at stale epoch %d", hello.Epoch, epoch))
		return
	case hello.Epoch < epoch:
		// The follower's history predates a promotion this primary's
		// chain went through (typically: it *is* the old primary,
		// rejoining). Its byte position may cover writes the failover
		// cut discarded, so the position is meaningless here — force a
		// full re-bootstrap.
		from = 0
	default:
		if from > wlog.End() {
			// Same epoch but ahead of us: it replicated a different
			// history (or we were restored from an older backup).
			// Refusing beats silently diverging.
			bail(w, "repl: follower position ahead of primary log")
			return
		}
	}

	// Subscribe before deciding how to start: from here on, checkpoint
	// truncation cannot outrun this stream.
	sub := wlog.Subscribe(from)
	defer sub.Close()

	// A connection-reader goroutine turns a follower hangup into a
	// wakeup (followers send nothing after the hello).
	connDone := make(chan struct{})
	go func() {
		defer close(connDone)
		for {
			if _, err := r.ReadByte(); err != nil {
				return
			}
		}
	}()

	if from < wlog.Base() && from >= wlog.TruncatedStateLSN() {
		// The follower's position was truncated away, but everything
		// it missed was state-free checkpoint markers (the shape a
		// clean restart leaves): fast-forward it to the retained base
		// instead of re-bootstrapping.
		from = wlog.Base()
		sub.Advance(from)
	}
	if from < wlog.Base() {
		// Position truncated away (or fresh follower): basebackup.
		// Park the subscription far ahead so the backup's own
		// checkpoint may truncate the log and hand us a short stream.
		p.Basebackups.Add(1)
		mBasebackups.Inc()
		sub.Advance(1 << 62)
		if err := wire.WriteFrame(w, wire.MsgReplSnap, nil); err != nil {
			return
		}
		start, err := p.eng.Basebackup(func(name string, data []byte) error {
			for off := 0; ; off += sendChunk {
				end := off + sendChunk
				if end > len(data) {
					end = len(data)
				}
				f := &wire.ReplFile{Name: name, Data: data[off:end]}
				if err := wire.WriteFrame(w, wire.MsgReplFile, f.Encode()); err != nil {
					return err
				}
				if end == len(data) {
					return w.Flush()
				}
			}
		}, sub.Advance) // re-pin under the checkpoint lock: no later
		// checkpoint may truncate past the backup's start before we
		// begin streaming from it
		if err != nil {
			p.logger().Error("repl: basebackup failed", "err", err)
			bail(w, "repl: basebackup failed: "+err.Error())
			return
		}
		from = start
		e := &wire.ReplSnapEnd{Start: uint64(from), Epoch: epoch}
		if err := wire.WriteFrame(w, wire.MsgReplSnapEnd, e.Encode()); err != nil {
			return
		}
	} else {
		ok := &wire.ReplOK{Resume: uint64(from), Epoch: epoch}
		if err := wire.WriteFrame(w, wire.MsgReplOK, ok.Encode()); err != nil {
			return
		}
	}
	if err := w.Flush(); err != nil {
		return
	}

	// Stream: retained bytes first, then tail live appends.
	ticker := time.NewTicker(tailPoll)
	defer ticker.Stop()
	for {
		if sub.Dropped() {
			// A checkpoint dropped this subscription for exceeding the
			// retained-WAL budget: the bytes this follower still needs
			// are gone. Tell it why before hanging up; it re-bootstraps.
			p.logger().Warn("repl: follower exceeded the retained-WAL budget; dropping", "from", uint64(from))
			bail(w, "repl: follower exceeded the retained-WAL budget; re-bootstrap required")
			return
		}
		raw, next, err := wlog.ReadRaw(from, sendChunk)
		if err != nil {
			// ErrPositionGone cannot normally happen while subscribed;
			// treat any read error as fatal for this connection.
			p.logger().Error("repl: log read failed", "from", uint64(from), "err", err)
			bail(w, "repl: "+err.Error())
			return
		}
		if len(raw) == 0 {
			select {
			case <-sub.C:
			case <-ticker.C:
			case <-connDone:
				return
			}
			continue
		}
		rr := &wire.ReplRecs{From: uint64(from), To: uint64(next), Epoch: epoch, Data: raw}
		if err := wire.WriteFrame(w, wire.MsgReplRecs, rr.Encode()); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
		mBytesShipped.Add(int64(len(raw)))
		gLagBytes.Set(int64(wlog.End() - next))
		from = next
		sub.Advance(from)
	}
}
