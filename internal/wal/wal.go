// Package wal implements the write-ahead log underneath the IFDB
// engine: an append-only file of CRC-protected, typed records that
// makes commits durable and the whole in-memory state (catalog,
// heaps, authority) reconstructible after a crash.
//
// The paper's prototype inherited durability from PostgreSQL's WAL;
// this package supplies the equivalent for the Go reproduction. The
// log is *logical*: it records tuple-level and catalog-level events
// (insert, xmax stamp, DDL statement, authority change) rather than
// page images, and recovery reads them in LSN order over the last
// checkpoint snapshot, applying a transaction's writes at its commit
// record. Replay is idempotent — a record whose
// effect is already present (because a dirty page was flushed, or the
// checkpoint raced the append) is skipped — so the engine may apply a
// mutation first and log it second without a global quiesce.
//
// Commit ordering: commit records are appended while the transaction
// manager holds its commit mutex, so log order equals commit-sequence
// order and an fsync at LSN L makes every commit at or before L
// durable. Group commit (SyncGroup) exploits exactly that prefix
// property: one leader fsyncs on behalf of every committer that
// appended while the previous fsync was in flight.
//
// The log is also the replication substrate (internal/repl ships its
// raw frames) and carries two cluster-wide invariants in its header:
//
//   - ship-only-durable: subscribers only ever read bytes at or below
//     the durable position, so a follower can never apply a commit the
//     primary could still lose to a crash;
//   - the epoch: the promotion generation of this node's history,
//     bumped durably (BumpEpoch) before a promoted replica accepts its
//     first write. LSNs are byte offsets in one specific history, so
//     they are only comparable within one epoch chain — everything in
//     replication fencing follows from that.
//
// See ARCHITECTURE.md § Durability for the record format and
// § Failover & epochs for the epoch rules.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ifdb/internal/label"
	"ifdb/internal/obs"
	"ifdb/internal/storage"
	"ifdb/internal/types"
)

// WAL metrics (process-wide; see internal/obs).
var (
	mAppends = obs.NewCounter("ifdb_wal_appends_total",
		"records appended to the write-ahead log")
	mWrites = obs.NewCounter("ifdb_wal_writes_total",
		"writes of buffered records to the log file")
	mWriteBytes = obs.NewSizeHistogram("ifdb_wal_write_bytes",
		"bytes per write of buffered records to the log file")
	mFsyncs = obs.NewCounter("ifdb_wal_fsync_total",
		"fsync calls issued by the log writer")
	mFsyncSeconds = obs.NewDurationHistogram("ifdb_wal_fsync_seconds",
		"fsync latency")
	mGroupBatch = obs.NewSizeHistogram("ifdb_wal_group_commit_batch",
		"committers covered per group-commit fsync")
)

// LSN is a log sequence number: the logical byte offset of a
// record's frame in the append stream. LSNs are monotonic for the
// life of the *log*, not just one Writer: a checkpoint truncates the
// file but persists the logical position of the new file start in the
// header, so the stream continues across restarts. Durability
// positions never regress, a committer waiting on a pre-checkpoint
// LSN is satisfied the moment the checkpoint covers it, and a
// replica's applied position stays meaningful after the primary
// restarts. In a freshly created log the first record is at LSN 32.
type LSN uint64

// headerSize is the length of the file header: 8 magic bytes
// ("IFDBWAL3"), the uint64 logical LSN of the first record slot
// (advanced by each truncating checkpoint), the uint64 last-state
// LSN — the position just past the newest record that carries state
// (everything logged after it is checkpoint/replication markers; a
// replica whose position is at or past it has missed nothing but
// markers and may fast-forward instead of re-bootstrapping) — and the
// uint64 epoch: the promotion generation of this log's history. The
// epoch starts at 1, is bumped exactly once per replica promotion
// (BumpEpoch), and fences stale primaries: a replication peer whose
// epoch disagrees cannot resume a byte stream (see internal/repl).
const headerSize = 32

var fileMagic = [8]byte{'I', 'F', 'D', 'B', 'W', 'A', 'L', '3'}

// isMarker reports record types that carry no database state: a
// stream position at or past the last non-marker record covers the
// full state.
func isMarker(t RecType) bool {
	return t == RecCheckpointBegin || t == RecCheckpointEnd || t == RecReplLSN
}

// isTxnBody reports the record types that make up the body of an open
// transaction. Nothing can act on one before the transaction's COMMIT
// or ABORT — recovery discards a body without an outcome — so Append
// leaves them in the log buffer; every other type takes the buffer to
// the file with it.
func isTxnBody(t RecType) bool {
	return t == RecBegin || t == RecInsert || t == RecSetXmax
}

// bufHighWater is the size at which the log buffer is written out even
// though nothing has asked for its bytes yet: it bounds what a long
// transaction holds in memory.
const bufHighWater = 64 << 10

// SyncMode selects the durability discipline for commits.
type SyncMode uint8

const (
	// SyncOff never fsyncs: a commit is in the file (the OS page cache)
	// when it is acknowledged, and durable only as the OS flushes.
	SyncOff SyncMode = iota
	// SyncCommit fsyncs once per commit (the safe, slow baseline).
	SyncCommit
	// SyncGroup batches concurrent commits into shared fsyncs: each
	// committer waits until a group fsync covers its commit LSN.
	SyncGroup
)

// ParseSyncMode maps the -sync flag spellings to a SyncMode.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "", "group":
		return SyncGroup, nil
	case "off":
		return SyncOff, nil
	case "commit":
		return SyncCommit, nil
	}
	return SyncOff, fmt.Errorf("wal: unknown sync mode %q (want off|commit|group)", s)
}

func (m SyncMode) String() string {
	switch m {
	case SyncOff:
		return "off"
	case SyncCommit:
		return "commit"
	case SyncGroup:
		return "group"
	}
	return fmt.Sprintf("SyncMode(%d)", uint8(m))
}

// RecType identifies a log record.
type RecType uint8

// Record types.
const (
	RecInvalid RecType = iota
	// Transaction lifecycle. Begin is logged lazily at a transaction's
	// first logged write, so read-only transactions leave no trace.
	RecBegin  // xid
	RecCommit // xid, commit seq
	RecAbort  // xid
	// Tuple events. TIDs are logged explicitly so replay re-places
	// versions at their exact slots, keeping index entries and xmax
	// stamps valid.
	RecInsert  // xid, table, tid, label, ilabel, row
	RecSetXmax // xid, table, tid
	// Catalog and authority events.
	RecDDL       // principal, statement text
	RecPrincipal // id, name
	RecTag       // id, name, owner, parent compound tags
	RecDelegate  // tag, grantor, grantee
	RecRevoke    // tag, revoker, grantee
	// Sequence allocation (value per label partition, see
	// engine/sequence.go).
	RecSeqVal // sequence name, label key, value
	// Checkpoint markers. Begin goes to the old log just before the
	// state capture (forensics only); End is the first record of the
	// truncated log and records that a snapshot covers everything
	// before it.
	RecCheckpointBegin
	RecCheckpointEnd
	// Replication progress. A replica appends RecReplLSN (Seq = the
	// primary LSN it has applied through, with all transactions before
	// it resolved) to its *own* log after applying a shipped batch, so
	// a restarted replica knows where to resume the stream. Never
	// written by a primary.
	RecReplLSN
	// The first record of a checkpoint snapshot (see snapshot.go), never
	// of the log: the admin principal, the XID and commit-sequence
	// counters, and the log position the snapshot covers.
	RecSnapshot
)

func (t RecType) String() string {
	switch t {
	case RecBegin:
		return "BEGIN"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecInsert:
		return "INSERT"
	case RecSetXmax:
		return "SETXMAX"
	case RecDDL:
		return "DDL"
	case RecPrincipal:
		return "PRINCIPAL"
	case RecTag:
		return "TAG"
	case RecDelegate:
		return "DELEGATE"
	case RecRevoke:
		return "REVOKE"
	case RecSeqVal:
		return "SEQVAL"
	case RecCheckpointBegin:
		return "CKPT-BEGIN"
	case RecCheckpointEnd:
		return "CKPT-END"
	case RecReplLSN:
		return "REPL-LSN"
	case RecSnapshot:
		return "SNAPSHOT"
	}
	return fmt.Sprintf("RecType(%d)", uint8(t))
}

// Record is the decoded form of one log record. Only the fields
// meaningful for its Type are set; the reader and the dump tool share
// this representation.
type Record struct {
	Type RecType
	LSN  LSN

	XID   storage.XID // RecSnapshot: the highest XID assigned
	Seq   uint64      // RecCommit: commit sequence; RecSnapshot: the last one assigned
	Table string      // RecInsert/RecSetXmax
	TID   storage.TID

	Label  label.Label
	ILabel label.Label
	Row    []types.Value

	Principal uint64 // RecDDL (issuer), RecPrincipal (id), RecSnapshot (admin)
	Text      string // RecDDL statement / RecPrincipal, RecTag, RecSeqVal names

	Tag     uint64   // RecTag id, RecDelegate/RecRevoke tag
	Owner   uint64   // RecTag owner
	Parents []uint64 // RecTag compound parents
	From    uint64   // RecDelegate grantor / RecRevoke revoker
	To      uint64   // grantee

	SeqKey string // RecSeqVal label partition key
	Value  int64  // RecSeqVal value

	Covered LSN // RecSnapshot: log records below it are in the snapshot
}

// Summary renders a record for ifdb-dump.
func (r *Record) Summary() string {
	switch r.Type {
	case RecBegin, RecAbort:
		return fmt.Sprintf("lsn=%-8d %-10s xid=%d", r.LSN, r.Type, r.XID)
	case RecCommit:
		return fmt.Sprintf("lsn=%-8d %-10s xid=%d seq=%d", r.LSN, r.Type, r.XID, r.Seq)
	case RecInsert:
		return fmt.Sprintf("lsn=%-8d %-10s xid=%d table=%s tid=%d label=%v cols=%d", r.LSN, r.Type, r.XID, r.Table, r.TID, r.Label, len(r.Row))
	case RecSetXmax:
		return fmt.Sprintf("lsn=%-8d %-10s xid=%d table=%s tid=%d", r.LSN, r.Type, r.XID, r.Table, r.TID)
	case RecDDL:
		return fmt.Sprintf("lsn=%-8d %-10s principal=%d %q", r.LSN, r.Type, r.Principal, r.Text)
	case RecPrincipal:
		return fmt.Sprintf("lsn=%-8d %-10s id=%d name=%q", r.LSN, r.Type, r.Principal, r.Text)
	case RecTag:
		return fmt.Sprintf("lsn=%-8d %-10s id=%d name=%q owner=%d parents=%v", r.LSN, r.Type, r.Tag, r.Text, r.Owner, r.Parents)
	case RecDelegate, RecRevoke:
		return fmt.Sprintf("lsn=%-8d %-10s tag=%d from=%d to=%d", r.LSN, r.Type, r.Tag, r.From, r.To)
	case RecSeqVal:
		return fmt.Sprintf("lsn=%-8d %-10s seq=%q part=%q value=%d", r.LSN, r.Type, r.Text, r.SeqKey, r.Value)
	case RecCheckpointBegin, RecCheckpointEnd:
		return fmt.Sprintf("lsn=%-8d %-10s", r.LSN, r.Type)
	case RecReplLSN:
		return fmt.Sprintf("lsn=%-8d %-10s applied=%d", r.LSN, r.Type, r.Seq)
	case RecSnapshot:
		return fmt.Sprintf("lsn=%-8d %-10s admin=%d xid=%d seq=%d covered=%d", r.LSN, r.Type, r.Principal, r.XID, r.Seq, r.Covered)
	}
	return fmt.Sprintf("lsn=%-8d %v", r.LSN, r.Type)
}

// ---------------------------------------------------------------------------
// Record encoding
//
// Frame layout:
//
//	uint32 payload length
//	uint32 CRC-32 (Castagnoli) over the payload
//	payload: 1 type byte + type-specific fields
//
// The log, a shipped batch and a checkpoint snapshot are all runs of
// these frames, written by AppendFrame and read by EachFrame. What a
// frame that is not whole and intact means is the reader's to say: in
// the log it is the torn tail of a crash mid-append (everything before
// it was appended earlier and is intact), in a shipped batch or a
// snapshot an error.

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame encodes rec as one frame at the end of buf. The frame
// header is reserved first and patched once the payload's length and
// CRC are known, so nothing is allocated per record.
func AppendFrame(buf []byte, rec *Record) ([]byte, error) {
	start := len(buf)
	framed, err := rec.encodePayload(append(buf, make([]byte, 8)...))
	if err != nil {
		return buf, err
	}
	payload := framed[start+8:]
	binary.LittleEndian.PutUint32(framed[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(framed[start+4:], crc32.Checksum(payload, crcTable))
	return framed, nil
}

// EachFrame calls fn with the record of each whole, intact frame at the
// start of buf, in order; base is the LSN of the first, and the one
// Record passed is reused from call to call. It returns how many bytes
// the frames fn was called with span, and why it stopped: nil at the
// end of buf, the error fn returned, or what is wrong with the frame
// at that offset.
func EachFrame(buf []byte, base LSN, fn func(*Record) error) (int, error) {
	var rec Record
	off := 0
	for off < len(buf) {
		at := base + LSN(off)
		if len(buf)-off < 8 {
			return off, fmt.Errorf("wal: torn frame header at lsn %d", at)
		}
		plen := int(binary.LittleEndian.Uint32(buf[off:]))
		if plen == 0 || plen > len(buf)-off-8 {
			return off, fmt.Errorf("wal: torn frame at lsn %d", at)
		}
		payload := buf[off+8 : off+8+plen]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(buf[off+4:]) {
			return off, fmt.Errorf("wal: crc mismatch in frame at lsn %d", at)
		}
		if err := decodePayload(payload, &rec); err != nil {
			return off, fmt.Errorf("wal: frame at lsn %d: %w", at, err)
		}
		rec.LSN = at
		if err := fn(&rec); err != nil {
			return off, err
		}
		off += 8 + plen
	}
	return off, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readString(buf []byte) (string, int, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || uint64(len(buf)-sz) < n {
		return "", 0, fmt.Errorf("wal: truncated string")
	}
	return string(buf[sz : sz+int(n)]), sz + int(n), nil
}

func (r *Record) encodePayload(buf []byte) ([]byte, error) {
	buf = append(buf, byte(r.Type))
	var err error
	switch r.Type {
	case RecBegin, RecAbort:
		buf = binary.AppendUvarint(buf, uint64(r.XID))
	case RecCommit:
		buf = binary.AppendUvarint(buf, uint64(r.XID))
		buf = binary.AppendUvarint(buf, r.Seq)
	case RecInsert:
		buf = binary.AppendUvarint(buf, uint64(r.XID))
		buf = appendString(buf, r.Table)
		buf = binary.AppendUvarint(buf, uint64(r.TID))
		if buf, err = label.AppendEncode(buf, r.Label); err != nil {
			return nil, err
		}
		if buf, err = label.AppendEncode(buf, r.ILabel); err != nil {
			return nil, err
		}
		if buf, err = types.EncodeRow(buf, r.Row); err != nil {
			return nil, err
		}
	case RecSetXmax:
		buf = binary.AppendUvarint(buf, uint64(r.XID))
		buf = appendString(buf, r.Table)
		buf = binary.AppendUvarint(buf, uint64(r.TID))
	case RecDDL:
		buf = binary.AppendUvarint(buf, r.Principal)
		buf = appendString(buf, r.Text)
	case RecPrincipal:
		buf = binary.AppendUvarint(buf, r.Principal)
		buf = appendString(buf, r.Text)
	case RecTag:
		buf = binary.AppendUvarint(buf, r.Tag)
		buf = binary.AppendUvarint(buf, r.Owner)
		buf = appendString(buf, r.Text)
		buf = binary.AppendUvarint(buf, uint64(len(r.Parents)))
		for _, p := range r.Parents {
			buf = binary.AppendUvarint(buf, p)
		}
	case RecDelegate, RecRevoke:
		buf = binary.AppendUvarint(buf, r.Tag)
		buf = binary.AppendUvarint(buf, r.From)
		buf = binary.AppendUvarint(buf, r.To)
	case RecSeqVal:
		buf = appendString(buf, r.Text)
		buf = appendString(buf, r.SeqKey)
		buf = binary.AppendUvarint(buf, uint64(r.Value))
	case RecCheckpointBegin, RecCheckpointEnd:
		// no payload beyond the type byte
	case RecReplLSN:
		buf = binary.AppendUvarint(buf, r.Seq)
	case RecSnapshot:
		buf = binary.AppendUvarint(buf, r.Principal)
		buf = binary.AppendUvarint(buf, uint64(r.XID))
		buf = binary.AppendUvarint(buf, r.Seq)
		buf = binary.AppendUvarint(buf, uint64(r.Covered))
	default:
		return nil, fmt.Errorf("wal: cannot encode record type %v", r.Type)
	}
	return buf, nil
}

// decodePayload decodes payload into r, overwriting all of it.
func decodePayload(payload []byte, r *Record) (err error) {
	if len(payload) < 1 {
		return fmt.Errorf("wal: empty payload")
	}
	*r = Record{Type: RecType(payload[0])}
	b := payload[1:]
	u := func() uint64 {
		n, sz := binary.Uvarint(b)
		if sz <= 0 {
			panic(errTruncated)
		}
		b = b[sz:]
		return n
	}
	str := func() string {
		s, n, err := readString(b)
		if err != nil {
			panic(errTruncated)
		}
		b = b[n:]
		return s
	}
	defer func() {
		if rec := recover(); rec != nil {
			if rec == errTruncated {
				err = fmt.Errorf("wal: truncated %v payload", r.Type)
				return
			}
			panic(rec)
		}
	}()
	switch r.Type {
	case RecBegin, RecAbort:
		r.XID = storage.XID(u())
	case RecCommit:
		r.XID = storage.XID(u())
		r.Seq = u()
	case RecInsert:
		r.XID = storage.XID(u())
		r.Table = str()
		r.TID = storage.TID(u())
		l, n, derr := label.Decode(b)
		if derr != nil {
			return derr
		}
		r.Label, b = l, b[n:]
		il, n, derr := label.Decode(b)
		if derr != nil {
			return derr
		}
		r.ILabel, b = il, b[n:]
		row, _, derr := types.DecodeRow(b)
		if derr != nil {
			return derr
		}
		r.Row = row
	case RecSetXmax:
		r.XID = storage.XID(u())
		r.Table = str()
		r.TID = storage.TID(u())
	case RecDDL:
		r.Principal = u()
		r.Text = str()
	case RecPrincipal:
		r.Principal = u()
		r.Text = str()
	case RecTag:
		r.Tag = u()
		r.Owner = u()
		r.Text = str()
		n := u()
		for i := uint64(0); i < n; i++ {
			r.Parents = append(r.Parents, u())
		}
	case RecDelegate, RecRevoke:
		r.Tag = u()
		r.From = u()
		r.To = u()
	case RecSeqVal:
		r.Text = str()
		r.SeqKey = str()
		r.Value = int64(u())
	case RecCheckpointBegin, RecCheckpointEnd:
	case RecReplLSN:
		r.Seq = u()
	case RecSnapshot:
		r.Principal = u()
		r.XID = storage.XID(u())
		r.Seq = u()
		r.Covered = LSN(u())
	default:
		return fmt.Errorf("wal: unknown record type %d", payload[0])
	}
	return err
}

var errTruncated = fmt.Errorf("wal: truncated payload")

// ---------------------------------------------------------------------------
// Writer

// Writer is the append side of the log. Appends serialize on an
// internal mutex; durability waits use the group-commit machinery and
// never hold the append lock across an fsync.
//
// Append frames a record into a log buffer and hands out its LSN; the
// buffer reaches the file in one write (flushLocked) when something may
// act on its bytes: a record that is not the body of an open
// transaction (isTxnBody), WaitDurable, Sync, Checkpoint, Close, a
// replica sender asking how far it may read, or the buffer filling.
// Hence the invariant the engine leans on: while no transaction is
// open, every appended byte is in the file.
type Writer struct {
	mode SyncMode

	mu        sync.Mutex // append lock; also guards f offset, end, buf, base, lastState, truncState
	f         *os.File
	end       LSN // next logical append position, buffered frames included
	base      LSN // logical LSN currently mapped to file offset headerSize
	lastState LSN // position past the newest state-carrying record
	// buf holds the frames of [end-len(buf), end): appended, not yet in
	// the file. Readers of the file stop at end-len(buf), the written
	// edge.
	buf []byte
	// truncState is lastState as of the last truncating checkpoint
	// (the header's persisted value): every state record below base is
	// below it, so a replica at or past truncState missed only markers
	// in the truncated region and may fast-forward to base.
	truncState LSN
	// epoch is the promotion generation (header-persisted, starts at 1).
	epoch uint64

	// retainBudget caps how many log bytes a lagging subscription may
	// pin against checkpoint truncation (0 = unlimited; see ship.go).
	retainBudget atomic.Int64

	// Group commit: durable is the highest LSN covered by a completed
	// fsync; syncing marks a leader's fsync in flight. Guarded by gmu.
	gmu     sync.Mutex
	gcond   *sync.Cond
	durable LSN
	syncing bool

	// waiters counts committers currently blocked in groupWait; the
	// leader uses it to decide whether a short gather pause will grow
	// the batch (see groupWait).
	waiters int

	// subs are replica-sender subscriptions (see ship.go): notified on
	// appends and durability advances, and pinning the log against
	// checkpoint truncation while a sender is behind.
	smu  sync.Mutex
	subs map[*Subscription]bool

	// Syncs counts fsync calls, for the group-commit benchmark.
	Syncs int64
}

// Open opens (creating if absent) the log at path for appending. The
// file is scanned to find the end of the last intact record; any torn
// tail beyond it is truncated away so new appends extend a valid log.
func Open(path string, mode SyncMode) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	w := &Writer{mode: mode, f: f, subs: make(map[*Subscription]bool)}
	w.gcond = sync.NewCond(&w.gmu)

	sc, err := scan(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if sc.base == 0 {
		// Distinguish a genuinely fresh file from an older-format log
		// (e.g. "IFDBWAL2"): rewriting the latter would silently
		// discard every record since its last checkpoint. Refuse and
		// make the operator decide.
		var magic [8]byte
		if n, _ := f.ReadAt(magic[:], 0); n == 8 &&
			string(magic[:7]) == string(fileMagic[:7]) && magic != fileMagic {
			f.Close()
			return nil, fmt.Errorf("wal: %s is a %q log, this build writes %q; no in-place migration — restore from a basebackup or start fresh", path, magic, fileMagic)
		}
	}
	if sc.base == 0 {
		// Fresh file (or unrecognizable header): write a new header.
		// The logical stream starts at headerSize, in epoch 1.
		sc.base, sc.end = headerSize, headerSize
		sc.hdrState, sc.lastState = headerSize, headerSize
		sc.epoch = 1
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.WriteAt(headerBytes(sc.base, sc.hdrState, sc.epoch), 0); err != nil {
			f.Close()
			return nil, err
		}
	} else if err := f.Truncate(int64(headerSize + (sc.end - sc.base))); err != nil {
		// Drop any torn tail so appends extend intact records.
		f.Close()
		return nil, err
	}
	if sc.epoch == 0 {
		sc.epoch = 1 // header predates epochs or was zeroed; repair
	}
	w.base = sc.base
	w.end = sc.end
	w.truncState = sc.hdrState
	w.lastState = sc.lastState
	w.epoch = sc.epoch
	w.durable = sc.end
	return w, nil
}

// headerBytes renders the file header.
func headerBytes(base, lastState LSN, epoch uint64) []byte {
	var h [headerSize]byte
	copy(h[:8], fileMagic[:])
	binary.LittleEndian.PutUint64(h[8:], uint64(base))
	binary.LittleEndian.PutUint64(h[16:], uint64(lastState))
	binary.LittleEndian.PutUint64(h[24:], epoch)
	return h[:]
}

// Epoch returns the log's promotion generation.
func (w *Writer) Epoch() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.epoch
}

// SetEpoch durably adopts an epoch a replication peer announced
// (followers call it when a connection hands them the primary's
// epoch). The epoch never regresses.
func (w *Writer) SetEpoch(epoch uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if epoch <= w.epoch {
		return nil
	}
	return w.setEpochLocked(epoch)
}

// BumpEpoch starts the next promotion generation, durably, and returns
// it. Called exactly once per promotion, before the promoted engine
// accepts its first write: any peer still speaking the old epoch is
// fenced from that point on.
func (w *Writer) BumpEpoch() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.setEpochLocked(w.epoch + 1); err != nil {
		return 0, err
	}
	return w.epoch, nil
}

// setEpochLocked rewrites the header in place (preserving the
// persisted base and truncation-state positions) and fsyncs before
// adopting the new epoch. Caller holds mu.
func (w *Writer) setEpochLocked(epoch uint64) error {
	if _, err := w.f.WriteAt(headerBytes(w.base, w.truncState, epoch), 0); err != nil {
		return fmt.Errorf("wal: write header: %w", err)
	}
	if err := w.fsync(); err != nil {
		return err
	}
	w.epoch = epoch
	return nil
}

// fsync forces the file to stable storage, counting the call and its
// latency. Every fsync the writer issues goes through here.
func (w *Writer) fsync() error {
	t0 := time.Now()
	err := w.f.Sync()
	mFsyncs.Inc()
	mFsyncSeconds.Observe(time.Since(t0).Nanoseconds())
	return err
}

// fileOff maps a logical LSN to its offset in the current log file.
// Caller holds mu.
func (w *Writer) fileOff(lsn LSN) int64 {
	return int64(headerSize + uint64(lsn-w.base))
}

// Mode returns the writer's sync mode.
func (w *Writer) Mode() SyncMode { return w.mode }

// Append encodes rec into the log buffer and returns its LSN. The body
// of an open transaction (BEGIN, INSERT, SETXMAX) stays buffered — a
// crash before its COMMIT loses records recovery would have discarded
// anyway; any other record is in the file, with everything appended
// before it, when Append returns. Call WaitDurable (or rely on a
// commit's group fsync) to force it to stable storage. If the write
// fails the record is withdrawn: it has no LSN and will not reach the
// file later.
func (w *Writer) Append(rec *Record) (LSN, error) {
	mAppends.Inc()
	w.mu.Lock()
	defer w.mu.Unlock()
	lsn, lastState := w.end, w.lastState
	if err := w.frameLocked(rec); err != nil {
		return 0, err
	}
	if !isTxnBody(rec.Type) || len(w.buf) >= bufHighWater {
		if err := w.flushLocked(); err != nil {
			w.withdrawLocked(lsn, lastState)
			return 0, err
		}
	}
	return lsn, nil
}

// withdrawLocked takes back what was appended at and after lsn, still
// in the log buffer because the write carrying it failed: its caller
// reports the failure, so the bytes must not reach the file with some
// later write. lastState is the value to restore. Caller holds mu.
func (w *Writer) withdrawLocked(lsn, lastState LSN) {
	w.buf = w.buf[:len(w.buf)-int(w.end-lsn)]
	w.end, w.lastState = lsn, lastState
}

// frameLocked frames rec at the end of the log buffer and advances end
// past it. Caller holds mu.
func (w *Writer) frameLocked(rec *Record) error {
	framed, err := AppendFrame(w.buf, rec)
	if err != nil {
		return err
	}
	w.end += LSN(len(framed) - len(w.buf))
	w.buf = framed
	if !isMarker(rec.Type) {
		w.lastState = w.end
	}
	return nil
}

// flushLocked writes the log buffer to the file: the one place record
// bytes reach it. On failure the buffer is kept, and the next flush
// rewrites it at the same offset. In SyncOff mode the written edge is
// what replica senders may read up to, so they are woken here; in the
// fsyncing modes they wait for the durable horizon instead. Caller
// holds mu.
func (w *Writer) flushLocked() error {
	if len(w.buf) == 0 {
		return nil
	}
	if _, err := w.f.WriteAt(w.buf, w.fileOff(w.end-LSN(len(w.buf)))); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	mWrites.Inc()
	mWriteBytes.Observe(int64(len(w.buf)))
	if cap(w.buf) > 2*bufHighWater {
		// A record far past the mark (one huge row) grew the buffer:
		// let it go rather than hold that much for the writer's life.
		w.buf = nil
	} else {
		w.buf = w.buf[:0]
	}
	if w.mode == SyncOff {
		w.notifySubs()
	}
	return nil
}

// flushedEnd writes the log buffer out and returns the append edge,
// which is then also the written edge: the position an fsync issued
// next will cover.
func (w *Writer) flushedEnd() (LSN, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.flushLocked()
	return w.end, err
}

// End returns the LSN one past the last appended record, whether or not
// its bytes have left the log buffer.
func (w *Writer) End() LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.end
}

// Sync writes out the log buffer and, unless the mode is SyncOff,
// forces everything appended so far to stable storage (used for DDL and
// clean shutdown).
func (w *Writer) Sync() error {
	target, err := w.flushedEnd()
	if err != nil || w.mode == SyncOff {
		return err
	}
	return w.syncTo(target)
}

// WaitDurable writes out the log buffer, then blocks until the record
// at lsn is on stable storage, per the writer's sync mode:
//
//   - SyncOff: returns once the record is in the file.
//   - SyncCommit: issues a private fsync (serialized, one per caller).
//   - SyncGroup: leader/follower group commit — one caller fsyncs on
//     behalf of everyone who appended before the fsync started; the
//     rest wait for the covering sync.
func (w *Writer) WaitDurable(lsn LSN) error {
	if w.mode == SyncGroup {
		return w.groupWait(lsn)
	}
	// The covered position is read before the fsync: appends landing
	// during the fsync are not necessarily on stable storage.
	target, err := w.flushedEnd()
	if err != nil || w.mode == SyncOff {
		return err
	}
	w.gmu.Lock()
	defer w.gmu.Unlock()
	if w.durable > lsn {
		// A committer that queued ahead of us already fsynced past
		// our record (its covered position was read after our append
		// landed): the commit is on stable storage, and repeating
		// the fsync would only serialize the queue further. A
		// horizon exactly at lsn stops short of the record.
		return nil
	}
	w.Syncs++
	if err := w.fsync(); err != nil {
		return err
	}
	if target > w.durable {
		w.durable = target
		w.notifySubs()
	}
	return nil
}

func (w *Writer) groupWait(lsn LSN) error {
	w.gmu.Lock()
	defer w.gmu.Unlock()
	w.waiters++
	defer func() { w.waiters-- }()
	// The record at lsn is covered once the horizon is past its start.
	for w.durable <= lsn {
		if w.syncing {
			w.gcond.Wait()
			continue
		}
		// Become the leader: fsync everything appended so far, then
		// wake the group. New appends during the fsync are covered by
		// the next leader.
		w.syncing = true
		w.Syncs++
		gather := w.waiters > 1
		batch := int64(w.waiters)
		w.gmu.Unlock()
		// The fsync covers what is in the file: write the buffer out
		// before reading the position this sync will vouch for.
		target, err := w.flushedEnd()
		if gather {
			// Other committers are active: yield to them so they can
			// finish their appends and ride this fsync instead of the
			// next one (the spirit of PostgreSQL's commit_delay,
			// implemented as scheduler yields because sub-millisecond
			// sleeps overshoot on coarse-timer kernels). Keep yielding
			// while the log keeps growing, within a small budget.
			for i := 0; i < gatherYields && err == nil; i++ {
				runtime.Gosched()
				var cur LSN
				cur, err = w.flushedEnd()
				if cur == target && i > 1 {
					break
				}
				target = cur
			}
		}
		if err == nil {
			err = w.fsync()
		}
		mGroupBatch.Observe(batch)
		w.gmu.Lock()
		w.syncing = false
		if err != nil {
			w.gcond.Broadcast()
			return err
		}
		if target > w.durable {
			w.durable = target
			w.notifySubs()
		}
		w.gcond.Broadcast()
	}
	return nil
}

// gatherYields bounds the leader's pre-fsync yield loop: enough for a
// plausible number of in-flight committers to append, but a hard cap
// so a steady stream of appends cannot starve the fsync.
const gatherYields = 64

// advanceDurable raises the durable horizon to lsn, waking group
// committers and replica-sender subscriptions.
func (w *Writer) advanceDurable(lsn LSN) {
	w.gmu.Lock()
	if lsn > w.durable {
		w.durable = lsn
		w.notifySubs()
	}
	w.gcond.Broadcast()
	w.gmu.Unlock()
}

// syncTo fsyncs and advances durable to at least target.
func (w *Writer) syncTo(target LSN) error {
	w.gmu.Lock()
	defer w.gmu.Unlock()
	w.Syncs++
	if err := w.fsync(); err != nil {
		return err
	}
	if target > w.durable {
		w.durable = target
		w.notifySubs()
	}
	return nil
}

// Checkpoint runs the engine's state capture with appends blocked,
// then truncates the log: everything the truncated records described
// is covered by the snapshot capture wrote. capture receives the
// logical end of the log at capture time — every record below it was
// applied before the capture began (apply-first, log-second), so the
// snapshot covers exactly the records below that LSN. capture must
// persist the snapshot (including its own fsync) before returning
// nil; if it errors, the log is left untouched.
//
// Lock order: callers of Append never hold engine/storage locks while
// appending (the engine applies first, logs second), so capture may
// take catalog/heap/authority read locks freely under the append lock.
func (w *Writer) Checkpoint(capture func(covered LSN) error) error {
	// Forensic marker in the outgoing log (best effort; ignore errors
	// so a full disk does not block checkpointing, which frees space).
	_, _ = w.Append(&Record{Type: RecCheckpointBegin})

	w.mu.Lock()
	defer w.mu.Unlock()
	// What the snapshot covers must be in the file it may stand in for:
	// a transaction still open at the capture has its body below
	// w.end and its COMMIT above it.
	if err := w.flushLocked(); err != nil {
		return err
	}
	if err := capture(w.end); err != nil {
		return err
	}
	// Retention: a replica sender still needs bytes below the end, so
	// leave the file intact (the snapshot is still written — recovery
	// replays the overlapping records idempotently). The single-file
	// analogue of a held replication slot — bounded by the retained-WAL
	// budget: a subscription pinning more than the budget is dropped
	// (its follower must re-bootstrap via basebackup) rather than
	// letting one laggard pin the log forever.
	if budget := w.retainBudget.Load(); budget > 0 && w.end > LSN(budget) {
		w.dropSubsBelow(w.end - LSN(budget))
	}
	if min, ok := w.minSubPos(); ok && min < w.end {
		if err := w.fsync(); err != nil {
			return err
		}
		w.advanceDurable(w.end)
		return nil
	}
	// Persist the new logical base, fsynced, *before* truncating: a
	// crash in between leaves old records re-interpreted at new LSNs
	// (harmless — replay is idempotent), whereas the other order could
	// leave a stale base under an empty file, assigning future records
	// LSNs the snapshot claims to already cover. The last-state
	// position rides along so replicas parked past it survive the
	// truncation.
	if _, err := w.f.WriteAt(headerBytes(w.end, w.lastState, w.epoch), 0); err != nil {
		return fmt.Errorf("wal: write header: %w", err)
	}
	if err := w.fsync(); err != nil {
		return err
	}
	w.truncState = w.lastState
	if err := w.f.Truncate(headerSize); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	// The logical stream continues: the current end now maps to the
	// file's first record slot, and — since the snapshot is already on
	// stable storage — everything appended so far is durable. Advance
	// durable and wake committers still waiting on pre-checkpoint
	// LSNs; LSNs are monotonic, so a leader that raced us can only
	// move durable forward, never poison the new file's positions.
	w.base = w.end
	// The snapshot is on stable storage: everything logged so far is
	// effectively durable; wake committers still waiting on
	// pre-checkpoint LSNs.
	w.advanceDurable(w.end)

	// First record after the truncation (we hold mu, so Append's two
	// steps are taken here). Written before the fsync so the durable
	// horizon covers it — an idle primary must still be able to ship
	// its whole log to replicas, which read only durable bytes.
	if err := w.frameLocked(&Record{Type: RecCheckpointEnd}); err != nil {
		return err
	}
	if err := w.flushLocked(); err != nil {
		return err
	}
	if err := w.fsync(); err != nil {
		return err
	}
	w.advanceDurable(w.end)
	return nil
}

// Close writes out the log buffer, fsyncs (per mode) and closes the
// file.
func (w *Writer) Close() error {
	if err := w.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// ---------------------------------------------------------------------------
// Reader

// ReadAll decodes every intact record in the log at path. A missing
// file yields no records. A torn or corrupt tail ends the scan
// without error (torn reports it): that is the normal shape of a
// crash mid-append, and everything before the tear is returned.
// Record LSNs are logical (the header's base plus in-file position).
func ReadAll(path string) (recs []Record, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	defer f.Close()
	sc, err := scan(f)
	if err != nil {
		return nil, false, err
	}
	if sc.base == 0 {
		return nil, false, nil
	}
	st, err := f.Stat()
	if err != nil {
		return nil, false, err
	}
	return sc.recs, int64(headerSize+(sc.end-sc.base)) != st.Size(), nil
}

// scanResult is what scan recovers from a log file: the intact
// records, the header's logical base, the logical end just past the
// last intact record, the header's persisted last-state position
// (truncState: the state floor of the truncated history), and the
// running last-state position including the surviving records.
// Corruption past the last intact record is ignored (torn tail). A
// file with a bad or missing header reports base 0 so Open can
// rewrite it.
type scanResult struct {
	recs      []Record
	base      LSN
	end       LSN
	hdrState  LSN
	lastState LSN
	epoch     uint64
}

func scan(f *os.File) (scanResult, error) {
	st, err := f.Stat()
	if err != nil {
		return scanResult{}, err
	}
	if st.Size() < headerSize {
		return scanResult{}, nil
	}
	data := make([]byte, st.Size())
	if _, err := f.ReadAt(data, 0); err != nil {
		return scanResult{}, err
	}
	if [8]byte(data[:8]) != fileMagic {
		return scanResult{}, nil
	}
	sc := scanResult{
		base:     LSN(binary.LittleEndian.Uint64(data[8:])),
		hdrState: LSN(binary.LittleEndian.Uint64(data[16:])),
		epoch:    binary.LittleEndian.Uint64(data[24:]),
	}
	if sc.base < headerSize {
		return scanResult{}, nil
	}
	sc.lastState = sc.hdrState
	// Where the walk stops short of the end of the file is the torn tail.
	last := -1 // index of the last state-carrying record
	n, _ := EachFrame(data[headerSize:], sc.base, func(r *Record) error {
		if !isMarker(r.Type) {
			last = len(sc.recs)
		}
		sc.recs = append(sc.recs, *r)
		return nil
	})
	sc.end = sc.base + LSN(n)
	if last >= 0 {
		sc.lastState = sc.end
		if last+1 < len(sc.recs) {
			sc.lastState = sc.recs[last+1].LSN
		}
	}
	return sc, nil
}
