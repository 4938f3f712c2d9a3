package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"ifdb/internal/label"
	"ifdb/internal/types"
)

// API v2: prepared statements, streaming results, and cancellation.
//
// PREPARE sends a statement's text once; the server parses it, pins
// the parsed AST in a per-session statement table, and answers with a
// handle. EXECUTE then ships only the handle and the parameters, and
// the server streams the result back as chunked ROWS frames — the
// last chunk carries the result's last rows and the statement trailer
// (RowsChunk). CLOSESTMT drops a handle; it is fire-and-forget (frames
// on one connection are processed in order, so a following EXECUTE
// cannot observe the closed handle).
//
// EXECUTE with statement id 0 carries the SQL text inline: the
// one-shot form behind the client's text API. Either form streams, so a
// result larger than MaxFrame crosses the wire in bounded chunks.
//
// CANCEL is out-of-band, Postgres-style: the HelloOK handshake reply
// hands the client a session id and a random cancel key; a CANCEL
// frame opens a *fresh* connection, sends the pair as its first (and
// only) frame, and the server interrupts the statement it names by the
// number every EXECUTE carries, aborting its transaction: a CANCEL for
// a finished statement is dropped, and an early one cancels its
// statement as it starts. The key — never sent on the wire again — is
// what authorizes the cancel; the canceled statement itself fails on
// its own connection with the engine's cancel error.
//
// See ARCHITECTURE.md § Client API v2 for the frame formats and the
// statement-handle lifecycle.
const (
	MsgPrepare    byte = 'B' // client → server: statement text to prepare
	MsgPrepareRes byte = 'b' // server → client: statement handle or error
	MsgExecute    byte = 'e' // client → server: handle (or inline SQL) + params
	MsgRows       byte = 'w' // server → client: one chunk of a streaming result
	MsgCloseStmt  byte = 'k' // client → server: drop a statement handle (no reply)
	MsgCancel     byte = 'N' // first frame on a fresh conn: cancel one statement of a session
)

// HelloOK is the handshake reply payload. SessionID names the session
// for out-of-band cancellation and CancelKey authorizes it (§ CANCEL
// above).
type HelloOK struct {
	SessionID uint64
	CancelKey uint64
}

// Encode marshals h.
func (h *HelloOK) Encode() []byte {
	buf := appendU64(nil, h.SessionID)
	return appendU64(buf, h.CancelKey)
}

// DecodeHelloOK unmarshals a HelloOK payload.
func DecodeHelloOK(buf []byte) (*HelloOK, error) {
	var h HelloOK
	var err error
	h.SessionID, buf, err = readU64(buf)
	if err != nil {
		return nil, err
	}
	h.CancelKey, _, err = readU64(buf)
	if err != nil {
		return nil, err
	}
	return &h, nil
}

// Prepare asks the server to parse and pin one statement batch.
type Prepare struct {
	SQL string
}

// Encode marshals p.
func (p *Prepare) Encode() []byte {
	return appendString(nil, p.SQL)
}

// DecodePrepare unmarshals a Prepare payload.
func DecodePrepare(buf []byte) (*Prepare, error) {
	var p Prepare
	var err error
	p.SQL, _, err = readString(buf)
	if err != nil {
		return nil, err
	}
	return &p, nil
}

// PrepareRes answers a Prepare: the per-session statement handle (ids
// start at 1; 0 is reserved for the one-shot EXECUTE form) and the
// number of positional parameters the statement binds.
type PrepareRes struct {
	Err       string // empty on success
	StmtID    uint64
	NumParams uint32
}

// Encode marshals r.
func (r *PrepareRes) Encode() []byte {
	buf := appendString(nil, r.Err)
	buf = appendU64(buf, r.StmtID)
	return binary.LittleEndian.AppendUint32(buf, r.NumParams)
}

// DecodePrepareRes unmarshals a PrepareRes payload.
func DecodePrepareRes(buf []byte) (*PrepareRes, error) {
	var r PrepareRes
	var err error
	r.Err, buf, err = readString(buf)
	if err != nil {
		return nil, err
	}
	r.StmtID, buf, err = readU64(buf)
	if err != nil {
		return nil, err
	}
	if len(buf) < 4 {
		return nil, fmt.Errorf("wire: truncated prepare-res")
	}
	r.NumParams = binary.LittleEndian.Uint32(buf)
	return &r, nil
}

// Execute runs a prepared statement (StmtID from PrepareRes) or, with
// StmtID 0, the inline SQL — the one-shot form — and carries the
// client's current view of the process label and principal (sent only
// when changed since the last message — lazy coalescing, §7.1).
type Execute struct {
	StmtID uint64
	SQL    string // used only when StmtID == 0
	Params []types.Value

	SyncLabel bool // Label/ILabel/Principal fields are meaningful
	Label     label.Label
	ILabel    label.Label // integrity label
	Principal uint64

	// WaitLSN, when non-zero on a replica server, delays execution
	// until the replica has applied the primary's log through that LSN
	// — the read-your-writes token flow: a routing client stamps reads
	// with the commit LSN of its last primary write, so a replica can
	// never answer with state older than what the client already saw
	// acknowledged. Ignored on a primary (its own log trivially covers
	// its own commits).
	WaitLSN uint64

	// ShardVer, when non-zero, is the shard-map version the client
	// routed this statement under. A sharded server holding a newer map
	// refuses the statement and attaches its current map to the trailer
	// (version fencing, see shard.go). Zero marks a shard-unaware
	// client: the statement is accepted and only the per-row shard-
	// ownership guard protects misdirected writes.
	ShardVer uint64

	// TraceID is the client-generated statement trace ID, stamped into
	// the server's slow-query/audit log lines and \stats timing
	// breakdowns so one statement can be followed across tiers; zero
	// means untraced.
	TraceID uint64

	// Seq is the connection's statement number, larger than every
	// earlier EXECUTE's: a CANCEL names the statement it interrupts by it.
	Seq uint64
}

// Encode marshals e.
func (e *Execute) Encode() ([]byte, error) { return e.AppendEncode(nil) }

// AppendEncode appends e's encoding to buf, which a sender reuses from
// statement to statement.
func (e *Execute) AppendEncode(buf []byte) ([]byte, error) {
	buf = appendU64(buf, e.StmtID)
	buf = appendString(buf, e.SQL)
	// The parameters in a row's layout (DecodeExecute reads them with
	// types.DecodeRow), value by value: RowsChunk.AppendEncode is the
	// one caller of types.EncodeRow here.
	buf = binary.AppendUvarint(buf, uint64(len(e.Params)))
	var err error
	for _, v := range e.Params {
		if buf, err = types.AppendEncode(buf, v); err != nil {
			return nil, err
		}
	}
	if e.SyncLabel {
		buf = append(buf, 1)
		buf = appendLabel(buf, e.Label)
		buf = appendLabel(buf, e.ILabel)
		buf = appendU64(buf, e.Principal)
	} else {
		buf = append(buf, 0)
	}
	buf = appendU64(buf, e.WaitLSN)
	buf = appendU64(buf, e.ShardVer)
	buf = appendU64(buf, e.TraceID)
	return binary.AppendUvarint(buf, e.Seq), nil
}

// DecodeExecute unmarshals an Execute payload.
func DecodeExecute(buf []byte) (*Execute, error) {
	var e Execute
	var err error
	e.StmtID, buf, err = readU64(buf)
	if err != nil {
		return nil, err
	}
	e.SQL, buf, err = readString(buf)
	if err != nil {
		return nil, err
	}
	params, n, err := types.DecodeRow(buf)
	if err != nil {
		return nil, err
	}
	e.Params = params
	buf = buf[n:]
	if len(buf) < 1 {
		return nil, fmt.Errorf("wire: truncated execute")
	}
	if buf[0] == 1 {
		e.SyncLabel = true
		buf = buf[1:]
		e.Label, buf, err = readLabel(buf)
		if err != nil {
			return nil, err
		}
		e.ILabel, buf, err = readLabel(buf)
		if err != nil {
			return nil, err
		}
		e.Principal, buf, err = readU64(buf)
		if err != nil {
			return nil, err
		}
	} else {
		buf = buf[1:]
	}
	e.WaitLSN, buf, err = readU64(buf)
	if err != nil {
		return nil, err
	}
	e.ShardVer, buf, err = readU64(buf)
	if err != nil {
		return nil, err
	}
	e.TraceID, buf, err = readU64(buf)
	if err != nil {
		return nil, err
	}
	e.Seq, _, err = readUvarint(buf)
	if err != nil {
		return nil, err
	}
	return &e, nil
}

// RowsChunk is one frame of a streaming result. The first chunk
// carries the column names; the final one (Done) carries the result's
// last rows and the statement trailer — the error, affected count, the
// server's post-statement labels, the commit token, the timings, and
// (on a stale-shard-map refusal) the server's current map. A result
// that fits in one chunk is one chunk, both First and Done; a Done
// chunk has no rows when the batch before it filled exactly, or when
// the statement failed (a failure at open is a single chunk with Done
// set and Err non-empty). Chunks after the first never repeat Cols.
type RowsChunk struct {
	First     bool
	Done      bool
	Cols      []string // first chunk only
	Rows      [][]types.Value
	RowLabels []label.Label // nil when IFC off; else len == len(Rows)
	// Stored, when not nil, has an entry per row: a non-nil entry is the
	// row already in types.EncodeRow's form — a table's stored row bytes
	// (engine.Cursor.NextEncoded) — and is sent as it is, in place of
	// the row's values. Receivers see rows either way.
	Stored [][]byte

	// Trailer, meaningful when Done. Label and ILabel are the server's
	// view of the process labels after the statement (it may have
	// changed them, e.g. via addsecrecy()).
	Err      string
	Affected int64
	Label    label.Label
	ILabel   label.Label

	// Epoch is the server's promotion generation; LSN is the session's
	// commit token: the smallest replication barrier proving its most
	// recent logged commit (or DDL) applied, 0 if the session never
	// logged anything (reads, in-memory servers). Deliberately *not*
	// the WAL append edge — the edge includes other sessions' open
	// transactions, which a replica's applied barrier cannot pass, so a
	// token built from it would stall every replica read behind
	// whichever unrelated transaction happens to be open. The routing
	// client keeps the pair from its last write as the read-your-writes
	// token; LSN spaces are only comparable within one epoch.
	Epoch uint64
	LSN   uint64

	// Stats is the statement's server-side timing breakdown.
	Stats Stats

	// ShardMap rides along when the server refused the statement for a
	// stale shard-map version (Err starts with StaleShardMapErr): the
	// client adopts it and re-routes without an extra round trip. It
	// travels in the map's text format (Format, ParseShardMap). Nil
	// otherwise.
	ShardMap *ShardMap

	// What DecodeRowsChunkInto reuses beside Rows: the value block the
	// rows are carved from (its length is what the last decode used),
	// the RowLabels slice kept while a chunk has none, and the tag block
	// the row labels are carved from.
	vals  []types.Value
	spare []label.Label
	tags  []label.Tag
}

// Stats is a statement's server-side timing breakdown, sent in its
// trailer as five fixed u64s (words), so that a reply's size does not
// depend on how long it took: the trace ID the client stamped on it;
// parser time (0 for prepared executions — they never parse);
// admission (label sync, shard fencing, read-your-writes waits); engine
// execution; and result encoding and streaming up to the trailer.
type Stats struct {
	TraceID                           uint64
	ParseNs, PlanNs, ExecNs, StreamNs int64
}

func (s *Stats) words() [5]uint64 {
	return [5]uint64{s.TraceID, uint64(s.ParseNs), uint64(s.PlanNs), uint64(s.ExecNs), uint64(s.StreamNs)}
}

// Chunk flag bits.
const (
	chunkFirst    = 1 << 0
	chunkDone     = 1 << 1
	chunkLabels   = 1 << 2
	chunkShardMap = 1 << 3
)

// Encode marshals c into a buffer of exactly its encoded size.
func (c *RowsChunk) Encode() ([]byte, error) {
	return c.AppendEncode(make([]byte, 0, c.encodedSize()))
}

// encodedSize returns len(c.AppendEncode(nil)).
func (c *RowsChunk) encodedSize() int {
	n := 1 + uvarintLen(len(c.Rows))
	if c.First {
		n += uvarintLen(len(c.Cols))
		for _, col := range c.Cols {
			n += uvarintLen(len(col)) + len(col)
		}
	}
	for i, row := range c.Rows {
		if b := c.stored(i); b != nil {
			n += len(b)
			continue
		}
		n += uvarintLen(len(row))
		for _, v := range row {
			n += types.EncodedSize(v)
		}
	}
	for _, l := range c.RowLabels {
		n += labelSize(l)
	}
	if c.Done {
		n += uvarintLen(len(c.Err)) + len(c.Err) + 8 + 16 + 40
		n += labelSize(c.Label) + labelSize(c.ILabel)
		if c.ShardMap != nil {
			text := c.ShardMap.Format()
			n += uvarintLen(len(text)) + len(text)
		}
	}
	return n
}

func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

// labelSize returns len(appendLabel(nil, l)).
func labelSize(l label.Label) int { return uvarintLen(len(l)) + 8*len(l) }

// stored returns row i's stored bytes, nil when it has none.
func (c *RowsChunk) stored(i int) []byte {
	if c.Stored == nil {
		return nil
	}
	return c.Stored[i]
}

// AppendEncode appends c's encoding to buf, which a sender reuses from
// chunk to chunk. It is the one writer of result rows: a row's stored
// bytes when it has them, types.EncodeRow of its values otherwise.
func (c *RowsChunk) AppendEncode(buf []byte) ([]byte, error) {
	var flags byte
	if c.First {
		flags |= chunkFirst
	}
	if c.Done {
		flags |= chunkDone
	}
	if c.RowLabels != nil {
		flags |= chunkLabels
	}
	if c.Done && c.ShardMap != nil {
		flags |= chunkShardMap
	}
	buf = append(buf, flags)
	if c.First {
		buf = binary.AppendUvarint(buf, uint64(len(c.Cols)))
		for _, col := range c.Cols {
			buf = appendString(buf, col)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(c.Rows)))
	var err error
	for i, row := range c.Rows {
		if b := c.stored(i); b != nil {
			buf = append(buf, b...)
		} else if buf, err = types.EncodeRow(buf, row); err != nil {
			return nil, err
		}
	}
	if c.RowLabels != nil {
		for _, l := range c.RowLabels {
			buf = appendLabel(buf, l)
		}
	}
	if c.Done {
		buf = appendString(buf, c.Err)
		buf = appendU64(buf, uint64(c.Affected))
		buf = appendLabel(buf, c.Label)
		buf = appendLabel(buf, c.ILabel)
		buf = appendU64(buf, c.Epoch)
		buf = appendU64(buf, c.LSN)
		for _, v := range c.Stats.words() {
			buf = appendU64(buf, v)
		}
		if c.ShardMap != nil {
			buf = appendString(buf, c.ShardMap.Format())
		}
	}
	return buf, nil
}

// DecodeRowsChunk unmarshals a RowsChunk payload into a chunk of its
// own.
func DecodeRowsChunk(buf []byte) (*RowsChunk, error) {
	c := new(RowsChunk)
	if err := DecodeRowsChunkInto(c, buf); err != nil {
		return nil, err
	}
	return c, nil
}

// DecodeRowsChunkInto unmarshals a RowsChunk payload into c, reusing
// the row table, value block, label slice and tag block an earlier
// decode into c left. A receiver that decodes every chunk of its
// streams into one RowsChunk allocates one string a chunk, which each
// TEXT value of the chunk's rows is a substring of: the rows and row
// labels are valid until the next decode into c, and a kept string
// stays valid and pins its chunk's payload. Cols, the trailer's labels
// and ShardMap are never reused. Every field the payload does not set
// is reset; after an error c's rows are not to be read.
func DecodeRowsChunkInto(c *RowsChunk, buf []byte) error {
	if len(buf) < 1 {
		return fmt.Errorf("wire: truncated rows chunk")
	}
	// The value block's length is what the last decode used of it: the
	// values past this decode's rows are cleared, so the block pins no
	// string of an earlier chunk.
	vals, stale := c.vals[:cap(c.vals)], len(c.vals)
	*c = RowsChunk{
		First: buf[0]&chunkFirst != 0,
		Done:  buf[0]&chunkDone != 0,
		Rows:  c.Rows[:0],
		spare: c.spare,
		tags:  c.tags[:0],
	}
	hasLabels := buf[0]&chunkLabels != 0
	hasMap := buf[0]&chunkShardMap != 0
	buf = buf[1:]
	var err error
	if c.First {
		ncols, sz := binary.Uvarint(buf)
		if sz <= 0 || ncols > uint64(len(buf)) {
			return fmt.Errorf("wire: bad rows chunk cols")
		}
		buf = buf[sz:]
		c.Cols = make([]string, ncols)
		for i := range c.Cols {
			c.Cols[i], buf, err = readString(buf)
			if err != nil {
				return err
			}
		}
	}
	nrows, sz := binary.Uvarint(buf)
	if sz <= 0 || nrows > uint64(len(buf)) {
		return fmt.Errorf("wire: bad rows chunk rows")
	}
	buf = buf[sz:]
	if c.Rows == nil || uint64(cap(c.Rows)) < nrows {
		c.Rows = make([][]types.Value, 0, nrows)
	}
	// One block holds the chunk's values when its rows are as wide as
	// the first (a value takes at least a byte, so a count the payload
	// cannot hold reserves no more than the payload is long).
	if ncols, sz := binary.Uvarint(buf); sz > 0 && ncols <= uint64(len(buf)) && nrows*ncols <= uint64(len(buf)) && nrows*ncols > uint64(len(vals)) {
		vals, stale = make([]types.Value, nrows*ncols), 0
	}
	var text string
	if nrows > 0 {
		text = string(buf)
	}
	used, off := 0, 0
	for range nrows {
		row, n, err := types.DecodeRowInto(vals[used:], buf[off:], text[off:])
		if err != nil {
			return err
		}
		if w := len(row); w <= len(vals)-used {
			row = row[:w:w]
			used += w
		}
		c.Rows = append(c.Rows, row)
		off += n
	}
	buf = buf[off:]
	if stale > used {
		clear(vals[used:stale])
	}
	c.vals = vals[:used]
	if hasLabels {
		if c.spare == nil || uint64(cap(c.spare)) < nrows {
			c.spare = make([]label.Label, nrows)
		}
		c.RowLabels = c.spare[:nrows]
		// The row labels share one array. One the previous chunk left
		// too small is replaced, when it runs out, by one sized to the
		// tags already read and every tag the rest of the payload could
		// still carry.
		tags := c.tags
		for i := range c.RowLabels {
			var n int
			if n, buf, err = readLabelLen(buf); err != nil {
				return err
			}
			if n == 0 {
				c.RowLabels[i] = nil
				continue
			}
			if cap(tags)-len(tags) < n {
				tags = make([]label.Tag, 0, len(tags)+len(buf)/8)
			}
			end := len(tags) + n
			c.RowLabels[i], buf = fillLabel(label.Label(tags[len(tags):end:end]), buf)
			tags = tags[:end]
		}
		c.tags = tags
	}
	if c.Done {
		c.Err, buf, err = readString(buf)
		if err != nil {
			return err
		}
		var aff uint64
		aff, buf, err = readU64(buf)
		if err != nil {
			return err
		}
		c.Affected = int64(aff)
		c.Label, buf, err = readLabel(buf)
		if err != nil {
			return err
		}
		c.ILabel, buf, err = readLabel(buf)
		if err != nil {
			return err
		}
		c.Epoch, buf, err = readU64(buf)
		if err != nil {
			return err
		}
		c.LSN, buf, err = readU64(buf)
		if err != nil {
			return err
		}
		var v [5]uint64
		for i := range v {
			if v[i], buf, err = readU64(buf); err != nil {
				return err
			}
		}
		c.Stats = Stats{TraceID: v[0], ParseNs: int64(v[1]), PlanNs: int64(v[2]), ExecNs: int64(v[3]), StreamNs: int64(v[4])}
		if hasMap {
			var text string
			if text, _, err = readString(buf); err != nil {
				return err
			}
			if c.ShardMap, err = ParseShardMap(text); err != nil {
				return err
			}
		}
	}
	return nil
}

// CloseStmt drops a statement handle. Fire-and-forget: the server
// sends no reply, and frame ordering guarantees a later EXECUTE on
// the same connection cannot race the close.
type CloseStmt struct {
	StmtID uint64
}

// Encode marshals c.
func (c *CloseStmt) Encode() []byte {
	return appendU64(nil, c.StmtID)
}

// DecodeCloseStmt unmarshals a CloseStmt payload.
func DecodeCloseStmt(buf []byte) (*CloseStmt, error) {
	var c CloseStmt
	var err error
	c.StmtID, _, err = readU64(buf)
	if err != nil {
		return nil, err
	}
	return &c, nil
}

// Cancel interrupts another session's statement: the one whose
// EXECUTE carried Seq. It must be the first frame on a fresh connection
// (in place of Hello); the server verifies the key, cancels, and closes
// the connection without replying — exactly the Postgres cancel-request
// shape, so a client blocked reading its own statement's reply never
// deadlocks on the cancel path.
type Cancel struct {
	SessionID uint64
	CancelKey uint64
	Seq       uint64
}

// Encode marshals c.
func (c *Cancel) Encode() []byte {
	buf := appendU64(nil, c.SessionID)
	buf = appendU64(buf, c.CancelKey)
	return binary.AppendUvarint(buf, c.Seq)
}

// DecodeCancel unmarshals a Cancel payload.
func DecodeCancel(buf []byte) (*Cancel, error) {
	var c Cancel
	var err error
	c.SessionID, buf, err = readU64(buf)
	if err != nil {
		return nil, err
	}
	c.CancelKey, buf, err = readU64(buf)
	if err != nil {
		return nil, err
	}
	c.Seq, _, err = readUvarint(buf)
	if err != nil {
		return nil, err
	}
	return &c, nil
}
