// Package wire implements IFDB's client/server protocol: a
// length-prefixed binary framing over TCP, with the process label and
// acting principal piggybacked lazily on statements and results — the
// paper's design for keeping the platform's and the DBMS's view of the
// process label synchronized without extra round trips (§7.1–7.2).
//
// Beyond statements, the protocol carries the cluster-management
// surface:
//
//   - STATUS/PROMOTE frames (cluster.go): role, epoch, and LSN probes
//     — what the coordinator's health checks and the Router's primary
//     discovery are built on — and replica promotion;
//   - replication frames (repl.go): the WAL-shipping stream between a
//     primary and its followers, epoch-stamped on every batch;
//   - SHARDMAP frames (shard.go): the version-stamped shard map, plus
//     version fencing — a statement routed under a stale map version
//     is refused with the current map attached to the reply;
//   - API v2 frames (prepared.go): PREPARE/EXECUTE statement handles
//     that pin the parsed AST server-side, chunked ROWS streaming,
//     and out-of-band CANCEL keyed by the HelloOK handshake;
//   - read-your-writes plumbing: Execute.WaitLSN delays a replica
//     read until the replica has applied the client's last acknowledged
//     write; the final ROWS chunk carries the (epoch, LSN) commit token
//     that feeds it.
//
// See ARCHITECTURE.md § Replication (stream protocol), § Failover &
// epochs (STATUS/PROMOTE and tokens), and § Sharding (map format and
// version fencing).
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"ifdb/internal/label"
)

// Message type bytes.
const (
	MsgHello    byte = 'H' // client → server: token, principal
	MsgHelloOK  byte = 'h' // server → client (a bad token: a trailer-only ROWS frame)
	MsgStats    byte = 'G' // client → server: last statement's timing
	MsgStatsRes byte = 'g' // server → client: Stats
	MsgClose    byte = 'X' // client → server: goodbye
)

// MaxFrame bounds a single protocol frame (64 MiB).
const MaxFrame = 64 << 20

// MaxKeptFrame bounds the buffer a connection keeps from one frame to
// the next, on either end. A larger frame is read or encoded into a
// buffer of its own that is dropped after it, so a connection that once
// carried a 10 MB statement does not pin 10 MB for its lifetime.
const MaxKeptFrame = 64 << 10

// WriteFrame sends one frame: uint32 length, type byte, payload.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	if len(payload)+1 > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(payload))
	}
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame into a payload of its own.
func ReadFrame(r *bufio.Reader) (typ byte, payload []byte, err error) {
	typ, payload, _, err = ReadFrameInto(r, nil)
	return typ, payload, err
}

// ReadFrameInto reads one frame into buf, growing it when the frame
// does not fit, and returns the buffer for the caller's next read. The
// payload aliases it: decode before reading the next frame.
func ReadFrameInto(r *bufio.Reader, buf []byte) (typ byte, payload, grown []byte, err error) {
	// The length is read in place in r's buffer: a header array of our
	// own would escape through io.ReadFull's reader.
	hdr, err := r.Peek(4)
	if err != nil {
		if len(hdr) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	r.Discard(4)
	if n == 0 || n > MaxFrame {
		return 0, nil, buf, fmt.Errorf("wire: bad frame length %d", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, buf, err
	}
	return buf[0], buf[1:], buf, nil
}

// --- payload encoding helpers -------------------------------------------

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readString(buf []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || uint64(len(buf)-sz) < n {
		return "", nil, fmt.Errorf("wire: bad string")
	}
	return string(buf[sz : sz+int(n)]), buf[sz+int(n):], nil
}

func readUvarint(buf []byte) (uint64, []byte, error) {
	v, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return 0, nil, fmt.Errorf("wire: bad varint")
	}
	return v, buf[sz:], nil
}

func appendU64(buf []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(buf, v) }

func readU64(buf []byte) (uint64, []byte, error) {
	if len(buf) < 8 {
		return 0, nil, fmt.Errorf("wire: short u64")
	}
	return binary.LittleEndian.Uint64(buf), buf[8:], nil
}

// Labels on the wire use 64-bit tag ids (tags fit in 32 bits today,
// but the wire format should not bake that in).
func appendLabel(buf []byte, l label.Label) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(l)))
	for _, t := range l {
		buf = appendU64(buf, uint64(t))
	}
	return buf
}

func readLabel(buf []byte) (label.Label, []byte, error) {
	n, buf, err := readLabelLen(buf)
	if err != nil || n == 0 {
		return nil, buf, err
	}
	l, buf := fillLabel(make(label.Label, n), buf)
	return l, buf, nil
}

// readLabelLen reads a label's tag count, which the rest of buf is
// long enough to hold.
func readLabelLen(buf []byte) (int, []byte, error) {
	n, sz := binary.Uvarint(buf)
	// Each tag takes 8 bytes: a count the remaining payload cannot
	// hold is corruption, caught before the allocation sized by it.
	if sz <= 0 || n > uint64(len(buf)-sz)/8 {
		return 0, nil, fmt.Errorf("wire: bad label")
	}
	return int(n), buf[sz:], nil
}

// fillLabel reads len(l) tags from buf into l and normalizes it.
func fillLabel(l label.Label, buf []byte) (label.Label, []byte) {
	for i := range l {
		l[i] = label.Tag(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	buf = buf[8*len(l):]
	if !l.Normalized() {
		l = label.New(l...)
	}
	return l, buf
}

// --- Hello ---------------------------------------------------------------

// Hello is the connection handshake. Token authenticates the client
// platform as part of the trusted base (§2); Principal is the acting
// principal established by the platform's authentication code.
type Hello struct {
	Token     string
	Principal uint64
}

// Encode marshals h.
func (h *Hello) Encode() []byte {
	buf := appendString(nil, h.Token)
	return appendU64(buf, h.Principal)
}

// DecodeHello unmarshals a Hello payload.
func DecodeHello(buf []byte) (*Hello, error) {
	var h Hello
	var err error
	h.Token, buf, err = readString(buf)
	if err != nil {
		return nil, err
	}
	h.Principal, _, err = readU64(buf)
	if err != nil {
		return nil, err
	}
	return &h, nil
}

// --- Stats -------------------------------------------------------------

// Stats is the reply to a STATS request, which has no payload: the
// server-side timing breakdown of the session's most recent statement,
// five fixed u64 fields. Asking runs no statement, so it does not
// overwrite the breakdown it reads.
type Stats struct {
	// TraceID echoes the ID the client stamped on the statement.
	TraceID uint64
	// ParseNs is parser time (0 for prepared executions — they never
	// parse); PlanNs is server-side admission (label sync, shard
	// fencing, read-your-writes waits); ExecNs is engine execution;
	// StreamNs is result encoding and streaming.
	ParseNs, PlanNs, ExecNs, StreamNs int64
}

// Encode marshals s.
func (s *Stats) Encode() []byte {
	buf := appendU64(nil, s.TraceID)
	for _, ns := range [...]int64{s.ParseNs, s.PlanNs, s.ExecNs, s.StreamNs} {
		buf = appendU64(buf, uint64(ns))
	}
	return buf
}

// DecodeStats unmarshals a Stats payload.
func DecodeStats(buf []byte) (*Stats, error) {
	if len(buf) != 5*8 {
		return nil, fmt.Errorf("wire: bad stats (%d bytes)", len(buf))
	}
	f := func(i int) uint64 { return binary.LittleEndian.Uint64(buf[8*i:]) }
	return &Stats{TraceID: f(0), ParseNs: int64(f(1)), PlanNs: int64(f(2)), ExecNs: int64(f(3)), StreamNs: int64(f(4))}, nil
}
