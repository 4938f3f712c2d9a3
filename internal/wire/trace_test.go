package wire

import (
	"testing"

	"ifdb/internal/types"
)

// TestExecuteTraceIDRoundTrip: the trace ID and the statement number
// survive encode/decode.
func TestExecuteTraceIDRoundTrip(t *testing.T) {
	e := &Execute{StmtID: 7, Params: []types.Value{types.NewInt(1)}, TraceID: 0xabad1dea, Seq: 300}
	buf, err := e.Encode()
	if err != nil {
		t.Fatal(err)
	}
	gotE, err := DecodeExecute(buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotE.TraceID != e.TraceID || gotE.Seq != e.Seq {
		t.Fatalf("execute trace ID %x, number %d; want %x, %d", gotE.TraceID, gotE.Seq, e.TraceID, e.Seq)
	}
}

// TestExecuteRefusesTruncated: an EXECUTE or CANCEL cut short anywhere
// — the trace ID and the statement number included — fails to decode
// rather than running with fields zeroed.
func TestExecuteRefusesTruncated(t *testing.T) {
	e := &Execute{SQL: "SELECT 1", WaitLSN: 42, ShardVer: 3, TraceID: 0x2222, Seq: 1 << 20}
	buf, err := e.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(buf); n++ {
		if got, err := DecodeExecute(buf[:n]); err == nil {
			t.Fatalf("execute cut to %d of %d bytes decoded as %+v", n, len(buf), got)
		}
	}
	cn := (&Cancel{SessionID: 1, CancelKey: 2, Seq: 1 << 20}).Encode()
	for n := 0; n < len(cn); n++ {
		if got, err := DecodeCancel(cn[:n]); err == nil {
			t.Fatalf("cancel cut to %d of %d bytes decoded as %+v", n, len(cn), got)
		}
	}
}
