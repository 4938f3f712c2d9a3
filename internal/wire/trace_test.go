package wire

import (
	"testing"

	"ifdb/internal/types"
)

// TestExecuteTraceIDRoundTrip: the optional trailing trace ID survives
// encode/decode.
func TestExecuteTraceIDRoundTrip(t *testing.T) {
	e := &Execute{StmtID: 7, Params: []types.Value{types.NewInt(1)}, TraceID: 0xabad1dea}
	buf, err := e.Encode()
	if err != nil {
		t.Fatal(err)
	}
	gotE, err := DecodeExecute(buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotE.TraceID != e.TraceID {
		t.Fatalf("execute trace ID %x, want %x", gotE.TraceID, e.TraceID)
	}
}

// TestTraceIDBackwardTolerant: frames from pre-observability clients
// end where the old format ended; chopping the trailing eight bytes
// must still decode, with TraceID zero ("untraced").
func TestTraceIDBackwardTolerant(t *testing.T) {
	e := &Execute{SQL: "SELECT 1", WaitLSN: 42, ShardVer: 3, TraceID: 0x2222}
	buf, err := e.Encode()
	if err != nil {
		t.Fatal(err)
	}
	gotE, err := DecodeExecute(buf[:len(buf)-8])
	if err != nil {
		t.Fatalf("old-format execute frame rejected: %v", err)
	}
	if gotE.TraceID != 0 || gotE.WaitLSN != 42 || gotE.ShardVer != 3 {
		t.Fatalf("old-format execute decoded as %+v", gotE)
	}
}
