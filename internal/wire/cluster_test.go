package wire

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strings"
	"testing"

	"ifdb/internal/engine"
)

// TestRetiredFramesRefused: node state, the shard map and statement
// timings are SQL and the statement's own trailer, so the STATUS ('T'),
// PROMOTE ('M'), STATS ('G') and SHARDMAP ('D') request bytes are
// frames like any unknown one: after HELLO the server logs "unexpected
// frame" and hangs up, answering nothing.
func TestRetiredFramesRefused(t *testing.T) {
	eng, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var log syncBuffer
	srv := NewServer(eng, "")
	srv.Logger = slog.New(slog.NewTextHandler(&log, nil))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	for _, typ := range []byte{'M', 'T', 'G', 'D'} {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		r, w := bufio.NewReader(nc), bufio.NewWriter(nc)
		if err := WriteFrame(w, MsgHello, (&Hello{}).Encode()); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if got, _, err := ReadFrame(r); err != nil || got != MsgHelloOK {
			t.Fatalf("handshake: %c, %v", got, err)
		}
		if err := WriteFrame(w, typ, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if got, _, err := ReadFrame(r); err != io.EOF {
			t.Fatalf("frame %c: answered %c, %v; want the connection closed", typ, got, err)
		}
		nc.Close()
		if got, want := log.next(), fmt.Sprintf("msg=\"wire: unexpected frame\" frame=%c", typ); !strings.Contains(got, want) {
			t.Fatalf("frame %c: log %q lacks %q", typ, got, want)
		}
	}
}

// TestReplEpochRoundTrip: the epoch rides every replication frame.
func TestReplEpochRoundTrip(t *testing.T) {
	h := &ReplHello{Token: "tok", From: 77, Epoch: 3}
	gh, err := DecodeReplHello(h.Encode())
	if err != nil || *gh != *h {
		t.Fatalf("hello: %+v %v", gh, err)
	}
	ok := &ReplOK{Resume: 88, Epoch: 4}
	gok, err := DecodeReplOK(ok.Encode())
	if err != nil || *gok != *ok {
		t.Fatalf("ok: %+v %v", gok, err)
	}
	se := &ReplSnapEnd{Start: 99, Epoch: 5}
	gse, err := DecodeReplSnapEnd(se.Encode())
	if err != nil || *gse != *se {
		t.Fatalf("snapend: %+v %v", gse, err)
	}
	rr := &ReplRecs{From: 1, To: 9, Epoch: 6, Data: []byte("frames")}
	grr, err := DecodeReplRecs(rr.Encode())
	if err != nil || grr.From != 1 || grr.To != 9 || grr.Epoch != 6 || string(grr.Data) != "frames" {
		t.Fatalf("recs: %+v %v", grr, err)
	}
}

// TestReplHelloWithoutReplicate: the client port routes a connection
// by its first frame. A server with no Replicate hook (an in-memory
// node: no WAL to ship) answers a follower's ReplHello with a ReplErr
// that says so, rather than hanging up without a word.
func TestReplHelloWithoutReplicate(t *testing.T) {
	eng, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, "")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	w := bufio.NewWriter(nc)
	if err := WriteFrame(w, MsgReplHello, (&ReplHello{Epoch: 1}).Encode()); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(bufio.NewReader(nc))
	if err != nil || typ != MsgReplErr {
		t.Fatalf("reply to ReplHello: %s, err %v; want ReplErr", ReplFrameName(typ), err)
	}
	if e, err := DecodeReplErr(payload); err != nil || !strings.Contains(e.Msg, "replication") {
		t.Fatalf("ReplErr %+v, err %v; want it to name replication", e, err)
	}
}
