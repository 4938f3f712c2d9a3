package wire

import (
	"bufio"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"ifdb/internal/engine"
	"ifdb/internal/types"
)

// TestCancelNamesItsStatement drives CANCEL frames against one session
// in the three orders a client can produce them: a CANCEL for a
// finished statement lands while the next one runs, a CANCEL arrives
// before the EXECUTE it names, and a CANCEL names the statement running
// now. Only the statement a CANCEL names may fail.
func TestCancelNamesItsStatement(t *testing.T) {
	eng := engine.MustNew(engine.Config{})
	defer eng.Close()
	// hold(ms) signals that its statement runs, then sleeps ms through a
	// nested statement, which polls for cancellation.
	running := make(chan struct{}, 1)
	if err := eng.RegisterProc("hold", func(s *engine.Session, args []types.Value) (types.Value, error) {
		running <- struct{}{}
		_, err := s.Exec(`SELECT sleep($1)`, args[0])
		return types.NewInt(1), err
	}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, "")
	go srv.Serve(ln)
	defer srv.Close()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := &rawClient{t: t, r: bufio.NewReader(nc), w: bufio.NewWriter(nc)}
	c.send(MsgHello, (&Hello{Principal: uint64(eng.Admin())}).Encode())
	hello, err := DecodeHelloOK(c.recv(MsgHelloOK))
	if err != nil {
		t.Fatal(err)
	}

	// cancel sends a CANCEL naming statement seq and waits for the server
	// to hang up, which it does once it has dealt with the frame.
	cancel := func(seq uint64) {
		t.Helper()
		cc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cc.Close()
		w := bufio.NewWriter(cc)
		frame := &Cancel{SessionID: hello.SessionID, CancelKey: hello.CancelKey, Seq: seq}
		if err := WriteFrame(w, MsgCancel, frame.Encode()); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := cc.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("cancel connection: %v, want the server to hang up", err)
		}
	}
	// result reads the reply of an EXECUTE already sent: its error.
	result := func() string {
		t.Helper()
		var ch *RowsChunk
		for ch == nil || !ch.Done {
			if ch, err = DecodeRowsChunk(c.recv(MsgRows)); err != nil {
				t.Fatal(err)
			}
		}
		return ch.Err
	}
	start := func(seq uint64, sql string) {
		t.Helper()
		payload, err := (&Execute{SQL: sql, Seq: seq}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		c.send(MsgExecute, payload)
	}
	counts := func() (n [4]int64) {
		for i, outcome := range []string{"applied", "stale", "early", "refused"} {
			n[i] = mCancels.With(outcome).Value()
		}
		return n
	}
	counted := func(schedule string, before [4]int64, outcome int) {
		t.Helper()
		after := counts()
		for i := range after {
			want := before[i]
			if i == outcome {
				want++
			}
			if after[i] != want {
				t.Fatalf("%s: cancels (applied, stale, early, refused) went from %v to %v", schedule, before, after)
			}
		}
	}
	const applied, stale, early, refused = 0, 1, 2, 3

	start(1, `SELECT 1`)
	if e := result(); e != "" {
		t.Fatal(e)
	}

	// (a) A CANCEL naming statement 1 lands while statement 2 runs.
	before := counts()
	start(2, `SELECT hold(300)`)
	<-running
	cancel(1)
	if e := result(); e != "" {
		t.Fatalf("(a) statement 2 failed for statement 1's cancel: %s", e)
	}
	counted("(a)", before, stale)

	// (b) A CANCEL naming statement 3 arrives before its EXECUTE.
	before = counts()
	cancel(3)
	t0 := time.Now()
	start(3, `SELECT sleep(5000)`)
	if e := result(); e != engine.ErrCanceled.Error() {
		t.Fatalf("(b) statement 3 after its early cancel: %q, want %q", e, engine.ErrCanceled)
	}
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("(b) early cancel took %v to stop its statement", d)
	}
	counted("(b)", before, early)

	// (c) A CANCEL naming the statement running now.
	before = counts()
	start(4, `SELECT hold(5000)`)
	<-running
	cancel(4)
	if e := result(); !strings.Contains(e, engine.ErrCanceled.Error()) {
		t.Fatalf("(c) statement 4 under its own cancel: %q, want %q", e, engine.ErrCanceled)
	}
	counted("(c)", before, applied)

	// The session goes on, and a CANCEL without the key is refused.
	before = counts()
	start(5, `SELECT 1`)
	if e := result(); e != "" {
		t.Fatal(e)
	}
	hello.CancelKey++
	cancel(5)
	counted("bad key", before, refused)
}
