package wire

import (
	"bufio"
	"bytes"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ifdb/internal/engine"
	"ifdb/internal/label"
	"ifdb/internal/obs"
)

// syncBuffer is a bytes.Buffer the server's goroutine writes and the
// test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

// next returns what was written since the last call, waiting up to a
// few seconds for something: the server logs a statement after its
// reply has left.
func (b *syncBuffer) next() string {
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		b.mu.Lock()
		s := b.b.String()
		b.b.Reset()
		b.mu.Unlock()
		if s != "" || time.Now().After(deadline) {
			return s
		}
	}
}

// TestSlowQueryAuditObeysLabel: the slow-query audit line names the
// statement's text only for a session whose secrecy label is empty when
// the statement ends; a labeled session's line keeps the trace ID and
// the phase timings, and no text.
func TestSlowQueryAuditObeysLabel(t *testing.T) {
	var logged syncBuffer
	obs.SetAudit(slog.New(slog.NewTextHandler(&logged, nil)))
	defer obs.SetAudit(nil)

	eng := engine.MustNew(engine.Config{IFC: true})
	admin := eng.Admin()
	secret, err := eng.CreateTag(admin, "secret")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.NewSession(admin).Exec(`CREATE TABLE t (k BIGINT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, "")
	srv.SlowQuery = 1 // every statement is slow
	go srv.Serve(ln)
	defer srv.Close()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := &rawClient{t: t, r: bufio.NewReader(nc), w: bufio.NewWriter(nc)}
	c.send(MsgHello, (&Hello{Principal: uint64(admin)}).Encode())
	c.recv(MsgHelloOK)

	for _, tc := range []struct {
		name    string
		label   label.Label
		sql     string
		showSQL bool
	}{
		{"unlabeled", nil, `SELECT k FROM t WHERE k = 4242`, true},
		{"labeled", label.New(secret), `SELECT k FROM t WHERE k = 9191`, false},
	} {
		e := Execute{SQL: tc.sql, SyncLabel: true, Label: tc.label, Principal: uint64(admin)}
		c.execute(&e)
		line := logged.next()
		if !strings.Contains(line, "slow query") || !strings.Contains(line, "trace=") || !strings.Contains(line, "exec_ns=") {
			t.Errorf("%s: no slow-query line with its trace and timings: %q", tc.name, line)
		}
		hasSQL := strings.Contains(line, "sql=") || strings.Contains(line, tc.sql[len(tc.sql)-4:])
		if hasSQL != tc.showSQL {
			t.Errorf("%s: statement text logged %v, want %v: %q", tc.name, hasSQL, tc.showSQL, line)
		}
	}
}
