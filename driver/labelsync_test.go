package driver_test

import (
	"bufio"
	"context"
	"database/sql"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"ifdb"
	"ifdb/client"
	"ifdb/internal/wire"
)

// countFrames relays connections to addr and counts the frames clients
// send after their Hello: what the server adds to
// ifdb_server_frames_in_total, for this relay's connections alone (the
// process-wide counter also takes frames other tests' connections send
// late).
func countFrames(t *testing.T, addr string) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var n atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			srv, err := net.Dial("tcp", addr)
			if err != nil {
				c.Close()
				return
			}
			go func() {
				io.Copy(c, srv)
				c.Close()
			}()
			go func() {
				defer srv.Close()
				r := bufio.NewReader(c)
				for hello := true; ; hello = false {
					typ, payload, err := wire.ReadFrame(r)
					if err != nil {
						return
					}
					if !hello {
						n.Add(1)
					}
					if wire.WriteFrame(srv, typ, payload) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), &n
}

// TestLabelSyncRidesTheCall: an authority or label call carries the
// session's pending label in its own EXECUTE, so no statement is sent
// ahead of it to flush the label.
func TestLabelSyncRidesTheCall(t *testing.T) {
	srv, addr := startServer(t, "")
	addr, framesIn := countFrames(t, addr)
	alice := srv.CreatePrincipal("alice")
	for _, name := range []string{"t1", "t2"} {
		if _, err := srv.CreateTag(alice, name); err != nil {
			t.Fatal(err)
		}
	}

	// Opening a connection looks up t1, adds it to the label, then looks
	// up t2 with the label pending: one frame a tag.
	db, err := sql.Open("ifdb", "ifdb://"+addr+"?secrecy=t1,t2")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	before := framesIn.Load()
	conn, err := db.Conn(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n := framesIn.Load() - before; n != 2 {
		t.Errorf("opening a connection with two secrecy tags read %d frames, want 2", n)
	}
	conn.Close()

	// A contaminated session's CreateTag is refused by the label the
	// call itself carried.
	c, err := client.Dial(addr, "", uint64(alice))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	t1, err := c.LookupTag("t1")
	if err != nil {
		t.Fatal(err)
	}
	c.AddSecrecy(t1)
	before = framesIn.Load()
	if _, err := c.CreateTag("t3"); err == nil || !strings.Contains(err.Error(), ifdb.ErrContaminated.Error()) {
		t.Fatalf("CreateTag under label {t1}: %v, want %v", err, ifdb.ErrContaminated)
	}
	if n := framesIn.Load() - before; n != 1 {
		t.Errorf("a refused CreateTag read %d frames, want 1", n)
	}
}
