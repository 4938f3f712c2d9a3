package client_test

import (
	"fmt"
	"strings"
	"testing"

	"ifdb/client"
	"ifdb/internal/authority"
)

// TestAuthorityCallsKeepHighBitIDs drives every authority call over a
// real socket with principal ids of 2^63 and above: an id formatted
// into the SQL text would not parse back as a BIGINT literal.
func TestAuthorityCallsKeepHighBitIDs(t *testing.T) {
	db, addr := startServer(t, "")
	next := uint64(1 << 63)
	db.Engine().Authority().SetIDSourceForTest(func() uint64 { next++; return next })
	conn, err := client.Dial(addr, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	owner, err := conn.CreatePrincipal("owner")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := conn.CreatePrincipal("bob")
	if err != nil {
		t.Fatal(err)
	}
	if owner < 1<<63 || bob < 1<<63 {
		t.Fatalf("principal ids %#x, %#x: want the high bit set", owner, bob)
	}
	conn.SetPrincipal(owner)
	tg, err := conn.CreateTag("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Delegate(bob, tg); err != nil {
		t.Fatal(err)
	}
	hasAuthority := func(want bool) {
		t.Helper()
		conn.SetPrincipal(bob)
		if ok, err := conn.HasAuthority(tg); err != nil || ok != want {
			t.Fatalf("bob's HasAuthority = %v, %v; want %v", ok, err, want)
		}
		if ok := db.Engine().Authority().HasAuthority(authority.Principal(bob), tg); ok != want {
			t.Fatalf("server state: bob holds %v, want %v", ok, want)
		}
		conn.SetPrincipal(owner)
	}
	hasAuthority(true)
	if err := conn.Revoke(bob, tg); err != nil {
		t.Fatal(err)
	}
	hasAuthority(false)
}

// TestLabelCallsParseOnce: Declassify and Endorse send one text each,
// the tag a parameter, so calls on many tags cost one parse.
func TestLabelCallsParseOnce(t *testing.T) {
	db, addr := startServer(t, "")
	owner := db.CreatePrincipal("owner")
	conn, err := client.Dial(addr, "", uint64(owner))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var tags []client.Tag
	for i := 0; i < 10; i++ {
		tg, err := conn.CreateTag(fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		tags = append(tags, tg)
	}
	for _, call := range []struct {
		name string
		fn   func(client.Tag) error
	}{
		{"Declassify", func(tg client.Tag) error { conn.AddSecrecy(tg); return conn.Declassify(tg) }},
		{"Endorse", conn.Endorse},
	} {
		before := db.Engine().ParseCount()
		for _, tg := range tags {
			if err := call.fn(tg); err != nil {
				t.Fatalf("%s(%d): %v", call.name, tg, err)
			}
		}
		if n := db.Engine().ParseCount() - before; n > 1 {
			t.Errorf("%s on %d tags parsed %d times, want at most 1", call.name, len(tags), n)
		}
	}
	if !conn.Label().IsEmpty() || conn.Integrity().Len() != len(tags) {
		t.Fatalf("label %v, integrity %v: want empty and all %d tags", conn.Label(), conn.Integrity(), len(tags))
	}
}

// TestBadTokenIsServerError: a refused handshake is the server's
// answer, not a transport error, so a pool that dials afresh after a
// transport error does not mistake it for one.
func TestBadTokenIsServerError(t *testing.T) {
	_, addr := startServer(t, "right")
	_, err := client.Dial(addr, "wrong", 0)
	if err == nil || client.IsTransportError(err) || !strings.Contains(err.Error(), "bad platform token") {
		t.Fatalf("Dial with a bad token: %v; want the server's refusal", err)
	}
}
