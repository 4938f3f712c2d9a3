package ifdb_test

import (
	"fmt"
	"testing"
	"time"

	"ifdb"
	"ifdb/client"
)

// TestRouterAuthorityCalls: an unsharded Router runs the authority
// functions as statements — create_tag on the primary, tag() on the
// replica — and the read waits on the write's commit token, so the
// replica always knows the tag it is asked for.
func TestRouterAuthorityCalls(t *testing.T) {
	prim, err := ifdb.Open(ifdb.Config{IFC: true, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	owner := prim.CreatePrincipal("owner")
	primAddr, _, _ := serveNode(t, prim, "")
	replica, err := ifdb.Open(ifdb.Config{IFC: true, DataDir: t.TempDir(), ReplicaOf: primAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	replAddr, _, _ := serveNode(t, replica, "")
	router, err := client.OpenRouter(client.RouterConfig{
		Addrs: []string{primAddr, replAddr}, Principal: uint64(owner),
		FailoverTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	for i := 0; i < 20; i++ {
		name := ifdb.Text(fmt.Sprintf("t%d", i))
		made, err := router.Exec("SELECT create_tag($1)", name)
		if err != nil {
			t.Fatalf("create_tag %d: %v", i, err)
		}
		got, err := router.Exec("SELECT tag($1)", name)
		if err != nil {
			t.Fatalf("tag() %d after create_tag: %v", i, err)
		}
		if want := made.Rows[0][0].Int(); got.Rows[0][0].Int() != want {
			t.Fatalf("tag() %d = %d, create_tag gave %d", i, got.Rows[0][0].Int(), want)
		}
	}
	if router.IdleConns()[replAddr] == 0 {
		t.Fatal("no read reached the replica")
	}
}
