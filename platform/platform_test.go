package platform_test

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"reflect"
	"strings"
	"testing"

	"ifdb"
	"ifdb/internal/obs"
	"ifdb/platform"
)

func setup(t *testing.T) (*platform.Runtime, ifdb.Principal, ifdb.Tag) {
	t.Helper()
	db := ifdb.MustOpen(ifdb.Config{IFC: true})
	if _, err := db.AdminSession().Exec(`CREATE TABLE diary (id BIGINT PRIMARY KEY, text TEXT)`); err != nil {
		t.Fatal(err)
	}
	alice := db.CreatePrincipal("alice")
	tg, err := db.CreateTag(alice, "alice_diary")
	if err != nil {
		t.Fatal(err)
	}
	return platform.New(db), alice, tg
}

func TestOutputInterposition(t *testing.T) {
	rt, alice, tg := setup(t)
	pr := rt.NewProcess(alice)
	if err := pr.AddSecrecy(tg); err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Exec(`INSERT INTO diary VALUES (1, 'dear diary')`); err != nil {
		t.Fatal(err)
	}
	pr.Printf("the diary says: %s", "dear diary")

	// Contaminated: release refused, buffer dropped.
	var out bytes.Buffer
	err := pr.Release(&out)
	if !errors.Is(err, platform.ErrContaminatedOutput) {
		t.Fatalf("release: %v", err)
	}
	if out.Len() != 0 || pr.OutputLen() != 0 {
		t.Fatal("contaminated output leaked or retained")
	}

	// After declassification (alice owns the tag): released.
	pr2 := rt.NewProcess(alice)
	if err := pr2.AddSecrecy(tg); err != nil {
		t.Fatal(err)
	}
	pr2.Printf("ok")
	if err := pr2.Declassify(tg); err != nil {
		t.Fatal(err)
	}
	if err := pr2.Release(&out); err != nil {
		t.Fatal(err)
	}
	if out.String() != "ok" {
		t.Fatalf("released: %q", out.String())
	}
}

func TestDeclassifyRequiresAuthority(t *testing.T) {
	rt, _, tg := setup(t)
	mallory := rt.DB().CreatePrincipal("mallory")
	pr := rt.NewProcess(mallory)
	if err := pr.AddSecrecy(tg); err != nil {
		t.Fatal(err)
	}
	if err := pr.Declassify(tg); !errors.Is(err, ifdb.ErrAuthority) {
		t.Fatalf("declassify: %v", err)
	}
}

// TestPlatformDenialIsCounted: a declassification the platform refuses
// is the engine's refusal, so it shows in
// ifdb_ifc_authority_denials_total and on the audit channel exactly as
// the same refusal made through a session does.
func TestPlatformDenialIsCounted(t *testing.T) {
	rt, _, tg := setup(t)
	var audit bytes.Buffer
	obs.SetAudit(slog.New(slog.NewTextHandler(&audit, nil)))
	defer obs.SetAudit(nil)
	denials := func() int64 {
		return obs.Default.Snapshot().Counters["ifdb_ifc_authority_denials_total"]
	}
	mallory := rt.DB().CreatePrincipal("mallory")
	pr := rt.NewProcess(mallory)
	if err := pr.AddSecrecy(tg); err != nil {
		t.Fatal(err)
	}
	before := denials()
	if err := pr.Declassify(tg); !errors.Is(err, ifdb.ErrAuthority) {
		t.Fatalf("declassify: %v", err)
	}
	if got := denials() - before; got != 1 {
		t.Errorf("authority denials counted: %d, want 1", got)
	}
	for _, want := range []string{"op=declassify", fmt.Sprintf("principal=%d tag=%d", mallory, tg)} {
		if !strings.Contains(audit.String(), want) {
			t.Errorf("audit log %q lacks %q", audit.String(), want)
		}
	}
}

// TestDeclassifyAfterOutsideDelegation: authority granted outside the
// platform — by trusted code through db.Delegate, or by the owner's
// SQL delegate() — holds for the grantee's next process at once, for
// Declassify and DeclassifyAll alike, even after a refusal.
func TestDeclassifyAfterOutsideDelegation(t *testing.T) {
	rt, alice, tg := setup(t)
	db := rt.DB()
	for _, g := range []struct {
		name  string
		grant func(p ifdb.Principal) error
	}{
		{"db.Delegate", func(p ifdb.Principal) error { return db.Delegate(alice, p, tg) }},
		{"SQL delegate()", func(p ifdb.Principal) error {
			_, err := db.NewSession(alice).Exec(`SELECT delegate($1, 'alice_diary')`, ifdb.Int(int64(p)))
			return err
		}},
	} {
		t.Run(g.name, func(t *testing.T) {
			grantee := db.CreatePrincipal("grantee " + g.name)
			refused := rt.NewProcess(grantee)
			if err := refused.AddSecrecy(tg); err != nil {
				t.Fatal(err)
			}
			if err := refused.Declassify(tg); !errors.Is(err, ifdb.ErrAuthority) {
				t.Fatalf("declassify before the grant: %v", err)
			}
			if err := g.grant(grantee); err != nil {
				t.Fatal(err)
			}
			if !db.HasAuthority(grantee, tg) {
				t.Fatal("grant did not reach the authority state")
			}
			pr := rt.NewProcess(grantee)
			if err := pr.AddSecrecy(tg); err != nil {
				t.Fatal(err)
			}
			if err := pr.Declassify(tg); err != nil {
				t.Fatalf("declassify after the grant: %v", err)
			}
			all := rt.NewProcess(grantee)
			if err := all.AddSecrecy(tg); err != nil {
				t.Fatal(err)
			}
			if rest := all.DeclassifyAll(); !rest.IsEmpty() {
				t.Fatalf("DeclassifyAll after the grant left %v", rest)
			}
		})
	}
}

// TestScriptCannotLowerItsLabel: a script running as a principal with
// no authority for alice's tag reads her row, then tries each way its
// Process offers to drop the tag. None works, so ServeRequest releases
// nothing. The method sets of the Process and of ifdb.Session are
// pinned, so no method that could set a label or principal without a
// check appears without this list being edited.
func TestScriptCannotLowerItsLabel(t *testing.T) {
	rt, alice, tg := setup(t)
	db := rt.DB()
	owner := db.NewSession(alice)
	if err := owner.AddSecrecy(tg); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Exec(`INSERT INTO diary VALUES (1, 'secret')`); err != nil {
		t.Fatal(err)
	}
	script := func(pr *platform.Process, _ map[string]string) error {
		if err := pr.AddSecrecy(tg); err != nil {
			return err
		}
		row, ok, err := pr.QueryRow(`SELECT text FROM diary WHERE id = 1`)
		if err != nil || !ok {
			return fmt.Errorf("read alice's row: ok=%v err=%v", ok, err)
		}
		pr.Printf("%v", row[0])
		_ = pr.Declassify(tg)
		_ = pr.DeclassifyAll()
		_ = pr.WithReducedAuthority(func() error { return pr.Declassify(tg) })
		_ = pr.CallClosure("nosuch", func() error { return pr.Declassify(tg) })
		if !pr.Label().Equal(ifdb.NewLabel(tg)) {
			return fmt.Errorf("label lowered to %v", pr.Label())
		}
		return nil
	}
	var out bytes.Buffer
	if err := rt.ServeRequest(db.CreatePrincipal("mallory"), script, nil, &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("released: %q", out.String())
	}

	methods := func(v interface{}) string {
		typ := reflect.TypeOf(v)
		names := make([]string, typ.NumMethod())
		for i := range names {
			names[i] = typ.Method(i).Name
		}
		return strings.Join(names, " ")
	}
	for _, c := range []struct{ typ, got, want string }{
		{"*platform.Process", methods((*platform.Process)(nil)),
			"AddSecrecy CallClosure Declassify DeclassifyAll Exec Label OutputLen Principal Printf QueryRow Release WithReducedAuthority Write"},
		{"*ifdb.Session", methods((*ifdb.Session)(nil)),
			"Abort AddSecrecy Begin CallClosure CallProc Cancel CancelStatement Canceled Commit CommitToken CreatePrincipal CreateTag Declassify Delegate DropIntegrity Endorse Exec ExecPrepared ExecPreparedStream ExecStmt ExecStream HasAuthority InTxn Integrity Label LastStmtStats NotePlanNs NoteStreamNs NumberNext Prepare Principal Query QueryEach QueryRow Revoke SetTraceID TraceID TriggerContext WithReducedAuthority"},
	} {
		if c.got != c.want {
			t.Errorf("%s methods:\n got  %s\n want %s", c.typ, c.got, c.want)
		}
	}
}

func TestDeclassifyAll(t *testing.T) {
	rt, alice, tg := setup(t)
	other := rt.DB().CreatePrincipal("other")
	otherTag, err := rt.DB().CreateTag(other, "other_tag")
	if err != nil {
		t.Fatal(err)
	}
	pr := rt.NewProcess(alice)
	if err := pr.AddSecrecy(tg); err != nil {
		t.Fatal(err)
	}
	if err := pr.AddSecrecy(otherTag); err != nil {
		t.Fatal(err)
	}
	rest := pr.DeclassifyAll()
	if !rest.Equal(ifdb.NewLabel(otherTag)) {
		t.Fatalf("residual label: %v", rest)
	}
}

func TestServeRequestBlankPageOnLeak(t *testing.T) {
	rt, alice, tg := setup(t)
	leaky := func(pr *platform.Process, _ map[string]string) error {
		if err := pr.AddSecrecy(tg); err != nil {
			return err
		}
		pr.Printf("SECRET")
		return nil // forgets to declassify
	}
	var out bytes.Buffer
	// ServeRequest succeeds but the client sees a blank page, not an
	// error oracle.
	mallory := rt.DB().CreatePrincipal("mallory")
	if err := rt.ServeRequest(mallory, leaky, nil, &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("leak: %q", out.String())
	}
	// The owner's process can declassify inside the handler.
	fine := func(pr *platform.Process, _ map[string]string) error {
		if err := pr.AddSecrecy(tg); err != nil {
			return err
		}
		pr.Printf("mine")
		return pr.Declassify(tg)
	}
	if err := rt.ServeRequest(alice, fine, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mine") {
		t.Fatalf("owner output: %q", out.String())
	}
}

func TestClosureThroughPlatform(t *testing.T) {
	rt, alice, tg := setup(t)
	db := rt.DB()
	worker := db.CreatePrincipal("worker")
	if err := db.NewSession(alice).Delegate(worker, tg); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterClosure("summary", alice, worker, ifdb.NewLabel(tg)); err != nil {
		t.Fatal(err)
	}
	mallory := db.CreatePrincipal("mallory")
	pr := rt.NewProcess(mallory)
	if err := pr.AddSecrecy(tg); err != nil {
		t.Fatal(err)
	}
	// Inside the closure, the worker's authority applies.
	if err := pr.CallClosure("summary", func() error {
		return pr.Declassify(tg)
	}); err != nil {
		t.Fatal(err)
	}
	if !pr.Label().IsEmpty() {
		t.Fatalf("label: %v", pr.Label())
	}
	// Outside, mallory is back to nothing.
	if err := pr.Declassify(tg); err != nil {
		// expected no-op: tag already removed; re-add and check failure
		t.Fatal(err)
	}
	if err := pr.AddSecrecy(tg); err != nil {
		t.Fatal(err)
	}
	if err := pr.Declassify(tg); err == nil {
		t.Fatal("mallory declassified outside the closure")
	}
	if err := pr.CallClosure("nosuch", func() error { return nil }); err == nil {
		t.Fatal("missing closure ran")
	}
}

func TestWriteThroughProcess(t *testing.T) {
	rt, alice, _ := setup(t)
	pr := rt.NewProcess(alice)
	n, err := pr.Write([]byte("abc"))
	if err != nil || n != 3 || pr.OutputLen() != 3 {
		t.Fatalf("Write: %d %v", n, err)
	}
	var out bytes.Buffer
	if err := pr.Release(&out); err != nil {
		t.Fatal(err)
	}
	if out.String() != "abc" {
		t.Fatalf("out: %q", out.String())
	}
}
