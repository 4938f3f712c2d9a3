package engine

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ifdb/internal/authority"
	"ifdb/internal/label"
	"ifdb/internal/storage"
	"ifdb/internal/types"
	"ifdb/internal/wal"
)

// Regenerate testdata/snapshot_recovered.golden with
//
//	go test ./internal/engine -run TestSnapshotRecoveredStateGolden -update
var update = flag.Bool("update", false, "rewrite testdata/*.golden from what recovery restores now")

// buildSnapshotState gives dir a checkpoint snapshot that covers every
// kind of state it holds, then changes more state after it and crashes.
func buildSnapshotState(t *testing.T, dir string) {
	t.Helper()
	e := openDurableEngine(t, dir, true)
	s := e.NewSession(e.Admin())
	alice := e.CreatePrincipal("alice")
	bob := e.CreatePrincipal("bob")
	carol := e.CreatePrincipal("carol")
	if _, err := e.CreateTag(alice, "alice_all"); err != nil {
		t.Fatal(err)
	}
	med, err := e.CreateTag(alice, "alice_med", "alice_all")
	if err != nil {
		t.Fatal(err)
	}
	for _, to := range []authority.Principal{bob, carol} {
		if _, err := e.Authority().Delegate(alice, to, med); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CreateSequence("ids"); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProc("audit", func(*Session, []types.Value) (types.Value, error) {
		return types.Null, nil
	}); err != nil {
		t.Fatal(err)
	}

	mustExec(t, s, `CREATE TABLE accts (id BIGINT PRIMARY KEY, owner TEXT, bal BIGINT)`)
	mustExec(t, s, `CREATE INDEX accts_owner ON accts (owner)`)
	mustExec(t, s, `CREATE TABLE ledger (id BIGINT PRIMARY KEY, note TEXT) USING DISK`)
	mustExec(t, s, `CREATE TABLE tickets (n BIGINT, who TEXT)`)
	mustExec(t, s, `CREATE TABLE scratch (x BIGINT)`)
	mustExec(t, s, `DROP TABLE scratch`)
	mustExec(t, s, `INSERT INTO accts VALUES (1, 'admin', 100), (2, 'admin', 200), (3, 'admin', 300)`)
	mustExec(t, s, `INSERT INTO ledger VALUES (1, 'open'), (2, 'open')`)
	mustExec(t, s, `UPDATE accts SET bal = 150 WHERE id = 1`)
	mustExec(t, s, `DELETE FROM accts WHERE id = 3`)
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO accts VALUES (50, 'rolled back', 1)`)
	mustExec(t, s, `ROLLBACK`)
	mustExec(t, s, `INSERT INTO tickets VALUES (nextval('ids'), 'admin'), (nextval('ids'), 'admin')`)

	sa := e.NewSession(alice)
	mustExec(t, sa, `CREATE VIEW rich AS SELECT id, bal FROM accts WHERE bal > 500 WITH DECLASSIFYING (alice_med)`)
	if err := sa.AddSecrecy(med); err != nil {
		t.Fatal(err)
	}
	mustExec(t, sa, `INSERT INTO accts VALUES (10, 'alice', 1000)`)
	mustExec(t, sa, `INSERT INTO tickets VALUES (nextval('ids'), 'alice')`)
	mustExec(t, s, `CREATE TRIGGER accts_audit AFTER INSERT ON accts EXECUTE PROCEDURE audit`)

	// In flight across the checkpoint: it writes before, commits after.
	span := e.NewSession(e.Admin())
	mustExec(t, span, `BEGIN`)
	mustExec(t, span, `INSERT INTO accts VALUES (60, 'span', 6)`)
	mustExec(t, span, `UPDATE ledger SET note = 'spanning' WHERE id = 2`)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, span, `COMMIT`)

	mustExec(t, s, `INSERT INTO accts VALUES (4, 'admin', 400)`)
	mustExec(t, s, `DELETE FROM accts WHERE id = 2`)
	mustExec(t, s, `INSERT INTO ledger VALUES (3, 'after')`)
	mustExec(t, s, `INSERT INTO tickets VALUES (nextval('ids'), 'admin')`)
	if _, err := e.Authority().Revoke(alice, carol, med); err != nil {
		t.Fatal(err)
	}
	// In flight at the crash.
	lost := e.NewSession(e.Admin())
	mustExec(t, lost, `BEGIN`)
	mustExec(t, lost, `INSERT INTO accts VALUES (70, 'lost', 7)`)
}

// dumpState renders what recovery restored, with principals and tags by
// name: their ids are drawn at random per engine.
func dumpState(e *Engine) string {
	var b strings.Builder
	prins, tags, dels := e.auth.Export()
	pname := make(map[authority.Principal]string, len(prins))
	for _, p := range prins {
		pname[p.ID] = p.Name
	}
	tname := func(t label.Tag) string {
		if n, ok := e.TagName(t); ok {
			return n
		}
		return fmt.Sprintf("?%d", uint64(t))
	}
	names := func(l label.Label) string {
		out := make([]string, len(l))
		for i, t := range l {
			out[i] = tname(t)
		}
		sort.Strings(out)
		return "{" + strings.Join(out, ",") + "}"
	}
	status := func(x storage.XID) string {
		if x == storage.InvalidXID {
			return "-"
		}
		if seq, ok := e.txns.Committed(x); ok {
			return fmt.Sprintf("%d:committed@%d", x, seq)
		}
		if e.txns.Aborted(x) {
			return fmt.Sprintf("%d:aborted", x)
		}
		return fmt.Sprintf("%d:in-flight", x)
	}
	var lines []string
	section := func(head string) {
		sort.Strings(lines)
		fmt.Fprintf(&b, "%s\n", head)
		for _, l := range lines {
			fmt.Fprintf(&b, "  %s\n", l)
		}
		lines = lines[:0]
	}

	fmt.Fprintf(&b, "admin %s\n", pname[e.admin])
	fmt.Fprintf(&b, "next-xid %d commit-seq %d\n", e.txns.NextXID(), e.txns.CommitSeq())
	for _, p := range prins {
		lines = append(lines, p.Name)
	}
	section("principals")
	for _, t := range tags {
		lines = append(lines, fmt.Sprintf("%s owner=%s parents=%s", t.Name, pname[t.Owner], names(t.Parents)))
	}
	section("tags")
	for _, d := range dels {
		lines = append(lines, fmt.Sprintf("%s: %s -> %s", tname(d.Tag), pname[d.Grantor], pname[d.Grantee]))
	}
	section("delegations")
	fmt.Fprintf(&b, "ddl\n")
	for _, d := range e.ddlLog {
		fmt.Fprintf(&b, "  %s: %s\n", pname[authority.Principal(d.Principal)], d.Text)
	}
	for name, seq := range e.sequences {
		for key, v := range seq.counters {
			// A partition key is the label's "{id,...}" rendering.
			var l label.Label
			for _, f := range strings.FieldsFunc(key, func(r rune) bool { return r < '0' || r > '9' }) {
				id, _ := strconv.ParseUint(f, 10, 64)
				l = append(l, label.Tag(id))
			}
			lines = append(lines, fmt.Sprintf("%s %s = %d", name, names(l), v))
		}
	}
	section("sequences")
	tables := e.cat.Tables()
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	for _, t := range tables {
		fmt.Fprintf(&b, "table %s disk=%v\n", t.Name, t.OnDisk)
		_ = t.Heap.Scan(func(tid storage.TID, tv *storage.TupleVersion) bool {
			fmt.Fprintf(&b, "  tid=%d xmin=%s xmax=%s label=%s ilabel=%s row=%v\n",
				tid, status(tv.Xmin), status(tv.Xmax), names(tv.Label), names(tv.ILabel), tv.Row)
			return true
		})
		for _, ix := range t.Indexes {
			lines = append(lines, fmt.Sprintf("index %s entries=%d", ix.Name, ix.Tree.Len()))
		}
		sort.Strings(lines)
		for _, l := range lines {
			fmt.Fprintf(&b, "  %s\n", l)
		}
		lines = lines[:0]
	}
	return b.String()
}

// TestSnapshotRecoveredStateGolden pins what recovery restores from a
// checkpoint snapshot plus the log after it: the golden was recorded
// before the snapshot's file format last changed, so any state the new
// format drops or alters shows as a diff.
func TestSnapshotRecoveredStateGolden(t *testing.T) {
	dir := t.TempDir()
	buildSnapshotState(t, dir)
	got := dumpState(openDurableEngine(t, dir, true))
	path := filepath.Join("testdata", "snapshot_recovered.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("recovered state differs from %s\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestCorruptSnapshotRefused: a damaged snapshot fails recovery, naming
// the file, rather than restore the state before the damage.
func TestCorruptSnapshotRefused(t *testing.T) {
	src := t.TempDir()
	e := openDurableEngine(t, src, false)
	s := e.NewSession(e.Admin())
	mustExec(t, s, `CREATE TABLE t (a BIGINT PRIMARY KEY, b TEXT)`)
	for i := 0; i < 20; i++ {
		mustExec(t, s, `INSERT INTO t VALUES ($1, 'row')`, types.NewInt(int64(i)))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(src, "checkpoint.snap"))
	if err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(src, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	// Frame starts, from the file's own records (LSN = file offset).
	var starts []int
	if err := wal.ReadSnapshot(filepath.Join(src, "checkpoint.snap"), func(r *wal.Record) error {
		starts = append(starts, int(r.LSN))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	mid := starts[len(starts)/2]
	cases := map[string][]byte{
		"flipped byte": func() []byte {
			b := append([]byte(nil), snap...)
			b[mid+10] ^= 0xff
			return b
		}(),
		"cut mid-frame":            snap[:mid+5],
		"cut before CKPT-END":      snap[:starts[len(starts)-1]],
		"previous format's header": append([]byte("IFDBSNP2"), snap[8:]...),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "checkpoint.snap")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "wal.log"), log, 0o644); err != nil {
				t.Fatal(err)
			}
			e, err := New(Config{DataDir: dir, SyncMode: "off"})
			if err == nil {
				e.Close()
				t.Fatal("recovery accepted a damaged snapshot")
			}
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("error does not name %s: %v", path, err)
			}
			if name == "previous format's header" && !strings.Contains(err.Error(), "IFDBSNP3") {
				t.Fatalf("error does not name the format this build reads: %v", err)
			}
		})
	}
}

// TestCheckpointDeterministic: two checkpoints of an unchanged engine
// write the same records, byte for byte, apart from the log position
// the SNAPSHOT record says it covers — no map order leaks into the file.
func TestCheckpointDeterministic(t *testing.T) {
	dir := t.TempDir()
	e := openDurableEngine(t, dir, true)
	s := e.NewSession(e.Admin())
	mustExec(t, s, `CREATE TABLE t (a BIGINT, b TEXT)`)
	var owners []authority.Principal
	for _, name := range []string{"p1", "p2", "p3", "p4"} {
		owners = append(owners, e.CreatePrincipal(name))
	}
	var tags []label.Tag
	for i, name := range []string{"t1", "t2", "t3"} {
		tag, err := e.CreateTag(owners[i], name)
		if err != nil {
			t.Fatal(err)
		}
		tags = append(tags, tag)
		for _, to := range owners[i+1:] {
			if _, err := e.Authority().Delegate(owners[i], to, tag); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, seq := range []string{"s1", "s2", "s3"} {
		if err := e.CreateSequence(seq); err != nil {
			t.Fatal(err)
		}
		for i, tag := range tags {
			ss := e.NewSession(owners[i])
			if err := ss.AddSecrecy(tag); err != nil {
				t.Fatal(err)
			}
			mustExec(t, ss, `INSERT INTO t VALUES (nextval('`+seq+`'), $1)`, types.NewText(seq))
		}
	}

	path := filepath.Join(dir, "checkpoint.snap")
	capture := func() (wal.Record, []byte) {
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var head wal.Record
		var rest wal.LSN
		if err := wal.ReadSnapshot(path, func(r *wal.Record) error {
			if r.Type == wal.RecSnapshot {
				head = *r
			} else if rest == 0 {
				rest = r.LSN
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		head.Covered = 0
		return head, data[rest:]
	}
	head1, rest1 := capture()
	head2, rest2 := capture()
	if head1.Summary() != head2.Summary() {
		t.Fatalf("SNAPSHOT records differ beyond their covered position:\n%s\n%s", head1.Summary(), head2.Summary())
	}
	if string(rest1) != string(rest2) {
		t.Fatalf("two checkpoints of an unchanged engine wrote different records (%d and %d bytes)", len(rest1), len(rest2))
	}
}
