// Command ifdb-dump produces a label-preserving logical dump of an
// IFDB database — the pg_dump analog the paper modified so that
// "backups include labels" (§7.2).
//
// It connects as a dump principal whose process label the operator has
// raised to cover everything being dumped (or runs against a server in
// baseline mode). Rows are emitted as INSERT statements annotated with
// their _label, so a restore can re-attach labels through trusted
// labeling code.
//
//	ifdb-dump -addr 127.0.0.1:5433 -token secret -tables users,cars
//
// It can also pretty-print a write-ahead log or a checkpoint snapshot
// offline, for debugging recovery — record type, LSN, XID, and per-type
// details:
//
//	ifdb-dump -wal /var/lib/ifdb/wal.log
//	ifdb-dump -wal /var/lib/ifdb/checkpoint.snap
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"ifdb/client"
	"ifdb/internal/types"
	"ifdb/internal/wal"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:5433", "server address")
		token   = flag.String("token", "", "platform token")
		prin    = flag.Uint64("principal", 0, "acting principal id")
		tables  = flag.String("tables", "", "comma-separated tables to dump (required)")
		raise   = flag.String("raise", "", "comma-separated tag names to add to the label first")
		walPath = flag.String("wal", "", "pretty-print this WAL or checkpoint snapshot file and exit (offline; no server)")
	)
	flag.Parse()
	if *walPath != "" {
		if err := dumpWAL(*walPath); err != nil {
			fmt.Fprintln(os.Stderr, "ifdb-dump:", err)
			os.Exit(1)
		}
		return
	}
	if *tables == "" {
		fmt.Fprintln(os.Stderr, "ifdb-dump: -tables is required")
		os.Exit(2)
	}

	conn, err := client.Dial(*addr, *token, *prin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ifdb-dump:", err)
		os.Exit(1)
	}
	defer conn.Close()

	for _, name := range splitList(*raise) {
		t, err := conn.LookupTag(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ifdb-dump: tag %q: %v\n", name, err)
			os.Exit(1)
		}
		conn.AddSecrecy(t)
	}

	for _, table := range splitList(*tables) {
		res, err := conn.Exec("SELECT * FROM " + table)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ifdb-dump: %s: %v\n", table, err)
			os.Exit(1)
		}
		fmt.Printf("-- table %s: %d rows\n", table, len(res.Rows))
		for i, row := range res.Rows {
			vals := make([]string, len(row))
			for j, v := range row {
				vals[j] = sqlLiteral(v)
			}
			line := fmt.Sprintf("INSERT INTO %s VALUES (%s);", table, strings.Join(vals, ", "))
			if res.RowLabels != nil {
				line += fmt.Sprintf(" -- _label=%s", res.RowLabels[i])
			}
			fmt.Println(line)
		}
	}
}

// dumpWAL prints every intact record of a write-ahead log or a
// checkpoint snapshot, one per line, and reports a torn log tail (the
// normal shape of a crash).
func dumpWAL(path string) error {
	// The readers treat a missing file as empty (what recovery wants);
	// for a debugging tool that would masquerade as "0 records", so
	// check explicitly.
	if _, err := os.Stat(path); err != nil {
		return err
	}
	n, commits, aborts := 0, 0, 0
	show := func(r *wal.Record) error {
		switch r.Type {
		case wal.RecCommit:
			commits++
		case wal.RecAbort:
			aborts++
		}
		n++
		fmt.Println(r.Summary())
		return nil
	}
	torn := false
	err := wal.ReadSnapshot(path, show)
	if errors.Is(err, wal.ErrNotSnapshot) {
		var recs []wal.Record
		if recs, torn, err = wal.ReadAll(path); err != nil {
			return err
		}
		for i := range recs {
			show(&recs[i])
		}
	} else if err != nil {
		return err
	}
	fmt.Printf("-- %d records, %d commits, %d aborts", n, commits, aborts)
	if torn {
		fmt.Printf(", torn tail (crash artifact; ignored by recovery)")
	}
	fmt.Println()
	return nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if t := strings.TrimSpace(p); t != "" {
			out = append(out, t)
		}
	}
	return out
}

func sqlLiteral(v types.Value) string {
	switch v.Kind() {
	case types.KindText:
		return "'" + strings.ReplaceAll(v.Text(), "'", "''") + "'"
	case types.KindTime:
		return "'" + v.String() + "'"
	default:
		return v.String()
	}
}
