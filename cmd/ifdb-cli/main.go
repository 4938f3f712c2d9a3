// Command ifdb-cli is an interactive shell for an IFDB server — the
// psql analog from §7.2, extended with label awareness: the prompt
// shows the process label, and meta-commands manage tags, authority,
// and the label.
//
//	ifdb-cli -addr 127.0.0.1:5433 -token secret
//
// Meta-commands:
//
//	\label                 show the process label
//	\addsecrecy <tag>      raise the label (name or id)
//	\declassify <tag>      lower the label (requires authority)
//	\tag <name>            create a tag owned by the current principal
//	\principal <name>      create a principal and switch to it
//	\status                show the node's replication role, epoch, LSNs
//	\stats                 show the last statement's timing breakdown and trace ID
//	\promote               promote this replica to primary (SELECT promote())
//	\shardmap              show the node's current shard map
//	\q                     quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ifdb/client"
	"ifdb/internal/obs"
)

func main() {
	var (
		addr  = flag.String("addr", "127.0.0.1:5433", "server address")
		token = flag.String("token", "", "platform token")
		prin  = flag.Uint64("principal", 0, "acting principal id (0 = none)")
	)
	flag.Parse()

	conn, err := client.Dial(*addr, *token, *prin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ifdb-cli:", err)
		os.Exit(1)
	}
	defer conn.Close()

	// last is the timing breakdown the last statement's reply carried.
	var last client.StmtStats
	in := bufio.NewScanner(os.Stdin)
	for {
		fmt.Printf("ifdb%s> ", conn.Label())
		if !in.Scan() {
			return
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "\\") {
			if quit := metaCommand(conn, line, &last); quit {
				return
			}
			continue
		}
		res, err := conn.Exec(line)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		last = res.Stats
		printResult(res)
	}
}

func metaCommand(conn *client.Conn, line string, last *client.StmtStats) (quit bool) {
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\q":
		return true
	case "\\label":
		fmt.Println(conn.Label())
	case "\\addsecrecy":
		if len(fields) != 2 {
			fmt.Println("usage: \\addsecrecy <tag>")
			return
		}
		t, err := resolveTag(conn, fields[1])
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		conn.AddSecrecy(t)
	case "\\declassify":
		if len(fields) != 2 {
			fmt.Println("usage: \\declassify <tag>")
			return
		}
		t, err := resolveTag(conn, fields[1])
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if err := conn.Declassify(t); err != nil {
			fmt.Println("error:", err)
		}
	case "\\tag":
		if len(fields) < 2 {
			fmt.Println("usage: \\tag <name> [compound...]")
			return
		}
		t, err := conn.CreateTag(fields[1], fields[2:]...)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("tag %s = %d\n", fields[1], uint64(t))
	case "\\principal":
		if len(fields) != 2 {
			fmt.Println("usage: \\principal <name>")
			return
		}
		p, err := conn.CreatePrincipal(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		conn.SetPrincipal(p)
		fmt.Printf("now acting as principal %d (%s)\n", p, fields[1])
	case "\\status":
		st, err := conn.Status()
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		printStatus(st)
	case "\\stats":
		fmt.Printf("trace=%s parse=%s plan=%s exec=%s stream=%s\n",
			obs.TraceID(last.TraceID),
			fmtNs(last.ParseNs), fmtNs(last.PlanNs), fmtNs(last.ExecNs), fmtNs(last.StreamNs))
	case "\\promote":
		st, err := conn.PromoteNode()
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Println("promoted to primary")
		printStatus(st)
	case "\\shardmap":
		m, err := conn.ShardMap()
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if m == nil {
			fmt.Println("unsharded")
			return
		}
		fmt.Print(m.Format())
	default:
		fmt.Println("unknown meta-command", fields[0])
	}
	return false
}

// fmtNs renders a nanosecond count with a human-scaled unit.
func fmtNs(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	}
	return fmt.Sprintf("%dns", ns)
}

func printStatus(st *client.Status) {
	role := "primary"
	if st.Replica {
		role = "replica"
	}
	fmt.Printf("role=%s epoch=%d wal-end=%d", role, st.Epoch, st.WALEnd)
	if st.Replica {
		fmt.Printf(" applied-lsn=%d", st.AppliedLSN)
	}
	if st.Err != "" {
		fmt.Printf(" stream-error=%q", st.Err)
	}
	fmt.Println()
}

func resolveTag(conn *client.Conn, s string) (client.Tag, error) {
	if n, err := strconv.ParseUint(s, 10, 64); err == nil {
		return client.Tag(n), nil
	}
	return conn.LookupTag(s)
}

func printResult(res *client.Result) {
	if len(res.Cols) == 0 {
		fmt.Printf("OK (%d rows affected)\n", res.Affected)
		return
	}
	fmt.Println(strings.Join(res.Cols, " | "))
	for i, row := range res.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		line := strings.Join(parts, " | ")
		if res.RowLabels != nil {
			line += "   _label=" + res.RowLabels[i].String()
		}
		fmt.Println(line)
	}
	fmt.Printf("(%d rows)\n", len(res.Rows))
}
