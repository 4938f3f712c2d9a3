// Command scatter is the README's sharded-cluster walkthrough: a
// client.Router pointed at one node of a sharded cluster discovers
// the topology (SELECT shard_map()), routes keyed writes to their owning shards, and runs
// a cluster-wide GROUP BY aggregate as a scatter-gather plan — each
// shard aggregates its slice and ships one partial row per group;
// the gateway merges SUM-of-COUNTs. EXPLAIN shows the split.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"ifdb"
	"ifdb/client"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:5433", "any node of the sharded cluster")
	token := flag.String("token", "demo", "platform token")
	flag.Parse()

	// One address is enough: the Router asks the node for its map
	// (SELECT shard_map()) and discovers every shard's primary from it.
	router, err := client.OpenRouter(client.RouterConfig{
		Addrs: []string{*addr}, Token: *token,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer router.Close()

	// DDL fans out to every shard primary; keyed INSERTs route to the
	// shard that owns hash(k).
	if _, err := router.Exec(`CREATE TABLE IF NOT EXISTS events (
		k BIGINT PRIMARY KEY, kind TEXT)`); err != nil {
		log.Fatal(err)
	}
	kinds := []string{"login", "logout", "purchase"}
	for k := 0; k < 30; k++ {
		if _, err := router.Exec(`INSERT INTO events VALUES ($1, $2)`,
			ifdb.Int(int64(k)), ifdb.Text(kinds[k%3])); err != nil {
			log.Fatal(err)
		}
	}

	// A keyless aggregate splits at the shard boundary: EXPLAIN shows
	// the gateway's plan tree, then the fragment each shard runs.
	const q = `SELECT kind, count(*) FROM events GROUP BY kind ORDER BY kind`
	plan, err := router.Exec(`EXPLAIN ` + q)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range plan.Rows {
		fmt.Println(row[0].String())
	}

	res, err := router.Exec(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(strings.Join(res.Cols, " | "))
	for _, row := range res.Rows {
		fmt.Printf("%s | %s\n", row[0].String(), row[1].String())
	}

	fmt.Println("scatter: OK")
}
