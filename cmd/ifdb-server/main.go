// Command ifdb-server runs an IFDB database server speaking the wire
// protocol of internal/wire. Clients must present the platform token
// (attesting they are a trusted DIFC runtime, paper §2).
//
//	ifdb-server -addr :5433 -token secret [-no-ifc] [-datadir /var/lib/ifdb]
//	            [-sync group|commit|off] [-checkpoint-interval 1m]
//	            [-replica-of primary:5433] [-repl-token secret]
//	            [-repl-retain 64MB] [-cluster a:5433,b:5433] [-auto-failover]
//	            [-shard-id 0 -shard-map shards.conf]
//	            [-metrics-listen :9090] [-log-level info] [-slow-query 100ms]
//
// Observability: -metrics-listen serves the process metrics registry
// in Prometheus text format on /metrics (plus net/http/pprof under
// /debug/pprof). -log-level selects the slog level for the structured
// diagnostics on stderr; IFC security events (declassifications,
// authority denials) and -slow-query statements land on the same
// stream tagged channel=audit, carrying per-statement trace IDs. See
// ARCHITECTURE.md § Observability.
//
// With -datadir the server is durable: it recovers from the
// write-ahead log at startup, group-commits by default, checkpoints
// periodically, and SIGINT/SIGTERM trigger a clean shutdown (final
// checkpoint, WAL close).
//
// Replication: a durable server (-datadir) serves its WAL to followers
// on its client address — a connection whose first frame is a
// replication hello gets the stream. -replica-of makes it a read-only
// replica of the primary at the named client address — it bootstraps
// (or resumes) from the primary's stream and serves queries, rejecting
// writes. -repl-token authenticates followers (defaults to -token).
// -repl-retain caps how many WAL bytes a lagging replica may pin
// against checkpoint truncation (0 = unlimited).
//
// Failover: a replica runs SELECT promote() from a client session
// (ifdb-cli \promote, or the cluster coordinator) and turns
// into a writable primary under a bumped WAL epoch; a stale primary is
// fenced and can only rejoin by re-bootstrapping as a replica. A
// replica refuses followers until it is promoted and serves them from
// then on, so fenced peers rejoin at the new primary's client address,
// the one the coordinator and shard map already know. -cluster names
// every node's
// client address and runs the health-checking coordinator in-process;
// with -auto-failover it promotes the most-caught-up replica after the
// primary has been unreachable for -fail-after probes.
//
// Sharding: -shard-map names a shard map file (see the README's
// sharded-cluster walkthrough for the format) and makes this server
// shard-aware: it answers SELECT shard_map() with the map and refuses
// statements routed under a stale map version. -shard-id additionally
// pins the server to one shard: inserts whose shard key hashes to a
// different shard are refused (defense against misrouted or
// shard-unaware clients). When the in-process coordinator runs
// (-cluster, or -shard-map alone with -auto-failover), a shard
// failover rewrites the served map with a bumped version, and routers
// follow it.
//
// An optional -init script (SQL, semicolon-separated) runs as the
// administrator before serving, for schema bootstrap.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ifdb"
	"ifdb/internal/catalog"
	"ifdb/internal/cluster"
	"ifdb/internal/engine"
	"ifdb/internal/obs"
	"ifdb/internal/repl"
	"ifdb/internal/types"
	"ifdb/internal/wire"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:5433", "listen address")
		token    = flag.String("token", "", "platform attestation token (empty accepts anyone)")
		noIFC    = flag.Bool("no-ifc", false, "disable information flow control (baseline mode)")
		dataDir  = flag.String("datadir", "", "data directory (heap files + WAL); empty runs in-memory")
		syncMode = flag.String("sync", "group", "WAL sync mode: off|commit|group")
		ckptIvl  = flag.Duration("checkpoint-interval", time.Minute, "checkpoint period (0 disables; requires -datadir)")
		initSQL  = flag.String("init", "", "path to a SQL script to run at startup")
		vacuum   = flag.Duration("vacuum-interval", time.Minute, "autovacuum period (0 disables)")

		replicaOf  = flag.String("replica-of", "", "run as a read-only replica of the primary at this client address (requires -datadir)")
		replToken  = flag.String("repl-token", "", "replication token (defaults to -token)")
		replRetain = flag.Int64("repl-retain", 0, "retained-WAL budget in bytes a lagging replica may pin (0 = unlimited)")

		clusterNodes = flag.String("cluster", "", "comma-separated client addresses of every cluster node: runs the failover coordinator")
		autoFailover = flag.Bool("auto-failover", false, "with -cluster: automatically promote the most-caught-up replica when the primary dies")
		probeIvl     = flag.Duration("probe-interval", time.Second, "with -cluster: health probe period")
		failAfter    = flag.Int("fail-after", 3, "with -cluster: consecutive failed primary probes before automatic failover")

		shardID      = flag.Int("shard-id", -1, "this server's shard id (with -shard-map): refuse rows owned by other shards")
		shardMapFile = flag.String("shard-map", "", "shard map file: answer shard_map() and fence stale-map statements")

		metricsListen = flag.String("metrics-listen", "", "serve Prometheus /metrics and /debug/pprof on this address")
		logLevel      = flag.String("log-level", "info", "log level: debug|info|warn|error")
		slowQuery     = flag.Duration("slow-query", 0, "log statements slower than this to the audit channel (0 disables)")
	)
	flag.Parse()
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ifdb-server:", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)
	// The audit/slow-query channel: IFC security events
	// (declassifications, authority denials) and slow statements land
	// here with their trace IDs, distinguishable by channel=audit.
	obs.SetAudit(logger.With("channel", "audit"))
	die := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	if *replToken == "" {
		*replToken = *token
	}
	if *replicaOf != "" && *initSQL != "" {
		die("-init is meaningless on a replica (schema comes from the primary)")
	}

	if *metricsListen != "" {
		go func() {
			if err := http.ListenAndServe(*metricsListen, obs.Handler(obs.Default)); err != nil {
				die("metrics listener failed", "err", err)
			}
		}()
		logger.Info("serving metrics", "addr", *metricsListen)
	}

	db, err := ifdb.Open(ifdb.Config{
		IFC:              !*noIFC,
		DataDir:          *dataDir,
		SyncMode:         *syncMode,
		CheckpointEvery:  *ckptIvl,
		ReplicaOf:        *replicaOf,
		ReplToken:        *replToken,
		ReplRetainBudget: *replRetain,
	})
	if err != nil {
		die("open failed", "err", err)
	}
	if *initSQL != "" {
		script, err := os.ReadFile(*initSQL)
		if err != nil {
			die("read init script failed", "err", err)
		}
		if _, err := db.AdminSession().Exec(string(script)); err != nil {
			die("init script failed", "err", err)
		}
	}

	stopVacuum := make(chan struct{})
	if *vacuum > 0 {
		go func() {
			t := time.NewTicker(*vacuum)
			defer t.Stop()
			for {
				select {
				case <-stopVacuum:
					return
				case <-t.C:
					if n := db.Vacuum(); n > 0 {
						logger.Debug("vacuum reclaimed versions", "count", n)
					}
				}
			}
		}()
	}

	srv := wire.NewServer(db.Engine(), *token)
	srv.Logger = logger
	srv.SlowQuery = *slowQuery
	srv.StatusErr = db.ReplicationErr

	// Sharding: parse the map, answer shard_map() with it (the
	// coordinator's live copy once one runs — its failovers bump the
	// version), and pin this server to its shard. The coordinator is
	// created below, before the server accepts its first connection, so
	// the closure's read of coord is ordered after its assignment.
	var coord *cluster.Coordinator
	var staticMap *wire.ShardMap
	if *shardMapFile != "" {
		text, err := os.ReadFile(*shardMapFile)
		if err != nil {
			die("read shard map failed", "err", err)
		}
		staticMap, err = wire.ParseShardMap(string(text))
		if err != nil {
			die("bad shard map", "err", err)
		}
		if *shardID >= staticMap.NumShards() {
			die("-shard-id out of range", "shard_id", *shardID, "shards", staticMap.NumShards())
		}
		currentMap := func() *wire.ShardMap {
			if coord != nil {
				if m := coord.ShardMap(); m != nil {
					return m
				}
			}
			return staticMap
		}
		srv.ShardMap = currentMap
		if *shardID >= 0 {
			sid := uint32(*shardID)
			db.Engine().SetShardGuard(func(t *catalog.Table, row []types.Value) error {
				m := currentMap()
				keyCol := m.KeyColumn(t.Name)
				if keyCol == "" {
					return nil // table not sharded by key
				}
				for i, col := range t.Columns {
					if strings.EqualFold(col.Name, keyCol) {
						if own := m.ShardOf(row[i].String()); own != sid {
							return fmt.Errorf("%w: key %s of table %s hashes to shard %d, this server is shard %d",
								engine.ErrShardOwnership, row[i], t.Name, own, sid)
						}
						return nil
					}
				}
				return nil
			})
		}
	} else if *shardID >= 0 {
		die("-shard-id requires -shard-map")
	}

	// Primary side of replication: a durable node serves its WAL to
	// followers on the client port. A replica's Primary refuses them
	// (no cascading replication) until promote(), then serves fenced
	// peers rejoining at this address.
	if *dataDir != "" {
		p := repl.NewPrimary(db.Engine(), *replToken)
		p.Logger = logger
		srv.Replicate = p.Stream
	}

	// Failover: a replica's sessions may run SELECT promote().
	if db.IsReplica() {
		srv.Promote = func() error {
			if err := db.Promote(); err != nil {
				return err
			}
			logger.Warn("promoted to primary", "epoch", db.Epoch())
			return nil
		}
	}

	// The in-process failover coordinator (health checks + optional
	// automatic promotion of the most-caught-up replica; per shard when
	// a shard map is loaded). With -shard-map alone, -auto-failover is
	// enough to run it — the map's members are the node set.
	stopCoord := make(chan struct{})
	if *clusterNodes != "" || (staticMap != nil && *autoFailover) {
		var nodes []string
		if *clusterNodes != "" {
			nodes = strings.Split(*clusterNodes, ",")
		}
		c, err := cluster.New(cluster.Config{
			Nodes:         nodes,
			Token:         *token,
			ProbeInterval: *probeIvl,
			FailAfter:     *failAfter,
			AutoPromote:   *autoFailover,
			Logger:        logger,
			ShardMap:      staticMap,
		})
		if err != nil {
			die("coordinator failed", "err", err)
		}
		coord = c
		go coord.Run(stopCoord)
		logger.Info("coordinating cluster", "nodes", *clusterNodes, "auto_failover", *autoFailover, "sharded", staticMap != nil)
	}

	// Clean shutdown: stop accepting, checkpoint, close the WAL.
	// shuttingDown closes *before* the listener so the main goroutine
	// can tell a shutdown-induced accept error from a real one.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	shuttingDown := make(chan struct{})
	done := make(chan struct{})
	go func() {
		sig := <-sigc
		logger.Info("shutting down", "signal", sig.String())
		close(shuttingDown)
		close(stopVacuum)
		close(stopCoord)
		if err := srv.Close(); err != nil {
			logger.Warn("close listener failed", "err", err)
		}
		if err := db.Close(); err != nil {
			logger.Warn("close database failed", "err", err)
		}
		close(done)
	}()

	role := "primary"
	if db.IsReplica() {
		role = "replica of " + *replicaOf
	}
	logger.Info("listening", "addr", *addr, "ifc", !*noIFC, "datadir", *dataDir,
		"sync", *syncMode, "role", role, "epoch", db.Epoch())
	if err := srv.ListenAndServe(*addr); err != nil {
		select {
		case <-shuttingDown:
			// Listener closed by the shutdown path; wait for the final
			// checkpoint before exiting.
		default:
			die("serve failed", "err", err)
		}
	}
	<-done
}
