package wire

import "ifdb/internal/obs"

// Wire-server metrics, registered at init so every series is present
// (at zero) from the first scrape.
var (
	gActiveSessions = obs.NewGauge("ifdb_server_active_sessions",
		"Client sessions currently registered (post-Hello connections).")
	mFramesIn = obs.NewCounter("ifdb_server_frames_in_total",
		"Protocol frames read from clients on established sessions.")
	mFramesOut = obs.NewCounter("ifdb_server_frames_out_total",
		"Protocol frames written to clients (result chunks and the other replies).")
	mWrites = obs.NewCounter("ifdb_server_writes_total",
		"Writes to client sockets: one per reply frame that fits the 4 KiB write buffer (a result's last rows and its trailer share a frame), two for a larger frame.")
	mRowsBytes = obs.NewCounter("ifdb_wire_rows_bytes_total",
		"Encoded payload bytes of ROWS frames written to clients — the bytes-on-wire cost of result streaming (partial-aggregate pushdown shrinks it).")
	gStreamBuffered = obs.NewGauge("ifdb_wire_stream_buffered_bytes",
		"Bytes result streaming holds: every connection's chunk encode buffer, plus the result rows open cursors hold at their encoded size (one chunk of a streamed result, all of a materialized one).")
	mSlowQueries = obs.NewCounter("ifdb_server_slow_queries_total",
		"Statements whose total server-side time exceeded the slow-query threshold.")
	mCancels = obs.NewCounterVec("ifdb_wire_cancels_total",
		"CANCEL frames by outcome: applied (named the running statement), stale (named a finished one), early (arrived before its EXECUTE), refused (unknown session or bad key).", "outcome")
	mStmtSeconds = obs.NewDurationHistogram("ifdb_server_stmt_seconds",
		"Total server-side statement time (admission + parse + execute + stream).")
)
