package client

import "ifdb/internal/obs"

// Client metrics, registered at init so every series is present (at
// zero) from the first scrape of a process embedding the Router.
var (
	mShardRouted = obs.NewCounterVec("ifdb_router_shard_routed_total",
		"Statements the sharded Router sent to each shard.", "shard")
	mFanoutWidth = obs.NewSizeHistogram("ifdb_router_fanout_width",
		"Shards touched per fan-out read.")
	mStaleMapRefusals = obs.NewCounter("ifdb_router_stale_map_refusals_total",
		"Statements a server refused for carrying an outdated shard-map version.")
	mRouterRetries = obs.NewCounter("ifdb_router_retries_total",
		"Routing retries: failover chases, stale-pool redials, and stale-map re-routes.")
	gStreamBuffered = obs.NewGauge("ifdb_client_stream_buffered_bytes",
		"Bytes connections hold for result streaming: each one's frame buffer, plus the chunk an open stream is iterating at its encoded size.")
	mShardErrors = obs.NewCounter("ifdb_router_shard_errors_total",
		"Per-node errors observed during Router probes and shard fan-out.")
)
