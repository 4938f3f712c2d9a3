package cluster

import "ifdb/internal/obs"

// Coordinator metrics, registered at init so every series is present
// (at zero) from the first scrape.
var (
	mProbeFailures = obs.NewCounter("ifdb_cluster_probe_failures_total",
		"Health probes that failed to reach a node or read its ifdb_node row.")
	mFailovers = obs.NewCounter("ifdb_cluster_failovers_total",
		"Successful promotions orchestrated by this coordinator (manual or automatic).")
	gEpoch = obs.NewGauge("ifdb_cluster_epoch",
		"WAL epoch of the most recently promoted primary, as its ifdb_node row reports after promote().")
)
