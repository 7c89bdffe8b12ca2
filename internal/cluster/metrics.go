package cluster

import "github.com/eda-go/adifo/internal/obs"

// clusterMetrics instruments the coordinator's failure-handling
// machinery — the part of the cluster that is invisible in results
// (merges are bit-identical no matter how many retries it took) and
// therefore only observable here: probe latency per backend, shards
// re-placed after a backend death, flapping backends skipped at submit,
// and the cost of the final merge.
type clusterMetrics struct {
	probeSeconds     *obs.HistogramVec // backend
	shardRetries     *obs.Counter
	exclusions       *obs.CounterVec // backend
	mergeSeconds     *obs.Histogram
	shardsSpeculated *obs.Counter
	speculationWins  *obs.Counter
}

func newClusterMetrics(reg *obs.Registry) *clusterMetrics {
	m := &clusterMetrics{}
	m.probeSeconds = reg.HistogramVec("adifo_cluster_probe_seconds",
		"Health-probe round-trip time per backend (failed probes observe the timeout).",
		nil, "backend")
	m.shardRetries = reg.Counter("adifo_cluster_shard_retries_total",
		"Shards re-placed on another backend after a loss (death, drain, eviction).")
	m.exclusions = reg.CounterVec("adifo_cluster_backend_exclusions_total",
		"Times a submit skipped a flapping backend when it picked a job's backends.",
		"backend")
	m.mergeSeconds = reg.Histogram("adifo_cluster_merge_seconds",
		"Time to merge all shard results into the final JobResult.", nil)
	m.shardsSpeculated = reg.Counter("adifo_cluster_shards_speculated_total",
		"Speculative duplicate attempts launched on idle backends for slow shards.")
	m.speculationWins = reg.Counter("adifo_cluster_speculation_wins_total",
		"Speculative duplicates that finished before the original attempt.")
	return m
}
