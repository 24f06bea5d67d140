#include "service/metrics.h"

#include <cstdio>

namespace gordian {

std::string FormatServiceMetrics(const ServiceMetrics::Snapshot& s) {
  char buf[256];
  std::string out = "profiling service metrics:\n";
  auto line = [&](const char* name, int64_t v) {
    std::snprintf(buf, sizeof(buf), "  %-18s %lld\n", name,
                  static_cast<long long>(v));
    out += buf;
  };
  line("jobs submitted", s.jobs_submitted);
  line("jobs completed", s.jobs_completed);
  line("jobs cancelled", s.jobs_cancelled);
  line("jobs failed", s.jobs_failed);
  line("cache hits", s.cache_hits);
  line("cache misses", s.cache_misses);
  line("coalesced jobs", s.coalesced_jobs);
  line("tree cache hits", s.tree_cache_hits);
  line("tree cache misses", s.tree_cache_misses);
  if (s.trees_frozen > 0) {
    line("trees frozen", s.trees_frozen);
    std::snprintf(buf, sizeof(buf), "  %-18s %.3f ms\n", "freeze wall",
                  s.freeze_seconds * 1e3);
    out += buf;
    line("frozen bytes", s.frozen_tree_bytes);
    std::snprintf(buf, sizeof(buf), "  %-18s %.1f\n", "frozen bytes/node",
                  s.frozen_bytes_per_node());
    out += buf;
  }
  line("queue depth", s.queue_depth);
  line("running jobs", s.running_jobs);
  if (s.catalog_flushes > 0 || s.shards_recovered > 0 ||
      s.shards_quarantined > 0) {
    line("catalog flushes", s.catalog_flushes);
    line("shards flushed", s.shards_flushed);
    line("dirty-shard skips", s.dirty_shard_skips);
    line("flush bytes", s.catalog_flush_bytes);
    line("shards recovered", s.shards_recovered);
    line("shards quarantined", s.shards_quarantined);
  }
  if (s.appends > 0) {
    line("appends", s.appends);
    line("append absorbs", s.append_absorbs);
    line("delta rows", s.delta_rows);
    line("warm-start prunes", s.warm_start_prunes);
    std::snprintf(buf, sizeof(buf), "  %-18s %.3f ms\n", "refreeze wall",
                  s.refreeze_seconds * 1e3);
    out += buf;
  }
  if (s.ingest_batches > 0) {
    line("ingest batches", s.ingest_batches);
    line("ingest rows", s.ingest_rows);
    line("ingest bytes", s.ingest_bytes);
  }
  if (s.artifact_puts > 0 || s.artifact_serves > 0 ||
      s.artifact_put_errors > 0 || s.artifact_get_errors > 0) {
    line("artifact puts", s.artifact_puts);
    line("artifact put bytes", s.artifact_put_bytes);
    line("artifact put errors", s.artifact_put_errors);
    line("artifact serves", s.artifact_serves);
    line("artifact get errors", s.artifact_get_errors);
  }
  if (s.rpcs_in > 0 || s.rpcs_out > 0) {
    line("rpcs in", s.rpcs_in);
    line("rpcs out", s.rpcs_out);
    line("rpc bytes in", s.rpc_bytes_in);
    line("rpc bytes out", s.rpc_bytes_out);
    line("rpc sheds", s.rpc_sheds);
    line("rpc retries", s.rpc_retries);
    line("worker restarts", s.worker_restarts);
  }
  std::snprintf(buf, sizeof(buf), "  %-18s %.1f%%\n", "cache hit rate",
                s.cache_hit_rate() * 100);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  %-18s %.1f%%\n", "tree hit rate",
                s.tree_cache_hit_rate() * 100);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  %-18s %.3f ms\n", "mean latency",
                s.mean_latency_seconds() * 1e3);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  %-18s %.3f ms\n", "max latency",
                s.max_latency_seconds * 1e3);
  out += buf;
  bool any_stage = false;
  for (int i = 0; i < ServiceMetrics::Snapshot::kNumStages; ++i) {
    if (s.stage_runs[i] != 0) any_stage = true;
  }
  if (any_stage) {
    out += "  per-stage wall clock:\n";
    for (int i = 0; i < ServiceMetrics::Snapshot::kNumStages; ++i) {
      if (s.stage_runs[i] == 0) continue;
      std::snprintf(buf, sizeof(buf), "    %-16s %.3f s over %lld run(s)\n",
                    ServiceMetrics::Snapshot::kStageNames[i],
                    s.stage_seconds[i],
                    static_cast<long long>(s.stage_runs[i]));
      out += buf;
    }
  }
  return out;
}

}  // namespace gordian
