#ifndef GORDIAN_SERVICE_METRICS_H_
#define GORDIAN_SERVICE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"

namespace gordian {

// Monotonic counters for the profiling service, updated with relaxed
// atomics from worker and client threads alike. `Snapshot()` reads a
// consistent-enough picture for reporting; individual counters are exact,
// cross-counter invariants (submitted == completed + ...) only settle once
// the service is idle.
class ServiceMetrics {
 public:
  void OnSubmitted() { jobs_submitted_.fetch_add(1, kRelaxed); }
  void OnCompleted() { jobs_completed_.fetch_add(1, kRelaxed); }
  void OnCancelled() { jobs_cancelled_.fetch_add(1, kRelaxed); }
  void OnFailed() { jobs_failed_.fetch_add(1, kRelaxed); }
  void OnCacheHit() { cache_hits_.fetch_add(1, kRelaxed); }
  void OnCacheMiss() { cache_misses_.fetch_add(1, kRelaxed); }
  void OnCoalesced() { coalesced_jobs_.fetch_add(1, kRelaxed); }
  void OnTreeCacheHit() { tree_cache_hits_.fetch_add(1, kRelaxed); }
  void OnTreeCacheMiss() { tree_cache_misses_.fetch_add(1, kRelaxed); }

  // One freeze pass: its wall clock, the flat layout's byte footprint, and
  // the node count it covers (for the bytes-per-node derived figure).
  void OnTreeFrozen(double seconds, int64_t bytes, int64_t nodes) {
    trees_frozen_.fetch_add(1, kRelaxed);
    freeze_micros_.fetch_add(static_cast<int64_t>(seconds * 1e6), kRelaxed);
    frozen_tree_bytes_.fetch_add(bytes, kRelaxed);
    frozen_tree_nodes_.fetch_add(nodes, kRelaxed);
  }

  // One CatalogStore::Flush: shards rewritten, clean shards skipped via
  // their dirty bit, and payload bytes that went to disk (a fully warm
  // flush reports 16 skips and zero bytes).
  void OnCatalogFlush(int64_t shards_flushed, int64_t shards_skipped,
                      int64_t bytes_written) {
    catalog_flushes_.fetch_add(1, kRelaxed);
    shards_flushed_.fetch_add(shards_flushed, kRelaxed);
    dirty_shard_skips_.fetch_add(shards_skipped, kRelaxed);
    catalog_flush_bytes_.fetch_add(bytes_written, kRelaxed);
  }

  // One CatalogStore::Open or Refresh recovery outcome.
  void OnCatalogRecovery(int64_t shards_loaded, int64_t shards_quarantined) {
    shards_recovered_.fetch_add(shards_loaded, kRelaxed);
    shards_quarantined_.fetch_add(shards_quarantined, kRelaxed);
  }

  // One AppendAndReprofile call: the delta's row count, whether the batch
  // was absorbed into the chain's own prefix tree (vs. a snapshot rebuild
  // when the chain had no tree), how many futility prunes the warm-start
  // seeds earned in the re-traversal, and the wall clock of the report's
  // freeze pass.
  void OnAppend(int64_t delta_rows, bool tree_absorbed,
                int64_t warm_start_prunes, double refreeze_seconds) {
    appends_.fetch_add(1, kRelaxed);
    delta_rows_.fetch_add(delta_rows, kRelaxed);
    if (tree_absorbed) append_absorbs_.fetch_add(1, kRelaxed);
    warm_start_prunes_.fetch_add(warm_start_prunes, kRelaxed);
    refreeze_micros_.fetch_add(
        static_cast<int64_t>(refreeze_seconds * 1e6), kRelaxed);
  }

  // One CSV ingest's batch accounting (see IngestStats): RowBatches
  // scanned, rows they carried, and their columnar payload bytes.
  void OnIngest(int64_t batches, int64_t rows, int64_t bytes) {
    ingest_batches_.fetch_add(batches, kRelaxed);
    ingest_rows_.fetch_add(rows, kRelaxed);
    ingest_bytes_.fetch_add(bytes, kRelaxed);
  }

  // --- Table artifact store (service/table_artifacts.h) ----------------
  // One table durably persisted, with its on-disk footprint (columns+meta).
  void OnArtifactPut(int64_t bytes) {
    artifact_puts_.fetch_add(1, kRelaxed);
    artifact_put_bytes_.fetch_add(bytes, kRelaxed);
  }
  void OnArtifactPutError() { artifact_put_errors_.fetch_add(1, kRelaxed); }
  // One stored table reattached (dictionaries loaded, columns mmapped).
  void OnArtifactServe() { artifact_serves_.fetch_add(1, kRelaxed); }
  // A Get that found the artifact unreadable or corrupt.
  void OnArtifactGetError() { artifact_get_errors_.fetch_add(1, kRelaxed); }

  // --- Distributed front-end (src/net) ---------------------------------
  // One frame received / sent, with its framed size (header + payload).
  void OnRpcIn(int64_t bytes) {
    rpcs_in_.fetch_add(1, kRelaxed);
    rpc_bytes_in_.fetch_add(bytes, kRelaxed);
  }
  void OnRpcOut(int64_t bytes) {
    rpcs_out_.fetch_add(1, kRelaxed);
    rpc_bytes_out_.fetch_add(bytes, kRelaxed);
  }
  // A request refused for backpressure: full queue, no healthy worker, or
  // an exhausted client quota. The reply carried a retry-after hint.
  void OnRpcShed() { rpc_sheds_.fetch_add(1, kRelaxed); }
  // A forward re-dispatched after a transport failure (retry with jitter).
  void OnRpcRetry() { rpc_retries_.fetch_add(1, kRelaxed); }
  // A worker observed down by health checks and later back up.
  void OnWorkerRestart() { worker_restarts_.fetch_add(1, kRelaxed); }

  // Accumulates one discovery run's per-stage wall clock (pipeline stage
  // names: encode, tree_build, traverse, convert, validate; anything else
  // lands in the "other" bucket).
  void OnStageMetrics(const std::vector<StageMetric>& stages) {
    for (const StageMetric& m : stages) {
      const int slot = StageSlot(m.name);
      stage_micros_[slot].fetch_add(
          static_cast<int64_t>(m.seconds * 1e6), kRelaxed);
      stage_runs_[slot].fetch_add(1, kRelaxed);
    }
  }

  void OnJobFinished(double latency_seconds) {
    int64_t micros = static_cast<int64_t>(latency_seconds * 1e6);
    total_latency_micros_.fetch_add(micros, kRelaxed);
    int64_t prev = max_latency_micros_.load(kRelaxed);
    while (micros > prev &&
           !max_latency_micros_.compare_exchange_weak(prev, micros, kRelaxed)) {
    }
  }

  // Point-in-time view of all counters plus derived figures.
  struct Snapshot {
    int64_t jobs_submitted = 0;
    int64_t jobs_completed = 0;
    int64_t jobs_cancelled = 0;
    int64_t jobs_failed = 0;
    int64_t cache_hits = 0;
    int64_t cache_misses = 0;
    int64_t coalesced_jobs = 0;
    int64_t tree_cache_hits = 0;
    int64_t tree_cache_misses = 0;
    int64_t trees_frozen = 0;
    double freeze_seconds = 0;
    int64_t frozen_tree_bytes = 0;
    int64_t frozen_tree_nodes = 0;
    int64_t catalog_flushes = 0;
    int64_t shards_flushed = 0;
    int64_t dirty_shard_skips = 0;
    int64_t catalog_flush_bytes = 0;
    int64_t shards_recovered = 0;
    int64_t shards_quarantined = 0;
    int64_t appends = 0;
    int64_t append_absorbs = 0;
    int64_t delta_rows = 0;
    int64_t warm_start_prunes = 0;
    double refreeze_seconds = 0;
    int64_t ingest_batches = 0;
    int64_t ingest_rows = 0;
    int64_t ingest_bytes = 0;
    int64_t artifact_puts = 0;
    int64_t artifact_put_bytes = 0;
    int64_t artifact_put_errors = 0;
    int64_t artifact_serves = 0;
    int64_t artifact_get_errors = 0;
    int64_t rpcs_in = 0;
    int64_t rpcs_out = 0;
    int64_t rpc_bytes_in = 0;
    int64_t rpc_bytes_out = 0;
    int64_t rpc_sheds = 0;
    int64_t rpc_retries = 0;
    int64_t worker_restarts = 0;
    int64_t queue_depth = 0;    // filled in by the service, not a counter
    int64_t running_jobs = 0;   // likewise
    double total_latency_seconds = 0;
    double max_latency_seconds = 0;

    // Per-pipeline-stage totals across all discovery runs, indexed as in
    // kStageNames; *_runs counts how many runs executed the stage.
    static constexpr int kNumStages = 6;
    static constexpr const char* kStageNames[kNumStages] = {
        "encode", "tree_build", "traverse", "convert", "validate", "other"};
    std::array<double, kNumStages> stage_seconds{};
    std::array<int64_t, kNumStages> stage_runs{};

    int64_t finished() const {
      return jobs_completed + jobs_cancelled + jobs_failed;
    }
    double mean_latency_seconds() const {
      int64_t n = finished();
      return n == 0 ? 0 : total_latency_seconds / static_cast<double>(n);
    }
    double cache_hit_rate() const {
      int64_t lookups = cache_hits + cache_misses;
      return lookups == 0
                 ? 0
                 : static_cast<double>(cache_hits) /
                       static_cast<double>(lookups);
    }
    double tree_cache_hit_rate() const {
      int64_t lookups = tree_cache_hits + tree_cache_misses;
      return lookups == 0
                 ? 0
                 : static_cast<double>(tree_cache_hits) /
                       static_cast<double>(lookups);
    }
    // Mean flat-layout footprint per frozen node, across every freeze the
    // service performed.
    double frozen_bytes_per_node() const {
      return frozen_tree_nodes == 0
                 ? 0
                 : static_cast<double>(frozen_tree_bytes) /
                       static_cast<double>(frozen_tree_nodes);
    }
  };

  Snapshot Read() const {
    Snapshot s;
    s.jobs_submitted = jobs_submitted_.load(kRelaxed);
    s.jobs_completed = jobs_completed_.load(kRelaxed);
    s.jobs_cancelled = jobs_cancelled_.load(kRelaxed);
    s.jobs_failed = jobs_failed_.load(kRelaxed);
    s.cache_hits = cache_hits_.load(kRelaxed);
    s.cache_misses = cache_misses_.load(kRelaxed);
    s.coalesced_jobs = coalesced_jobs_.load(kRelaxed);
    s.tree_cache_hits = tree_cache_hits_.load(kRelaxed);
    s.tree_cache_misses = tree_cache_misses_.load(kRelaxed);
    s.trees_frozen = trees_frozen_.load(kRelaxed);
    s.freeze_seconds =
        static_cast<double>(freeze_micros_.load(kRelaxed)) * 1e-6;
    s.frozen_tree_bytes = frozen_tree_bytes_.load(kRelaxed);
    s.frozen_tree_nodes = frozen_tree_nodes_.load(kRelaxed);
    s.catalog_flushes = catalog_flushes_.load(kRelaxed);
    s.shards_flushed = shards_flushed_.load(kRelaxed);
    s.dirty_shard_skips = dirty_shard_skips_.load(kRelaxed);
    s.catalog_flush_bytes = catalog_flush_bytes_.load(kRelaxed);
    s.shards_recovered = shards_recovered_.load(kRelaxed);
    s.shards_quarantined = shards_quarantined_.load(kRelaxed);
    s.appends = appends_.load(kRelaxed);
    s.append_absorbs = append_absorbs_.load(kRelaxed);
    s.delta_rows = delta_rows_.load(kRelaxed);
    s.warm_start_prunes = warm_start_prunes_.load(kRelaxed);
    s.refreeze_seconds =
        static_cast<double>(refreeze_micros_.load(kRelaxed)) * 1e-6;
    s.ingest_batches = ingest_batches_.load(kRelaxed);
    s.ingest_rows = ingest_rows_.load(kRelaxed);
    s.ingest_bytes = ingest_bytes_.load(kRelaxed);
    s.artifact_puts = artifact_puts_.load(kRelaxed);
    s.artifact_put_bytes = artifact_put_bytes_.load(kRelaxed);
    s.artifact_put_errors = artifact_put_errors_.load(kRelaxed);
    s.artifact_serves = artifact_serves_.load(kRelaxed);
    s.artifact_get_errors = artifact_get_errors_.load(kRelaxed);
    s.rpcs_in = rpcs_in_.load(kRelaxed);
    s.rpcs_out = rpcs_out_.load(kRelaxed);
    s.rpc_bytes_in = rpc_bytes_in_.load(kRelaxed);
    s.rpc_bytes_out = rpc_bytes_out_.load(kRelaxed);
    s.rpc_sheds = rpc_sheds_.load(kRelaxed);
    s.rpc_retries = rpc_retries_.load(kRelaxed);
    s.worker_restarts = worker_restarts_.load(kRelaxed);
    for (int i = 0; i < Snapshot::kNumStages; ++i) {
      s.stage_seconds[i] =
          static_cast<double>(stage_micros_[i].load(kRelaxed)) * 1e-6;
      s.stage_runs[i] = stage_runs_[i].load(kRelaxed);
    }
    s.total_latency_seconds =
        static_cast<double>(total_latency_micros_.load(kRelaxed)) * 1e-6;
    s.max_latency_seconds =
        static_cast<double>(max_latency_micros_.load(kRelaxed)) * 1e-6;
    return s;
  }

 private:
  static constexpr auto kRelaxed = std::memory_order_relaxed;

  static int StageSlot(const std::string& name) {
    for (int i = 0; i < Snapshot::kNumStages - 1; ++i) {
      if (name == Snapshot::kStageNames[i]) return i;
    }
    return Snapshot::kNumStages - 1;  // "other"
  }

  std::atomic<int64_t> jobs_submitted_{0};
  std::atomic<int64_t> jobs_completed_{0};
  std::atomic<int64_t> jobs_cancelled_{0};
  std::atomic<int64_t> jobs_failed_{0};
  std::atomic<int64_t> cache_hits_{0};
  std::atomic<int64_t> cache_misses_{0};
  std::atomic<int64_t> coalesced_jobs_{0};
  std::atomic<int64_t> tree_cache_hits_{0};
  std::atomic<int64_t> tree_cache_misses_{0};
  std::atomic<int64_t> trees_frozen_{0};
  std::atomic<int64_t> freeze_micros_{0};
  std::atomic<int64_t> frozen_tree_bytes_{0};
  std::atomic<int64_t> frozen_tree_nodes_{0};
  std::atomic<int64_t> catalog_flushes_{0};
  std::atomic<int64_t> shards_flushed_{0};
  std::atomic<int64_t> dirty_shard_skips_{0};
  std::atomic<int64_t> catalog_flush_bytes_{0};
  std::atomic<int64_t> shards_recovered_{0};
  std::atomic<int64_t> shards_quarantined_{0};
  std::atomic<int64_t> appends_{0};
  std::atomic<int64_t> append_absorbs_{0};
  std::atomic<int64_t> delta_rows_{0};
  std::atomic<int64_t> warm_start_prunes_{0};
  std::atomic<int64_t> refreeze_micros_{0};
  std::atomic<int64_t> ingest_batches_{0};
  std::atomic<int64_t> ingest_rows_{0};
  std::atomic<int64_t> ingest_bytes_{0};
  std::atomic<int64_t> artifact_puts_{0};
  std::atomic<int64_t> artifact_put_bytes_{0};
  std::atomic<int64_t> artifact_put_errors_{0};
  std::atomic<int64_t> artifact_serves_{0};
  std::atomic<int64_t> artifact_get_errors_{0};
  std::atomic<int64_t> rpcs_in_{0};
  std::atomic<int64_t> rpcs_out_{0};
  std::atomic<int64_t> rpc_bytes_in_{0};
  std::atomic<int64_t> rpc_bytes_out_{0};
  std::atomic<int64_t> rpc_sheds_{0};
  std::atomic<int64_t> rpc_retries_{0};
  std::atomic<int64_t> worker_restarts_{0};
  std::array<std::atomic<int64_t>, Snapshot::kNumStages> stage_micros_{};
  std::array<std::atomic<int64_t>, Snapshot::kNumStages> stage_runs_{};
  std::atomic<int64_t> total_latency_micros_{0};
  std::atomic<int64_t> max_latency_micros_{0};
};

// Multi-line human-readable rendering in the style of the report module's
// text outputs; ends with a newline.
std::string FormatServiceMetrics(const ServiceMetrics::Snapshot& s);

}  // namespace gordian

#endif  // GORDIAN_SERVICE_METRICS_H_
