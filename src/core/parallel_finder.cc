#include "core/parallel_finder.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>

#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace gordian {

FutilityBoard::FutilityBoard(int num_workers) {
  slots_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
}

void FutilityBoard::Publish(int worker, std::vector<AttributeSet> non_keys) {
  auto snap = std::make_shared<const std::vector<AttributeSet>>(
      std::move(non_keys));
  {
    std::lock_guard<std::mutex> lock(slots_[worker]->mu);
    slots_[worker]->snap = std::move(snap);
  }
  version_.fetch_add(1, std::memory_order_release);
}

uint64_t FutilityBoard::Collect(int worker,
                                std::vector<Snapshot>* out) const {
  // Read the version first: if publishes race with the collection the
  // returned version is stale and the caller will simply collect again on
  // its next maintenance tick.
  const uint64_t v = version_.load(std::memory_order_acquire);
  out->clear();
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (static_cast<int>(i) == worker) continue;
    std::lock_guard<std::mutex> lock(slots_[i]->mu);
    if (slots_[i]->snap != nullptr && !slots_[i]->snap->empty()) {
      out->push_back(slots_[i]->snap);
    }
  }
  return v;
}

namespace {

// Traversal counters a worker accumulates privately and the driver sums
// back (in worker order) into the caller's stats.
void AccumulateStats(const GordianStats& from, GordianStats* into) {
  into->nodes_visited += from.nodes_visited;
  into->merges_performed += from.merges_performed;
  into->merge_nodes_created += from.merge_nodes_created;
  into->singleton_traversal_prunes += from.singleton_traversal_prunes;
  into->singleton_merge_prunes += from.singleton_merge_prunes;
  into->single_entity_prunes += from.single_entity_prunes;
  into->futility_prunes += from.futility_prunes;
  into->futility_snapshot_prunes += from.futility_snapshot_prunes;
  into->warm_start_prunes += from.warm_start_prunes;
  into->non_key_insert_attempts += from.non_key_insert_attempts;
  into->non_keys_rejected_covered += from.non_keys_rejected_covered;
  into->non_keys_evicted += from.non_keys_evicted;
}

}  // namespace

ParallelTraversalResult ParallelFindNonKeys(
    FrozenTree& tree, const GordianOptions& options, int threads,
    NonKeySet* merged, GordianStats* stats,
    PrefixTree::NodePool* root_merge_pool) {
  assert(tree.num_levels() >= 2);
  assert(root_merge_pool != nullptr);
  const int num_slices = static_cast<int>(tree.level(0).num_cells());
  assert(num_slices >= 2);
  threads = std::max(1, std::min(threads, num_slices));

  ParallelTraversalResult result;
  result.threads_used = threads;

  struct Worker {
    GordianStats stats;
    std::unique_ptr<PrefixTree::NodePool> pool =
        std::make_unique<PrefixTree::NodePool>();
    std::unique_ptr<NonKeySet> set;
    bool aborted = false;
  };
  std::vector<Worker> workers(static_cast<size_t>(threads));
  for (Worker& w : workers) {
    w.set = std::make_unique<NonKeySet>(&w.stats);
  }

  // Warm-start cover shared read-only across workers (concurrent CoversSet
  // probes against an immutable set are safe). The seeds also go into the
  // union set below so the final antichain — and hence the derived keys —
  // is identical to an unseeded run.
  const std::vector<AttributeSet>* warm_seeds = options.warm_start_non_keys;
  const bool warm = warm_seeds != nullptr && !warm_seeds->empty();
  NonKeySet warm_set(nullptr);
  if (warm) {
    for (const AttributeSet& nk : *warm_seeds) warm_set.Insert(nk);
    stats->warm_start_seeds +=
        static_cast<int64_t>(warm_seeds->size());
  }

  FutilityBoard board(threads);
  Stopwatch phase_watch;
  std::atomic<int> next_slice{0};
  std::atomic<bool> stop{false};
  // First abort reason wins (0 == AbortReason::kNone); externally stopped
  // workers report kNone and never write here.
  std::atomic<int> global_reason{0};

  // Completion latch: ThreadPool::Submit is fire-and-forget.
  std::mutex done_mu;
  std::condition_variable done_cv;
  int done_count = 0;

  auto worker_body = [&](int w) {
    Worker& self = workers[static_cast<size_t>(w)];
    FrozenNonKeyFinder finder(tree, options, self.set.get(), &self.stats);
    finder.SetMergePool(self.pool.get());
    finder.SetExternalStop(&stop);
    if (warm) finder.SetWarmCover(&warm_set);
    finder.StartBudgetClock(phase_watch.ElapsedSeconds());

    uint64_t published_rev = 0;
    uint64_t seen_version = 0;
    std::vector<FutilityBoard::Snapshot> remote;
    finder.SetMaintenanceHook([&] {
      if (self.set->revision() != published_rev) {
        published_rev = self.set->revision();
        board.Publish(w, self.set->non_keys());
      }
      if (board.version() != seen_version) {
        seen_version = board.Collect(w, &remote);
      }
    });
    finder.SetRemoteCover([&remote](const AttributeSet& probe) {
      for (const FutilityBoard::Snapshot& snap : remote) {
        for (const AttributeSet& nk : *snap) {
          if (nk.Covers(probe)) return true;
        }
      }
      return false;
    });

    int slice;
    while (!stop.load(std::memory_order_relaxed) &&
           (slice = next_slice.fetch_add(1, std::memory_order_relaxed)) <
               num_slices) {
      if (!finder.RunSlice(slice)) {
        self.aborted = true;
        const AbortReason r = finder.abort_reason();
        if (r != AbortReason::kNone) {
          int expected = 0;
          global_reason.compare_exchange_strong(expected,
                                                static_cast<int>(r));
          stop.store(true, std::memory_order_release);
        }
        break;
      }
    }

    std::lock_guard<std::mutex> lock(done_mu);
    ++done_count;
    done_cv.notify_one();
  };

  {
    ThreadPool exec(threads);
    for (int w = 0; w < threads; ++w) {
      exec.Submit([&worker_body, w] { worker_body(w); });
    }
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return done_count == threads; });
  }

  // Deterministic merge, worker order. The union's antichain is the same
  // whatever the insertion order; iterating workers in index order keeps the
  // aggregation reproducible all the same. Warm seeds go in first: they are
  // genuine non-keys and must appear in the union for the regions the warm
  // cover pruned away.
  if (warm) {
    for (const AttributeSet& nk : *warm_seeds) merged->Insert(nk);
  }
  bool any_aborted = false;
  for (Worker& w : workers) {
    any_aborted = any_aborted || w.aborted;
    AccumulateStats(w.stats, stats);
    result.worker_pool_peak_bytes += w.pool->peak_bytes();
    for (const AttributeSet& nk : w.set->non_keys()) {
      merged->Insert(nk);
    }
  }

  if (any_aborted) {
    result.aborted = true;
    result.reason = static_cast<AbortReason>(global_reason.load());
    if (result.reason == AbortReason::kNone) {
      result.reason = AbortReason::kCancelled;
    }
    return result;
  }

  // Workers enforce max_non_keys against their local sets only; the union
  // can exceed the budget without any single worker tripping it.
  if (options.max_non_keys > 0 && merged->size() > options.max_non_keys) {
    result.aborted = true;
    result.reason = AbortReason::kNonKeyBudget;
    return result;
  }

  // Final pass of Algorithm 4 at the root: merge all top-level subtrees and
  // explore the projection that drops the root attribute. Serial, against
  // the union set.
  FrozenNonKeyFinder root_finder(tree, options, merged, stats);
  root_finder.SetMergePool(root_merge_pool);
  if (warm) root_finder.SetWarmCover(&warm_set);
  root_finder.StartBudgetClock(phase_watch.ElapsedSeconds());
  if (!root_finder.RunRootMerge()) {
    result.aborted = true;
    result.reason = root_finder.abort_reason();
  }
  return result;
}

}  // namespace gordian
