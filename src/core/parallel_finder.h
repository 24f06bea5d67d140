#ifndef GORDIAN_CORE_PARALLEL_FINDER_H_
#define GORDIAN_CORE_PARALLEL_FINDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/attribute_set.h"
#include "core/frozen_tree.h"
#include "core/non_key_set.h"
#include "core/options.h"
#include "core/prefix_tree.h"

namespace gordian {

// Cross-worker exchange of discovered non-keys for futility pruning
// (docs/parallel.md). Each worker owns one slot and republishes an immutable
// snapshot of its local NonKeySet every few thousand visits; other workers
// read the snapshots lock-light: the per-slot mutex is taken only to swap a
// shared_ptr, and the atomic version counter lets readers skip Collect
// entirely when nothing changed — the traversal hot path itself only scans
// its cached, immutable snapshot vectors.
//
// Snapshots feed pruning only (CoversSet-style probes); a remote non-key is
// never inserted into a local set, so a stale or missing snapshot costs
// wasted work, never wrong results.
class FutilityBoard {
 public:
  using Snapshot = std::shared_ptr<const std::vector<AttributeSet>>;

  explicit FutilityBoard(int num_workers);

  // Replaces `worker`'s snapshot and bumps the board version.
  void Publish(int worker, std::vector<AttributeSet> non_keys);

  // Appends every other worker's current snapshot to `out` (cleared first)
  // and returns the board version the collection corresponds to.
  uint64_t Collect(int worker, std::vector<Snapshot>* out) const;

  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

 private:
  struct Slot {
    mutable std::mutex mu;
    Snapshot snap;
  };

  std::vector<std::unique_ptr<Slot>> slots_;
  std::atomic<uint64_t> version_{0};
};

// Outcome of ParallelFindNonKeys, mirroring what FindKeys needs to fill a
// KeyDiscoveryResult.
struct ParallelTraversalResult {
  bool aborted = false;
  AbortReason reason = AbortReason::kNone;
  int threads_used = 0;
  // Summed peak bytes of the workers' private merge pools (the base tree's
  // own pool is reported separately by the caller).
  int64_t worker_pool_peak_bytes = 0;
};

// Runs the find phase of FindKeys across `threads` workers: the root's
// top-level slices are handed out dynamically, each worker traverses its
// slices with a private FrozenNonKeyFinder / NonKeySet / NodePool, the
// per-worker non-key sets are then merged (in worker order) into `merged`,
// and the final root-merge pass of Algorithm 4 runs serially against the
// union. Aborts (budget, cancellation) propagate through a shared stop flag
// with a first-wins abort reason.
//
// Produces exactly the same non-key antichain as the serial traversal: see
// docs/parallel.md for the argument. Requires >= 2 levels, >= 2 top-level
// cells and no duplicate entities (the caller runs serially otherwise).
// Traversal counters are accumulated into `stats`.
//
// Merge intermediates of the final root pass come from `root_merge_pool`,
// whose accounting the caller owns. Workers' slice traversals mutate
// disjoint ranges of the frozen reference-count array and restore them
// before returning.
ParallelTraversalResult ParallelFindNonKeys(
    FrozenTree& tree, const GordianOptions& options, int threads,
    NonKeySet* merged, GordianStats* stats,
    PrefixTree::NodePool* root_merge_pool);

}  // namespace gordian

#endif  // GORDIAN_CORE_PARALLEL_FINDER_H_
