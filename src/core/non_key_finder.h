#ifndef GORDIAN_CORE_NON_KEY_FINDER_H_
#define GORDIAN_CORE_NON_KEY_FINDER_H_

#include <vector>

#include "common/attribute_set.h"
#include "common/stopwatch.h"
#include "core/frozen_tree.h"
#include "core/gordian.h"
#include "core/non_key_set.h"
#include "core/options.h"
#include "core/prefix_tree.h"
#include "table/table.h"

namespace gordian {

// The reference implementation of Algorithm 4: the paper's doubly-recursive
// traversal written directly over PrefixTree's Node/Cell pointers. No
// production path runs it — FindKeys and every service path run
// FrozenNonKeyFinder (core/frozen_tree.h) — but it is the oracle the
// frozen finder is tested against: visit order, pruning decisions,
// counters, observer callbacks, and budget semantics must agree exactly.
// Serial only; a finder is never shared across threads.
class NonKeyFinder {
 public:
  NonKeyFinder(PrefixTree& tree, const GordianOptions& options,
               NonKeySet* non_keys, GordianStats* stats,
               TraversalObserver* observer = nullptr);

  // Runs the traversal, populating the NonKeySet passed at construction.
  // Returns false if a budget (options.max_non_keys /
  // options.time_budget_seconds) tripped or options.cancel_flag was raised
  // and the traversal stopped early; abort_reason() then says which.
  // options.warm_start_non_keys is ignored: the reference always runs cold.
  bool Run();

  // Why the traversal stopped early, or kNone after a complete run.
  AbortReason abort_reason() const { return abort_reason_; }

  // Merge intermediates are allocated from `pool` instead of the tree's own
  // pool, leaving the tree's accounting untouched.
  void SetMergePool(PrefixTree::NodePool* pool) { merge_pool_ = pool; }

 private:
  void Visit(PrefixTree::Node* node, int level);
  void ProcessLeaf(PrefixTree::Node* node, int level);
  bool OverBudget();

  PrefixTree& tree_;
  const GordianOptions& options_;
  NonKeySet* non_keys_;
  GordianStats* stats_;
  TraversalObserver* observer_;

  // Current candidate non-key (in original column positions), maintained as
  // attributes are appended/removed along the traversal (curNonKey in the
  // paper's pseudocode).
  AttributeSet cur_non_key_;

  // suffix_attrs_[l] = set of original attributes at tree levels >= l; used
  // by the futility test (the largest non-key a merge at level l-1 could
  // still produce is cur_non_key_ | suffix_attrs_[l]).
  std::vector<AttributeSet> suffix_attrs_;

  // Reused across every MergeNodes call of the traversal.
  MergeScratch merge_scratch_;

  // Pool for merge intermediates; defaults to tree_.pool().
  PrefixTree::NodePool* merge_pool_ = nullptr;

  // Budget state (see GordianOptions): aborted_ unwinds the recursion.
  // visit_tick_ amortizes the clock check; it is local so the budget is
  // enforced even when no stats sink was supplied.
  Stopwatch budget_watch_;
  uint64_t visit_tick_ = 0;
  bool aborted_ = false;
  AbortReason abort_reason_ = AbortReason::kNone;
};

// The reference FindKeys: encode (sampling, null projection, attribute
// order), PrefixTree::Build, the duplicate-entity check, a serial
// NonKeyFinder run, canonical non-key order, NonKeysToKeys, and strengths —
// the whole paper pipeline with no frozen layout, no parallel fan-out, and
// no cache (except that null projection profiles the projected table
// through the production pipeline, as encode does for FindKeys). Budget
// and cancellation aborts are reported like FindKeys reports them.
// options.traversal_threads and warm_start_non_keys are ignored. Tests
// compare every production path against this.
KeyDiscoveryResult ReferenceFindKeys(const Table& table,
                                     const GordianOptions& options = {});

}  // namespace gordian

#endif  // GORDIAN_CORE_NON_KEY_FINDER_H_
