#include "core/non_key_finder.h"

#include <cassert>

#include "core/key_conversion.h"
#include "core/pipeline.h"
#include "core/strength.h"

namespace gordian {

NonKeyFinder::NonKeyFinder(PrefixTree& tree,
                           const GordianOptions& options, NonKeySet* non_keys,
                           GordianStats* stats, TraversalObserver* observer)
    : tree_(tree),
      options_(options),
      non_keys_(non_keys),
      stats_(stats),
      observer_(observer) {
  const int depth = tree_.num_levels();
  suffix_attrs_.assign(depth + 1, AttributeSet());
  for (int l = depth - 1; l >= 0; --l) {
    suffix_attrs_[l] = suffix_attrs_[l + 1];
    suffix_attrs_[l].Set(tree_.attribute_at_level(l));
  }
  merge_pool_ = &tree_.pool();
}

bool NonKeyFinder::Run() {
  if (tree_.root() == nullptr || tree_.num_entities() == 0) return true;
  budget_watch_.Restart();
  Visit(tree_.root(), 0);
  return !aborted_;
}

bool NonKeyFinder::OverBudget() {
  if (aborted_) return true;
  // A relaxed load per Visit is noise next to the traversal work, so the
  // cancellation flag — unlike the clock — is polled unamortized.
  if (options_.cancel_flag != nullptr &&
      options_.cancel_flag->load(std::memory_order_relaxed)) {
    aborted_ = true;
    abort_reason_ = AbortReason::kCancelled;
    return true;
  }
  if (options_.max_non_keys > 0 && non_keys_->size() > options_.max_non_keys) {
    aborted_ = true;
    abort_reason_ = AbortReason::kNonKeyBudget;
    return true;
  }
  // The wall-clock check is amortized over a finder-local tick so it works
  // — and costs the same — whether or not a stats sink was supplied.
  if ((++visit_tick_ & 0xFFF) == 0 && options_.time_budget_seconds > 0 &&
      budget_watch_.ElapsedSeconds() > options_.time_budget_seconds) {
    aborted_ = true;
    abort_reason_ = AbortReason::kTimeBudget;
  }
  return aborted_;
}

void NonKeyFinder::ProcessLeaf(PrefixTree::Node* node, int level) {
  const int attr = tree_.attribute_at_level(level);
  // Lines 3-8: a duplicate within the current projection (count > 1) makes
  // curNonKey, including this level's attribute, a non-key.
  if (observer_ != nullptr) observer_->OnSegment(cur_non_key_);
  for (const PrefixTree::Cell& cell : node->cells) {
    if (cell.count != 1) {
      if (observer_ != nullptr) observer_->OnNonKey(cur_non_key_);
      non_keys_->Insert(cur_non_key_);
      break;
    }
  }
  // Lines 9-12: project out the leaf attribute; if the slice then holds
  // more than one entity (several cells, or one cell with count > 1), the
  // remaining prefix is a non-key.
  cur_non_key_.Reset(attr);
  if (observer_ != nullptr) observer_->OnSegment(cur_non_key_);
  if (node->cells.size() > 1 ||
      (node->cells.size() == 1 && node->cells[0].count > 1)) {
    if (observer_ != nullptr) observer_->OnNonKey(cur_non_key_);
    non_keys_->Insert(cur_non_key_);
  }
}

void NonKeyFinder::Visit(PrefixTree::Node* node, int level) {
  if (stats_ != nullptr) ++stats_->nodes_visited;
  if (OverBudget()) return;
  const int attr = tree_.attribute_at_level(level);
  assert(!cur_non_key_.Test(attr));
  cur_non_key_.Set(attr);  // line 1: append attrNo to curNonKey

  if (node->is_leaf) {
    ProcessLeaf(node, level);  // also removes attr from cur_non_key_
    return;
  }

  // Line 14: a slice holding a single entity cannot yield a non-key.
  if (options_.single_entity_pruning && node->EntityCount() == 1) {
    if (stats_ != nullptr) ++stats_->single_entity_prunes;
    if (observer_ != nullptr) observer_->OnPrune("single-entity", level);
    cur_non_key_.Reset(attr);
    return;
  }

  // Lines 17-21: visit children depth-first, skipping shared (previously
  // traversed) subtrees — singleton pruning, Figure 10(a).
  for (const PrefixTree::Cell& cell : node->cells) {
    if (aborted_) break;
    if (options_.singleton_pruning && cell.child->ref_count > 1) {
      if (stats_ != nullptr) ++stats_->singleton_traversal_prunes;
      if (observer_ != nullptr) observer_->OnPrune("singleton", level);
      continue;
    }
    Visit(cell.child, level + 1);
  }

  cur_non_key_.Reset(attr);  // line 22
  if (aborted_) return;

  // Lines 23-30: merge the children (projecting out this level's attribute)
  // and explore the merged tree. A single-cell node's merge would return a
  // shared tree and so cannot yield non-redundant non-keys — singleton
  // pruning, Figure 10(b). This skip is written unconditionally into
  // Algorithm 4 ("if there is more than one cell in root"), so it is not
  // gated on the pruning toggle: without it, chains of single-cell nodes
  // would double the traversal at every level (2^d on single-entity paths).
  if (node->cells.size() <= 1) {
    if (node->cells.size() == 1) {
      if (stats_ != nullptr) ++stats_->singleton_merge_prunes;
      if (observer_ != nullptr) observer_->OnPrune("singleton-merge", level);
    }
    return;
  }

  // Line 24: futility test — the largest non-key the merged subtree could
  // produce is cur_non_key_ | suffix_attrs_[level + 1]; if an already
  // discovered non-key covers it, everything below is redundant.
  if (options_.futility_pruning &&
      non_keys_->CoversSet(cur_non_key_ | suffix_attrs_[level + 1])) {
    if (stats_ != nullptr) ++stats_->futility_prunes;
    if (observer_ != nullptr) observer_->OnPrune("futility", level);
    return;
  }

  std::vector<PrefixTree::Node*> children;
  children.reserve(node->cells.size());
  for (const PrefixTree::Cell& cell : node->cells) {
    children.push_back(cell.child);
  }
  PrefixTree::Node* merged =
      MergeNodes(*merge_pool_, children, stats_, &merge_scratch_);
  if (observer_ != nullptr) observer_->OnMerge(level);
  Visit(merged, level + 1);
  merge_pool_->Unref(merged);  // line 29: discard the merged tree
}

KeyDiscoveryResult ReferenceFindKeys(const Table& table,
                                     const GordianOptions& options) {
  // Encoding is shared with the pipeline (it decides only which rows and
  // attribute order to profile); it concludes the run itself for empty
  // schemas, pre-build cancellation, and null projection, which profiles the
  // projected table through a nested production session (forced serial).
  ProfileContext ctx;
  ctx.input = &table;
  ctx.options = options;
  ctx.options.traversal_threads = -1;
  (void)EncodeStage().Run(&ctx);
  KeyDiscoveryResult& result = ctx.result;
  if (ctx.finished) return std::move(result);

  PrefixTree tree =
      PrefixTree::Build(*ctx.data, ctx.attr_order, options.tree_build);
  result.stats.base_tree_nodes = tree.node_count();
  result.stats.base_tree_cells = tree.cell_count();
  if (tree.has_duplicate_entities()) {
    result.no_keys = true;
    result.non_keys.push_back(AttributeSet::FirstN(table.num_columns()));
    return std::move(result);
  }
  if (ctx.Cancelled()) {
    result.incomplete = true;
    result.incomplete_reason = AbortReason::kCancelled;
    return std::move(result);
  }

  NonKeySet non_keys(&result.stats);
  NonKeyFinder finder(tree, options, &non_keys, &result.stats);
  result.incomplete = !finder.Run();
  result.incomplete_reason = finder.abort_reason();
  result.stats.final_non_keys = non_keys.size();
  result.non_keys = non_keys.CanonicalNonKeys();
  if (result.incomplete) return std::move(result);

  for (const AttributeSet& k :
       NonKeysToKeys(result.non_keys, table.num_columns())) {
    DiscoveredKey dk;
    dk.attrs = k;
    dk.estimated_strength =
        result.sampled ? EstimatedStrengthLowerBound(*ctx.data, k) : 1.0;
    if (!result.sampled) dk.exact_strength = 1.0;
    result.keys.push_back(dk);
  }
  return std::move(result);
}

}  // namespace gordian
