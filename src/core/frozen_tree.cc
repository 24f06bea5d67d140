#include "core/frozen_tree.h"

#include <algorithm>

#if defined(__x86_64__) && !defined(GORDIAN_DISABLE_SIMD) && \
    (defined(__GNUC__) || defined(__clang__))
#define GORDIAN_SIMD_X86 1
#include <immintrin.h>
#endif

namespace gordian {

namespace frozen_simd {

bool AnyCountNotOneScalar(const int64_t* counts, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (counts[i] != 1) return true;
  }
  return false;
}

size_t LowerBoundScalar(const uint32_t* codes, size_t n, uint32_t target) {
  return static_cast<size_t>(std::lower_bound(codes, codes + n, target) -
                             codes);
}

#ifdef GORDIAN_SIMD_X86

__attribute__((target("avx2"))) static bool AnyCountNotOneAvx2(
    const int64_t* counts, size_t n) {
  const __m256i one = _mm256_set1_epi64x(1);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(counts + i));
    if (_mm256_movemask_epi8(_mm256_cmpeq_epi64(v, one)) != -1) return true;
  }
  for (; i < n; ++i) {
    if (counts[i] != 1) return true;
  }
  return false;
}

__attribute__((target("avx2"))) static size_t LowerBoundAvx2(
    const uint32_t* codes, size_t n, uint32_t target) {
  if (n == 0 || codes[0] >= target) return 0;
  // Gallop from the front: codes[prev] < target throughout; the answer ends
  // up bracketed in (prev, min(prev + step, n)]. Runs consumed by the merge
  // union are usually short, so the window stays proportional to the
  // distance actually advanced.
  size_t prev = 0, step = 1;
  while (prev + step < n && codes[prev + step] < target) {
    prev += step;
    step <<= 1;
  }
  size_t i = prev + 1;
  const size_t hi = std::min(n, prev + step);
  // The span is sorted, so elements < target form a prefix of the window:
  // scan 8 codes at a time and locate the first non-member of the prefix.
  // uint32 codes are compared signed after an MSB flip.
  const __m256i bias = _mm256_set1_epi32(INT32_MIN);
  const __m256i tgt =
      _mm256_set1_epi32(static_cast<int32_t>(target ^ 0x80000000u));
  for (; i + 8 <= hi; i += 8) {
    const __m256i v = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i)),
        bias);
    const uint32_t lt_mask = static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(tgt, v))));
    if (lt_mask != 0xFFu) {
      return i + static_cast<size_t>(__builtin_ctz(~lt_mask));
    }
  }
  for (; i < hi; ++i) {
    if (codes[i] >= target) return i;
  }
  return hi;
}

#endif  // GORDIAN_SIMD_X86

namespace {

using AnyCountFn = bool (*)(const int64_t*, size_t);
using LowerBoundFn = size_t (*)(const uint32_t*, size_t, uint32_t);

bool HaveAvx2() {
#ifdef GORDIAN_SIMD_X86
  static const bool have = __builtin_cpu_supports("avx2");
  return have;
#else
  return false;
#endif
}

AnyCountFn ResolveAnyCount() {
#ifdef GORDIAN_SIMD_X86
  if (HaveAvx2()) return &AnyCountNotOneAvx2;
#endif
  return &AnyCountNotOneScalar;
}

LowerBoundFn ResolveLowerBound() {
#ifdef GORDIAN_SIMD_X86
  if (HaveAvx2()) return &LowerBoundAvx2;
#endif
  return &LowerBoundScalar;
}

}  // namespace

bool AnyCountNotOne(const int64_t* counts, size_t n) {
  static const AnyCountFn fn = ResolveAnyCount();
  const bool result = fn(counts, n);
#ifdef GORDIAN_SIMD_CONSISTENCY_CHECKS
  assert(result == AnyCountNotOneScalar(counts, n) &&
         "SIMD AnyCountNotOne disagrees with the scalar kernel");
#endif
  return result;
}

size_t LowerBound(const uint32_t* codes, size_t n, uint32_t target) {
  static const LowerBoundFn fn = ResolveLowerBound();
  const size_t result = fn(codes, n, target);
#ifdef GORDIAN_SIMD_CONSISTENCY_CHECKS
  assert(result == LowerBoundScalar(codes, n, target) &&
         "SIMD LowerBound disagrees with the scalar kernel");
#endif
  return result;
}

const char* ActiveKernel() { return HaveAvx2() ? "avx2" : "scalar"; }

}  // namespace frozen_simd

namespace {

// True iff the level's codes are exactly [0, max_code] (vacuously for an
// empty level). By pigeonhole that needs max_code < num_cells, and then a
// presence table of max_code + 1 entries decides it.
bool CodesAreDense(const FrozenTree::Level& lv) {
  if (lv.num_cells() == 0) return true;
  if (lv.max_code >= lv.num_cells()) return false;
  std::vector<uint8_t> seen(static_cast<size_t>(lv.max_code) + 1, 0);
  size_t distinct = 0;
  for (uint32_t c : lv.code) {
    distinct += seen[c] == 0;
    seen[c] = 1;
  }
  return distinct == seen.size();
}

// Renumbers the level's codes to their rank among the codes it holds. Ranks
// preserve code order, so every span stays sorted and every merge emits
// cells in the order the dictionary codes would have given. A full-table
// build is dense already, since every dictionary value occurs in some row;
// samples and streaming reservoirs keep their source dictionaries, so most
// often they are not.
void DensifyCodes(FrozenTree::Level* lv) {
  if (CodesAreDense(*lv)) return;
  std::vector<uint32_t> present(lv->code);
  std::sort(present.begin(), present.end());
  present.erase(std::unique(present.begin(), present.end()), present.end());
  for (uint32_t& c : lv->code) {
    c = static_cast<uint32_t>(
        std::lower_bound(present.begin(), present.end(), c) -
        present.begin());
  }
  lv->max_code = static_cast<uint32_t>(present.size() - 1);
}

}  // namespace

std::unique_ptr<FrozenTree> FrozenTree::Freeze(const PrefixTree& tree) {
  std::unique_ptr<FrozenTree> out(new FrozenTree());
  out->attr_order_ = tree.attr_order();
  out->num_entities_ = tree.num_entities();
  const int depth = tree.num_levels();
  out->levels_.resize(static_cast<size_t>(depth));

  // BFS, level by level: the nodes of level l + 1 are enumerated in the
  // cell order of level l, which is precisely what makes cell index == child
  // node index hold.
  std::vector<const PrefixTree::Node*> cur = {tree.root()};
  std::vector<const PrefixTree::Node*> next;
  for (int l = 0; l < depth; ++l) {
    Level& lv = out->levels_[static_cast<size_t>(l)];
    const bool leaf = (l == depth - 1);
    size_t cells = 0;
    for (const PrefixTree::Node* n : cur) cells += n->cells.size();
    assert(cells < UINT32_MAX && "level too wide for uint32 cell offsets");
    lv.cell_begin.reserve(cur.size() + 1);
    lv.code.reserve(cells);
    lv.count.reserve(cells);
    lv.entity_total.reserve(cur.size());
    if (!leaf) next.reserve(cells);
    lv.cell_begin.push_back(0);
    for (const PrefixTree::Node* n : cur) {
      assert(n->ref_count == 1 &&
             "freeze requires a share-free (freshly built / fully unwound) "
             "tree");
      assert(n->is_leaf == leaf);
      lv.entity_total.push_back(n->entity_total);
      for (const PrefixTree::Cell& c : n->cells) {
        lv.code.push_back(c.code);
        lv.count.push_back(c.count);
        lv.max_code = std::max(lv.max_code, c.code);
        if (!leaf) next.push_back(c.child);
      }
      lv.cell_begin.push_back(static_cast<uint32_t>(lv.code.size()));
    }
    DensifyCodes(&lv);
    assert(CodesAreDense(lv));
    lv.ref.assign(cur.size(), 1);
    out->node_count_ += static_cast<int64_t>(cur.size());
    out->cell_count_ += static_cast<int64_t>(cells);
    out->approx_bytes_ +=
        static_cast<int64_t>(lv.cell_begin.capacity() * sizeof(uint32_t) +
                             lv.code.capacity() * sizeof(uint32_t) +
                             lv.count.capacity() * sizeof(int64_t) +
                             lv.entity_total.capacity() * sizeof(int64_t) +
                             lv.ref.capacity() * sizeof(int32_t) +
                             sizeof(Level));
    cur.swap(next);
    next.clear();
  }
  assert(out->node_count_ == tree.node_count());
  assert(out->cell_count_ == tree.cell_count());
  return out;
}

bool FrozenTree::HasDuplicateEntities() const {
  if (levels_.empty()) return false;
  const Level& leaf = levels_.back();
  return frozen_simd::AnyCountNotOne(leaf.count.data(), leaf.count.size());
}

bool FrozenTree::AllRefsAreOne() const {
  for (const Level& lv : levels_) {
    for (int32_t r : lv.ref) {
      if (r != 1) return false;
    }
  }
  return true;
}

FrozenNonKeyFinder::FrozenNonKeyFinder(FrozenTree& tree,
                                       const GordianOptions& options,
                                       NonKeySet* non_keys,
                                       GordianStats* stats,
                                       TraversalObserver* observer)
    : tree_(tree),
      options_(options),
      non_keys_(non_keys),
      stats_(stats),
      observer_(observer),
      depth_(tree.num_levels()) {
  suffix_attrs_.assign(static_cast<size_t>(depth_) + 1, AttributeSet());
  for (int l = depth_ - 1; l >= 0; --l) {
    suffix_attrs_[static_cast<size_t>(l)] =
        suffix_attrs_[static_cast<size_t>(l) + 1];
    suffix_attrs_[static_cast<size_t>(l)].Set(tree_.attribute_at_level(l));
  }
  child_buf_.resize(static_cast<size_t>(depth_ > 0 ? depth_ : 1));
  fallback_pool_ = std::make_unique<PrefixTree::NodePool>();
  merge_pool_ = fallback_pool_.get();
}

bool FrozenNonKeyFinder::Run() {
  if (depth_ == 0 || tree_.num_entities() == 0) return true;
  StartBudgetClock(0);
  Visit(MakeFrozen(0, 0), 0);
  return !aborted_;
}

void FrozenNonKeyFinder::StartBudgetClock(double offset_seconds) {
  budget_offset_seconds_ = offset_seconds;
  budget_watch_.Restart();
}

bool FrozenNonKeyFinder::RunSlice(int cell_index) {
  assert(depth_ >= 2);
  assert(cell_index >= 0 &&
         static_cast<size_t>(cell_index) < tree_.level(0).num_cells());
  if (aborted_) return false;
  const int attr = tree_.attribute_at_level(0);
  cur_non_key_.Set(attr);
  if (options_.singleton_pruning &&
      tree_.level(1).ref[static_cast<size_t>(cell_index)] > 1) {
    // Cannot happen in a freshly frozen tree (top-level subtrees have a
    // single parent) but kept for exact parity with the serial loop body.
    if (stats_ != nullptr) ++stats_->singleton_traversal_prunes;
    if (observer_ != nullptr) observer_->OnPrune("singleton", 0);
  } else {
    Visit(MakeFrozen(1, static_cast<uint64_t>(cell_index)), 1);
  }
  cur_non_key_.Reset(attr);
  return !aborted_;
}

bool FrozenNonKeyFinder::RunRootMerge() {
  assert(depth_ >= 2);
  if (aborted_) return false;
  assert(cur_non_key_.Empty());
  const size_t num_slices = tree_.level(0).num_cells();
  if (num_slices <= 1) {
    if (num_slices == 1) {
      if (stats_ != nullptr) ++stats_->singleton_merge_prunes;
      if (observer_ != nullptr) observer_->OnPrune("singleton-merge", 0);
    }
    return !aborted_;
  }
  if (options_.futility_pruning && FutilityCovered(suffix_attrs_[1])) {
    if (stats_ != nullptr) ++stats_->futility_prunes;
    if (observer_ != nullptr) observer_->OnPrune("futility", 0);
    return !aborted_;
  }
  NodeRef merged = MergeChildren(MakeFrozen(0, 0), 0);
  if (observer_ != nullptr) observer_->OnMerge(0);
  Visit(merged, 1);
  UnrefRef(merged);
  return !aborted_;
}

bool FrozenNonKeyFinder::OverBudget() {
  if (aborted_) return true;
  if (options_.cancel_flag != nullptr &&
      options_.cancel_flag->load(std::memory_order_relaxed)) {
    aborted_ = true;
    abort_reason_ = AbortReason::kCancelled;
    return true;
  }
  if (external_stop_ != nullptr &&
      external_stop_->load(std::memory_order_relaxed)) {
    aborted_ = true;  // reason stays kNone: it belongs to another worker
    return true;
  }
  if (options_.max_non_keys > 0 && non_keys_->size() > options_.max_non_keys) {
    aborted_ = true;
    abort_reason_ = AbortReason::kNonKeyBudget;
    return true;
  }
  if ((++visit_tick_ & 0xFFF) == 0) {
    if (maintenance_) maintenance_();
    if (options_.time_budget_seconds > 0 &&
        budget_offset_seconds_ + budget_watch_.ElapsedSeconds() >
            options_.time_budget_seconds) {
      aborted_ = true;
      abort_reason_ = AbortReason::kTimeBudget;
    }
  }
  return aborted_;
}

bool FrozenNonKeyFinder::FutilityCovered(const AttributeSet& probe) {
  if (warm_cover_ != nullptr && warm_cover_->CoversSet(probe)) {
    if (stats_ != nullptr) ++stats_->warm_start_prunes;
    return true;
  }
  if (non_keys_->CoversSet(probe)) return true;
  if (remote_cover_ && remote_cover_(probe)) {
    if (stats_ != nullptr) ++stats_->futility_snapshot_prunes;
    return true;
  }
  return false;
}

void FrozenNonKeyFinder::ProcessLeaf(NodeRef node, int level) {
  const int attr = tree_.attribute_at_level(level);
  if (observer_ != nullptr) observer_->OnSegment(cur_non_key_);
  size_t num_cells;
  int64_t first_count = 0;
  bool has_duplicate;
  if (IsFrozen(node)) {
    const FrozenTree::Level& lv = tree_.level(level);
    const size_t idx = static_cast<size_t>(FrozenIndexOf(node));
    const size_t b = lv.cell_begin[idx], e = lv.cell_begin[idx + 1];
    num_cells = e - b;
    has_duplicate = frozen_simd::AnyCountNotOne(lv.count.data() + b, e - b);
    if (num_cells > 0) first_count = lv.count[b];
  } else {
    const PrefixTree::Node* n = AsNode(node);
    num_cells = n->cells.size();
    has_duplicate = false;
    for (const PrefixTree::Cell& cell : n->cells) {
      if (cell.count != 1) {
        has_duplicate = true;
        break;
      }
    }
    if (num_cells > 0) first_count = n->cells[0].count;
  }
  if (has_duplicate) {
    if (observer_ != nullptr) observer_->OnNonKey(cur_non_key_);
    non_keys_->Insert(cur_non_key_);
  }
  cur_non_key_.Reset(attr);
  if (observer_ != nullptr) observer_->OnSegment(cur_non_key_);
  if (num_cells > 1 || (num_cells == 1 && first_count > 1)) {
    if (observer_ != nullptr) observer_->OnNonKey(cur_non_key_);
    non_keys_->Insert(cur_non_key_);
  }
}

void FrozenNonKeyFinder::Visit(NodeRef node, int level) {
  if (stats_ != nullptr) ++stats_->nodes_visited;
  if (OverBudget()) return;
  const int attr = tree_.attribute_at_level(level);
  assert(!cur_non_key_.Test(attr));
  cur_non_key_.Set(attr);

  if (level == depth_ - 1) {
    ProcessLeaf(node, level);  // also removes attr from cur_non_key_
    return;
  }

  size_t span_begin = 0, span_end = 0;
  PrefixTree::Node* pnode = nullptr;
  int64_t entities;
  if (IsFrozen(node)) {
    const FrozenTree::Level& lv = tree_.level(level);
    const size_t idx = static_cast<size_t>(FrozenIndexOf(node));
    span_begin = lv.cell_begin[idx];
    span_end = lv.cell_begin[idx + 1];
    entities = lv.entity_total[idx];
  } else {
    pnode = AsNode(node);
    assert(!pnode->is_leaf);
    entities = pnode->EntityCount();
  }

  if (options_.single_entity_pruning && entities == 1) {
    if (stats_ != nullptr) ++stats_->single_entity_prunes;
    if (observer_ != nullptr) observer_->OnPrune("single-entity", level);
    cur_non_key_.Reset(attr);
    return;
  }

  size_t num_children;
  if (pnode == nullptr) {
    num_children = span_end - span_begin;
    const std::vector<int32_t>& child_refs = tree_.level(level + 1).ref;
    for (size_t g = span_begin; g < span_end; ++g) {
      if (aborted_) break;
      if (options_.singleton_pruning && child_refs[g] > 1) {
        if (stats_ != nullptr) ++stats_->singleton_traversal_prunes;
        if (observer_ != nullptr) observer_->OnPrune("singleton", level);
        continue;
      }
      Visit(MakeFrozen(level + 1, g), level + 1);
    }
  } else {
    num_children = pnode->cells.size();
    for (const PrefixTree::Cell& cell : pnode->cells) {
      if (aborted_) break;
      const NodeRef child = FromChild(cell.child);
      const int32_t child_refs =
          IsFrozen(child) ? FrozenRefCount(child) : AsNode(child)->ref_count;
      if (options_.singleton_pruning && child_refs > 1) {
        if (stats_ != nullptr) ++stats_->singleton_traversal_prunes;
        if (observer_ != nullptr) observer_->OnPrune("singleton", level);
        continue;
      }
      Visit(child, level + 1);
    }
  }

  cur_non_key_.Reset(attr);
  if (aborted_) return;

  // The unconditional Figure 10(b) skip, exactly as in NonKeyFinder.
  if (num_children <= 1) {
    if (num_children == 1) {
      if (stats_ != nullptr) ++stats_->singleton_merge_prunes;
      if (observer_ != nullptr) observer_->OnPrune("singleton-merge", level);
    }
    return;
  }

  if (options_.futility_pruning &&
      FutilityCovered(cur_non_key_ |
                      suffix_attrs_[static_cast<size_t>(level) + 1])) {
    if (stats_ != nullptr) ++stats_->futility_prunes;
    if (observer_ != nullptr) observer_->OnPrune("futility", level);
    return;
  }

  NodeRef merged = MergeChildren(node, level);
  if (observer_ != nullptr) observer_->OnMerge(level);
  Visit(merged, level + 1);
  UnrefRef(merged);
}

FrozenNonKeyFinder::NodeRef FrozenNonKeyFinder::MergeChildren(NodeRef node,
                                                              int level) {
  if (IsFrozen(node)) {
    // The children of a frozen node are the contiguous run of frozen nodes
    // [b, e) at level + 1, so this is MergeRefs inlined over that run —
    // same counter discipline, no materialized NodeRef list.
    const FrozenTree::Level& lv = tree_.level(level);
    const size_t idx = static_cast<size_t>(FrozenIndexOf(node));
    const uint32_t b = lv.cell_begin[idx], e = lv.cell_begin[idx + 1];
    assert(e > b);
    if (stats_ != nullptr) ++stats_->merges_performed;
    if (e - b == 1) {
      const NodeRef child = MakeFrozen(level + 1, b);
      AddRefRef(child);
      return child;
    }
    if (e - b == 2) return MergePairFrozen(level + 1, b, b + 1);
    return MergeFrozenRange(level + 1, b, e, 0);
  }
  std::vector<NodeRef>& buf = child_buf_[static_cast<size_t>(level)];
  buf.clear();
  const PrefixTree::Node* n = AsNode(node);
  buf.reserve(n->cells.size());
  for (const PrefixTree::Cell& cell : n->cells) {
    buf.push_back(FromChild(cell.child));
  }
  return MergeRefs(buf.data(), buf.size(), level + 1, 0);
}

FrozenNonKeyFinder::NodeRef FrozenNonKeyFinder::MergeRefs(
    const NodeRef* inputs, size_t n, int level, size_t depth) {
  assert(n > 0);
  if (stats_ != nullptr) ++stats_->merges_performed;
  if (n == 1) {
    // Algorithm 3, lines 1-2: nothing to merge; share the node.
    AddRefRef(inputs[0]);
    return inputs[0];
  }
  if (n == 2 && IsFrozen(inputs[0]) && IsFrozen(inputs[1])) {
    assert(FrozenLevelOf(inputs[0]) == level &&
           FrozenLevelOf(inputs[1]) == level);
    return MergePairFrozen(level, FrozenIndexOf(inputs[0]),
                           FrozenIndexOf(inputs[1]));
  }
  return MergeDirect(inputs, n, level, depth);
}

// The branch-light fast path: a 2-way union of two frozen spans. Distinct
// codes are located with a galloping (SIMD-scanned) lower bound and copied
// as whole runs — each copied cell shares its frozen child, which is what a
// 1-input merge would have produced, so the counters advance identically to
// the general path.
FrozenNonKeyFinder::NodeRef FrozenNonKeyFinder::MergePairFrozen(int level,
                                                                uint64_t a,
                                                                uint64_t b) {
  FrozenTree::Level& lv = tree_.level_mutable(level);
  const bool leaf = (level == depth_ - 1);
  const uint32_t* code = lv.code.data();
  const int64_t* count = lv.count.data();
  size_t i = lv.cell_begin[static_cast<size_t>(a)];
  const size_t ie = lv.cell_begin[static_cast<size_t>(a) + 1];
  size_t j = lv.cell_begin[static_cast<size_t>(b)];
  const size_t je = lv.cell_begin[static_cast<size_t>(b) + 1];

  PrefixTree::Node* out = merge_pool_->NewNode(leaf);
  if (stats_ != nullptr) ++stats_->merge_nodes_created;
  out->cells.reserve((ie - i) + (je - j));
  int64_t total = 0;

  std::vector<int32_t>* child_refs =
      leaf ? nullptr : &tree_.level_mutable(level + 1).ref;
  auto copy_run = [&](size_t from, size_t to) {
    for (size_t k = from; k < to; ++k) {
      PrefixTree::Cell c;
      c.code = code[k];
      c.count = count[k];
      c.child = leaf ? nullptr : ToChild(MakeFrozen(level + 1, k));
      out->cells.push_back(c);
      total += c.count;
    }
    if (!leaf && to > from) {
      for (size_t k = from; k < to; ++k) ++(*child_refs)[k];
      if (stats_ != nullptr) {
        stats_->merges_performed += static_cast<int64_t>(to - from);
      }
    }
  };

  while (i < ie && j < je) {
    const uint32_t ci = code[i], cj = code[j];
    if (ci == cj) {
      PrefixTree::Cell c;
      c.code = ci;
      c.count = count[i] + count[j];
      c.child = nullptr;
      if (!leaf) {
        if (stats_ != nullptr) ++stats_->merges_performed;
        c.child = ToChild(MergePairFrozen(level + 1, i, j));
      }
      out->cells.push_back(c);
      total += c.count;
      ++i;
      ++j;
    } else if (ci < cj) {
      const size_t k =
          i + 1 + frozen_simd::LowerBound(code + i + 1, ie - i - 1, cj);
      copy_run(i, k);
      i = k;
    } else {
      const size_t k =
          j + 1 + frozen_simd::LowerBound(code + j + 1, je - j - 1, ci);
      copy_run(j, k);
      j = k;
    }
  }
  copy_run(i, ie);
  copy_run(j, je);

  out->entity_total = total;
  merge_pool_->SyncCellBytes(out);
  return FromNode(out);
}

// The n-way union of Algorithm 3, comparison-free: bucket every input cell
// by code (counts accumulate in place), then scatter children into per-code
// runs. Freeze gives every level a dense code domain, so the code-indexed
// tables never outgrow the level's cell count. When the table is small
// relative to the input (the dense mode, typical at the low-cardinality
// levels where merges concentrate) the union walks the table and is linear;
// otherwise it sorts only the distinct codes it touched. Counter discipline
// matches NonKeyFinder's MergeNodes: one node per union, one
// merges_performed bump per output cell (the would-be MergeRefs call,
// 1-input shares included), and runs keep gather order.
template <typename ForEachCell, typename ForEachChild>
FrozenNonKeyFinder::NodeRef FrozenNonKeyFinder::MergeBucketed(
    size_t total_cells, int level, size_t depth,
    const ForEachCell& for_each_cell, const ForEachChild& for_each_child) {
  const bool leaf = (level == depth_ - 1);
  const FrozenTree::Level& lv = tree_.level(level);
  MergeLevelScratch& sc = ScratchAt(depth);
  const size_t table = static_cast<size_t>(lv.max_code) + 1;
  if (sc.code_mult.size() < table) {
    // New entries are zeroed here and re-zeroed after every merge, so the
    // tables are always all-zero on entry.
    sc.code_mult.resize(table, 0);
    sc.code_acc.resize(table, 0);
    sc.code_pos.resize(table, 0);
  }
  // Recursive merges use deeper scratch levels, so these stay valid across
  // the MergeRefs calls below.
  int32_t* mult = sc.code_mult.data();
  int64_t* acc = sc.code_acc.data();
  uint32_t* cursor = sc.code_pos.data();

  // Dense mode: the table is no bigger than a few times the input, so
  // walking it beats tracking and sorting the distinct codes.
  const bool dense = table <= 4 * total_cells + 16;
  size_t distinct = 0;
  if (dense) {
    for_each_cell([&](uint32_t c, int64_t count) {
      distinct += (mult[c] == 0);
      ++mult[c];
      acc[c] += count;
    });
  } else {
    sc.distinct.clear();
    for_each_cell([&](uint32_t c, int64_t count) {
      if (mult[c]++ == 0) sc.distinct.push_back(c);
      acc[c] += count;
    });
    std::sort(sc.distinct.begin(), sc.distinct.end());
    distinct = sc.distinct.size();
  }

  if (!leaf) {
    // Prefix-sum the multiplicities into scatter cursors, then group every
    // gathered child into its code's run.
    uint32_t pos = 0;
    if (dense) {
      for (size_t c = 0; c < table; ++c) {
        cursor[c] = pos;
        pos += static_cast<uint32_t>(mult[c]);
      }
    } else {
      for (uint32_t c : sc.distinct) {
        cursor[c] = pos;
        pos += static_cast<uint32_t>(mult[c]);
      }
    }
    sc.run_children.resize(total_cells);
    NodeRef* runs = sc.run_children.data();
    for_each_child([&](uint32_t c, NodeRef child) {
      runs[cursor[c]++] = child;
    });
  }

  PrefixTree::Node* out = merge_pool_->NewNode(leaf);
  if (stats_ != nullptr) ++stats_->merge_nodes_created;
  out->cells.resize(distinct);
  PrefixTree::Cell* cells = out->cells.data();
  int64_t total = 0;
  size_t d = 0;
  auto emit = [&](uint32_t c) {
    PrefixTree::Cell& cell = cells[d++];
    cell.code = c;
    cell.count = acc[c];
    cell.child = nullptr;
    total += cell.count;
    if (!leaf) {
      const uint32_t m = static_cast<uint32_t>(mult[c]);
      NodeRef* run = sc.run_children.data() + (cursor[c] - m);
      if (m == 1) {
        // The MergeRefs n == 1 share, inlined: this is by far the most
        // common run shape, and skipping the call keeps the emit loop
        // tight.
        if (stats_ != nullptr) ++stats_->merges_performed;
        AddRefRef(run[0]);
        cell.child = ToChild(run[0]);
      } else {
        cell.child = ToChild(MergeRefs(run, m, level + 1, depth + 1));
      }
    }
    mult[c] = 0;  // restore the all-zero invariant for reuse
    acc[c] = 0;
  };
  if (dense) {
    for (size_t c = 0; c < table; ++c) {
      if (mult[c] != 0) emit(static_cast<uint32_t>(c));
    }
  } else {
    for (uint32_t c : sc.distinct) emit(c);
  }
  assert(d == distinct);
  out->entity_total = total;
  merge_pool_->SyncCellBytes(out);
  return FromNode(out);
}

FrozenNonKeyFinder::NodeRef FrozenNonKeyFinder::MergeDirect(
    const NodeRef* inputs, size_t n, int level, size_t depth) {
  const FrozenTree::Level& lv = tree_.level(level);
  const uint32_t* code = lv.code.data();
  const int64_t* count = lv.count.data();
  size_t total_cells = 0;
  for (size_t t = 0; t < n; ++t) {
    if (IsFrozen(inputs[t])) {
      assert(FrozenLevelOf(inputs[t]) == level);
      const size_t idx = static_cast<size_t>(FrozenIndexOf(inputs[t]));
      total_cells += lv.cell_begin[idx + 1] - lv.cell_begin[idx];
    } else {
      total_cells += AsNode(inputs[t])->cells.size();
    }
  }
  const auto for_each_cell = [&](auto&& fn) {
    for (size_t t = 0; t < n; ++t) {
      if (IsFrozen(inputs[t])) {
        const size_t idx = static_cast<size_t>(FrozenIndexOf(inputs[t]));
        const size_t b = lv.cell_begin[idx], e = lv.cell_begin[idx + 1];
        for (size_t g = b; g < e; ++g) fn(code[g], count[g]);
      } else {
        for (const PrefixTree::Cell& cell : AsNode(inputs[t])->cells) {
          assert(cell.code <= lv.max_code);
          fn(cell.code, cell.count);
        }
      }
    }
  };
  const auto for_each_child = [&](auto&& fn) {
    for (size_t t = 0; t < n; ++t) {
      if (IsFrozen(inputs[t])) {
        const size_t idx = static_cast<size_t>(FrozenIndexOf(inputs[t]));
        const size_t b = lv.cell_begin[idx], e = lv.cell_begin[idx + 1];
        for (size_t g = b; g < e; ++g) fn(code[g], MakeFrozen(level + 1, g));
      } else {
        for (const PrefixTree::Cell& cell : AsNode(inputs[t])->cells) {
          fn(cell.code, FromChild(cell.child));
        }
      }
    }
  };
  return MergeBucketed(total_cells, level, depth, for_each_cell,
                       for_each_child);
}

FrozenNonKeyFinder::NodeRef FrozenNonKeyFinder::MergeFrozenRange(
    int level, uint32_t node_lo, uint32_t node_hi, size_t depth) {
  const FrozenTree::Level& lv = tree_.level(level);
  const size_t b = lv.cell_begin[node_lo], e = lv.cell_begin[node_hi];
  const uint32_t* code = lv.code.data();
  const int64_t* count = lv.count.data();
  const auto for_each_cell = [&](auto&& fn) {
    for (size_t g = b; g < e; ++g) fn(code[g], count[g]);
  };
  const auto for_each_child = [&](auto&& fn) {
    for (size_t g = b; g < e; ++g) fn(code[g], MakeFrozen(level + 1, g));
  };
  return MergeBucketed(e - b, level, depth, for_each_cell, for_each_child);
}

void FrozenNonKeyFinder::AddRefRef(NodeRef r) {
  if (IsFrozen(r)) {
    ++FrozenRefCount(r);
  } else {
    ++AsNode(r)->ref_count;
  }
}

void FrozenNonKeyFinder::UnrefRef(NodeRef r) {
  if (IsFrozen(r)) {
    int32_t& rc = FrozenRefCount(r);
    assert(rc > 1 && "the frozen tree always holds the final reference");
    --rc;
    return;
  }
  PrefixTree::Node* node = AsNode(r);
  assert(node->ref_count > 0);
  if (--node->ref_count > 0) return;
  // The pool's own Unref would chase Cell::child as a raw pointer; merge
  // outputs hold tagged frozen references there, so this finder owns the
  // recursion and hands the pool only the zero-ref node itself.
  if (!node->is_leaf) {
    for (const PrefixTree::Cell& cell : node->cells) {
      UnrefRef(FromChild(cell.child));
    }
  }
  merge_pool_->Reclaim(node);
}

}  // namespace gordian
