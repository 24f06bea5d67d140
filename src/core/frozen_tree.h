#ifndef GORDIAN_CORE_FROZEN_TREE_H_
#define GORDIAN_CORE_FROZEN_TREE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/attribute_set.h"
#include "common/stopwatch.h"
#include "core/non_key_set.h"
#include "core/options.h"
#include "core/prefix_tree.h"

namespace gordian {

// Branch-light scan kernels over the frozen tree's contiguous arrays.
// Each kernel has a scalar implementation (always compiled, the portable
// reference) and an AVX2 implementation selected once per process by
// runtime CPU detection. Builds with GORDIAN_DISABLE_SIMD never compile the
// vector bodies; GORDIAN_SIMD_CONSISTENCY_CHECKS (Debug builds) re-runs the
// scalar kernel after every dispatched call and asserts agreement.
namespace frozen_simd {

// True iff any of counts[0..n) differs from 1 — the leaf duplicate test of
// Algorithm 4 over a frozen leaf span.
bool AnyCountNotOne(const int64_t* counts, size_t n);
bool AnyCountNotOneScalar(const int64_t* counts, size_t n);

// First index i in the sorted span codes[0..n) with codes[i] >= target
// (n when none). The dispatched version gallops from the front — runs
// consumed by the merge union are usually short — then scans the bracketed
// window with vector compares.
size_t LowerBound(const uint32_t* codes, size_t n, uint32_t target);
size_t LowerBoundScalar(const uint32_t* codes, size_t n, uint32_t target);

// "avx2" or "scalar" — which implementation dispatch resolved to.
const char* ActiveKernel();

}  // namespace frozen_simd

// Observation hooks into the traversal, for debugging, tracing, and the
// specification tests that pin the paper's Figure 9 processing order. All
// callbacks default to no-ops; the finders never depend on them.
// FrozenNonKeyFinder and the reference NonKeyFinder fire the same sequence.
class TraversalObserver {
 public:
  virtual ~TraversalObserver() = default;

  // A segment (candidate non-key) of the current slice was examined at the
  // leaf level — the unit of work Figure 9 orders.
  virtual void OnSegment(const AttributeSet& /*segment*/) {}

  // A non-key was handed to the NonKeySet (it may still be rejected there
  // as redundant).
  virtual void OnNonKey(const AttributeSet& /*non_key*/) {}

  // A merge produced the tree for the next projection at `level`.
  virtual void OnMerge(int /*level*/) {}

  // A pruning rule fired: "singleton", "singleton-merge", "single-entity",
  // or "futility".
  virtual void OnPrune(const char* /*kind*/, int /*level*/) {}
};

// A read-only flattening of a built PrefixTree for the traversal hot path:
// per level, one contiguous sorted code span per node instead of per-node
// heap vectors — struct-of-arrays, no pointers, one allocation per array.
//
// Nodes are frozen in BFS order, so the tree needs no child table at all:
// level l+1 holds exactly one node per cell of level l, in cell order, and
// the child of the cell with global index g at level l IS node g at level
// l+1. (This relies on the base tree being share-free — every ref_count is
// 1 after Build; sharing only ever arises from traversal merges, which are
// pool nodes, never frozen ones.)
//
// The only mutable state is the per-node `ref` array: the traversal's merge
// sharing temporarily raises reference counts exactly as it does on pointer
// nodes, and restores them on unwind (aborted runs included), so a frozen
// tree served by the TreeArtifactCache comes back bit-identical. Like the
// pointer tree, a frozen tree can therefore serve only one run at a time;
// parallel workers may share one because slices touch disjoint subtrees.
class FrozenTree {
 public:
  struct Level {
    // Cell span of node i is [cell_begin[i], cell_begin[i + 1]).
    std::vector<uint32_t> cell_begin;   // num_nodes + 1 entries
    std::vector<uint32_t> code;         // per cell, ascending within a span
    std::vector<int64_t> count;         // per cell (leaf: multiplicity)
    std::vector<int64_t> entity_total;  // per node: sum of its cell counts
    // Per node, starts at 1 (the base tree's own reference); mutated by the
    // traversal's merge sharing and restored by its unwind.
    std::vector<int32_t> ref;
    // Largest code at this level (0 when empty). Freeze renumbers codes to
    // their rank among the level's codes, so they are exactly
    // [0, max_code] and max_code + 1 is the level's distinct-code count,
    // never more than num_cells(). Merge outputs only ever union frozen
    // codes, so this bounds the code domain of every merge at this level —
    // what lets MergeBucketed index its tables by code.
    uint32_t max_code = 0;

    size_t num_nodes() const { return entity_total.size(); }
    size_t num_cells() const { return code.size(); }
  };

  // Flattens `tree`, which must be freshly built or fully unwound (every
  // ref_count 1), renumbering each level's dictionary codes to their
  // order-preserving rank (a no-op check when the level is already dense).
  // The pointer tree is not consumed: it remains the construction and
  // merge-intermediate representation.
  static std::unique_ptr<FrozenTree> Freeze(const PrefixTree& tree);

  int num_levels() const { return static_cast<int>(attr_order_.size()); }
  int attribute_at_level(int level) const { return attr_order_[level]; }
  const std::vector<int>& attr_order() const { return attr_order_; }
  int64_t num_entities() const { return num_entities_; }
  int64_t node_count() const { return node_count_; }
  int64_t cell_count() const { return cell_count_; }

  const Level& level(int l) const { return levels_[static_cast<size_t>(l)]; }
  Level& level_mutable(int l) { return levels_[static_cast<size_t>(l)]; }

  // Heap footprint of the frozen arrays (exact: every array is allocated
  // once at its final size).
  int64_t ApproxBytes() const { return approx_bytes_; }
  double BytesPerNode() const {
    return node_count_ == 0 ? 0
                            : static_cast<double>(approx_bytes_) /
                                  static_cast<double>(node_count_);
  }

  // True iff some entity occurs more than once (Algorithm 2, lines 17-18:
  // then no key exists) — exactly when a leaf cell count differs from 1.
  bool HasDuplicateEntities() const;

  // True iff every node's reference count is back at 1 (test hook: aborted
  // traversals must fully unwind their shares).
  bool AllRefsAreOne() const;

 private:
  FrozenTree() = default;

  std::vector<Level> levels_;
  std::vector<int> attr_order_;
  int64_t num_entities_ = 0;
  int64_t node_count_ = 0;
  int64_t cell_count_ = 0;
  int64_t approx_bytes_ = 0;
};

// Algorithm 4 over the frozen representation — the production non-key
// search. The doubly-recursive depth-first traversal interleaves the
// (virtual) cube computation with non-key discovery: the outer recursion
// explores slices; after all children of a node are visited, its children
// are merged (projecting out the node's attribute) and the merged tree is
// explored recursively — so every segment of every slice is examined, in
// the order shown in the paper's Figure 9, except where pruning applies.
//
// Visit runs over contiguous code spans, the leaf duplicate test is a SIMD
// scan, the 2-way merge of frozen nodes (the dominant shape inside merge
// recursions) is a branch-light galloping span union, and every other merge
// is one code-bucketed n-way union. Merge outputs are ordinary NodePool
// nodes whose Cell::child fields hold either a pool node or a tagged
// reference to a frozen node (bit 0 set — real node pointers are always
// even), so merge intermediates share untouched frozen subtrees exactly as
// pointer merges share subtrees of a base tree.
//
// Visit order, pruning decisions, counters, observer callbacks, and budget
// semantics are identical to the reference NonKeyFinder
// (core/non_key_finder.h) over the same tree; tests/frozen_tree_test.cc and
// tests/traversal_order_test.cc pin this.
//
// Run() is the serial entry point. For the parallel traversal
// (docs/parallel.md) each worker owns a private finder and drives it
// through RunSlice / RunRootMerge instead; the Set* hooks wire the worker
// into the shared machinery (merge-node pool, stop flag, futility
// snapshots). A finder is never shared across threads.
class FrozenNonKeyFinder {
 public:
  // Merge intermediates are allocated from the pool passed via
  // SetMergePool; without one the finder falls back to a private pool it
  // owns (convenient for tests — pipeline callers always inject the pool
  // whose peak they account).
  FrozenNonKeyFinder(FrozenTree& tree, const GordianOptions& options,
                     NonKeySet* non_keys, GordianStats* stats,
                     TraversalObserver* observer = nullptr);

  // Runs the traversal, populating the NonKeySet passed at construction.
  // Returns false if a budget (options.max_non_keys /
  // options.time_budget_seconds) tripped or options.cancel_flag was raised
  // and the traversal stopped early; abort_reason() then says which.
  bool Run();

  // Why the traversal stopped early, or kNone after a complete run. An
  // external stop (SetExternalStop) aborts with kNone — the reason belongs
  // to whichever worker tripped it, and the parallel driver resolves it.
  AbortReason abort_reason() const { return abort_reason_; }

  // --- parallel-traversal entry points -----------------------------------

  // Replays the slice body of Visit(root, 0) for exactly one top-level cell:
  // appends the root attribute to the candidate non-key, visits (or
  // singleton-prunes) the cell's subtree, removes the attribute again.
  // Requires >= 2 levels. Returns false once the finder has aborted.
  bool RunSlice(int cell_index);

  // Replays the post-children tail of Visit(root, 0): singleton-merge /
  // futility checks, then the merge of all top-level subtrees (projecting
  // out the root attribute) and the recursive exploration of the merged
  // tree. Run serially, after every slice of every worker has finished,
  // against the union NonKeySet. Returns false once aborted.
  bool RunRootMerge();

  // Starts the budget clock with time already spent elsewhere in the find
  // phase (a worker picking up its first slice late must charge the wait
  // against options.time_budget_seconds). Run() resets the offset to zero;
  // callers of RunSlice/RunRootMerge invoke this once instead.
  void StartBudgetClock(double offset_seconds);

  // Merge intermediates are allocated from `pool`. Workers traverse
  // disjoint subtrees but must not share an allocator; each passes its
  // private pool here.
  void SetMergePool(PrefixTree::NodePool* pool) { merge_pool_ = pool; }

  // When `stop` becomes true the finder unwinds exactly like a cancellation
  // but leaves abort_reason() at kNone (see above).
  void SetExternalStop(const std::atomic<bool>* stop) { external_stop_ = stop; }

  // `cover` is consulted by the futility test after the local NonKeySet
  // fails to cover the probe; returning true prunes and is counted under
  // futility_snapshot_prunes. Used to test against other workers' published
  // snapshots. Must be cheap-ish: it runs on the traversal hot path.
  void SetRemoteCover(std::function<bool(const AttributeSet&)> cover) {
    remote_cover_ = std::move(cover);
  }

  // Invoked once every 4096 visits (the same amortization as the wall-clock
  // budget check). Workers use it to publish their local non-keys and to
  // refresh their view of the snapshot board.
  void SetMaintenanceHook(std::function<void()> hook) {
    maintenance_ = std::move(hook);
  }

  // Warm-start cover (options.warm_start_non_keys materialized as a
  // NonKeySet): consulted by the futility test before the working set, so
  // prunes earned by the prior run's non-keys are counted under
  // warm_start_prunes. `warm` is read-only here and may be shared across
  // workers; it must outlive the traversal.
  void SetWarmCover(const NonKeySet* warm) { warm_cover_ = warm; }

 private:
  // Tagged node handle: either a PrefixTree::Node* (bit 0 clear) or a
  // frozen node reference (bit 0 set) packing the node's level and index.
  using NodeRef = uintptr_t;
  static constexpr int kIndexBits = 40;

  static bool IsFrozen(NodeRef r) { return (r & 1) != 0; }
  static NodeRef MakeFrozen(int level, uint64_t index) {
    assert(index < (uint64_t{1} << kIndexBits));
    return (static_cast<NodeRef>(level) << (kIndexBits + 1)) | (index << 1) |
           1;
  }
  static int FrozenLevelOf(NodeRef r) {
    return static_cast<int>(r >> (kIndexBits + 1));
  }
  static uint64_t FrozenIndexOf(NodeRef r) {
    return (r >> 1) & ((uint64_t{1} << kIndexBits) - 1);
  }
  static PrefixTree::Node* AsNode(NodeRef r) {
    assert(!IsFrozen(r));
    return reinterpret_cast<PrefixTree::Node*>(r);
  }
  static NodeRef FromNode(PrefixTree::Node* n) {
    return reinterpret_cast<NodeRef>(n);
  }
  // Cell::child of merge outputs stores a NodeRef bit pattern.
  static NodeRef FromChild(PrefixTree::Node* child) {
    return reinterpret_cast<NodeRef>(child);
  }
  static PrefixTree::Node* ToChild(NodeRef r) {
    return reinterpret_cast<PrefixTree::Node*>(r);
  }

  // Per-recursion-depth merge scratch (the frozen counterpart of
  // MergeScratch) for the n-way union, MergeBucketed: code-indexed tables
  // (code_mult/code_acc/code_pos, kept all-zero between merges) sized to
  // the merged level's max_code + 1, which Freeze bounds by that level's
  // cell count; the touched codes of a sparse merge; and the per-code child
  // runs. A deque so deeper merges growing the table never invalidate the
  // level a shallower merge still references.
  struct MergeLevelScratch {
    std::vector<uint32_t> distinct;
    std::vector<int32_t> code_mult;
    std::vector<int64_t> code_acc;
    std::vector<uint32_t> code_pos;
    std::vector<NodeRef> run_children;
  };

  void Visit(NodeRef node, int level);
  void ProcessLeaf(NodeRef node, int level);
  // Merges the children of `node` (a non-leaf at `level`) into one node at
  // level + 1, mirroring the MergeNodes call sites of NonKeyFinder.
  NodeRef MergeChildren(NodeRef node, int level);
  // Algorithm 3 over NodeRefs: inputs are same-level nodes at `level`.
  NodeRef MergeRefs(const NodeRef* inputs, size_t n, int level, size_t depth);
  NodeRef MergePairFrozen(int level, uint64_t a, uint64_t b);
  NodeRef MergeDirect(const NodeRef* inputs, size_t n, int level,
                      size_t depth);
  // MergeRefs specialized for a contiguous run of frozen sibling nodes
  // [node_lo, node_hi) at `level` — what MergeChildren of a frozen node
  // merges, without materializing the NodeRef list.
  NodeRef MergeFrozenRange(int level, uint32_t node_lo, uint32_t node_hi,
                           size_t depth);
  // Core of the comparison-free union (defined in the .cc, used only
  // there). The callbacks re-enumerate the gathered input cells on every
  // invocation: for_each_cell(fn) feeds fn(code, count) to histogram, and
  // for_each_child(fn) feeds fn(code, child NodeRef) to scatter children
  // into per-code runs (never invoked at the leaf level).
  template <typename ForEachCell, typename ForEachChild>
  NodeRef MergeBucketed(size_t total_cells, int level, size_t depth,
                        const ForEachCell& for_each_cell,
                        const ForEachChild& for_each_child);
  void AddRefRef(NodeRef r);
  void UnrefRef(NodeRef r);
  int32_t& FrozenRefCount(NodeRef r) {
    return tree_.level_mutable(FrozenLevelOf(r))
        .ref[static_cast<size_t>(FrozenIndexOf(r))];
  }
  MergeLevelScratch& ScratchAt(size_t depth) {
    if (depth >= scratch_.size()) scratch_.resize(depth + 1);
    return scratch_[depth];
  }
  bool OverBudget();
  bool FutilityCovered(const AttributeSet& probe);

  FrozenTree& tree_;
  const GordianOptions& options_;
  NonKeySet* non_keys_;
  GordianStats* stats_;
  TraversalObserver* observer_;
  int depth_ = 0;

  AttributeSet cur_non_key_;
  std::vector<AttributeSet> suffix_attrs_;

  // Gather buffer for MergeChildren of a merge-output node, one per tree
  // level (Visit recursion holds level l's buffer across the merge call,
  // which gathers at deeper levels through the per-depth scratch, never
  // this buffer).
  std::vector<std::vector<NodeRef>> child_buf_;
  std::deque<MergeLevelScratch> scratch_;

  std::unique_ptr<PrefixTree::NodePool> fallback_pool_;
  PrefixTree::NodePool* merge_pool_ = nullptr;

  const std::atomic<bool>* external_stop_ = nullptr;
  std::function<bool(const AttributeSet&)> remote_cover_;
  std::function<void()> maintenance_;
  const NonKeySet* warm_cover_ = nullptr;

  Stopwatch budget_watch_;
  double budget_offset_seconds_ = 0;
  uint64_t visit_tick_ = 0;
  bool aborted_ = false;
  AbortReason abort_reason_ = AbortReason::kNone;
};

}  // namespace gordian

#endif  // GORDIAN_CORE_FROZEN_TREE_H_
