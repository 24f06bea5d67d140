#ifndef GORDIAN_CORE_PREFIX_TREE_H_
#define GORDIAN_CORE_PREFIX_TREE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/memory_tracker.h"
#include "core/options.h"
#include "table/table.h"

namespace gordian {

// The compressed dataset representation of Section 3.2: one tree level per
// attribute, one cell per distinct value within a node, shared prefixes
// stored once. Leaf cells carry the multiplicity of the full entity; every
// cell carries the total entity count of its subtree (used by the
// single-entity prune).
//
// Nodes are reference counted (Section 3.3: "a reference-counting scheme was
// used") because merge results share untouched subtrees with the trees they
// were merged from. A node with ref_count > 1 is a "shared prefix tree" in
// the sense of the singleton-pruning rule.
class PrefixTree {
 public:
  struct Node;

  struct Cell {
    uint32_t code;   // dictionary code of the value at this level
    int64_t count;   // entities below this cell (leaf: multiplicity)
    Node* child;     // nullptr at the leaf level
  };

  struct Node {
    std::vector<Cell> cells;  // sorted by code, strictly increasing
    int64_t accounted_bytes = 0;  // maintained by NodePool::SyncCellBytes
    // Sum of cells[*].count, maintained incrementally by the builders and
    // by MergeNodes so the single-entity prune — which fires on every
    // non-leaf Visit — never re-sums the cell vector.
    int64_t entity_total = 0;
    int32_t ref_count = 1;
    bool is_leaf = false;

    int64_t EntityCount() const {
#ifdef GORDIAN_TREE_CONSISTENCY_CHECKS
      int64_t recomputed = 0;
      for (const Cell& c : cells) recomputed += c.count;
      assert(recomputed == entity_total &&
             "cached entity_total out of sync with cell counts");
#endif
      return entity_total;
    }
  };

  // Allocates, frees, and byte-accounts nodes. All merge intermediates flow
  // through the same pool as the base tree, so peak_bytes is the honest
  // maximum footprint of the whole tree phase.
  //
  // Storage is a block arena plus a free list: nodes are carved out of
  // fixed-size blocks and recycled (retaining their cell-vector capacity)
  // when their reference count drops to zero. The traversal's merge phase
  // creates and discards millions of short-lived intermediate nodes; with
  // recycling, the steady state performs no heap allocation at all. Byte
  // accounting covers in-use nodes only — a recycled node's retained
  // capacity is allocator slack, exactly like memory returned to malloc was
  // before the arena, so current/peak semantics are unchanged.
  //
  // Not thread-safe; the parallel traversal gives each worker a private
  // pool.
  class NodePool {
   public:
    NodePool() = default;
    ~NodePool();

    NodePool(const NodePool&) = delete;
    NodePool& operator=(const NodePool&) = delete;

    Node* NewNode(bool is_leaf);

    void AddRef(Node* n) { ++n->ref_count; }

    // Drops one reference; recycles the node (and recursively unrefs its
    // children) when the count reaches zero.
    void Unref(Node* n);

    // Releases a node whose reference count has already reached zero
    // WITHOUT touching its children. This is the non-recursive tail of
    // Unref, exposed for callers that own the child recursion themselves —
    // the frozen traversal's merge outputs store tagged frozen references
    // in Cell::child, which Unref would chase as raw pointers.
    void Reclaim(Node* n);

    // Call after appending cells to `n` so capacity growth is accounted.
    void SyncCellBytes(Node* n);

    int64_t live_nodes() const { return live_nodes_; }
    int64_t total_nodes_created() const { return total_nodes_; }
    int64_t current_bytes() const { return tracker_.current_bytes(); }
    int64_t peak_bytes() const { return tracker_.peak_bytes(); }

   private:
    static constexpr int kNodesPerBlock = 256;

    MemoryTracker tracker_;
    std::vector<Node*> blocks_;     // owned arrays of kNodesPerBlock nodes
    std::vector<Node*> free_list_;  // recycled nodes, cells capacity kept
    int next_in_block_ = kNodesPerBlock;  // forces a block on first NewNode
    int64_t live_nodes_ = 0;
    int64_t total_nodes_ = 0;
  };

  PrefixTree() = default;
  ~PrefixTree();

  PrefixTree(const PrefixTree&) = delete;
  PrefixTree& operator=(const PrefixTree&) = delete;
  PrefixTree(PrefixTree&& other) noexcept { *this = std::move(other); }
  PrefixTree& operator=(PrefixTree&& other) noexcept;

  // Builds the prefix tree for `table` with tree level i holding the column
  // `attr_order[i]`. `attr_order` must be a permutation of the column
  // positions. Detects duplicate entities (Algorithm 2, lines 17-18): when
  // present, has_duplicate_entities() is true and the dataset has no keys.
  static PrefixTree Build(const Table& table, const std::vector<int>& attr_order,
                          GordianOptions::TreeBuild mode);

  // Inserts `num_rows` delta entities into the existing tree (Algorithm 2's
  // insertion loop, which the kInsertion build runs over a bare root).
  // `level_codes` holds one code pointer per tree level — already permuted
  // by attr_order, each addressing `num_rows` codes for the delta only. Leaf
  // counts, per-node entity totals, the duplicate-entity flag,
  // num_entities() and cell_count() are all updated exactly; no other state
  // is invalidated, so a traversal may run immediately afterwards.
  //
  // Every node reached must be privately owned (ref_count == 1) — true for
  // any built tree: production traversals run over its frozen copy, and the
  // reference finder restores the reference counts it temporarily bumps.
  //
  // `cancel` is polled between rows; on early stop the tree is a valid
  // prefix tree of the base rows plus the absorbed prefix of the batch.
  // Returns the number of rows absorbed so the caller can resume the
  // remainder with a later call.
  int64_t AbsorbBatch(const std::vector<const uint32_t*>& level_codes,
                      int64_t num_rows,
                      const std::atomic<bool>* cancel = nullptr);

  Node* root() const { return root_; }
  NodePool& pool() { return *pool_; }
  int num_levels() const { return static_cast<int>(attr_order_.size()); }
  // Original column position of tree level `level`.
  int attribute_at_level(int level) const { return attr_order_[level]; }
  const std::vector<int>& attr_order() const { return attr_order_; }

  bool has_duplicate_entities() const { return has_duplicate_entities_; }

  int64_t num_entities() const { return num_entities_; }
  int64_t node_count() const;
  // Cells of the tree, counted by both builds and by AbsorbBatch as they
  // create them.
  int64_t cell_count() const { return cell_count_; }

 private:
  static PrefixTree BuildSorted(const Table& table,
                                const std::vector<int>& attr_order);

  std::unique_ptr<NodePool> pool_ = std::make_unique<NodePool>();
  Node* root_ = nullptr;
  std::vector<int> attr_order_;
  int64_t num_entities_ = 0;
  bool has_duplicate_entities_ = false;
  int64_t cell_count_ = 0;
};

// Reusable per-traversal buffers for MergeNodes: one gather/partial pair per
// recursion depth, so a traversal performing millions of merges allocates
// the scratch once and then only grows it to the high-water mark. A scratch
// must not be shared across threads.
class MergeScratch {
 public:
  struct Level {
    std::vector<const PrefixTree::Cell*> gathered;
    std::vector<PrefixTree::Node*> partial;
  };

  Level& AtDepth(size_t depth) {
    if (depth >= levels_.size()) levels_.resize(depth + 1);
    return levels_[depth];
  }

 private:
  // deque, not vector: a merge at depth d holds a reference to its Level
  // (and passes its `partial` buffer to the recursive call) while deeper
  // merges may grow the table — deque growth never invalidates references
  // to existing elements.
  std::deque<Level> levels_;
};

// Algorithm 3: merges a set of same-level nodes into one node whose cells
// hold the union of the input values; equal-value children are merged
// recursively; equal-value leaf counts are summed. A single-node input is
// returned directly with an extra reference (node sharing). The caller owns
// one reference to the result and must Unref it when done.
//
// `merges_performed` / `merge_nodes_created` counters are incremented when a
// stats pointer is supplied. The scratch overload reuses the caller's
// buffers across calls; the two-argument form allocates a transient scratch
// and exists for callers outside the traversal hot path (tests, benches).
PrefixTree::Node* MergeNodes(PrefixTree::NodePool& pool,
                             const std::vector<PrefixTree::Node*>& to_merge,
                             GordianStats* stats);
PrefixTree::Node* MergeNodes(PrefixTree::NodePool& pool,
                             const std::vector<PrefixTree::Node*>& to_merge,
                             GordianStats* stats, MergeScratch* scratch,
                             size_t depth = 0);

}  // namespace gordian

#endif  // GORDIAN_CORE_PREFIX_TREE_H_
