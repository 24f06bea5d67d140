#include "core/prefix_tree.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace gordian {

PrefixTree::NodePool::~NodePool() {
  for (Node* block : blocks_) delete[] block;
}

PrefixTree::Node* PrefixTree::NodePool::NewNode(bool is_leaf) {
  Node* n;
  if (!free_list_.empty()) {
    // Recycled node: its cells vector kept its capacity, so the upcoming
    // fill pays no reallocation.
    n = free_list_.back();
    free_list_.pop_back();
  } else {
    if (next_in_block_ == kNodesPerBlock) {
      blocks_.push_back(new Node[kNodesPerBlock]);
      next_in_block_ = 0;
    }
    n = &blocks_.back()[next_in_block_++];
  }
  n->is_leaf = is_leaf;
  n->ref_count = 1;
  n->entity_total = 0;
  assert(n->cells.empty());
  assert(n->accounted_bytes == 0);
  ++live_nodes_;
  ++total_nodes_;
  tracker_.Add(static_cast<int64_t>(sizeof(Node)));
  return n;
}

void PrefixTree::NodePool::Unref(Node* n) {
  assert(n->ref_count > 0);
  if (--n->ref_count > 0) return;
  if (!n->is_leaf) {
    for (const Cell& c : n->cells) Unref(c.child);
  }
  Reclaim(n);
}

void PrefixTree::NodePool::Reclaim(Node* n) {
  assert(n->ref_count == 0);
  tracker_.Release(static_cast<int64_t>(sizeof(Node)) + n->accounted_bytes);
  n->accounted_bytes = 0;
  n->cells.clear();  // keeps capacity for the next user of this node
  --live_nodes_;
  free_list_.push_back(n);
}

void PrefixTree::NodePool::SyncCellBytes(Node* n) {
  int64_t bytes =
      static_cast<int64_t>(n->cells.capacity()) * static_cast<int64_t>(sizeof(Cell));
  tracker_.Add(bytes - n->accounted_bytes);
  n->accounted_bytes = bytes;
}

PrefixTree::~PrefixTree() {
  if (root_ != nullptr) pool_->Unref(root_);
}

PrefixTree& PrefixTree::operator=(PrefixTree&& other) noexcept {
  if (this == &other) return *this;
  if (root_ != nullptr) pool_->Unref(root_);
  pool_ = std::move(other.pool_);
  root_ = other.root_;
  other.root_ = nullptr;
  attr_order_ = std::move(other.attr_order_);
  num_entities_ = other.num_entities_;
  has_duplicate_entities_ = other.has_duplicate_entities_;
  cell_count_ = other.cell_count_;
  return *this;
}

PrefixTree PrefixTree::Build(const Table& table,
                             const std::vector<int>& attr_order,
                             GordianOptions::TreeBuild mode) {
  assert(!attr_order.empty());
  if (mode == GordianOptions::TreeBuild::kSorted) {
    return BuildSorted(table, attr_order);
  }
  // Algorithm 2 verbatim: a single pass over the entities, descending from
  // the root and creating cells as needed — AbsorbBatch's insertion loop
  // over every row of a tree that holds only an empty root. Cells are kept
  // sorted by code, so the tree is structurally identical to the sorted
  // build.
  PrefixTree tree;
  tree.attr_order_ = attr_order;
  tree.root_ = tree.pool_->NewNode(attr_order.size() == 1);
  std::vector<const uint32_t*> level_codes;
  level_codes.reserve(attr_order.size());
  for (int c : attr_order) {
    level_codes.push_back(table.column_codes(c).data());
  }
  tree.AbsorbBatch(level_codes, table.num_rows());
  return tree;
}

int64_t PrefixTree::AbsorbBatch(
    const std::vector<const uint32_t*>& level_codes, int64_t num_rows,
    const std::atomic<bool>* cancel) {
  assert(root_ != nullptr);
  const int depth = num_levels();
  assert(static_cast<int>(level_codes.size()) == depth);
  NodePool& pool = *pool_;
  int64_t r = 0;
  for (; r < num_rows; ++r) {
    // Poll between rows only: a row is either fully inserted or not started,
    // so an early stop always leaves a valid prefix tree of base + absorbed
    // rows that a later call can extend.
    if (cancel != nullptr && (r & 127) == 0 &&
        cancel->load(std::memory_order_relaxed)) {
      break;
    }
    Node* node = root_;
    for (int l = 0; l < depth; ++l) {
      assert(node->ref_count == 1 &&
             "AbsorbBatch requires privately owned nodes");
      uint32_t code = level_codes[l][r];
      auto it = std::lower_bound(
          node->cells.begin(), node->cells.end(), code,
          [](const Cell& c, uint32_t v) { return c.code < v; });
      if (it == node->cells.end() || it->code != code) {
        Cell cell;
        cell.code = code;
        cell.count = 0;
        cell.child =
            (l + 1 < depth) ? pool.NewNode(l + 1 == depth - 1) : nullptr;
        it = node->cells.insert(it, cell);
        pool.SyncCellBytes(node);
        ++cell_count_;
      }
      ++it->count;
      ++node->entity_total;
      if (l == depth - 1) {
        if (it->count > 1) has_duplicate_entities_ = true;
      } else {
        node = it->child;
      }
    }
    ++num_entities_;
  }
  return r;
}

PrefixTree PrefixTree::BuildSorted(const Table& table,
                                   const std::vector<int>& attr_order) {
  PrefixTree tree;
  tree.attr_order_ = attr_order;
  tree.num_entities_ = table.num_rows();
  const int depth = static_cast<int>(attr_order.size());

  // Per-level code pointers, hoisted once: resident and spilled columns
  // alike are contiguous arrays, so the sort comparator and the path
  // builder below stay a plain indexed load.
  std::vector<const uint32_t*> level_codes;
  level_codes.reserve(attr_order.size());
  for (int c : attr_order) {
    level_codes.push_back(table.column_codes(c).data());
  }

  // Sort row ids lexicographically by the reordered attribute codes; the
  // tree is then built append-only, one root-to-leaf path at a time.
  std::vector<int64_t> rows(table.num_rows());
  std::iota(rows.begin(), rows.end(), int64_t{0});
  std::sort(rows.begin(), rows.end(), [&](int64_t a, int64_t b) {
    for (const uint32_t* codes : level_codes) {
      if (codes[a] != codes[b]) return codes[a] < codes[b];
    }
    return false;
  });

  NodePool& pool = *tree.pool_;
  tree.root_ = pool.NewNode(depth == 1);
  // stack[l] = node currently open at level l.
  std::vector<Node*> stack(depth, nullptr);
  stack[0] = tree.root_;

  int64_t prev_row = -1;
  for (int64_t r : rows) {
    // Longest common prefix with the previous row decides where to branch.
    int branch = 0;
    if (prev_row >= 0) {
      while (branch < depth &&
             level_codes[branch][r] == level_codes[branch][prev_row]) {
        ++branch;
      }
    }
    if (branch == depth) {
      // Entire entity equals the previous one: bump the leaf multiplicity.
      // Per Algorithm 2 this means the dataset has no keys at all.
      tree.has_duplicate_entities_ = true;
      Node* leaf = stack[depth - 1];
      ++leaf->cells.back().count;
      ++leaf->entity_total;
      // Propagate subtree counts up the open path.
      for (int l = 0; l + 1 < depth; ++l) {
        ++stack[l]->cells.back().count;
        ++stack[l]->entity_total;
      }
      prev_row = r;
      continue;
    }
    // Account the cells of the nodes we are abandoning below the branch
    // point (their vectors will not grow again).
    if (prev_row >= 0) {
      for (int l = depth - 1; l > branch; --l) pool.SyncCellBytes(stack[l]);
    }
    // Add one cell per level from the branch point down, creating the child
    // node chain.
    for (int l = branch; l < depth; ++l) {
      Node* node = stack[l];
      Cell cell;
      cell.code = level_codes[l][r];
      cell.count = 1;
      cell.child = nullptr;
      if (l + 1 < depth) {
        cell.child = pool.NewNode(l + 1 == depth - 1);
        stack[l + 1] = cell.child;
      }
      node->cells.push_back(cell);
      ++node->entity_total;
      ++tree.cell_count_;
    }
    // Bump the subtree counts of the reused prefix path.
    for (int l = 0; l < branch; ++l) {
      ++stack[l]->cells.back().count;
      ++stack[l]->entity_total;
    }
    prev_row = r;
  }
  for (int l = 0; l < depth; ++l) {
    if (stack[l] != nullptr) pool.SyncCellBytes(stack[l]);
  }
  return tree;
}

int64_t PrefixTree::node_count() const { return pool_->live_nodes(); }

PrefixTree::Node* MergeNodes(PrefixTree::NodePool& pool,
                             const std::vector<PrefixTree::Node*>& to_merge,
                             GordianStats* stats) {
  MergeScratch scratch;
  return MergeNodes(pool, to_merge, stats, &scratch, 0);
}

PrefixTree::Node* MergeNodes(PrefixTree::NodePool& pool,
                             const std::vector<PrefixTree::Node*>& to_merge,
                             GordianStats* stats, MergeScratch* scratch,
                             size_t depth) {
  assert(!to_merge.empty());
  if (stats != nullptr) ++stats->merges_performed;
  if (to_merge.size() == 1) {
    // Algorithm 3, lines 1-2: nothing to merge; share the node.
    pool.AddRef(to_merge[0]);
    return to_merge[0];
  }
  const bool leaf = to_merge[0]->is_leaf;
  PrefixTree::Node* merged = pool.NewNode(leaf);
  if (stats != nullptr) ++stats->merge_nodes_created;

  // Gather every input cell and sort by code: O(N log N) in the total cell
  // count, independent of the fan-in (a naive k-way scan would cost O(k)
  // per output cell, which is quadratic when a node with thousands of cells
  // is merged). The gather and partial buffers live in the per-depth
  // scratch, so a traversal performing millions of merges reuses them
  // instead of reallocating per call.
  MergeScratch::Level& lv = scratch->AtDepth(depth);
  lv.gathered.clear();
  size_t total = 0;
  for (const PrefixTree::Node* n : to_merge) total += n->cells.size();
  lv.gathered.reserve(total);
  for (const PrefixTree::Node* n : to_merge) {
    for (const PrefixTree::Cell& c : n->cells) lv.gathered.push_back(&c);
  }
  std::sort(lv.gathered.begin(), lv.gathered.end(),
            [](const PrefixTree::Cell* a, const PrefixTree::Cell* b) {
              return a->code < b->code;
            });

  // Exact output size, so the merged cell vector is allocated once instead
  // of growing geometrically.
  size_t distinct = 0;
  for (size_t i = 0; i < lv.gathered.size(); ++i) {
    if (i == 0 || lv.gathered[i]->code != lv.gathered[i - 1]->code) ++distinct;
  }
  merged->cells.reserve(distinct);

  size_t i = 0;
  while (i < lv.gathered.size()) {
    const uint32_t code = lv.gathered[i]->code;
    PrefixTree::Cell cell;
    cell.code = code;
    cell.count = 0;
    cell.child = nullptr;
    lv.partial.clear();
    for (; i < lv.gathered.size() && lv.gathered[i]->code == code; ++i) {
      cell.count += lv.gathered[i]->count;
      if (!leaf) lv.partial.push_back(lv.gathered[i]->child);
    }
    if (!leaf) {
      cell.child = MergeNodes(pool, lv.partial, stats, scratch, depth + 1);
    }
    merged->cells.push_back(cell);
    merged->entity_total += cell.count;
  }
  pool.SyncCellBytes(merged);
  return merged;
}

}  // namespace gordian
