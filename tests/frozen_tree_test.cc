// Tests for the frozen prefix-tree (core/frozen_tree.h): flat-layout
// invariants after Freeze, aborted runs against the reference NonKeyFinder
// and their unwinding, SIMD kernel agreement with the scalar reference, and
// the tree-cache integration that serves prefrozen artifacts on hits.
// Complete runs are compared with the reference finder (reports, and every
// counter when serial) by differential_test.

#include "core/frozen_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/gordian.h"
#include "core/non_key_finder.h"
#include "core/non_key_set.h"
#include "core/pipeline.h"
#include "core/prefix_tree.h"
#include "datagen/synthetic.h"
#include "service/tree_cache.h"
#include "table/fingerprint.h"

namespace gordian {
namespace {

Table MakeTable(int64_t rows, uint64_t seed, int columns = 6) {
  SyntheticSpec spec = UniformSpec(columns, rows, 24, 0.4, seed);
  spec.columns[0].cardinality = 200;
  spec.columns[2].cardinality = 48;
  spec.planted_keys.push_back({0, 2});
  spec.planted_keys.push_back({1, 3, 4});
  Table t;
  Status s = GenerateSynthetic(spec, &t);
  EXPECT_TRUE(s.ok());
  return t;
}

void ExpectSameReport(const Table& table, const KeyDiscoveryResult& a,
                      const KeyDiscoveryResult& b) {
  EXPECT_EQ(FormatResult(table, a), FormatResult(table, b));
  EXPECT_EQ(a.no_keys, b.no_keys);
  EXPECT_EQ(a.incomplete, b.incomplete);
  EXPECT_EQ(a.incomplete_reason, b.incomplete_reason);
  ASSERT_EQ(a.non_keys.size(), b.non_keys.size());
  for (size_t i = 0; i < a.non_keys.size(); ++i) {
    EXPECT_EQ(a.non_keys[i], b.non_keys[i]);
  }
}

// The frozen traversal replays the pointer traversal decision-for-decision,
// so the work counters must agree exactly, not just the results.
void ExpectSameCounters(const GordianStats& a, const GordianStats& b) {
  EXPECT_EQ(a.nodes_visited, b.nodes_visited);
  EXPECT_EQ(a.merges_performed, b.merges_performed);
  EXPECT_EQ(a.merge_nodes_created, b.merge_nodes_created);
  EXPECT_EQ(a.singleton_traversal_prunes, b.singleton_traversal_prunes);
  EXPECT_EQ(a.singleton_merge_prunes, b.singleton_merge_prunes);
  EXPECT_EQ(a.single_entity_prunes, b.single_entity_prunes);
  EXPECT_EQ(a.futility_prunes, b.futility_prunes);
  EXPECT_EQ(a.final_non_keys, b.final_non_keys);
}

// Freezes `tree` and checks the flat layout against it: spans, counts,
// entity totals and the BFS identity, and per level that the codes are
// exactly [0, max_code] and that Freeze's renumbering kept the pointer
// tree's code order. Sets *renumbered to how many pointer-tree levels were
// not dense, i.e. how many levels Freeze had to renumber.
void ExpectFreezePreservesStructure(const PrefixTree& tree, int* renumbered) {
  *renumbered = 0;
  std::unique_ptr<FrozenTree> frozen = FrozenTree::Freeze(tree);
  ASSERT_NE(frozen, nullptr);

  EXPECT_EQ(frozen->num_levels(), tree.num_levels());
  EXPECT_EQ(frozen->num_entities(), tree.num_entities());
  EXPECT_EQ(frozen->node_count(), tree.node_count());
  EXPECT_EQ(frozen->cell_count(), tree.cell_count());
  EXPECT_EQ(frozen->attr_order(), tree.attr_order());
  EXPECT_GT(frozen->ApproxBytes(), 0);
  EXPECT_GT(frozen->BytesPerNode(), 0.0);
  EXPECT_TRUE(frozen->AllRefsAreOne());

  const int depth = frozen->num_levels();
  EXPECT_EQ(frozen->level(0).num_nodes(), 1u);  // the root
  int64_t total_nodes = 0, total_cells = 0;
  std::vector<const PrefixTree::Node*> nodes = {tree.root()};
  for (int l = 0; l < depth; ++l) {
    const FrozenTree::Level& lv = frozen->level(l);
    ASSERT_EQ(lv.cell_begin.size(), lv.num_nodes() + 1);
    ASSERT_EQ(lv.count.size(), lv.num_cells());
    ASSERT_EQ(lv.ref.size(), lv.num_nodes());
    EXPECT_EQ(lv.cell_begin.front(), 0u);
    EXPECT_EQ(lv.cell_begin.back(), lv.num_cells());
    for (size_t i = 0; i < lv.num_nodes(); ++i) {
      const uint32_t b = lv.cell_begin[i], e = lv.cell_begin[i + 1];
      ASSERT_LE(b, e);
      int64_t entity_sum = 0;
      for (uint32_t c = b; c < e; ++c) {
        if (c > b) EXPECT_LT(lv.code[c - 1], lv.code[c]);  // sorted, strict
        EXPECT_GT(lv.count[c], 0);
        entity_sum += lv.count[c];
      }
      EXPECT_EQ(entity_sum, lv.entity_total[i]);
      EXPECT_EQ(lv.ref[i], 1);
    }
    // BFS identity: level l's cell with global index g is the parent of
    // node g at level l + 1.
    if (l + 1 < depth) {
      EXPECT_EQ(frozen->level(l + 1).num_nodes(), lv.num_cells());
    }
    total_nodes += static_cast<int64_t>(lv.num_nodes());
    total_cells += static_cast<int64_t>(lv.num_cells());

    // The pointer tree's cells at this level, in the same BFS order.
    std::vector<std::pair<uint32_t, uint32_t>> codes;  // (pointer, frozen)
    std::vector<const PrefixTree::Node*> next;
    for (const PrefixTree::Node* n : nodes) {
      for (const PrefixTree::Cell& cell : n->cells) {
        const size_t g = codes.size();
        ASSERT_LT(g, lv.num_cells());
        EXPECT_EQ(cell.count, lv.count[g]);
        codes.emplace_back(cell.code, lv.code[g]);
        if (!n->is_leaf) next.push_back(cell.child);
      }
    }
    ASSERT_EQ(codes.size(), lv.num_cells());
    nodes.swap(next);
    if (codes.empty()) {
      EXPECT_EQ(lv.max_code, 0u);
      continue;
    }

    // Dense: the frozen codes are exactly [0, max_code].
    std::vector<bool> seen(static_cast<size_t>(lv.max_code) + 1, false);
    for (uint32_t c : lv.code) {
      EXPECT_LE(c, lv.max_code);
      if (c <= lv.max_code) seen[c] = true;
    }
    EXPECT_EQ(std::count(seen.begin(), seen.end(), false), 0)
        << "level " << l << " has a gap in [0, " << lv.max_code << "]";
    EXPECT_LE(static_cast<size_t>(lv.max_code) + 1, lv.num_cells());

    // Order-preserving: sorted by pointer code, the frozen codes rise by
    // exactly one where the pointer code changes and stay put where it
    // repeats, starting from 0 — i.e. each frozen code is the pointer
    // code's rank.
    std::sort(codes.begin(), codes.end());
    EXPECT_EQ(codes.front().second, 0u);
    for (size_t i = 1; i < codes.size(); ++i) {
      const bool same = codes[i].first == codes[i - 1].first;
      EXPECT_EQ(codes[i].second, codes[i - 1].second + (same ? 0 : 1))
          << "level " << l << " pointer code " << codes[i].first;
    }
    *renumbered += codes.back().first != codes.back().second;
  }
  EXPECT_EQ(total_nodes, frozen->node_count());
  EXPECT_EQ(total_cells, frozen->cell_count());
}

TEST(FrozenTreeLayoutTest, FreezePreservesStructure) {
  Table t = MakeTable(2000, 11);
  std::vector<int> order(static_cast<size_t>(t.num_columns()));
  std::iota(order.begin(), order.end(), 0);
  PrefixTree tree =
      PrefixTree::Build(t, order, GordianOptions::TreeBuild::kSorted);
  // Every dictionary value of a full table occurs on some path, so its
  // levels are dense before freezing and Freeze renumbers nothing.
  int renumbered = -1;
  ExpectFreezePreservesStructure(tree, &renumbered);
  EXPECT_EQ(renumbered, 0);

  // A sample keeps its source table's dictionaries: most codes of a
  // near-unique column are absent from it, so Freeze must renumber.
  TableBuilder b(Schema(std::vector<std::string>{"id", "grp", "v"}));
  for (int64_t i = 0; i < 3000; ++i) {
    b.AddRow({Value(i * 7), Value(i % 5), Value((i * 13) % 97)});
  }
  const Table sample = b.Build().SampleRows(200, 7);
  for (const std::vector<int>& sample_order :
       {std::vector<int>{0, 1, 2}, std::vector<int>{1, 2, 0}}) {
    PrefixTree sampled = PrefixTree::Build(
        sample, sample_order, GordianOptions::TreeBuild::kSorted);
    ExpectFreezePreservesStructure(sampled, &renumbered);
    EXPECT_GE(renumbered, 2);
  }
}

TEST(FrozenTraversalTest, NonKeyBudgetAbortMatchesPointerBaseline) {
  Table t = MakeTable(3000, 53);
  GordianOptions opt;
  opt.max_non_keys = 2;
  KeyDiscoveryResult baseline = ReferenceFindKeys(t, opt);
  ASSERT_TRUE(baseline.incomplete);
  EXPECT_EQ(baseline.incomplete_reason, AbortReason::kNonKeyBudget);

  GordianOptions froz = opt;
  froz.traversal_threads = -1;
  KeyDiscoveryResult frozen = FindKeys(t, froz);
  ExpectSameReport(t, baseline, frozen);
  ExpectSameCounters(baseline.stats, frozen.stats);
}

TEST(FrozenTraversalTest, PreCancelledRunAbortsWithCancelled) {
  Table t = MakeTable(1500, 59);
  std::atomic<bool> cancel{true};
  GordianOptions opt;
  opt.cancel_flag = &cancel;
  opt.traversal_threads = -1;
  KeyDiscoveryResult r = FindKeys(t, opt);
  EXPECT_TRUE(r.incomplete);
  EXPECT_EQ(r.incomplete_reason, AbortReason::kCancelled);
  EXPECT_TRUE(r.keys.empty());
}

TEST(FrozenTraversalTest, AbortedRunFullyUnwindsFrozenRefs) {
  Table t = MakeTable(3000, 61);
  std::vector<int> order(static_cast<size_t>(t.num_columns()));
  std::iota(order.begin(), order.end(), 0);
  PrefixTree tree =
      PrefixTree::Build(t, order, GordianOptions::TreeBuild::kSorted);
  std::unique_ptr<FrozenTree> frozen = FrozenTree::Freeze(tree);

  GordianOptions opt;
  opt.max_non_keys = 1;  // trips almost immediately, mid-recursion
  GordianStats stats;
  NonKeySet set(&stats);
  FrozenNonKeyFinder finder(*frozen, opt, &set, &stats);
  EXPECT_FALSE(finder.Run());
  EXPECT_EQ(finder.abort_reason(), AbortReason::kNonKeyBudget);
  // The abort unwound every temporary share: the frozen tree is
  // bit-identical to freshly frozen and can serve the next run.
  EXPECT_TRUE(frozen->AllRefsAreOne());

  GordianOptions opt2;  // named: the finder keeps a reference to it
  GordianStats stats2;
  NonKeySet set2(&stats2);
  FrozenNonKeyFinder second(*frozen, opt2, &set2, &stats2);
  EXPECT_TRUE(second.Run());
  EXPECT_TRUE(frozen->AllRefsAreOne());
}

TEST(FrozenSimdTest, KernelsAgreeWithScalarReference) {
  EXPECT_NE(frozen_simd::ActiveKernel(), nullptr);
  std::mt19937_64 rng(42);
  for (int round = 0; round < 200; ++round) {
    const size_t n = rng() % 70;
    std::vector<uint32_t> codes(n);
    uint32_t next = 0;
    for (size_t i = 0; i < n; ++i) {
      next += 1 + static_cast<uint32_t>(rng() % 50);
      codes[i] = next;
    }
    // Probe below, inside, between, and above the span — including values
    // past INT32_MAX, which the AVX2 kernel handles via the sign-bias trick.
    for (int probe = 0; probe < 8; ++probe) {
      uint32_t target = static_cast<uint32_t>(rng());
      if (probe < 4 && n > 0) target = codes[rng() % n] + (probe % 2);
      EXPECT_EQ(frozen_simd::LowerBound(codes.data(), n, target),
                frozen_simd::LowerBoundScalar(codes.data(), n, target))
          << "n=" << n << " target=" << target;
    }

    std::vector<int64_t> counts(n, 1);
    EXPECT_EQ(frozen_simd::AnyCountNotOne(counts.data(), n),
              frozen_simd::AnyCountNotOneScalar(counts.data(), n));
    if (n > 0) {
      counts[rng() % n] = 2 + static_cast<int64_t>(rng() % 5);
      EXPECT_TRUE(frozen_simd::AnyCountNotOne(counts.data(), n));
      EXPECT_EQ(frozen_simd::AnyCountNotOne(counts.data(), n),
                frozen_simd::AnyCountNotOneScalar(counts.data(), n));
    }
  }
}

TEST(FrozenTreeCacheTest, HitServesPrefrozenArtifact) {
  Table t = MakeTable(1500, 71);
  GordianOptions opt;
  const uint64_t fp = TableFingerprint(t);
  TreeArtifactCache cache;

  bool hit = false;
  KeyDiscoveryResult first = ProfileWithTreeCache(t, opt, fp, &cache, &hit);
  EXPECT_FALSE(hit);
  EXPECT_GT(first.stats.frozen_tree_bytes, 0);
  EXPECT_GT(first.stats.freeze_seconds, 0.0);
  // The miss admitted the run's own frozen artifact.
  TreeArtifactCache::Stats cs = cache.GetStats();
  EXPECT_EQ(cs.frozen_bytes, first.stats.frozen_tree_bytes);

  KeyDiscoveryResult second = ProfileWithTreeCache(t, opt, fp, &cache, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(second.stats.frozen_tree_bytes, first.stats.frozen_tree_bytes);
  // A hit pays neither build nor freeze: the prefrozen twin was injected.
  EXPECT_EQ(second.stats.freeze_seconds, 0.0);
  ExpectSameReport(t, first, second);
}

// cell_count() is a plain counter that the builds and AbsorbBatch keep
// exact, so concurrent reads of a built tree are race-free; under TSan this
// test is the proof.
TEST(PrefixTreeTest, ConcurrentCellCountReadsAreRaceFree) {
  Table t = MakeTable(2000, 73);
  std::vector<int> order(static_cast<size_t>(t.num_columns()));
  std::iota(order.begin(), order.end(), 0);
  PrefixTree tree =
      PrefixTree::Build(t, order, GordianOptions::TreeBuild::kSorted);
  const int64_t expected = tree.cell_count();

  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      for (int k = 0; k < 1000; ++k) {
        if (tree.cell_count() != expected) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace gordian
