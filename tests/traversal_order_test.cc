// Specification tests for the segment processing order (the paper's
// Figure 9): with pruning disabled, the traversal must examine, for a single
// slice over attributes X, Y, Z, the segments in the order
//   XYZ, XY, XZ, X, YZ, Y, Z
// — each level's attribute is projected out only after everything beneath
// it was explored, which is exactly what makes the covered-first pruning
// opportunities of Section 3.4 possible.
//
// Every case runs on both finders — the production FrozenNonKeyFinder and
// the reference NonKeyFinder — and first asserts that their observer event
// sequences are identical.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/frozen_tree.h"
#include "core/non_key_finder.h"
#include "core/prefix_tree.h"
#include "table/table.h"

namespace gordian {
namespace {

class RecordingObserver : public TraversalObserver {
 public:
  void OnSegment(const AttributeSet& segment) override {
    segments.push_back(segment);
  }
  void OnNonKey(const AttributeSet& nk) override { non_keys.push_back(nk); }
  void OnMerge(int level) override { merges.push_back(level); }
  void OnPrune(const char* kind, int level) override {
    prunes.emplace_back(kind, level);
  }

  std::vector<AttributeSet> segments;
  std::vector<AttributeSet> non_keys;
  std::vector<int> merges;
  std::vector<std::pair<std::string, int>> prunes;
};

enum class Finder { kReference, kFrozen };

std::string FinderName(const ::testing::TestParamInfo<Finder>& info) {
  return info.param == Finder::kReference ? "Reference" : "Frozen";
}

// Runs `finder` over `t` in schema order, reporting to `obs` (may be null);
// returns the discovered non-keys.
std::vector<AttributeSet> RunFinder(Finder finder, const Table& t,
                                    const GordianOptions& o,
                                    TraversalObserver* obs) {
  std::vector<int> order(t.num_columns());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  PrefixTree tree = PrefixTree::Build(t, order, o.tree_build);
  GordianStats stats;
  NonKeySet set(&stats);
  if (finder == Finder::kReference) {
    NonKeyFinder f(tree, o, &set, &stats, obs);
    EXPECT_TRUE(f.Run());
  } else {
    std::unique_ptr<FrozenTree> frozen = FrozenTree::Freeze(tree);
    FrozenNonKeyFinder f(*frozen, o, &set, &stats, obs);
    EXPECT_TRUE(f.Run());
  }
  return set.non_keys();
}

class TraversalOrder : public ::testing::TestWithParam<Finder> {};

// The event sequence of the finder under test, after asserting that both
// finders fire exactly the same one.
RecordingObserver RunWithObserver(const Table& t, const GordianOptions& o) {
  RecordingObserver reference, frozen;
  RunFinder(Finder::kReference, t, o, &reference);
  RunFinder(Finder::kFrozen, t, o, &frozen);
  EXPECT_EQ(reference.segments, frozen.segments);
  EXPECT_EQ(reference.non_keys, frozen.non_keys);
  EXPECT_EQ(reference.merges, frozen.merges);
  EXPECT_EQ(reference.prunes, frozen.prunes);
  return TraversalOrder::GetParam() == Finder::kReference ? reference : frozen;
}

// A dense 3-attribute table (several values everywhere, duplicates in every
// projection) so that no structural pruning can hide segments even when
// enabled.
Table DenseThreeAttrTable() {
  TableBuilder b(Schema(std::vector<std::string>{"X", "Y", "Z"}));
  for (int x = 0; x < 3; ++x) {
    for (int y = 0; y < 3; ++y) {
      for (int z = 0; z < 3; ++z) {
        b.AddRow({Value(int64_t{x}), Value(int64_t{y}), Value(int64_t{z})});
      }
    }
  }
  return b.Build();
}

TEST_P(TraversalOrder, Figure9SegmentOrderWithoutPruning) {
  GordianOptions o;
  o.singleton_pruning = false;
  o.futility_pruning = false;
  o.single_entity_pruning = false;
  RecordingObserver obs = RunWithObserver(DenseThreeAttrTable(), o);

  // The distinct segments, in first-appearance order.
  std::vector<AttributeSet> first_seen;
  for (const AttributeSet& s : obs.segments) {
    bool seen = false;
    for (const AttributeSet& f : first_seen) {
      if (f == s) seen = true;
    }
    if (!seen) first_seen.push_back(s);
  }
  const std::vector<AttributeSet> expected = {
      AttributeSet{0, 1, 2},  // XYZ
      AttributeSet{0, 1},     // XY
      AttributeSet{0, 2},     // XZ
      AttributeSet{0},        // X
      AttributeSet{1, 2},     // YZ
      AttributeSet{1},        // Y
      AttributeSet{2},        // Z
      AttributeSet{},         // the final projection onto no attributes
  };
  EXPECT_EQ(first_seen, expected);
}

TEST_P(TraversalOrder, EverySegmentIsVisitedWithoutPruning) {
  GordianOptions o;
  o.singleton_pruning = false;
  o.futility_pruning = false;
  o.single_entity_pruning = false;
  RecordingObserver obs = RunWithObserver(DenseThreeAttrTable(), o);
  // All 7 non-empty subsets of 3 attributes appear (2^3 - 1), plus the
  // empty set is never a segment... it is: projecting the last attribute of
  // the top merge chain reaches {} as the final "segment" check at the
  // deepest merged leaf. Assert the seven non-empty ones.
  for (uint64_t mask = 1; mask < 8; ++mask) {
    AttributeSet s;
    for (int i = 0; i < 3; ++i) {
      if (mask & (1u << i)) s.Set(i);
    }
    bool seen = false;
    for (const AttributeSet& seg : obs.segments) {
      if (seg == s) seen = true;
    }
    EXPECT_TRUE(seen) << s.ToString();
  }
}

TEST_P(TraversalOrder, DuplicatesInEveryProjectionYieldNonKeyEvents) {
  GordianOptions o;
  RecordingObserver obs = RunWithObserver(DenseThreeAttrTable(), o);
  // In the dense table, XY (and everything below) has duplicates, so
  // non-key events must fire; the maximal one {X,Y} or {X,Z}... all 2-sets
  // are non-keys, and even XYZ... XYZ is unique (27 distinct rows). The
  // first reported non-key is XY.
  ASSERT_FALSE(obs.non_keys.empty());
  EXPECT_EQ(obs.non_keys.front(), (AttributeSet{0, 1}));
}

TEST_P(TraversalOrder, MergeEventsAreBottomUpPerSlice) {
  GordianOptions o;
  o.singleton_pruning = false;
  o.futility_pruning = false;
  o.single_entity_pruning = false;
  RecordingObserver obs = RunWithObserver(DenseThreeAttrTable(), o);
  // First merge happens at the deepest non-leaf level (projecting Z from
  // the first X,Y slice). The top-level merge (projecting X) happens
  // exactly once, near the end — only the merges *inside* the resulting
  // tree follow it.
  ASSERT_FALSE(obs.merges.empty());
  EXPECT_EQ(obs.merges.front(), 1);
  int top_level = 0;
  size_t top_pos = 0;
  for (size_t i = 0; i < obs.merges.size(); ++i) {
    if (obs.merges[i] == 0) {
      ++top_level;
      top_pos = i;
    }
  }
  EXPECT_EQ(top_level, 1);
  for (size_t i = top_pos + 1; i < obs.merges.size(); ++i) {
    EXPECT_GT(obs.merges[i], 0);
  }
}

TEST_P(TraversalOrder, PruningEventsCarryTheirKind) {
  // Correlated-ish data with shared subtrees triggers singleton pruning.
  TableBuilder b(Schema(std::vector<std::string>{"a", "b", "c"}));
  for (int i = 0; i < 40; ++i) {
    b.AddRow({Value(int64_t{i % 2}), Value(int64_t{i % 4}),
              Value(int64_t{i})});
  }
  RecordingObserver obs = RunWithObserver(b.Build(), GordianOptions{});
  bool saw_known_kind = false;
  for (const auto& [kind, level] : obs.prunes) {
    EXPECT_TRUE(kind == "singleton" || kind == "singleton-merge" ||
                kind == "single-entity" || kind == "futility")
        << kind;
    EXPECT_GE(level, 0);
    EXPECT_LT(level, 3);
    saw_known_kind = true;
  }
  EXPECT_TRUE(saw_known_kind);
}

TEST_P(TraversalOrder, ObserverDoesNotChangeResults) {
  Table t = DenseThreeAttrTable();
  GordianOptions o;
  RecordingObserver obs;
  EXPECT_EQ(RunFinder(GetParam(), t, o, &obs),
            RunFinder(GetParam(), t, o, nullptr));
}

INSTANTIATE_TEST_SUITE_P(BothFinders, TraversalOrder,
                         ::testing::Values(Finder::kReference, Finder::kFrozen),
                         FinderName);

}  // namespace
}  // namespace gordian
