// Edge cases of key discovery: degenerate tables (one row, no rows, no
// columns, a constant column), a table whose only key is every column, and
// the widest schemas the bitmap accepts. Randomized equivalence against the
// brute-force oracle under every pruning and order lives in
// differential_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bruteforce/brute_force.h"
#include "core/gordian.h"
#include "datagen/synthetic.h"

namespace gordian {
namespace {

std::vector<AttributeSet> Sorted(std::vector<AttributeSet> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(GordianEdge, SingleRowTableEverySingletonIsKey) {
  TableBuilder b(Schema(std::vector<std::string>{"a", "b", "c"}));
  b.AddRow({Value(int64_t{1}), Value("x"), Value(2.0)});
  Table t = b.Build();
  KeyDiscoveryResult r = FindKeys(t);
  EXPECT_FALSE(r.no_keys);
  EXPECT_EQ(Sorted(r.KeySets()),
            Sorted({AttributeSet{0}, AttributeSet{1}, AttributeSet{2}}));
  EXPECT_TRUE(r.non_keys.empty());
}

TEST(GordianEdge, EmptyTableEverySingletonIsKey) {
  TableBuilder b(Schema(std::vector<std::string>{"a", "b"}));
  Table t = b.Build();
  KeyDiscoveryResult r = FindKeys(t);
  EXPECT_FALSE(r.no_keys);
  EXPECT_EQ(r.keys.size(), 2u);
}

TEST(GordianEdge, ZeroColumnTable) {
  TableBuilder b((Schema()));
  Table t = b.Build();
  KeyDiscoveryResult r = FindKeys(t);
  EXPECT_TRUE(r.keys.empty());
  EXPECT_FALSE(r.no_keys);
}

TEST(GordianEdge, ConstantColumnNeverInAKey) {
  TableBuilder b(Schema(std::vector<std::string>{"const", "id"}));
  for (int i = 0; i < 20; ++i) {
    b.AddRow({Value("same"), Value(int64_t{i})});
  }
  Table t = b.Build();
  KeyDiscoveryResult r = FindKeys(t);
  ASSERT_EQ(r.keys.size(), 1u);
  EXPECT_EQ(r.keys[0].attrs, AttributeSet{1});
}

TEST(GordianEdge, AllColumnsTogetherOnlyKey) {
  // Craft a table where only the full set {0,1,2} is a key: every pair has
  // a duplicate.
  TableBuilder b(Schema(std::vector<std::string>{"a", "b", "c"}));
  b.AddRow({Value(int64_t{0}), Value(int64_t{0}), Value(int64_t{0})});
  b.AddRow({Value(int64_t{0}), Value(int64_t{0}), Value(int64_t{1})});
  b.AddRow({Value(int64_t{0}), Value(int64_t{1}), Value(int64_t{0})});
  b.AddRow({Value(int64_t{1}), Value(int64_t{0}), Value(int64_t{0})});
  Table t = b.Build();
  KeyDiscoveryResult r = FindKeys(t);
  ASSERT_EQ(r.keys.size(), 1u);
  EXPECT_EQ(r.keys[0].attrs, (AttributeSet{0, 1, 2}));
  EXPECT_EQ(Sorted(BruteForceAll(t).keys), Sorted(r.KeySets()));
}

TEST(GordianEdge, MaximumWidthTable) {
  // AttributeSet::kMaxAttributes (=128) columns: the widest schema the
  // library accepts. High cardinalities keep the answer small (see the
  // 66-attribute case below); the point is that nothing in the bitmap,
  // tree, or conversion path breaks at the boundary.
  SyntheticSpec spec = UniformSpec(AttributeSet::kMaxAttributes, 60, 50000,
                                   0.0, 777);
  spec.columns[0].cardinality = 8;
  spec.columns[127].cardinality = 16;
  spec.planted_keys.push_back({0, 127});
  Table t;
  ASSERT_TRUE(GenerateSynthetic(spec, &t).ok());
  ASSERT_EQ(t.num_columns(), 128);
  KeyDiscoveryResult r = FindKeys(t);
  ASSERT_FALSE(r.no_keys);
  EXPECT_FALSE(r.keys.empty());
  for (const DiscoveredKey& k : r.keys) {
    EXPECT_TRUE(t.IsUnique(k.attrs));
  }
  // The planted pair spans both bitmap words (bit 0 and bit 127).
  bool spanning = false;
  for (const DiscoveredKey& k : r.keys) {
    if ((AttributeSet{0, 127}).Covers(k.attrs)) spanning = true;
  }
  EXPECT_TRUE(spanning);
}

TEST(GordianEdge, WideTableSixtySixAttributes) {
  // The paper's widest relation has 66 attributes; ensure nothing in the
  // bitmap/tree path breaks past 64.
  // High cardinalities keep the non-key antichain small (small domains would
  // make every column pair a non-key by pigeonhole, and the minimal-key
  // family itself combinatorial — the #P-hard regime the paper sidesteps by
  // targeting realistic data). Columns 0 and 65 are low-cardinality so only
  // their planted combination is a key among them.
  SyntheticSpec spec = UniformSpec(66, 80, 20000, 0.0, 4242);
  spec.columns[0].cardinality = 16;
  spec.columns[65].cardinality = 16;
  spec.planted_keys.push_back({0, 65});
  Table t;
  ASSERT_TRUE(GenerateSynthetic(spec, &t).ok());
  KeyDiscoveryResult r = FindKeys(t);
  ASSERT_FALSE(r.no_keys);
  // The planted key (or a subset-free refinement) must be discovered.
  bool found = false;
  for (const DiscoveredKey& k : r.keys) {
    if ((AttributeSet{0, 65}).Covers(k.attrs)) found = true;
  }
  EXPECT_TRUE(found);
  for (const DiscoveredKey& k : r.keys) EXPECT_TRUE(t.IsUnique(k.attrs));
}

}  // namespace
}  // namespace gordian
