// Tests for the staged profiling pipeline (core/pipeline.h): a session
// must reproduce FindKeys byte-for-byte in serial and parallel traversal
// modes, shared-tree runs must match fresh runs and leave the injected
// frozen tree reusable, and per-stage metrics must cover the executed
// stages.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/frozen_tree.h"
#include "core/gordian.h"
#include "core/pipeline.h"
#include "core/prefix_tree.h"
#include "datagen/synthetic.h"

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

// FormatResult-level equality is the PR's definition of "byte-identical
// report": keys, non-keys, strengths, and flags all feed the text.
void ExpectSameReport(const Table& table, const KeyDiscoveryResult& a,
                      const KeyDiscoveryResult& b) {
  EXPECT_EQ(FormatResult(table, a), FormatResult(table, b));
  EXPECT_EQ(a.no_keys, b.no_keys);
  EXPECT_EQ(a.sampled, b.sampled);
  EXPECT_EQ(a.incomplete, b.incomplete);
  ASSERT_EQ(a.non_keys.size(), b.non_keys.size());
  for (size_t i = 0; i < a.non_keys.size(); ++i) {
    EXPECT_EQ(a.non_keys[i], b.non_keys[i]);
  }
}

TEST(PipelineTest, SessionMatchesFindKeysSerial) {
  Table t = MakeTable(3000, 17);
  GordianOptions opt;
  opt.traversal_threads = -1;  // pin serial regardless of GORDIAN_THREADS
  KeyDiscoveryResult baseline = FindKeys(t, opt);

  ProfileSession session(opt);
  KeyDiscoveryResult piped;
  ASSERT_TRUE(session.Run(t, &piped).ok());
  ExpectSameReport(t, baseline, piped);
  EXPECT_EQ(baseline.stats.nodes_visited, piped.stats.nodes_visited);
  EXPECT_EQ(baseline.stats.merges_performed, piped.stats.merges_performed);
  EXPECT_EQ(baseline.stats.final_non_keys, piped.stats.final_non_keys);
}

TEST(PipelineTest, ParallelTraversalMatchesSerial) {
  Table t = MakeTable(3000, 23);
  GordianOptions serial;
  serial.traversal_threads = -1;
  KeyDiscoveryResult baseline = FindKeys(t, serial);

  GordianOptions par;
  par.traversal_threads = 8;
  ProfileSession session(par);
  KeyDiscoveryResult piped;
  ASSERT_TRUE(session.Run(t, &piped).ok());
  ExpectSameReport(t, baseline, piped);
}

TEST(PipelineTest, SharedTreeRunMatchesFreshRunAndTreeStaysReusable) {
  Table t = MakeTable(2500, 31);
  GordianOptions opt;
  opt.traversal_threads = -1;
  KeyDiscoveryResult baseline = FindKeys(t, opt);

  ProfileSession builder(opt);
  KeyDiscoveryResult first;
  ASSERT_TRUE(builder.Run(t, &first).ok());
  ASSERT_NE(builder.TakeTree(), nullptr);
  std::unique_ptr<FrozenTree> frozen = builder.TakeFrozenTree();
  ASSERT_NE(frozen, nullptr);

  // Traversal temporarily mutates reference counts on the shared tree;
  // after each run the tree must come back identical, so it can serve an
  // unbounded sequence of runs.
  for (int round = 0; round < 3; ++round) {
    ProfileSession reuser(opt);
    reuser.set_shared_frozen_tree(frozen.get());
    KeyDiscoveryResult reused;
    ASSERT_TRUE(reuser.Run(t, &reused).ok());
    ExpectSameReport(t, baseline, reused);
    EXPECT_EQ(reused.stats.freeze_seconds, 0.0);
    EXPECT_TRUE(frozen->AllRefsAreOne());
    EXPECT_EQ(reuser.TakeTree(), nullptr);  // run built nothing
    EXPECT_EQ(reuser.TakeFrozenTree(), nullptr);
  }
}

TEST(PipelineTest, SharedTreeRunMatchesUnderParallelTraversal) {
  Table t = MakeTable(2500, 37);
  GordianOptions serial;
  serial.traversal_threads = -1;
  KeyDiscoveryResult baseline = FindKeys(t, serial);

  ProfileSession builder(serial);
  KeyDiscoveryResult first;
  ASSERT_TRUE(builder.Run(t, &first).ok());
  std::unique_ptr<FrozenTree> frozen = builder.TakeFrozenTree();
  ASSERT_NE(frozen, nullptr);

  GordianOptions par;
  par.traversal_threads = 8;
  ProfileSession reuser(par);
  reuser.set_shared_frozen_tree(frozen.get());
  KeyDiscoveryResult reused;
  ASSERT_TRUE(reuser.Run(t, &reused).ok());
  ExpectSameReport(t, baseline, reused);
  EXPECT_TRUE(frozen->AllRefsAreOne());
}

TEST(PipelineTest, SampledRunMatchesFindKeys) {
  Table t = MakeTable(4000, 41);
  GordianOptions opt;
  opt.traversal_threads = -1;
  opt.sample_rows = 500;
  opt.sample_seed = 7;
  KeyDiscoveryResult baseline = FindKeys(t, opt);
  ASSERT_TRUE(baseline.sampled);

  ProfileSession session(opt);
  KeyDiscoveryResult piped;
  ASSERT_TRUE(session.Run(t, &piped).ok());
  ExpectSameReport(t, baseline, piped);
}

TEST(PipelineTest, NullExclusionRunMatchesFindKeys) {
  // A nullable column forces EncodeStage down the null-projection path
  // (nested session over the projected table).
  TableBuilder b(Schema(std::vector<std::string>{"maybe", "id", "mod"}));
  for (int64_t i = 0; i < 400; ++i) {
    b.AddRow({i % 11 == 0 ? Value::Null() : Value(i % 30), Value(i),
              Value(i % 17)});
  }
  Table t = b.Build();

  GordianOptions opt;
  opt.traversal_threads = -1;
  opt.null_semantics = GordianOptions::NullSemantics::kExcludeNullableColumns;
  KeyDiscoveryResult baseline = FindKeys(t, opt);

  ProfileSession session(opt);
  KeyDiscoveryResult piped;
  ASSERT_TRUE(session.Run(t, &piped).ok());
  ExpectSameReport(t, baseline, piped);
}

TEST(PipelineTest, DuplicateEntitiesConcludeAfterTreeBuild) {
  // Two columns of cardinality 2 over 200 rows guarantee duplicate
  // entities: the run must conclude with no_keys after tree build, leaving
  // no traversal metrics behind.
  SyntheticSpec spec = UniformSpec(2, 200, 2, 0.0, 53);
  spec.ensure_unique_rows = false;
  Table t;
  ASSERT_TRUE(GenerateSynthetic(spec, &t).ok());

  ProfileSession session(GordianOptions{});
  KeyDiscoveryResult r;
  ASSERT_TRUE(session.Run(t, &r).ok());
  EXPECT_TRUE(r.no_keys);
  EXPECT_TRUE(r.keys.empty());
  for (const StageMetric& m : session.stage_metrics()) {
    EXPECT_NE(m.name, std::string("traverse"));
  }
}

TEST(PipelineTest, PreCancelledRunFinishesIncomplete) {
  Table t = MakeTable(1000, 59);
  std::atomic<bool> cancel{true};
  GordianOptions opt;
  opt.cancel_flag = &cancel;
  ProfileSession session(opt);
  KeyDiscoveryResult r;
  ASSERT_TRUE(session.Run(t, &r).ok());
  EXPECT_TRUE(r.incomplete);
  EXPECT_EQ(r.incomplete_reason, AbortReason::kCancelled);
  EXPECT_TRUE(r.keys.empty());
}

TEST(PipelineTest, StageMetricsCoverExecutedStages) {
  Table t = MakeTable(2000, 61);
  GordianOptions opt;
  opt.traversal_threads = -1;
  ProfileSession session(opt);
  KeyDiscoveryResult r;
  ASSERT_TRUE(session.Run(t, &r).ok());

  const std::vector<StageMetric>& metrics = session.stage_metrics();
  ASSERT_EQ(metrics.size(), 5u);
  const char* expected[] = {"encode", "tree_build", "traverse", "convert",
                            "validate"};
  for (size_t i = 0; i < metrics.size(); ++i) {
    EXPECT_EQ(metrics[i].name, expected[i]);
    EXPECT_GE(metrics[i].seconds, 0.0);
  }
  // Tree build's bytes reflect the pool; traversal's the run's peak.
  EXPECT_GT(metrics[1].bytes, 0);
  EXPECT_GT(metrics[2].bytes, 0);
}

TEST(PipelineTest, SessionIsReusableAcrossTables) {
  Table a = MakeTable(1500, 67);
  Table b = MakeTable(1500, 71);
  GordianOptions opt;
  opt.traversal_threads = -1;
  ProfileSession session(opt);

  KeyDiscoveryResult ra, rb, ra2;
  ASSERT_TRUE(session.Run(a, &ra).ok());
  ASSERT_TRUE(session.Run(b, &rb).ok());
  ASSERT_TRUE(session.Run(a, &ra2).ok());
  ExpectSameReport(a, ra, ra2);
  ExpectSameReport(a, FindKeys(a, opt), ra);
  ExpectSameReport(b, FindKeys(b, opt), rb);
}

TEST(PipelineTest, ResolveTraversalThreadsHonorsExplicitSetting) {
  GordianOptions opt;
  opt.traversal_threads = 4;
  EXPECT_EQ(ResolveTraversalThreads(opt), 4);
  opt.traversal_threads = -1;
  EXPECT_EQ(ResolveTraversalThreads(opt), 0);
}

}  // namespace
}  // namespace gordian
