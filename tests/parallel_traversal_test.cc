// The parallel slice traversal (docs/parallel.md) on the shapes the
// differential harness does not draw: degenerate tables that fall back to
// serial, budget trips and cancellation in every mode, and the parallel
// stats counters. Byte-identical reports at 1, 2 and 8 threads across random
// tables are checked by differential_test.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/gordian.h"
#include "datagen/synthetic.h"

namespace gordian {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

// Baseline options that stay serial even when the suite runs under
// GORDIAN_THREADS (CI does exactly that).
GordianOptions ForcedSerial() {
  GordianOptions o;
  o.traversal_threads = -1;
  return o;
}

struct ParallelCase {
  int rows;
  int cols;
  uint64_t cardinality;
  double theta;
  bool plant_pair_key;
  bool correlate;
  uint64_t seed;
};

Table MakeTable(const ParallelCase& c) {
  SyntheticSpec spec =
      UniformSpec(c.cols, c.rows, c.cardinality, c.theta, c.seed);
  if (c.plant_pair_key && c.cols >= 2) {
    uint64_t need = 8;
    while (need * need < static_cast<uint64_t>(c.rows) * 2) need *= 2;
    spec.columns[0].cardinality = std::max<uint64_t>(c.cardinality, need);
    spec.columns[1].cardinality = std::max<uint64_t>(c.cardinality, need);
    spec.planted_keys.push_back({0, 1});
  }
  if (c.correlate && c.cols >= 4) {
    // Columns 0/1 may carry a planted key, which datagen refuses to also
    // correlate; use the tail columns for correlation structure.
    spec.columns[3].correlated_with = 2;
    spec.columns[3].correlation_noise = 0.05;
    if (c.cols >= 6) {
      spec.columns[5].correlated_with = 4;
      spec.columns[5].correlation_noise = 0.0;
    }
  }
  spec.ensure_unique_rows = true;
  Table t;
  Status s = GenerateSynthetic(spec, &t);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return t;
}

// The acceptance bar: not just equal key sets, byte-identical reports.
void ExpectIdenticalResults(const Table& t, const KeyDiscoveryResult& serial,
                            const KeyDiscoveryResult& parallel,
                            const std::string& context) {
  EXPECT_EQ(serial.no_keys, parallel.no_keys) << context;
  EXPECT_EQ(serial.sampled, parallel.sampled) << context;
  EXPECT_EQ(serial.incomplete, parallel.incomplete) << context;
  ASSERT_EQ(serial.keys.size(), parallel.keys.size()) << context;
  for (size_t i = 0; i < serial.keys.size(); ++i) {
    EXPECT_EQ(serial.keys[i].attrs, parallel.keys[i].attrs) << context;
    EXPECT_EQ(serial.keys[i].estimated_strength,
              parallel.keys[i].estimated_strength)
        << context;
    EXPECT_EQ(serial.keys[i].exact_strength, parallel.keys[i].exact_strength)
        << context;
  }
  EXPECT_EQ(serial.non_keys, parallel.non_keys) << context;
  EXPECT_EQ(serial.stats.final_non_keys, parallel.stats.final_non_keys)
      << context;
  EXPECT_EQ(FormatResult(t, serial), FormatResult(t, parallel)) << context;
}

// --- degenerate shapes (serial fallback paths) ----------------------------

TEST(ParallelEdge, TrivialTablesMatchSerial) {
  // Single row, empty table, single column: all fall back to the serial
  // traversal internally but must still report identically.
  {
    TableBuilder b(Schema(std::vector<std::string>{"a", "b", "c"}));
    b.AddRow({Value(int64_t{1}), Value("x"), Value(2.0)});
    Table t = b.Build();
    GordianOptions o;
    o.traversal_threads = 8;
    ExpectIdenticalResults(t, FindKeys(t, ForcedSerial()), FindKeys(t, o),
                           "single-row");
  }
  {
    TableBuilder b(Schema(std::vector<std::string>{"a", "b"}));
    Table t = b.Build();
    GordianOptions o;
    o.traversal_threads = 8;
    ExpectIdenticalResults(t, FindKeys(t, ForcedSerial()), FindKeys(t, o),
                           "empty");
  }
}

TEST(ParallelEdge, DuplicateEntitiesNoKeys) {
  TableBuilder b(Schema(std::vector<std::string>{"a", "b"}));
  b.AddRow({Value(int64_t{1}), Value(int64_t{2})});
  b.AddRow({Value(int64_t{1}), Value(int64_t{2})});
  Table t = b.Build();
  GordianOptions o;
  o.traversal_threads = 8;
  KeyDiscoveryResult r = FindKeys(t, o);
  EXPECT_TRUE(r.no_keys);
  ExpectIdenticalResults(t, FindKeys(t, ForcedSerial()), r, "dupes");
}

// --- abort paths ----------------------------------------------------------

TEST(ParallelAbort, PreRaisedCancelFlag) {
  Table t = MakeTable({500, 6, 16, 0.5, true, false, 77});
  std::atomic<bool> cancel{true};
  for (int threads : kThreadCounts) {
    GordianOptions o;
    o.traversal_threads = threads;
    o.cancel_flag = &cancel;
    KeyDiscoveryResult r = FindKeys(t, o);
    EXPECT_TRUE(r.incomplete) << threads;
    EXPECT_EQ(r.incomplete_reason, AbortReason::kCancelled) << threads;
    EXPECT_TRUE(r.keys.empty()) << threads;
  }
}

TEST(ParallelAbort, CancelRaisedMidRun) {
  // The flag flips while workers are traversing; the run must come back
  // incomplete-with-kCancelled, never crash or deadlock. (Timing decides
  // how much work happened first; the outcome classification is what is
  // deterministic.)
  Table t = MakeTable({2000, 8, 6, 0.2, false, false, 55});
  std::atomic<bool> cancel{false};
  GordianOptions o;
  o.traversal_threads = 8;
  o.cancel_flag = &cancel;
  std::thread flipper([&cancel] { cancel.store(true); });
  KeyDiscoveryResult r = FindKeys(t, o);
  flipper.join();
  if (r.incomplete) {
    EXPECT_EQ(r.incomplete_reason, AbortReason::kCancelled);
    EXPECT_TRUE(r.keys.empty());
  }
}

TEST(ParallelAbort, NonKeyBudgetTripsInEveryMode) {
  // Low-cardinality wide data has far more than one non-redundant non-key,
  // so max_non_keys = 1 must trip: in serial mode inside the traversal, in
  // parallel mode either worker-locally or at the post-merge check.
  Table t = MakeTable({300, 7, 4, 0.0, false, false, 88});
  for (int threads : {-1, 0, 2, 8}) {
    GordianOptions o;
    o.traversal_threads = threads;
    o.max_non_keys = 1;
    KeyDiscoveryResult r = FindKeys(t, o);
    EXPECT_TRUE(r.incomplete) << threads;
    EXPECT_EQ(r.incomplete_reason, AbortReason::kNonKeyBudget) << threads;
    EXPECT_TRUE(r.keys.empty()) << threads;
  }
}

TEST(ParallelAbort, TimeBudgetTripsInEveryMode) {
  // A table big enough that every mode performs well over 4096 visits (the
  // budget check's amortization interval) with an unmeetably small budget.
  // Futility pruning is off so the visit count stays comfortably above the
  // interval in each worker.
  Table t = MakeTable({2000, 9, 4, 0.0, false, false, 99});
  GordianOptions probe_opts;
  probe_opts.futility_pruning = false;
  KeyDiscoveryResult probe = FindKeys(t, probe_opts);
  ASSERT_GT(probe.stats.nodes_visited, 10 * 4096)
      << "table too small to exercise the amortized clock check";
  for (int threads : {-1, 0, 2, 8}) {
    GordianOptions o;
    o.traversal_threads = threads;
    o.futility_pruning = false;
    o.time_budget_seconds = 1e-9;
    KeyDiscoveryResult r = FindKeys(t, o);
    EXPECT_TRUE(r.incomplete) << threads;
    EXPECT_EQ(r.incomplete_reason, AbortReason::kTimeBudget) << threads;
    EXPECT_TRUE(r.keys.empty()) << threads;
  }
}

TEST(ParallelStats, ThreadCountAndSnapshotCountersReported) {
  Table t = MakeTable({1000, 8, 8, 0.3, true, true, 1003});
  GordianOptions o;
  o.traversal_threads = 8;
  KeyDiscoveryResult r = FindKeys(t, o);
  EXPECT_GE(r.stats.traversal_threads_used, 1);
  EXPECT_LE(r.stats.traversal_threads_used, 8);
  // Snapshot prunes are a subset of futility prunes by definition.
  EXPECT_LE(r.stats.futility_snapshot_prunes, r.stats.futility_prunes);
  EXPECT_GT(r.stats.peak_memory_bytes, 0);
}

}  // namespace
}  // namespace gordian
