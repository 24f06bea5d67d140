// Tests for single-pass streaming profiling with and without reservoir
// sampling, plus the null-semantics option and the VerifyResult API.

#include "core/streaming.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>

#include "core/gordian.h"
#include "datagen/synthetic.h"
#include "table/csv.h"

namespace gordian {
namespace {

std::vector<AttributeSet> Sorted(std::vector<AttributeSet> v) {
  std::sort(v.begin(), v.end());
  return v;
}

Table MakeTable(int64_t rows, uint64_t seed) {
  SyntheticSpec spec = UniformSpec(5, rows, 32, 0.5, seed);
  spec.columns[0].cardinality = 256;
  spec.columns[2].cardinality = 64;
  spec.planted_keys.push_back({0, 2});
  Table t;
  Status s = GenerateSynthetic(spec, &t);
  EXPECT_TRUE(s.ok());
  return t;
}

std::vector<Value> RowOf(const Table& t, int64_t r) {
  std::vector<Value> row;
  for (int c = 0; c < t.num_columns(); ++c) row.push_back(t.value(r, c));
  return row;
}

TEST(StreamingProfiler, FullIngestMatchesBatchDiscovery) {
  Table t = MakeTable(800, 21);
  StreamingProfiler profiler(t.schema());
  for (int64_t r = 0; r < t.num_rows(); ++r) profiler.AddRow(RowOf(t, r));
  EXPECT_EQ(profiler.rows_seen(), 800);
  KeyDiscoveryResult streamed = profiler.Finish();
  KeyDiscoveryResult batch = FindKeys(t);
  EXPECT_EQ(Sorted(streamed.KeySets()), Sorted(batch.KeySets()));
  EXPECT_FALSE(streamed.sampled);
}

TEST(StreamingProfiler, FinishResetsForReuse) {
  Table t = MakeTable(200, 22);
  StreamingProfiler profiler(t.schema());
  for (int64_t r = 0; r < t.num_rows(); ++r) profiler.AddRow(RowOf(t, r));
  KeyDiscoveryResult first = profiler.Finish();
  EXPECT_EQ(profiler.rows_seen(), 0);
  // Second run over the same stream gives the same keys.
  for (int64_t r = 0; r < t.num_rows(); ++r) profiler.AddRow(RowOf(t, r));
  EXPECT_EQ(Sorted(profiler.Finish().KeySets()), Sorted(first.KeySets()));
}

TEST(StreamingProfiler, ReusedReservoirProfilerMatchesFreshOne) {
  // Finish() promises the profiler is "left empty and reusable": a second
  // ingest/Finish cycle must behave exactly like a fresh profiler, which
  // requires the reservoir PRNG to be re-seeded, not left mid-sequence.
  Table t = MakeTable(3000, 31);
  GordianOptions o;
  o.sample_rows = 250;
  o.sample_seed = 77;

  StreamingProfiler reused(t.schema(), o);
  for (int64_t r = 0; r < t.num_rows(); ++r) reused.AddRow(RowOf(t, r));
  (void)reused.Finish();  // first cycle consumes PRNG draws
  for (int64_t r = 0; r < t.num_rows(); ++r) reused.AddRow(RowOf(t, r));
  KeyDiscoveryResult second = reused.Finish();

  StreamingProfiler fresh(t.schema(), o);
  for (int64_t r = 0; r < t.num_rows(); ++r) fresh.AddRow(RowOf(t, r));
  KeyDiscoveryResult baseline = fresh.Finish();

  // Identical seed + identical stream must select the identical reservoir,
  // hence byte-identical key sets and strengths.
  EXPECT_EQ(Sorted(second.KeySets()), Sorted(baseline.KeySets()));
  ASSERT_EQ(second.keys.size(), baseline.keys.size());
  for (size_t i = 0; i < second.keys.size(); ++i) {
    EXPECT_DOUBLE_EQ(second.keys[i].estimated_strength,
                     baseline.keys[i].estimated_strength);
  }
}

TEST(ProfileCsvFile, CancelFlagAbortsIngest) {
  Table t = MakeTable(10000, 32);
  std::string path = ::testing::TempDir() + "gordian_stream_cancel.csv";
  ASSERT_TRUE(WriteCsv(t, CsvOptions{}, path).ok());

  std::atomic<bool> cancel{true};  // raised before the run even starts
  GordianOptions o;
  o.cancel_flag = &cancel;
  KeyDiscoveryResult r;
  ASSERT_TRUE(ProfileCsvFile(path, CsvOptions{}, o, &r).ok());
  EXPECT_TRUE(r.incomplete);
  EXPECT_EQ(r.incomplete_reason, AbortReason::kCancelled);
  EXPECT_TRUE(r.keys.empty());
}

TEST(StreamingProfiler, ReservoirBoundsMemoryAndKeepsTrueKeys) {
  Table t = MakeTable(5000, 23);
  GordianOptions o;
  o.sample_rows = 400;
  o.sample_seed = 5;
  StreamingProfiler profiler(t.schema(), o);
  for (int64_t r = 0; r < t.num_rows(); ++r) profiler.AddRow(RowOf(t, r));
  KeyDiscoveryResult streamed = profiler.Finish();
  EXPECT_TRUE(streamed.sampled);
  EXPECT_EQ(streamed.stats.rows_processed, 400);

  // Sample keys form a (possibly finer) cover of the true keys.
  KeyDiscoveryResult full = FindKeys(t);
  for (const DiscoveredKey& fk : full.keys) {
    bool covered = false;
    for (const DiscoveredKey& sk : streamed.keys) {
      if (fk.attrs.Covers(sk.attrs)) covered = true;
    }
    EXPECT_TRUE(covered) << fk.attrs.ToString();
  }
  // Estimated strengths attached, exact unknown for a stream.
  for (const DiscoveredKey& sk : streamed.keys) {
    EXPECT_GT(sk.estimated_strength, 0.0);
    EXPECT_LT(sk.exact_strength, 0.0);
  }
}

TEST(StreamingProfiler, ReservoirShorterThanStreamIsFullIngest) {
  Table t = MakeTable(100, 24);
  GordianOptions o;
  o.sample_rows = 400;  // larger than the stream
  StreamingProfiler profiler(t.schema(), o);
  for (int64_t r = 0; r < t.num_rows(); ++r) profiler.AddRow(RowOf(t, r));
  KeyDiscoveryResult r1 = profiler.Finish();
  EXPECT_FALSE(r1.sampled);
  EXPECT_EQ(Sorted(r1.KeySets()), Sorted(FindKeys(t).KeySets()));
}

TEST(StreamingProfiler, ReservoirIsRoughlyUniform) {
  // Stream 0..9999 through a 1000-slot reservoir; the kept values' mean
  // should be near the stream mean (a biased reservoir would skew early or
  // late).
  Schema schema(std::vector<std::string>{"v"});
  GordianOptions o;
  o.sample_rows = 1000;
  o.sample_seed = 9;
  StreamingProfiler profiler(schema, o);
  for (int64_t i = 0; i < 10000; ++i) {
    profiler.AddRow({Value(i)});
  }
  KeyDiscoveryResult r = profiler.Finish();
  EXPECT_EQ(r.stats.rows_processed, 1000);
  // The single column is unique in any subset of the stream.
  ASSERT_EQ(r.keys.size(), 1u);
}

TEST(ProfileCsvFile, MatchesReadCsvPlusFindKeys) {
  Table t = MakeTable(500, 27);
  std::string path = ::testing::TempDir() + "gordian_stream.csv";
  ASSERT_TRUE(WriteCsv(t, CsvOptions{}, path).ok());

  KeyDiscoveryResult streamed;
  ASSERT_TRUE(
      ProfileCsvFile(path, CsvOptions{}, GordianOptions{}, &streamed).ok());
  Table loaded;
  ASSERT_TRUE(ReadCsv(path, CsvOptions{}, &loaded).ok());
  EXPECT_EQ(Sorted(streamed.KeySets()), Sorted(FindKeys(loaded).KeySets()));
}

TEST(ProfileCsvFile, QuotedEmbeddedNewlinesAreSingleRecords) {
  // Regression: the old per-line ingest split a quoted multi-line field
  // into two ragged records and failed; the batch scanner must profile it.
  std::string path = ::testing::TempDir() + "gordian_stream_nl.csv";
  {
    std::ofstream os(path);
    os << "id,note\n";
    for (int i = 0; i < 50; ++i) {
      os << i << ",\"note line a\nnote line b for " << i << "\"\n";
    }
  }
  KeyDiscoveryResult r;
  IngestStats stats;
  ASSERT_TRUE(
      ProfileCsvFile(path, CsvOptions{}, GordianOptions{}, &r, &stats).ok());
  EXPECT_EQ(stats.rows, 50);
  // Both columns are unique, so each singleton is a key.
  EXPECT_EQ(Sorted(r.KeySets()),
            Sorted({AttributeSet{0}, AttributeSet{1}}));
}

TEST(ProfileCsvFile, ReservoirModeAndErrors) {
  Table t = MakeTable(2000, 28);
  std::string path = ::testing::TempDir() + "gordian_stream2.csv";
  ASSERT_TRUE(WriteCsv(t, CsvOptions{}, path).ok());

  GordianOptions o;
  o.sample_rows = 300;
  KeyDiscoveryResult r;
  ASSERT_TRUE(ProfileCsvFile(path, CsvOptions{}, o, &r).ok());
  EXPECT_TRUE(r.sampled);
  EXPECT_EQ(r.stats.rows_processed, 300);

  KeyDiscoveryResult unused;
  EXPECT_FALSE(
      ProfileCsvFile("/no/such.csv", CsvOptions{}, o, &unused).ok());
}

TEST(NullSemantics, DefaultTreatsNullAsValue) {
  TableBuilder b(Schema(std::vector<std::string>{"a", "b"}));
  b.AddRow({Value::Null(), Value(int64_t{1})});
  b.AddRow({Value::Null(), Value(int64_t{2})});
  b.AddRow({Value(int64_t{5}), Value(int64_t{3})});
  Table t = b.Build();
  KeyDiscoveryResult r = FindKeys(t);
  // Column a has two NULLs -> non-key; b is the only key.
  EXPECT_EQ(Sorted(r.KeySets()), Sorted({AttributeSet{1}}));
}

TEST(NullSemantics, ExcludeNullableColumnsBarsThemFromKeys) {
  TableBuilder b(Schema(std::vector<std::string>{"maybe", "id", "extra"}));
  for (int64_t i = 0; i < 10; ++i) {
    b.AddRow({i == 3 ? Value::Null() : Value(i), Value(i),
              Value(i % 2)});
  }
  Table t = b.Build();
  // Default: "maybe" is unique (NULL is a value) -> both singletons keys.
  KeyDiscoveryResult lax = FindKeys(t);
  EXPECT_EQ(Sorted(lax.KeySets()),
            Sorted({AttributeSet{0}, AttributeSet{1}}));

  // SQL semantics: "maybe" is barred; no reported set mentions column 0,
  // and positions are correctly remapped (id = column 1).
  GordianOptions o;
  o.null_semantics = GordianOptions::NullSemantics::kExcludeNullableColumns;
  KeyDiscoveryResult strict = FindKeys(t, o);
  EXPECT_EQ(Sorted(strict.KeySets()), Sorted({AttributeSet{1}}));
  for (const AttributeSet& nk : strict.non_keys) {
    EXPECT_FALSE(nk.Test(0));
  }
  bool extra_in_non_key = false;
  for (const AttributeSet& nk : strict.non_keys) {
    if (nk.Test(2)) extra_in_non_key = true;
  }
  EXPECT_TRUE(extra_in_non_key);
}

TEST(NullSemantics, AllColumnsNullableMeansNoKeys) {
  TableBuilder b(Schema(std::vector<std::string>{"a"}));
  b.AddRow({Value::Null()});
  b.AddRow({Value(int64_t{1})});
  Table t = b.Build();
  GordianOptions o;
  o.null_semantics = GordianOptions::NullSemantics::kExcludeNullableColumns;
  KeyDiscoveryResult r = FindKeys(t, o);
  EXPECT_TRUE(r.keys.empty());
  EXPECT_FALSE(r.no_keys);
}

TEST(VerifyResult, AcceptsGenuineResults) {
  Table t = MakeTable(500, 25);
  VerificationReport rep = VerifyResult(t, FindKeys(t));
  EXPECT_TRUE(rep.ok) << (rep.problems.empty() ? "" : rep.problems[0]);
}

TEST(VerifyResult, FlagsFabricatedProblems) {
  Table t = MakeTable(500, 26);
  KeyDiscoveryResult r = FindKeys(t);
  // Fabricate a false key (a known non-key) and a false non-key (a key).
  ASSERT_FALSE(r.non_keys.empty());
  DiscoveredKey bogus;
  bogus.attrs = r.non_keys[0];
  r.keys.push_back(bogus);
  r.non_keys.push_back(r.keys[0].attrs);
  VerificationReport rep = VerifyResult(t, r);
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.problems.empty());
}

TEST(VerifyResult, NoKeysClaimIsChecked) {
  TableBuilder b(Schema(std::vector<std::string>{"a"}));
  b.AddRow({Value(int64_t{1})});
  b.AddRow({Value(int64_t{2})});
  Table t = b.Build();
  KeyDiscoveryResult fake;
  fake.no_keys = true;
  VerificationReport rep = VerifyResult(t, fake);
  EXPECT_FALSE(rep.ok);
}

// With nullable columns barred, a repeated entity over the NULL-free columns
// means no key exists even though the NULLs make every full row distinct.
// The claim is checked against the reported non-key, not the whole table.
TEST(VerifyResult, NoKeysClaimIsCheckedOverTheReportedNonKey) {
  TableBuilder b(Schema(std::vector<std::string>{"a", "b", "n"}));
  b.AddRow({Value(int64_t{1}), Value(int64_t{5}), Value::Null()});
  b.AddRow({Value(int64_t{1}), Value(int64_t{5}), Value(int64_t{2})});
  b.AddRow({Value(int64_t{2}), Value(int64_t{6}), Value(int64_t{3})});
  Table t = b.Build();
  GordianOptions o;
  o.null_semantics = GordianOptions::NullSemantics::kExcludeNullableColumns;
  KeyDiscoveryResult r = FindKeys(t, o);
  ASSERT_TRUE(r.no_keys);
  ASSERT_EQ(r.non_keys.size(), 1u);
  EXPECT_EQ(r.non_keys[0], AttributeSet({0, 1}));
  VerificationReport rep = VerifyResult(t, r);
  EXPECT_TRUE(rep.ok) << (rep.problems.empty() ? "" : rep.problems[0]);

  // A no-key claim naming a column set whose rows are distinct is flagged.
  r.non_keys[0] = AttributeSet({0, 2});
  EXPECT_FALSE(VerifyResult(t, r).ok);
}

}  // namespace
}  // namespace gordian
