// Spilled-vs-resident wiring: each ingest path that can spill (CSV reader,
// row-at-a-time builder, streaming profiler, artifact store, service jobs)
// yields a table with the resident table's fingerprint and report, plus the
// memory accounting of mapped columns and the artifact store's crash
// safety. Random tables under the spill budget are covered by
// differential_test.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fault_fs.h"
#include "core/gordian.h"
#include "core/report.h"
#include "core/streaming.h"
#include "service/profiling_service.h"
#include "service/table_artifacts.h"
#include "table/csv.h"
#include "table/fingerprint.h"
#include "table/table.h"

namespace gordian {
namespace {

std::string TestDir(const std::string& name) {
  // Per-process suffix: the artifact store is content-addressed, so leftovers
  // from a previous run would turn Puts into no-ops and skew assertions.
  std::string dir = ::testing::TempDir() + "gordian_spill_" + name + "_" +
                    std::to_string(::getpid());
  EXPECT_TRUE(DefaultFileSystem()->CreateDir(dir).ok());
  return dir;
}

uint64_t Next(uint64_t* state) {
  *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
  return *state >> 33;
}

// A CSV with mixed types, repeated values, and empty (NULL) fields —
// enough structure for keys to exist and for dictionaries to matter.
std::string MakeCsv(const std::string& dir, int64_t rows, uint64_t seed) {
  std::string body = "id,cat,val,note\n";
  uint64_t state = seed * 977 + 13;
  for (int64_t i = 0; i < rows; ++i) {
    body += std::to_string(i);
    body += ",c" + std::to_string(Next(&state) % 23);
    body += "," + std::to_string(static_cast<double>(Next(&state) % 7) / 2);
    if (Next(&state) % 9 == 0) {
      body += ",";  // NULL
    } else {
      body += ",note" + std::to_string(Next(&state) % 101);
    }
    body += "\n";
  }
  std::string path = dir + "/t" + std::to_string(seed) + ".csv";
  EXPECT_TRUE(DefaultFileSystem()->WriteFile(path, body).ok());
  return path;
}

// Profiling report with run-dependent stats zeroed, so equality is
// byte-identical over everything discovery can observe.
std::string CanonicalReport(const Table& t) {
  DatabaseProfile p;
  KeyDiscoveryResult r = FindKeys(t);
  r.stats = GordianStats{};
  p.tables.push_back({"t", &t, std::move(r)});
  return ProfileToJson(p);
}

SpillPolicy Policy(const std::string& dir, int64_t budget) {
  SpillPolicy spill;
  spill.memory_budget_bytes = budget;
  spill.spill_dir = dir;
  spill.chunk_rows = 512;  // small chunks: boundaries get exercised
  return spill;
}

// The CSV reader's spill overload: under a 1 KB budget every column goes
// to disk, and the table still fingerprints and profiles like the resident
// one. (Distinct counts, sample and projection views, and reports under
// partial spills are checked across random tables by differential_test.)
TEST(SpillEquivalence, CsvIngestSpillsIdentically) {
  const std::string dir = TestDir("csv");
  const std::string csv = MakeCsv(dir, 3000, 1);
  Table resident, spilled;
  ASSERT_TRUE(ReadCsv(csv, CsvOptions{}, &resident).ok());
  ASSERT_TRUE(ReadCsv(csv, CsvOptions{}, Policy(dir, 1 << 10), &spilled).ok());
  EXPECT_EQ(spilled.spilled_column_count(), spilled.num_columns());
  EXPECT_EQ(TableFingerprint(spilled), TableFingerprint(resident));
  EXPECT_EQ(CanonicalReport(spilled), CanonicalReport(resident));
}

TEST(SpillEquivalence, RowAtATimeIngestSpillsIdentically) {
  const std::string dir = TestDir("addrow");
  Schema schema(std::vector<std::string>{"a", "b"});
  TableBuilder resident(schema);
  TableBuilder spilling(schema, Policy(dir, 1 << 10));
  // Past the 4096-row cadence at which the row-at-a-time path rechecks the
  // budget, so the tiny budget actually triggers a spill.
  uint64_t state = 99;
  for (int64_t i = 0; i < 10000; ++i) {
    std::vector<Value> row = {Value(static_cast<int64_t>(i)),
                              Value("v" + std::to_string(Next(&state) % 31))};
    resident.AddRow(row);
    spilling.AddRow(row);
  }
  Table a = resident.Build();
  Table b;
  ASSERT_TRUE(spilling.Build(&b).ok());
  EXPECT_GT(b.spilled_column_count(), 0);
  EXPECT_EQ(TableFingerprint(a), TableFingerprint(b));
  EXPECT_EQ(CanonicalReport(a), CanonicalReport(b));
}

TEST(SpillEquivalence, SpilledTableMemoryAccounting) {
  const std::string dir = TestDir("accounting");
  const std::string csv = MakeCsv(dir, 3000, 5);
  Table resident, spilled;
  ASSERT_TRUE(ReadCsv(csv, CsvOptions{}, &resident).ok());
  ASSERT_TRUE(ReadCsv(csv, CsvOptions{}, Policy(dir, 1 << 10), &spilled).ok());
  ASSERT_EQ(spilled.spilled_column_count(), spilled.num_columns());

  // Resident accounting excludes the mmapped code files; mapped accounting
  // covers them (4 bytes per row per column, plus chunk stats + trailer).
  EXPECT_EQ(resident.MappedBytes(), 0);
  EXPECT_GT(spilled.MappedBytes(),
            spilled.num_rows() * spilled.num_columns() * 4);
  EXPECT_LT(spilled.ApproxBytes(), resident.ApproxBytes());

  // A projection shares the mapping: mapped bytes must not double-count.
  Table twice = spilled.SelectColumns({0, 0});
  Table once = spilled.SelectColumns({0});
  EXPECT_EQ(twice.MappedBytes(), once.MappedBytes());
}

TEST(SpillEquivalence, ProfileCsvFileSpillOverloadMatchesResident) {
  const std::string dir = TestDir("streamprof");
  const std::string csv = MakeCsv(dir, 3000, 6);
  KeyDiscoveryResult plain, spilled;
  ASSERT_TRUE(ProfileCsvFile(csv, CsvOptions{}, GordianOptions{}, &plain)
                  .ok());
  ASSERT_TRUE(ProfileCsvFile(csv, CsvOptions{}, GordianOptions{},
                             Policy(dir, 1 << 10), &spilled)
                  .ok());
  auto sorted = [](std::vector<AttributeSet> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(plain.KeySets()), sorted(spilled.KeySets()));
  EXPECT_EQ(plain.non_keys.size(), spilled.non_keys.size());
}

TEST(SpillEquivalence, ArtifactStoreRoundTrip) {
  const std::string dir = TestDir("artifacts");
  const std::string csv = MakeCsv(dir, 2000, 7);
  Table t;
  ASSERT_TRUE(ReadCsv(csv, CsvOptions{}, &t).ok());
  const uint64_t fp = TableFingerprint(t);

  TableArtifactStore::Options opts;
  opts.chunk_rows = 256;
  TableArtifactStore store(dir + "/store", opts);
  EXPECT_FALSE(store.Contains(fp));
  ASSERT_TRUE(store.Put(fp, t).ok());
  EXPECT_TRUE(store.Contains(fp));
  // Content-addressed: a second Put of the same fingerprint is a no-op.
  ASSERT_TRUE(store.Put(fp, t).ok());

  Table back;
  ASSERT_TRUE(store.Get(fp, &back).ok());
  EXPECT_EQ(back.spilled_column_count(), back.num_columns());
  EXPECT_EQ(back.num_rows(), t.num_rows());
  EXPECT_EQ(TableFingerprint(back), fp);
  EXPECT_EQ(CanonicalReport(back), CanonicalReport(t));

  Table missing;
  Status s = store.Get(fp + 1, &missing);
  EXPECT_EQ(s.code(), Status::Code::kNotFound);

  // A flipped byte anywhere in the meta file is caught by its checksum.
  std::string meta;
  ASSERT_TRUE(DefaultFileSystem()->ReadFile(store.MetaPath(fp), &meta).ok());
  std::string bad = meta;
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x01);
  ASSERT_TRUE(DefaultFileSystem()->WriteFile(store.MetaPath(fp), bad).ok());
  EXPECT_EQ(store.Get(fp, &back).code(), Status::Code::kInvalidArgument);
  ASSERT_TRUE(DefaultFileSystem()->WriteFile(store.MetaPath(fp), meta).ok());
  ASSERT_TRUE(store.Get(fp, &back).ok());
}

TEST(SpillEquivalence, ArtifactPutCrashLeavesNoCommittedArtifact) {
  const std::string dir = TestDir("artifact_crash");
  const std::string csv = MakeCsv(dir, 500, 8);
  Table t;
  ASSERT_TRUE(ReadCsv(csv, CsvOptions{}, &t).ok());
  const uint64_t fp = TableFingerprint(t);

  // Fail the meta rename — every column file is already published, but the
  // artifact must still read as absent, and a retry must complete it.
  FaultInjectionFs ffs(DefaultFileSystem());
  TableArtifactStore::Options opts;
  opts.fs = &ffs;
  TableArtifactStore store(dir + "/store", opts);
  FaultSpec spec;
  spec.op = FsOp::kRename;
  spec.path_substr = "meta.grdd";
  ffs.Arm(spec);
  EXPECT_FALSE(store.Put(fp, t).ok());
  EXPECT_TRUE(ffs.fired());
  ffs.Reset();
  EXPECT_FALSE(store.Contains(fp));

  ASSERT_TRUE(store.Put(fp, t).ok());
  Table back;
  ASSERT_TRUE(store.Get(fp, &back).ok());
  EXPECT_EQ(TableFingerprint(back), fp);
}

TEST(SpillEquivalence, ServicePersistsArtifactsAndSpillsCsvJobs) {
  const std::string dir = TestDir("service");
  const std::string csv = MakeCsv(dir, 2500, 10);
  Table t;
  ASSERT_TRUE(ReadCsv(csv, CsvOptions{}, &t).ok());
  const std::string want_report = CanonicalReport(t);

  ServiceOptions options;
  options.num_threads = 2;
  options.table_artifact_dir = dir + "/artifacts";
  options.spill_dir = dir + "/scratch";
  options.spill_memory_budget = 1 << 10;
  ProfilingService service(options);
  ASSERT_NE(service.artifact_store(), nullptr);

  ProfileOutcome table_outcome = service.Wait(service.SubmitTable("t", &t));
  ASSERT_EQ(table_outcome.info.state, JobState::kSucceeded);
  ASSERT_NE(table_outcome.fingerprint, 0u);

  // The completed table job persisted its table; a reload round-trips.
  Table back;
  ASSERT_TRUE(
      service.artifact_store()->Get(table_outcome.fingerprint, &back).ok());
  EXPECT_EQ(TableFingerprint(back), table_outcome.fingerprint);
  EXPECT_EQ(CanonicalReport(back), want_report);
  EXPECT_GE(service.Metrics().artifact_puts, 1);

  // A CSV job under the 1 KB ingest budget spills during ingest and still
  // reports the same keys as the resident table.
  ProfileOutcome csv_outcome =
      service.Wait(service.SubmitCsv("t_csv", csv, CsvOptions{}));
  ASSERT_EQ(csv_outcome.info.state, JobState::kSucceeded);
  auto sorted = [](std::vector<AttributeSet> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(csv_outcome.result.KeySets()),
            sorted(FindKeys(t).KeySets()));
}

}  // namespace
}  // namespace gordian
