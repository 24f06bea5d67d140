// The differential harness: pruning (Section 3.4), attribute order (Section
// 3.2.1), thread count, storage, append history and tree-cache state never
// change a report. Each table case draws its table, options, variant and
// append plan from one seed and checks every report against BruteForceAll
// (Section 4.2) up to kBruteForceWidth columns, Algorithm 1 (every pruning
// off) above that, and ReferenceFindKeys, counter for counter when serial.
// Sampled cases (Section 3.9) are checked the same way on their sample; a
// near-unique column makes the sample's tree levels hold only a few of
// their dictionary's codes, which FrozenTree::Freeze renumbers.
// Each schema case checks DiscoverForeignKeys against
// ReferenceDiscoverForeignKeys, SchemaProfiler at 1 vs 4 threads, and
// resident vs spilled tables.
//
// GORDIAN_FUZZ_ITERS sets the number of rounds (default 3) of
// kTableCasesPerRound table and kSchemaCasesPerRound schema cases. A failing
// case prints its seed and every drawn parameter.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bruteforce/brute_force.h"
#include "common/random.h"
#include "core/foreign_key.h"
#include "core/frozen_tree.h"
#include "core/gordian.h"
#include "core/incremental.h"
#include "core/non_key_finder.h"
#include "core/pipeline.h"
#include "core/prefix_tree.h"
#include "core/report.h"
#include "service/profiling_service.h"
#include "service/schema_profiler.h"
#include "service/tree_cache.h"
#include "table/fingerprint.h"
#include "table/table.h"

namespace gordian {
namespace {

constexpr int kTableCasesPerRound = 16;
constexpr int kSchemaCasesPerRound = 4;
constexpr int kBruteForceWidth = 8;
constexpr int64_t kSpillBudgetBytes = 1 << 10;
constexpr int64_t kSpillChunkRows = 512;
constexpr uint64_t kNearUniqueFactor = 64;

int Rounds() {
  const char* env = std::getenv("GORDIAN_FUZZ_ITERS");
  const int n = env == nullptr ? 0 : std::atoi(env);
  return n > 0 ? n : 3;
}

// Spill files of every case land in one per-process directory, removed when
// the test ends (the builder names files by a per-process counter, so
// concurrent suites must not share a directory).
struct SpillDir {
  SpillDir() { std::filesystem::create_directories(policy.spill_dir); }
  SpillDir(const SpillDir&) = delete;
  SpillDir& operator=(const SpillDir&) = delete;
  ~SpillDir() {
    std::error_code ignored;
    std::filesystem::remove_all(policy.spill_dir, ignored);
  }

  SpillPolicy policy = {kSpillBudgetBytes,
                        ::testing::TempDir() + "gordian_differential_" +
                            std::to_string(::getpid()),
                        nullptr, kSpillChunkRows};
};

Table Build(const Schema& schema, const std::vector<RowBatch>& batches,
            const SpillPolicy& spill = SpillPolicy()) {
  TableBuilder b(schema, spill);
  for (const RowBatch& batch : batches) b.AddBatch(batch);
  Table t;
  EXPECT_TRUE(b.Build(&t).ok());
  return t;
}

// Report with run-dependent stats zeroed: byte-identical over everything
// discovery can observe (keys, strengths, non-keys, abort state).
std::string Canon(const Table& t, KeyDiscoveryResult r) {
  r.stats = GordianStats{};
  DatabaseProfile p;
  p.tables.push_back({"t", &t, std::move(r)});
  return ProfileToJson(p);
}

// The traversal is deterministic in serial mode, so the production finder
// must replay the reference finder decision for decision: nodes visited,
// merges, merge nodes, singleton traversal/merge prunes, single-entity
// prunes, futility prunes, final non-keys.
std::vector<int64_t> WorkCounters(const GordianStats& s) {
  return {s.nodes_visited,          s.merges_performed,
          s.merge_nodes_created,    s.singleton_traversal_prunes,
          s.singleton_merge_prunes, s.single_entity_prunes,
          s.futility_prunes,        s.final_non_keys};
}

std::vector<AttributeSet> Sorted(std::vector<AttributeSet> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// ---------------------------------------------------------------------------
// Table cases.

const char* const kOrderNames[] = {"schema", "card_desc", "card_asc",
                                   "random"};
const char* const kTypeNames[] = {"int", "string", "double"};

struct ColumnPlan {
  int type = 0;  // index into kTypeNames
  uint64_t cardinality = 2;
  double null_rate = 0;
  int correlated_with = -1;  // an earlier column this one is a function of
  double noise = 0;          // chance a correlated value is drawn freely
};

struct TableCase {
  int index = 0;
  uint64_t seed = 0;

  // Table shape. Columns 0 and 1 form a planted composite key when
  // `planted_key` (they never hold NULLs); `unique_rows` retries draws that
  // would duplicate an earlier row.
  int64_t rows = 0;
  int width = 0;
  double theta = 0;
  bool planted_key = false;
  bool unique_rows = false;
  std::vector<ColumnPlan> columns;

  GordianOptions options;  // pruning, order, tree build, null semantics,
                           // sample size and seed

  // The variant compared against the cold, resident, serial baseline.
  int threads = -1;  // -1 = forced serial
  bool spilled = false;
  bool cache_hit = false;

  // Append plan: delta batch sizes (empty = none), applied one Append per
  // batch or as Absorbs coalesced under one Refresh.
  std::vector<int64_t> batches;
  bool coalesced = false;
  bool warm_start = true;

  // A column drawing uniformly from kNearUniqueFactor * rows values (-1 =
  // none): almost every row holds its own value.
  int near_unique = -1;

  std::string Describe() const {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "table case %d seed=0x%016llx rows=%lld width=%d theta=%.2f "
        "planted_key=%d unique_rows=%d | singleton=%d futility=%d "
        "single_entity=%d order=%s order_seed=%llu build=%s nulls=%s | "
        "threads=%d storage=%s cache=%s | append=",
        index, static_cast<unsigned long long>(seed),
        static_cast<long long>(rows), width, theta, planted_key, unique_rows,
        options.singleton_pruning, options.futility_pruning,
        options.single_entity_pruning,
        kOrderNames[static_cast<int>(options.attribute_order)],
        static_cast<unsigned long long>(options.order_seed),
        options.tree_build == GordianOptions::TreeBuild::kSorted
            ? "sorted"
            : "insertion",
        options.null_semantics == GordianOptions::NullSemantics::kNullEqualsNull
            ? "null_equals_null"
            : "exclude_nullable",
        threads, spilled ? "spilled" : "resident", cache_hit ? "hit" : "cold");
    std::string out = buf;
    if (batches.empty()) out += "none";
    for (int64_t n : batches) out += std::to_string(n) + ",";
    if (!batches.empty()) {
      out += coalesced ? " coalesced" : " per_batch";
      out += warm_start ? " warm" : " cold_restart";
    }
    out += " | sample=" + std::to_string(options.sample_rows) +
           " sample_seed=" + std::to_string(options.sample_seed) +
           " near_unique=" + std::to_string(near_unique);
    out += " | columns (type/card/null_rate/fd_source~noise):";
    for (const ColumnPlan& p : columns) {
      std::snprintf(buf, sizeof(buf), " %s/%llu/%.3f/%d~%.2f",
                    kTypeNames[p.type],
                    static_cast<unsigned long long>(p.cardinality),
                    p.null_rate, p.correlated_with, p.noise);
      out += buf;
    }
    return out;
  }
};

TableCase DrawTableCase(int index) {
  TableCase c;
  c.index = index;
  c.seed = 0x6f7264696e616c00ULL + 0x9e3779b97f4a7c15ULL *
                                       static_cast<uint64_t>(index + 1);
  Random rng(c.seed);

  c.width = static_cast<int>(rng.UniformRange(1, 12));
  // Wide tables stay short: the Algorithm-1 oracle runs unpruned.
  static const int64_t kRowBuckets[][2] = {
      {1, 3}, {4, 60}, {61, 400}, {401, 1500}};
  const int64_t* bucket =
      kRowBuckets[rng.Uniform(c.width > kBruteForceWidth ? 3 : 4)];
  c.rows = rng.UniformRange(bucket[0], bucket[1]);
  c.theta = rng.Bernoulli(0.5) ? 0.0 : rng.NextDouble() * 1.2;
  c.planted_key = c.width >= 2 && rng.Bernoulli(0.4);
  c.unique_rows = rng.Bernoulli(0.8);
  static const uint64_t kCards[] = {2, 4, 16, 128};
  for (int col = 0; col < c.width; ++col) {
    ColumnPlan p;
    p.type = static_cast<int>(rng.Uniform(3));
    p.cardinality = kCards[rng.Uniform(4)];
    const bool planted = c.planted_key && col < 2;
    if (!planted && rng.Bernoulli(0.25)) p.null_rate = rng.NextDouble() * 0.3;
    if (!planted && col >= 3 && rng.Bernoulli(0.3)) {
      p.correlated_with = 2 + static_cast<int>(rng.Uniform(col - 2));
      p.noise = rng.Bernoulli(0.5) ? 0.0 : 0.05;
    }
    c.columns.push_back(p);
  }

  GordianOptions& o = c.options;
  o.singleton_pruning = rng.Bernoulli(0.75);
  o.futility_pruning = rng.Bernoulli(0.75);
  o.single_entity_pruning = rng.Bernoulli(0.75);
  o.attribute_order =
      static_cast<GordianOptions::AttributeOrder>(rng.Uniform(4));
  o.order_seed = rng.Next();
  o.tree_build = rng.Bernoulli(0.5) ? GordianOptions::TreeBuild::kSorted
                                    : GordianOptions::TreeBuild::kInsertion;
  // The first case always runs the 4096-row append, which needs
  // kNullEqualsNull (IncrementalProfiler rejects the other semantics).
  if (index > 0 && rng.Bernoulli(0.25)) {
    o.null_semantics = GordianOptions::NullSemantics::kExcludeNullableColumns;
  }

  static const int kThreads[] = {-1, 2, 8};
  c.threads = kThreads[rng.Uniform(3)];
  c.spilled = rng.Bernoulli(0.5);
  c.cache_hit = rng.Bernoulli(0.5);

  if (index == 0 || rng.Bernoulli(0.5)) {
    const int n = static_cast<int>(rng.UniformRange(1, 3));
    for (int b = 0; b < n; ++b) {
      c.batches.push_back(index == 0 && b == 0 ? 4096
                                               : rng.UniformRange(1, 256));
    }
    c.coalesced = rng.Bernoulli(0.5);
    c.warm_start = rng.Bernoulli(0.5);
  }

  // Drawn after every other dimension, so each case keeps the parameters
  // it had before sampling joined the harness — except that a sampled case
  // with a near-unique column grows to thousands of rows: only then does a
  // small sample leave most of a level's dictionary codes unused.
  double sample_fraction = 0;  // 0 = not sampled
  if (rng.Bernoulli(0.5)) {
    // 1% to 100% of the rows, log-uniform.
    sample_fraction = std::pow(100.0, rng.NextDouble()) / 100;
    c.options.sample_seed = rng.Next();
  }
  std::vector<int> free_columns;  // columns drawn from their own Zipf
  for (int col = 0; col < c.width; ++col) {
    if (!(c.planted_key && col < 2) && c.columns[col].correlated_with < 0) {
      free_columns.push_back(col);
    }
  }
  if (!free_columns.empty() && rng.Bernoulli(0.5)) {
    c.near_unique = free_columns[rng.Uniform(free_columns.size())];
    // Up to the brute-force width, so the unsampled append oracle stays
    // cheap.
    if (sample_fraction > 0 && c.width <= kBruteForceWidth) {
      c.rows = rng.UniformRange(2048, 4096);
    }
    c.columns[c.near_unique].cardinality =
        kNearUniqueFactor * static_cast<uint64_t>(c.rows);
  }
  if (sample_fraction > 0) {
    c.options.sample_rows = std::max<int64_t>(
        1, static_cast<int64_t>(sample_fraction * static_cast<double>(c.rows)));
  }
  return c;
}

// The value of `rank` in a column of `type` (index into kTypeNames); -1 is
// NULL.
Value RankValue(int type, int64_t rank) {
  if (rank < 0) return Value::Null();
  switch (type) {
    case 0:
      return Value(rank);
    case 1:
      return Value("v" + std::to_string(rank));
    default:
      return Value(static_cast<double>(rank) / 2);
  }
}

// Draws rows for a case, continuing across calls so appended batches extend
// the same distribution (and the planted key stays unique).
class RowSource {
 public:
  explicit RowSource(const TableCase& c) : c_(c), rng_(c.seed ^ 0x5eedULL) {
    for (int col = 0; col < c.width; ++col) {
      zipf_.emplace_back(c.columns[col].cardinality,
                         col == c.near_unique ? 0.0 : c.theta);
    }
  }

  RowBatch Next(int64_t n) {
    RowBatch batch(c_.width);
    std::vector<int64_t> ranks(static_cast<size_t>(c_.width));
    for (int64_t i = 0; i < n; ++i) {
      for (int attempt = 0; attempt < 16; ++attempt) {
        DrawRanks(&ranks);
        if (!c_.unique_rows || seen_.insert(ranks).second) break;
      }
      std::vector<Value> row;
      for (int col = 0; col < c_.width; ++col) {
        row.push_back(RankValue(c_.columns[col].type, ranks[col]));
      }
      batch.AppendRow(row);
      ++next_row_;
    }
    return batch;
  }

 private:
  // One rank per column; -1 is NULL.
  void DrawRanks(std::vector<int64_t>* ranks) {
    for (int col = 0; col < c_.width; ++col) {
      const ColumnPlan& p = c_.columns[col];
      int64_t r;
      if (c_.planted_key && col < 2) {
        const int64_t m = 1 + static_cast<int64_t>(std::sqrt(
                                  static_cast<double>(c_.rows)));
        r = col == 0 ? next_row_ % m : next_row_ / m;
      } else if (p.correlated_with >= 0 && (*ranks)[p.correlated_with] >= 0 &&
                 !rng_.Bernoulli(p.noise)) {
        r = static_cast<int64_t>(
            (static_cast<uint64_t>((*ranks)[p.correlated_with]) *
             2654435761ULL) %
            p.cardinality);
      } else {
        r = static_cast<int64_t>(zipf_[col].Sample(rng_));
      }
      if (p.null_rate > 0 && rng_.Bernoulli(p.null_rate)) r = -1;
      (*ranks)[col] = r;
    }
  }

  const TableCase& c_;
  Random rng_;
  std::vector<ZipfGenerator> zipf_;
  std::set<std::vector<int64_t>> seen_;
  int64_t next_row_ = 0;
};

// Positions of the columns a run under `options` keeps: all of them, or the
// NULL-free ones when nullable columns are barred.
std::vector<int> KeptColumns(const Table& t, const GordianOptions& options) {
  std::vector<int> kept;
  for (int c = 0; c < t.num_columns(); ++c) {
    bool has_null = false;
    if (options.null_semantics ==
        GordianOptions::NullSemantics::kExcludeNullableColumns) {
      for (int64_t r = 0; r < t.num_rows() && !has_null; ++r) {
        has_null = t.value(r, c).is_null();
      }
    }
    if (!has_null) kept.push_back(c);
  }
  return kept;
}

// The oracle check. VerifyResult over the kept columns (keys unique and
// minimal, non-keys genuine, both antichains) plus non-key maximality; then
// up to kBruteForceWidth columns the keys equal the brute-force
// comparator's, and wider the canonical report equals Algorithm 1 (every
// pruning off, serial). A sampled report is checked as the exact report of
// its sample, t.SampleRows(sample_rows, sample_seed); which columns are kept
// is still decided on the whole table, as the run decides it.
void CheckAgainstOracle(const Table& t, const GordianOptions& options,
                        KeyDiscoveryResult r) {
  ASSERT_FALSE(r.incomplete);
  if (t.num_columns() > kBruteForceWidth) {
    GordianOptions alg1 = options;
    alg1.singleton_pruning = false;
    alg1.futility_pruning = false;
    alg1.single_entity_pruning = false;
    alg1.traversal_threads = -1;
    EXPECT_EQ(Canon(t, r), Canon(t, FindKeys(t, alg1))) << "vs Algorithm 1";
  }

  const std::vector<int> kept = KeptColumns(t, options);
  if (kept.empty()) {
    EXPECT_TRUE(r.keys.empty() && r.non_keys.empty() && !r.no_keys);
    return;
  }
  const bool sampled =
      options.sample_rows > 0 && options.sample_rows < t.num_rows();
  EXPECT_EQ(r.sampled, sampled);
  if (sampled) {
    r.sampled = false;
    for (DiscoveredKey& k : r.keys) k.estimated_strength = 1.0;
  }
  const Table proj =
      (sampled ? t.SampleRows(options.sample_rows, options.sample_seed) : t)
          .SelectColumns(kept);
  std::vector<int> to_proj(static_cast<size_t>(t.num_columns()), -1);
  for (size_t i = 0; i < kept.size(); ++i) {
    to_proj[kept[i]] = static_cast<int>(i);
  }
  auto project = [&](AttributeSet* attrs) {
    AttributeSet out;
    attrs->ForEach([&](int a) {
      EXPECT_GE(to_proj[a], 0) << "barred column " << a << " in report";
      if (to_proj[a] >= 0) out.Set(to_proj[a]);
    });
    *attrs = out;
  };
  KeyDiscoveryResult& pr = r;
  for (DiscoveredKey& k : pr.keys) project(&k.attrs);
  for (AttributeSet& nk : pr.non_keys) project(&nk);
  const VerificationReport verified = VerifyResult(proj, pr);
  EXPECT_TRUE(verified.ok) << ::testing::PrintToString(verified.problems);
  for (const AttributeSet& nk : pr.non_keys) {
    for (int a = 0; a < proj.num_columns() && !pr.no_keys; ++a) {
      AttributeSet bigger = nk;
      bigger.Set(a);
      EXPECT_TRUE(nk.Test(a) || proj.IsUnique(bigger))
          << "non-key " << nk.ToString() << " is not maximal (add " << a
          << ")";
    }
  }
  if (t.num_columns() > kBruteForceWidth) return;
  BruteForceResult oracle = BruteForceAll(proj);
  ASSERT_FALSE(oracle.truncated);
  EXPECT_EQ(pr.no_keys, oracle.no_keys);
  EXPECT_EQ(Sorted(pr.KeySets()), Sorted(oracle.keys)) << "vs BruteForceAll";
}

// A spilled table must be observationally identical to the resident one.
void CheckSpilledMatchesResident(const TableCase& c, const Table& resident,
                                 const Table& spilled) {
  if (c.rows * c.width * 4 > kSpillBudgetBytes) {
    EXPECT_GT(spilled.spilled_column_count(), 0);
  }
  EXPECT_EQ(TableFingerprint(spilled), TableFingerprint(resident));
  std::vector<AttributeSet> projections = {AttributeSet::FirstN(c.width)};
  for (int col = 0; col < c.width; ++col) projections.push_back({col});
  if (c.width >= 2) projections.push_back({0, c.width - 1});
  for (const AttributeSet& attrs : projections) {
    EXPECT_EQ(spilled.DistinctCount(attrs), resident.DistinctCount(attrs));
    EXPECT_EQ(spilled.DistinctCountFast(attrs),
              resident.DistinctCountFast(attrs));
    EXPECT_EQ(spilled.IsUnique(attrs), resident.IsUnique(attrs));
  }
  const int64_t sample = std::max<int64_t>(1, c.rows / 2);
  EXPECT_EQ(TableFingerprint(spilled.SampleRows(sample, c.seed)),
            TableFingerprint(resident.SampleRows(sample, c.seed)));
  // A projection view shares the parent's storage, spilled columns included.
  const std::vector<int> cols = {c.width - 1, 0};
  const Table view = spilled.SelectColumns(cols);
  EXPECT_EQ(TableFingerprint(view),
            TableFingerprint(resident.SelectColumns(cols)));
  int spilled_in_view = 0;
  for (int col : cols) spilled_in_view += spilled.column_codes(col).spilled();
  EXPECT_EQ(view.spilled_column_count(), spilled_in_view);
}

// Replays the case's append plan through IncrementalProfiler over `base`
// and checks every step against the reference on the concatenated table.
void RunAppendPlan(const TableCase& c, const Schema& schema, const Table& base,
                   RowSource* source, std::vector<RowBatch> history) {
  // IncrementalProfiler profiles whole tables only: a sampled case appends
  // unsampled.
  GordianOptions unsampled = c.options;
  unsampled.sample_rows = 0;
  GordianOptions options = unsampled;
  options.traversal_threads = c.threads;
  IncrementalProfiler prof;
  Status begin = IncrementalProfiler::Begin(base, options, &prof);
  if (options.null_semantics !=
      GordianOptions::NullSemantics::kNullEqualsNull) {
    EXPECT_EQ(begin.code(), Status::Code::kInvalidArgument);
    return;
  }
  ASSERT_TRUE(begin.ok()) << begin.ToString();
  prof.set_warm_start(c.warm_start);

  std::vector<AttributeSet> prior = prof.report().non_keys;
  for (size_t b = 0; b < c.batches.size(); ++b) {
    SCOPED_TRACE("append batch " + std::to_string(b));
    history.push_back(source->Next(c.batches[b]));
    const Table concat = Build(schema, history);
    if (c.coalesced) {
      ASSERT_TRUE(prof.Absorb(history.back()).ok());
      EXPECT_EQ(prof.fingerprint(), TableFingerprint(concat));
      if (b + 1 < c.batches.size()) continue;
      EXPECT_FALSE(prof.current());
      ASSERT_TRUE(prof.Refresh().ok());
    } else {
      ASSERT_TRUE(prof.Append(history.back()).ok());
      EXPECT_EQ(prof.fingerprint(), TableFingerprint(concat));
    }
    EXPECT_TRUE(prof.current());
    EXPECT_EQ(prof.tree_rows(), concat.num_rows());
    EXPECT_EQ(Canon(concat, prof.report()),
              Canon(concat, ReferenceFindKeys(concat, unsampled)));

    // Monotonicity: appended rows only create duplicates, so every prior
    // maximal non-key stays covered.
    const std::vector<AttributeSet>& now = prof.report().non_keys;
    for (const AttributeSet& old_nk : prior) {
      EXPECT_TRUE(std::any_of(now.begin(), now.end(),
                              [&](const AttributeSet& nk) {
                                return nk.Covers(old_nk);
                              }))
          << "prior non-key " << old_nk.ToString() << " retracted";
    }
    prior = now;
    if (b + 1 == c.batches.size()) {
      CheckAgainstOracle(concat, unsampled, prof.report());
    }
  }
}

// The kSorted and kInsertion builds of the data a run under `options`
// profiles (its sample, if any) freeze to identical arrays, which is why
// TreeCacheKey leaves the build mode out.
void CheckBuildsFreezeIdentically(const Table& t, GordianOptions options) {
  options.null_semantics = GordianOptions::NullSemantics::kNullEqualsNull;
  ProfileContext ctx;
  ctx.input = &t;
  ctx.options = options;
  ASSERT_TRUE(EncodeStage().Run(&ctx).ok());
  if (ctx.finished) return;  // no columns
  std::unique_ptr<FrozenTree> frozen[2];
  int i = 0;
  for (GordianOptions::TreeBuild mode : {GordianOptions::TreeBuild::kSorted,
                                         GordianOptions::TreeBuild::kInsertion}) {
    frozen[i++] =
        FrozenTree::Freeze(PrefixTree::Build(*ctx.data, ctx.attr_order, mode));
  }
  ASSERT_EQ(frozen[0]->num_levels(), frozen[1]->num_levels());
  for (int l = 0; l < frozen[0]->num_levels(); ++l) {
    const FrozenTree::Level& a = frozen[0]->level(l);
    const FrozenTree::Level& b = frozen[1]->level(l);
    EXPECT_EQ(a.cell_begin, b.cell_begin) << "level " << l;
    EXPECT_EQ(a.code, b.code) << "level " << l;
    EXPECT_EQ(a.count, b.count) << "level " << l;
    EXPECT_EQ(a.entity_total, b.entity_total) << "level " << l;
    EXPECT_EQ(a.ref, b.ref) << "level " << l;
    EXPECT_EQ(a.max_code, b.max_code) << "level " << l;
  }
  EXPECT_EQ(frozen[0]->ApproxBytes(), frozen[1]->ApproxBytes());
}

void RunTableCase(const TableCase& c, const SpillDir& spill_dir) {
  std::vector<std::string> names;
  for (int col = 0; col < c.width; ++col) {
    names.push_back("c" + std::to_string(col));
  }
  const Schema schema(names);
  RowSource source(c);
  std::vector<RowBatch> history = {source.Next(c.rows)};
  const Table resident = Build(schema, history);

  // Baseline: cold, resident, serial. It must match the reference finder
  // report for report and counter for counter, and the oracle.
  GordianOptions serial = c.options;
  serial.traversal_threads = -1;
  const KeyDiscoveryResult base = FindKeys(resident, serial);
  const KeyDiscoveryResult ref = ReferenceFindKeys(resident, c.options);
  const std::string want = Canon(resident, base);
  EXPECT_EQ(want, Canon(resident, ref)) << "vs ReferenceFindKeys";
  EXPECT_EQ(WorkCounters(ref.stats), WorkCounters(base.stats))
      << "serial baseline counters";
  const size_t kept = KeptColumns(resident, c.options).size();
  EXPECT_TRUE(kept == 0 || base.stats.frozen_tree_bytes > 0);
  CheckAgainstOracle(resident, c.options, base);
  CheckBuildsFreezeIdentically(resident, c.options);

  // The variant: storage x threads x cache state.
  Table spilled;
  if (c.spilled) {
    spilled = Build(schema, history, spill_dir.policy);
    CheckSpilledMatchesResident(c, resident, spilled);
  }
  const Table& table = c.spilled ? spilled : resident;
  GordianOptions options = c.options;
  options.traversal_threads = c.threads;
  KeyDiscoveryResult variant;
  if (c.cache_hit) {
    TreeArtifactCache cache;
    const uint64_t fp = TableFingerprint(table);
    bool hit = true;
    KeyDiscoveryResult cold =
        ProfileWithTreeCache(table, options, fp, &cache, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(Canon(table, cold), want) << "cache miss run";
    variant = ProfileWithTreeCache(table, options, fp, &cache, &hit);
    // A null-projection run profiles a nested table and never hits.
    EXPECT_EQ(hit, kept == static_cast<size_t>(c.width));
    if (hit) {
      EXPECT_EQ(variant.stats.build_seconds, 0.0);
      EXPECT_EQ(variant.stats.freeze_seconds, 0.0);
    }
  } else {
    variant = FindKeys(table, options);
  }
  EXPECT_EQ(Canon(table, variant), want) << "variant run";
  EXPECT_EQ(variant.stats.final_non_keys, base.stats.final_non_keys);
  EXPECT_TRUE(kept == 0 || variant.stats.frozen_tree_bytes > 0);
  if (c.threads < 0) {
    EXPECT_EQ(WorkCounters(ref.stats), WorkCounters(variant.stats))
        << "serial variant counters";
  } else {
    EXPECT_LE(variant.stats.traversal_threads_used, c.threads);
    EXPECT_LE(variant.stats.futility_snapshot_prunes,
              variant.stats.futility_prunes);
  }

  if (!c.batches.empty()) {
    RunAppendPlan(c, schema, table, &source, std::move(history));
  }
}

TEST(Differential, TableCases) {
  SpillDir spill_dir;
  const int cases = Rounds() * kTableCasesPerRound;
  for (int i = 0; i < cases; ++i) {
    const TableCase c = DrawTableCase(i);
    SCOPED_TRACE(c.Describe());
    RunTableCase(c, spill_dir);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Schema cases.

// A random schema: 2-4 tables, each an id column plus 1-4 payload columns of
// random type, cardinality and NULL rate. Some payload columns reference an
// earlier table's id domain (occasionally dangling), so foreign-key
// discovery has genuine work. Drawing the same seed twice yields the same
// data, built resident or spilled.
std::vector<Table> RandomSchema(uint64_t seed, const SpillPolicy& spill) {
  Random rng(seed);
  const int num_tables = static_cast<int>(rng.UniformRange(2, 4));
  std::vector<int64_t> id_domain;
  std::vector<Table> tables;
  for (int t = 0; t < num_tables; ++t) {
    const int64_t rows = rng.UniformRange(40, 600);
    id_domain.push_back(rows);
    const int payload = static_cast<int>(rng.UniformRange(1, 4));
    std::vector<std::string> names = {"id"};
    for (int c = 0; c < payload; ++c) names.push_back("p" + std::to_string(c));

    // Per payload column: a type (kTypeNames), a domain, a NULL rate, and
    // whether it references an earlier table's ids instead.
    struct ColPlan {
      int type;
      int64_t card;
      double null_rate;
      int ref_table;  // -1 = not a reference
    };
    std::vector<ColPlan> plans;
    for (int c = 0; c < payload; ++c) {
      ColPlan p;
      p.type = static_cast<int>(rng.Uniform(3));
      p.card = rng.UniformRange(2, 60);
      p.null_rate = rng.Bernoulli(0.4) ? rng.NextDouble() * 0.3 : 0.0;
      p.ref_table = t > 0 && rng.Bernoulli(0.4)
                        ? static_cast<int>(rng.Uniform(t))
                        : -1;
      plans.push_back(p);
    }

    RowBatch batch(1 + payload);
    for (int64_t r = 0; r < rows; ++r) {
      std::vector<Value> row = {Value(r)};
      for (const ColPlan& p : plans) {
        int64_t rank = rng.UniformRange(0, p.card - 1);
        if (p.ref_table >= 0) {  // an id of that table, 5% dangling
          const int64_t upper = id_domain[p.ref_table];
          rank = rng.Bernoulli(0.05) ? upper + rng.UniformRange(1, 50)
                                     : rng.UniformRange(0, upper - 1);
        }
        if (rng.Bernoulli(p.null_rate)) rank = -1;
        row.push_back(RankValue(p.ref_table >= 0 ? 0 : p.type, rank));
      }
      batch.AppendRow(row);
    }
    tables.push_back(Build(Schema(names), {batch}, spill));
  }
  return tables;
}

std::vector<ProfiledTable> ProfileAll(const std::vector<Table>& tables) {
  std::vector<ProfiledTable> out;
  for (size_t i = 0; i < tables.size(); ++i) {
    out.push_back({"t" + std::to_string(i), &tables[i],
                   FindKeys(tables[i]).KeySets()});
  }
  return out;
}

std::string CandidatesToString(
    const std::vector<ForeignKeyCandidate>& candidates) {
  std::string out;
  char buf[160];
  for (const ForeignKeyCandidate& fk : candidates) {
    std::string cols;
    for (int c : fk.foreign_key_columns) cols += std::to_string(c) + ",";
    std::snprintf(buf, sizeof(buf), "%d[%s]->%d%s cov=%.12f ref=%.12f n=%lld\n",
                  fk.referencing_table, cols.c_str(), fk.referenced_table,
                  fk.referenced_key.ToString().c_str(), fk.coverage,
                  fk.referenced_coverage,
                  static_cast<long long>(fk.distinct_fk_tuples));
    out += buf;
  }
  return out;
}

// SchemaProfiler's rendered report at `threads` workers, minus the
// wall-clock lines, which legitimately vary; its FK list goes to *fks.
std::string SchemaProfileJson(const std::vector<Table>& tables,
                              const SchemaProfileOptions& options,
                              int threads, std::string* fks) {
  std::vector<std::pair<std::string, const Table*>> views;
  for (size_t i = 0; i < tables.size(); ++i) {
    views.emplace_back("t" + std::to_string(i), &tables[i]);
  }
  ServiceOptions so;
  so.num_threads = threads;
  ProfilingService service(so);
  SchemaReport report;
  EXPECT_TRUE(SchemaProfiler(&service).Profile(views, options, &report).ok());
  *fks = CandidatesToString(report.foreign_keys);
  std::istringstream json(SchemaReportToJson(report));
  std::string out, line;
  while (std::getline(json, line)) {
    if (line.find("_seconds") == std::string::npos) out += line + "\n";
  }
  return out;
}

TEST(Differential, SchemaCases) {
  SpillDir spill_dir;
  const int cases = Rounds() * kSchemaCasesPerRound;
  for (int i = 0; i < cases; ++i) {
    const uint64_t seed = 0x5c4e4d4100000000ULL + 977ULL * (i + 1);
    Random rng(seed ^ 0xabcdefULL);
    ForeignKeyOptions fk;
    fk.min_distinct_values = rng.UniformRange(1, 10);
    fk.min_coverage = rng.Bernoulli(0.5) ? 1.0 : rng.NextDouble();
    fk.min_referenced_coverage = rng.Bernoulli(0.5) ? 0.0 : rng.NextDouble();
    fk.max_arity = static_cast<int>(rng.UniformRange(1, 2));
    char desc[200];
    std::snprintf(desc, sizeof(desc),
                  "schema case %d seed=0x%016llx min_distinct=%lld "
                  "min_coverage=%.4f min_ref_coverage=%.4f max_arity=%d",
                  i, static_cast<unsigned long long>(seed),
                  static_cast<long long>(fk.min_distinct_values),
                  fk.min_coverage, fk.min_referenced_coverage, fk.max_arity);
    SCOPED_TRACE(desc);

    const std::vector<Table> resident = RandomSchema(seed, SpillPolicy());
    const std::vector<ProfiledTable> profiled = ProfileAll(resident);
    const std::string production =
        CandidatesToString(DiscoverForeignKeys(profiled, fk));
    EXPECT_EQ(production,
              CandidatesToString(ReferenceDiscoverForeignKeys(profiled, fk)))
        << "vs ReferenceDiscoverForeignKeys";

    SchemaProfileOptions options;
    options.fk = fk;
    std::string serial_fks, parallel_fks;
    EXPECT_EQ(SchemaProfileJson(resident, options, 1, &serial_fks),
              SchemaProfileJson(resident, options, 4, &parallel_fks))
        << "SchemaProfiler at 1 vs 4 threads";
    EXPECT_EQ(serial_fks, production);
    EXPECT_EQ(parallel_fks, production);

    const std::vector<Table> spilled = RandomSchema(seed, spill_dir.policy);
    for (size_t t = 0; t < spilled.size(); ++t) {
      EXPECT_EQ(TableFingerprint(spilled[t]), TableFingerprint(resident[t]));
      if (spilled[t].num_rows() * spilled[t].num_columns() * 4 >
          kSpillBudgetBytes) {
        EXPECT_GT(spilled[t].spilled_column_count(), 0) << "table " << t;
      }
    }
    EXPECT_EQ(CandidatesToString(DiscoverForeignKeys(ProfileAll(spilled), fk)),
              production)
        << "spilled vs resident";
  }
}

}  // namespace
}  // namespace gordian
