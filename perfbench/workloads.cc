#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <utility>

#include "common/hashing.h"
#include "common/random.h"
#include "core/fd.h"
#include "core/foreign_key.h"
#include "core/frozen_tree.h"
#include "core/gordian.h"
#include "core/incremental.h"
#include "core/key_conversion.h"
#include "core/non_key_set.h"
#include "core/pipeline.h"
#include "core/prefix_tree.h"
#include "datagen/opic_like.h"
#include "datagen/synthetic.h"
#include "datagen/tpch_lite.h"
#include "service/profiling_service.h"
#include "service/schema_profiler.h"
#include "service/tree_cache.h"
#include "table/table.h"

namespace perfbench {

using namespace gordian;

Sizes Sizes::Tiny() {
  Sizes s;
  s.opic_rows = 2000;
  s.uniform_rows = 8000;
  s.append_base_rows = 8000;
  s.append_delta_rows = 100;
  s.append_cycle_ops = 4;
  s.tpch_scale = 0.0002;
  return s;
}

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

// Per-op seed of generated input `stream`/`index`, derived from the
// workload seed only, so the same seed gives the same inputs.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  return Mix64(Mix64(seed * 0x9e3779b97f4a7c15ULL + stream) + index);
}

Table MakeOpic(const Sizes& s, uint64_t seed) {
  return GenerateOpicLike(s.opic_rows, s.opic_attrs, seed);
}

Table MakeUniform(int64_t rows, int attrs, uint64_t cardinality, double theta,
                  uint64_t seed) {
  Table t;
  Status st = GenerateSynthetic(
      UniformSpec(attrs, rows, cardinality, theta, seed), &t);
  if (!st.ok()) throw std::runtime_error("generator: " + st.ToString());
  return t;
}

// Seeded copies of a reference table with the same key structure. The key
// structure of random data is itself random: in a uniform 200k x 8 table of
// cardinality 32 each 7-column subset is a key with probability about 0.55,
// and the traversal's work (so the latency of a job) follows those coin
// flips — up to 40% apart between seeds. Workloads that profile the same
// tables for a whole run would then measure the seed, not the code. A copy
// shuffles the row order and, when `relabel` is set, maps each column's
// values through a seeded bijection. Equality between rows, and with it
// every key, non-key and FD, is unchanged; codes, dictionaries, row order
// and fingerprints all differ from seed to seed.
class Isomorph {
 public:
  Isomorph(const Table& ref, uint64_t seed, bool relabel)
      : ref_(ref), seed_(seed) {
    Random rng(seed);
    for (int c = 0; c < ref.num_columns(); ++c) {
      std::vector<uint32_t> map(ref.dictionary(c).size());
      for (uint32_t i = 0; i < map.size(); ++i) map[i] = i;
      if (relabel) Shuffle(&map, &rng);
      value_map_.push_back(std::move(map));
    }
  }

  // Rows [begin, end) of the reference, shuffled among themselves.
  std::vector<RowBatch> Batches(int64_t begin, int64_t end) const {
    std::vector<int64_t> rows(static_cast<size_t>(end - begin));
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[i] = begin + static_cast<int64_t>(i);
    }
    Random rng(Mix64(seed_ ^ static_cast<uint64_t>(begin)));
    Shuffle(&rows, &rng);
    std::vector<RowBatch> out;
    RowBatch batch(ref_.num_columns());
    for (int64_t r : rows) {
      for (int c = 0; c < ref_.num_columns(); ++c) {
        batch.column(c).AppendValue(ref_.dictionary(c).Decode(
            value_map_[static_cast<size_t>(c)][ref_.code(r, c)]));
      }
      if (batch.full()) {
        out.push_back(std::move(batch));
        batch = RowBatch(ref_.num_columns());
      }
    }
    if (batch.num_rows() > 0) out.push_back(std::move(batch));
    return out;
  }

 private:
  template <typename T>
  static void Shuffle(std::vector<T>* v, Random* rng) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
    }
  }

  const Table& ref_;
  uint64_t seed_;
  std::vector<std::vector<uint32_t>> value_map_;
};

// Generator seed of the reference tables that Isomorph copies. Fixed, and
// never chosen by looking at the generated data.
constexpr uint64_t kReferenceSeed = 1;

Table Ingest(const Schema& schema, const std::vector<RowBatch>& batches) {
  TableBuilder builder(schema);
  for (const RowBatch& b : batches) builder.AddBatch(b);
  return builder.Build();
}

void CanonicalizeNonKeys(std::vector<AttributeSet>* non_keys) {
  std::sort(non_keys->begin(), non_keys->end(),
            [](const AttributeSet& a, const AttributeSet& b) {
              if (a.Count() != b.Count()) return a.Count() < b.Count();
              return a < b;
            });
}

// The report a user reads: duplicate/incomplete flags, keys, non-keys.
// Timings and work counters are deliberately absent — they differ between
// equivalent runs.
std::string ReportString(const KeyDiscoveryResult& r) {
  std::string s = r.no_keys ? "no_keys\n" : "";
  if (r.incomplete) s += "incomplete\n";
  s += "keys:";
  for (const DiscoveredKey& k : r.keys) s += " " + k.attrs.ToString();
  s += "\nnon_keys:";
  for (const AttributeSet& nk : r.non_keys) s += " " + nk.ToString();
  return s + "\n";
}

// Self-test hook: turns a correct report into a wrong one by claiming a
// genuine non-key as a key.
void Corrupt(KeyDiscoveryResult* r) {
  DiscoveredKey bogus;
  bogus.attrs = r->non_keys.empty() ? AttributeSet() : r->non_keys.front();
  r->keys.push_back(bogus);
}

void Fail(OpResult* r, const std::string& why) {
  if (!r->failed) r->failure = why;
  r->failed = true;
}

GordianOptions JobGordianOptions(int threads) {
  GordianOptions o;
  o.traversal_threads = threads;
  return o;
}

// Per-stage seconds of the pipeline runs between two metric snapshots.
struct StageSeconds {
  double encode = 0, tree_build = 0, traverse = 0, convert = 0, validate = 0,
         other = 0;
  double Sum() const {
    return encode + tree_build + traverse + convert + validate + other;
  }
};

StageSeconds StageDelta(const ServiceMetrics::Snapshot& a,
                        const ServiceMetrics::Snapshot& b) {
  auto d = [&](int i) { return b.stage_seconds[i] - a.stage_seconds[i]; };
  return StageSeconds{d(0), d(1), d(2), d(3), d(4), d(5)};
}

// A table whose tree may sit in a service's tree cache, for the
// resident-bytes-per-code-byte ratio.
struct CachedTable {
  uint64_t fingerprint = 0;
  int num_columns = 0;
  int64_t rows = 0;
};

double BytesPerCodeByte(const TreeArtifactCache& cache,
                        const std::vector<CachedTable>& tables,
                        const GordianOptions& options) {
  double code_bytes = 0;
  for (const CachedTable& t : tables) {
    if (cache.Contains(
            MakeTreeCacheKey(t.fingerprint, t.num_columns, options))) {
      code_bytes += static_cast<double>(t.rows) * t.num_columns * 4.0;
    }
  }
  return code_bytes == 0
             ? 0
             : static_cast<double>(cache.GetStats().bytes) / code_bytes;
}

// Tree-cache layer values of one op from GetStats() before and after it.
void AddCacheDeltas(const TreeArtifactCache::Stats& a,
                    const TreeArtifactCache::Stats& b, OpTrace* trace) {
  const int64_t hits = b.hits - a.hits;
  const int64_t lookups =
      hits + (b.misses - a.misses) + (b.busy_misses - a.busy_misses);
  if (lookups > 0) {
    trace->Set("tree_cache.hit_rate",
               static_cast<double>(hits) / static_cast<double>(lookups));
  }
  trace->Add("tree_cache.evictions",
             static_cast<double>(b.evictions - a.evictions));
  trace->Set("tree_cache.resident_mb", static_cast<double>(b.bytes) / kMiB);
}

// Work counters of a job's traversal, summed into the op.
void AddTraversalCounts(const GordianStats& s, OpTrace* trace) {
  trace->Add("core.tree_cells", static_cast<double>(s.base_tree_cells));
  trace->Add("core.traverse.merges", static_cast<double>(s.merges_performed));
  trace->Add("core.traverse.nodes_visited",
             static_cast<double>(s.nodes_visited));
  trace->Add("core.traverse.futility_prunes",
             static_cast<double>(s.futility_prunes));
  trace->Add("core.traverse.snapshot_prunes",
             static_cast<double>(s.futility_snapshot_prunes));
  trace->Add("prunes", static_cast<double>(
                           s.futility_prunes + s.single_entity_prunes +
                           s.singleton_traversal_prunes +
                           s.singleton_merge_prunes));
  const double peak = static_cast<double>(s.peak_memory_bytes) / kMiB;
  const auto it = trace->layer().find("core.peak_mb");
  if (it == trace->layer().end() || it->second < peak) {
    trace->Set("core.peak_mb", peak);
  }
}

// Algorithm 4 over `frozen` in one thread, replayed phase by phase through
// FrozenNonKeyFinder's public entry points: every top-level slice
// (RunSlice), then the root merge (RunRootMerge). A parallel job runs the
// same two phases, so the split shows where a job's traversal time goes.
// Returns the canonical report and leaves the tree's reference counts as
// it found them.
KeyDiscoveryResult ReplayTraversal(FrozenTree& frozen,
                                   const GordianOptions& job_options,
                                   int num_attributes,
                                   const std::vector<AttributeSet>* warm,
                                   OpTrace* trace, OpResult* op) {
  GordianOptions options = job_options;
  options.warm_start_non_keys = nullptr;
  options.traversal_threads = -1;
  KeyDiscoveryResult result;
  result.stats.num_attributes = num_attributes;
  NonKeySet non_keys(&result.stats);
  NonKeySet warm_set(nullptr);
  PrefixTree::NodePool pool;
  FrozenNonKeyFinder finder(frozen, options, &non_keys, &result.stats);
  finder.SetMergePool(&pool);
  if (warm != nullptr && !warm->empty()) {
    for (const AttributeSet& nk : *warm) {
      warm_set.Insert(nk);
      non_keys.Insert(nk);
    }
    finder.SetWarmCover(&warm_set);
  }
  double start = 0;
  bool complete = true;
  if (frozen.num_levels() < 2) {
    const double s = Timed(&start, [&] { complete = finder.Run(); });
    if (trace) trace->Replay("replay.traverse", start, s);
  } else {
    finder.StartBudgetClock(0);
    const int slices = static_cast<int>(frozen.level(0).num_cells());
    const double slice_s = Timed(&start, [&] {
      for (int i = 0; i < slices && complete; ++i) {
        complete = finder.RunSlice(i);
      }
    });
    double merge_start = 0;
    const double merge_s = Timed(&merge_start, [&] {
      if (complete) complete = finder.RunRootMerge();
    });
    if (trace) {
      trace->Replay("replay.traverse.slices", start, slice_s);
      trace->Replay("replay.traverse.root_merge", merge_start, merge_s);
      trace->Add("core.traverse.slice_s", slice_s);
      trace->Add("core.traverse.root_merge_s", merge_s);
    }
  }
  if (!complete) Fail(op, "serial replay aborted");
  result.non_keys = non_keys.non_keys();
  CanonicalizeNonKeys(&result.non_keys);
  double convert_start = 0;
  std::vector<AttributeSet> keys;
  const double convert_s = Timed(&convert_start, [&] {
    keys = NonKeysToKeys(result.non_keys, num_attributes);
  });
  if (trace) trace->Replay("replay.convert", convert_start, convert_s);
  for (const AttributeSet& k : keys) {
    DiscoveredKey dk;
    dk.attrs = k;
    result.keys.push_back(dk);
  }
  if (op != nullptr) {
    op->counts["replay.merges"] += result.stats.merges_performed;
    op->counts["replay.nodes_visited"] += result.stats.nodes_visited;
    op->counts["replay.futility_prunes"] += result.stats.futility_prunes;
  }
  return result;
}

// Serial replay of one service job over `table`: EncodeStage, then either
// the cached frozen tree the job was served (`cached` non-null) or
// PrefixTree::Build + FrozenTree::Freeze, then ReplayTraversal.
KeyDiscoveryResult ReplayJob(const Table& table, const GordianOptions& options,
                             FrozenTree* cached, OpTrace* trace,
                             OpResult* op) {
  ProfileContext ctx;
  ctx.input = &table;
  ctx.options = options;
  double start = 0;
  const double encode_s =
      Timed(&start, [&] { (void)EncodeStage().Run(&ctx); });
  trace->Replay("replay.encode", start, encode_s);
  if (cached != nullptr) {
    return ReplayTraversal(*cached, options, table.num_columns(), nullptr,
                           trace, op);
  }
  std::unique_ptr<PrefixTree> tree;
  const double build_s = Timed(&start, [&] {
    tree = std::make_unique<PrefixTree>(
        PrefixTree::Build(*ctx.data, ctx.attr_order, options.tree_build));
  });
  trace->Replay("replay.tree_build", start, build_s);
  if (tree->has_duplicate_entities()) {
    KeyDiscoveryResult dup;
    dup.no_keys = true;
    dup.non_keys.push_back(AttributeSet::FirstN(table.num_columns()));
    return dup;
  }
  std::unique_ptr<FrozenTree> frozen;
  const double freeze_s =
      Timed(&start, [&] { frozen = FrozenTree::Freeze(*tree); });
  trace->Replay("replay.freeze", start, freeze_s);
  return ReplayTraversal(*frozen, options, table.num_columns(), nullptr, trace,
                         op);
}

// Client + program-reported spans of one ProfilingService table job that
// ran in [job_start, job_end).
void TraceJob(const ProfileOutcome& out, const StageSeconds& stages,
              double job_start, double job_end, OpTrace* trace) {
  const GordianStats& s = out.result.stats;
  const double build = out.tree_cache_hit ? 0 : s.build_seconds;
  trace->Outer("service.job", job_start, job_end - job_start);
  trace->ProgramLeaves(job_start, {{"core.encode", stages.encode},
                                   {"core.tree_build", build},
                                   {"core.freeze", s.freeze_seconds},
                                   {"core.traverse", s.find_seconds},
                                   {"core.convert", s.convert_seconds},
                                   {"core.validate", stages.validate}});
  trace->Add("core.encode_s", stages.encode);
  trace->Add("core.tree_build_s", build);
  trace->Add("core.freeze_s", s.freeze_seconds);
  trace->Add("core.traverse_s", s.find_seconds);
  trace->Add("core.convert_s", s.convert_seconds);
  trace->Add("core.validate_s", stages.validate);
  trace->Add("service.overhead_s", (job_end - job_start) - stages.Sum());
  AddTraversalCounts(s, trace);
}

// --- cold_profile ----------------------------------------------------------

// Every op profiles never-seen tables, so neither the catalog nor the tree
// cache can help: this is the workload where tree build and freeze show.
// The tables are fresh Isomorph copies of one reference table per shape, so
// every op does the same work, and a copy's report must equal the report
// of the set-up's copy, which VerifyResult checked.
class ColdProfile : public Workload {
 public:
  explicit ColdProfile(const WorkloadConfig& config) : config_(config) {
    job_.gordian = JobGordianOptions(config.threads);
  }

  std::string name() const override { return "cold_profile"; }
  int basis_ops() const override { return 12; }

  void Setup() override {
    service_.reset();
    recent_.clear();
    refs_.clear();
    reports_.clear();
    const Sizes& z = config_.sizes;
    refs_.push_back(MakeOpic(z, kReferenceSeed));
    refs_.push_back(MakeUniform(z.uniform_rows, z.uniform_attrs,
                                z.uniform_cardinality, 0.0, kReferenceSeed));
    service_ = std::make_unique<ProfilingService>(ServiceOptions());
    // Warm-up: one untimed op on copies no timed op uses. Its reports,
    // checked by VerifyResult, are what every later copy must reproduce.
    OpResult warm;
    for (int shape = 0; shape < 2; ++shape) {
      ProfileOne(shape, DeriveSeed(config_.seed, 100 + shape, 0), -1, nullptr,
                 &warm);
    }
    if (warm.failed) throw std::runtime_error("warm-up: " + warm.failure);
  }

  // One op profiles one table of each shape, back to back; see README.md
  // for why the op is the pair.
  OpResult RunOp(int index, OpTrace* trace) override {
    OpResult r;
    for (int shape = 0; shape < 2; ++shape) {
      ProfileOne(shape, DeriveSeed(config_.seed, shape, index), index, trace,
                 &r);
    }
    if (trace != nullptr) {
      trace->Set("tree_cache.bytes_per_code_byte",
                 BytesPerCodeByte(*service_->tree_cache(),
                                  std::vector<CachedTable>(recent_.begin(),
                                                           recent_.end()),
                                  job_.gordian));
    }
    return r;
  }

  std::map<std::string, std::string> Metadata() const override {
    return {
        {"traversal_threads", std::to_string(config_.threads)},
        {"service_threads", std::to_string(config_.threads)},
        {"tree_cache_bytes",
         std::to_string(TreeArtifactCache::kDefaultByteBudget)},
        {"tables", "opic_like " + std::to_string(config_.sizes.opic_rows) +
                       "x" + std::to_string(config_.sizes.opic_attrs) +
                       " / uniform " +
                       std::to_string(config_.sizes.uniform_rows) + "x" +
                       std::to_string(config_.sizes.uniform_attrs) +
                       " card " +
                       std::to_string(config_.sizes.uniform_cardinality)}};
  }

 private:
  void ProfileOne(int shape, uint64_t seed, int index, OpTrace* trace,
                  OpResult* r) {
    const Table& ref = refs_[static_cast<size_t>(shape)];
    const std::vector<RowBatch> batches =
        Isomorph(ref, seed, true).Batches(0, ref.num_rows());
    const Schema& schema = ref.schema();
    const ServiceMetrics::Snapshot m0 = service_->Metrics();
    const TreeArtifactCache::Stats c0 = service_->tree_cache()->GetStats();

    const double t0 = NowSeconds();
    Table table = Ingest(schema, batches);
    const double t1 = NowSeconds();
    const JobId id = service_->SubmitTable(shape == 0 ? "opic" : "uniform",
                                           &table, job_);
    ProfileOutcome out = service_->Wait(id);
    const double t2 = NowSeconds();

    const ServiceMetrics::Snapshot m1 = service_->Metrics();
    const TreeArtifactCache::Stats c1 = service_->tree_cache()->GetStats();
    if (out.cache_hit) {
      throw GuardError("cold_profile: catalog hit on a never-seen table");
    }
    if (out.tree_cache_hit || c1.hits != c0.hits) {
      throw GuardError("cold_profile: tree-cache hit on a never-seen table");
    }
    r->wall += t2 - t0;
    r->rows += table.num_rows();
    recent_.push_back({out.fingerprint, table.num_columns(), table.num_rows()});
    if (recent_.size() > 8) recent_.pop_front();

    if (out.info.state != JobState::kSucceeded) {
      Fail(r, "job did not succeed: " + out.info.error);
    }
    if (out.result.incomplete) Fail(r, "incomplete result");
    const std::string report = ReportString(out.result);
    if (index >= 0 && index == config_.corrupt_op && shape == 0) {
      Corrupt(&out.result);
    }
    if (reports_.size() == static_cast<size_t>(shape)) {
      const VerificationReport v = VerifyResult(table, out.result);
      if (!v.ok) {
        Fail(r, "VerifyResult: " + (v.problems.empty() ? std::string()
                                                       : v.problems.front()));
      }
      reports_.push_back(ReportString(out.result));
    } else if (ReportString(out.result) != reports_[static_cast<size_t>(shape)]) {
      Fail(r, "report differs from the verified report of an isomorphic "
              "copy");
    }
    r->counts["tree_cells"] += out.result.stats.base_tree_cells;
    r->counts["keys"] += static_cast<int64_t>(out.result.keys.size());
    r->counts["non_keys"] += static_cast<int64_t>(out.result.non_keys.size());

    if (trace == nullptr) return;
    trace->Leaf("table.ingest", t0, t1 - t0);
    trace->Add("table.ingest_s", t1 - t0);
    TraceJob(out, StageDelta(m0, m1), t1, t2, trace);
    AddCacheDeltas(c0, c1, trace);
    const KeyDiscoveryResult replay =
        ReplayJob(table, job_.gordian, nullptr, trace, r);
    if (ReportString(replay) != report) {
      Fail(r, "serial replay report differs from the job's");
    }
  }

  WorkloadConfig config_;
  ProfileJobOptions job_;
  std::unique_ptr<ProfilingService> service_;
  std::vector<Table> refs_;          // reference table per shape
  std::vector<std::string> reports_;  // verified report per shape
  std::deque<CachedTable> recent_;
};

// --- warm_reprofile ----------------------------------------------------------

// Forced re-profiles of two resident tables: the catalog is bypassed, the
// tree cache serves both trees, so traversal plus service overhead is the
// whole op.
class WarmReprofile : public Workload {
 public:
  explicit WarmReprofile(const WorkloadConfig& config) : config_(config) {
    job_.gordian = JobGordianOptions(config.threads);
    job_.use_catalog = false;
    job_.use_tree_cache = true;
  }

  std::string name() const override { return "warm_reprofile"; }
  int basis_ops() const override { return 40; }

  void Setup() override {
    service_.reset();
    tables_.clear();
    refs_.clear();
    const Sizes& z = config_.sizes;
    refs_.push_back(MakeOpic(z, kReferenceSeed));
    refs_.push_back(MakeUniform(z.uniform_rows, z.uniform_attrs,
                                z.uniform_cardinality, 0.0, kReferenceSeed));
    service_ = std::make_unique<ProfilingService>(ServiceOptions());
    LoadTables();
    // Warm-up: one untimed re-profile of each table.
    OpResult warm = RunOp(-1, nullptr);
    if (warm.failed) throw std::runtime_error("warm-up: " + warm.failure);
  }

  // One op re-profiles both tables, back to back.
  OpResult RunOp(int index, OpTrace* trace) override {
    OpResult r;
    for (size_t i = 0; i < tables_.size(); ++i) {
      Entry& e = tables_[i];
      const ServiceMetrics::Snapshot m0 = service_->Metrics();
      const TreeArtifactCache::Stats c0 = service_->tree_cache()->GetStats();
      const double t0 = NowSeconds();
      ProfileOutcome out =
          service_->Wait(service_->SubmitTable(e.name, &e.table, job_));
      const double t1 = NowSeconds();
      const ServiceMetrics::Snapshot m1 = service_->Metrics();
      const TreeArtifactCache::Stats c1 = service_->tree_cache()->GetStats();
      if (out.cache_hit) {
        throw GuardError("warm_reprofile: catalog hit on a forced re-profile");
      }
      r.wall += t1 - t0;
      r.rows += e.table.num_rows();
      if (out.info.state != JobState::kSucceeded) {
        Fail(&r, "job did not succeed: " + out.info.error);
      }
      if (index >= 0 && index == config_.corrupt_op && i == 0) {
        Corrupt(&out.result);
      }
      if (ReportString(out.result) != e.cold_report) {
        Fail(&r, "warm report differs from the cold report of " + e.name);
      }
      r.counts["tree_cells"] += out.result.stats.base_tree_cells;
      r.counts["keys"] += static_cast<int64_t>(out.result.keys.size());

      if (trace == nullptr) continue;
      TraceJob(out, StageDelta(m0, m1), t0, t1, trace);
      AddCacheDeltas(c0, c1, trace);
      // Replay what the job did: lease the tree it was served, or rebuild
      // when it missed.
      TreeArtifactCache::Lease lease;
      if (out.tree_cache_hit) {
        lease = service_->tree_cache()->Acquire(MakeTreeCacheKey(
            e.fingerprint, e.table.num_columns(), job_.gordian));
      }
      const KeyDiscoveryResult replay =
          ReplayJob(e.table, job_.gordian,
                    lease.valid() ? lease.frozen() : nullptr, trace, &r);
      if (ReportString(replay) != e.cold_report) {
        Fail(&r, "serial replay report differs from the job's");
      }
    }
    if (trace != nullptr) {
      std::vector<CachedTable> cached;
      for (const Entry& e : tables_) {
        cached.push_back({e.fingerprint, e.table.num_columns(),
                          e.table.num_rows()});
      }
      trace->Set("tree_cache.bytes_per_code_byte",
                 BytesPerCodeByte(*service_->tree_cache(), cached,
                                  job_.gordian));
    }
    return r;
  }

  std::map<std::string, std::string> Metadata() const override {
    return {{"traversal_threads", std::to_string(config_.threads)},
            {"service_threads", std::to_string(config_.threads)},
            {"tree_cache_bytes",
             std::to_string(TreeArtifactCache::kDefaultByteBudget)},
            {"use_catalog", "false"},
            {"use_tree_cache", "true"}};
  }

 private:
  struct Entry {
    std::string name;
    Table table;
    std::string cold_report;
    uint64_t fingerprint = 0;
  };

  // Untimed: ingests the seed's copy of each reference table and profiles
  // it cold, which puts both trees in the tree cache. The copies' reports
  // must pass VerifyResult.
  void LoadTables() {
    const char* names[2] = {"opic", "uniform"};
    ProfileJobOptions cold = job_;
    cold.use_catalog = true;
    tables_.reserve(refs_.size());
    for (size_t i = 0; i < refs_.size(); ++i) {
      const Isomorph iso(refs_[i], DeriveSeed(config_.seed, i, 0), true);
      Entry& e = tables_.emplace_back();
      e.name = names[i];
      e.table = Ingest(refs_[i].schema(), iso.Batches(0, refs_[i].num_rows()));
      ProfileOutcome out =
          service_->Wait(service_->SubmitTable(e.name, &e.table, cold));
      if (out.info.state != JobState::kSucceeded || out.result.incomplete) {
        throw std::runtime_error("warm_reprofile: cold profile of " + e.name +
                                 " failed");
      }
      if (!VerifyResult(e.table, out.result).ok) {
        throw std::runtime_error("warm_reprofile: VerifyResult failed for " +
                                 e.name);
      }
      e.cold_report = ReportString(out.result);
      e.fingerprint = out.fingerprint;
    }
  }

  WorkloadConfig config_;
  ProfileJobOptions job_;
  std::unique_ptr<ProfilingService> service_;
  std::vector<Table> refs_;
  std::vector<Entry> tables_;
};

// --- append_stream -------------------------------------------------------------

// AppendAndReprofile of successive distinct deltas onto a registered base:
// the tree cache's write path (absorb, re-freeze, warm-start traversal).
// The chain restarts from the base every `append_cycle_ops` appends, so
// every run sees the same cycle of table sizes whatever its op count.
class AppendStream : public Workload {
 public:
  explicit AppendStream(const WorkloadConfig& config) : config_(config) {
    chain_options_ = JobGordianOptions(config.threads);
  }

  std::string name() const override { return "append_stream"; }
  int basis_ops() const override { return 40; }

  void Setup() override {
    const Sizes& z = config_.sizes;
    const int64_t total = z.append_base_rows +
                          z.append_cycle_ops * z.append_delta_rows;
    // One generation covers base and deltas, so every row is distinct. The
    // copy shuffles rows only within the base and within each delta, so
    // each prefix of the chain holds the same rows as the reference's.
    const Table all = MakeUniform(total, z.uniform_attrs,
                                  z.uniform_cardinality, z.append_theta,
                                  kReferenceSeed);
    const Isomorph iso(all, DeriveSeed(config_.seed, 2, 0), true);
    schema_ = all.schema();
    base_batches_ = iso.Batches(0, z.append_base_rows);
    deltas_.clear();
    for (int k = 0; k < z.append_cycle_ops; ++k) {
      const int64_t b = z.append_base_rows + k * z.append_delta_rows;
      std::vector<RowBatch> d = iso.Batches(b, b + z.append_delta_rows);
      if (d.size() != 1) throw std::runtime_error("delta spans two batches");
      deltas_.push_back(std::move(d.front()));
    }
    base_ = Ingest(schema_, base_batches_);
    // Warm-up: one untimed append, then the timed loop starts on a fresh
    // chain.
    StartChain();
    const OpResult warm = RunOp(-1, nullptr);
    if (warm.failed) throw std::runtime_error("warm-up: " + warm.failure);
    StartChain();
  }

  OpResult RunOp(int index, OpTrace* trace) override {
    if (chain_ops_ == config_.sizes.append_cycle_ops) StartChain();
    OpResult r;
    const RowBatch& delta = deltas_[static_cast<size_t>(chain_ops_)];
    const TreeArtifactCache::Stats c0 = service_->tree_cache()->GetStats();
    AppendOutcome out;
    const double t0 = NowSeconds();
    const Status s = service_->AppendAndReprofile(head_, delta, &out);
    const double t1 = NowSeconds();
    const TreeArtifactCache::Stats c1 = service_->tree_cache()->GetStats();
    ++chain_ops_;
    r.wall = t1 - t0;
    r.rows = delta.num_rows();
    if (!s.ok()) {
      Fail(&r, "AppendAndReprofile: " + s.ToString());
      return r;
    }
    head_ = out.fingerprint;
    const GordianStats& st = out.result.stats;
    if (out.result.incomplete) Fail(&r, "incomplete result");
    if (index >= 0 && index == config_.corrupt_op) Corrupt(&out.result);
    // Cheap per-op check: the keys are exactly the conversion of the
    // reported non-keys. The full check runs at the end of the chain.
    std::vector<AttributeSet> expect =
        NonKeysToKeys(out.result.non_keys, schema_.num_columns());
    if (expect != out.result.KeySets()) {
      Fail(&r, "keys are not the conversion of the reported non-keys");
    }
    last_report_ = ReportString(out.result);
    r.counts["tree_cells"] += st.base_tree_cells;
    r.counts["keys"] += static_cast<int64_t>(out.result.keys.size());

    if (config_.trace) {
      // The mirror follows every append, traced or not, so it stays in step
      // with the service's chain.
      const KeyDiscoveryResult replay = ReplayAppend(delta, trace, &r);
      if (ReportString(replay) != last_report_) {
        Fail(&r, "serial replay report differs from the append's");
      }
    }
    if (trace != nullptr) {
      const double traverse = st.find_seconds;
      const double refreeze = out.refreeze_seconds;
      const double convert = st.convert_seconds;
      const double absorb = r.wall - traverse - refreeze - convert;
      trace->ProgramLeaves(t0, {{"append.absorb (derived)", absorb},
                                {"append.refreeze", refreeze},
                                {"core.traverse", traverse},
                                {"core.convert", convert}});
      trace->Add("append.absorb_s", absorb);
      trace->Add("append.refreeze_s", refreeze);
      trace->Add("append.traverse_s", traverse);
      trace->Add("core.traverse_s", traverse);
      trace->Add("core.convert_s", convert);
      trace->Add("core.freeze_s", refreeze);
      trace->Set("append.absorbed_ratio", out.tree_absorbed ? 1 : 0);
      if (st.futility_prunes > 0) {
        trace->Set("append.warm_start_prune_ratio",
                   static_cast<double>(st.warm_start_prunes) /
                       static_cast<double>(st.futility_prunes));
      }
      AddTraversalCounts(st, trace);
      AddCacheDeltas(c0, c1, trace);
      trace->Set("tree_cache.bytes_per_code_byte",
                 BytesPerCodeByte(*service_->tree_cache(),
                                  {{head_, schema_.num_columns(),
                                    base_.num_rows() +
                                        chain_ops_ * delta.num_rows()}},
                                  chain_options_));
    }
    if (chain_ops_ == config_.sizes.append_cycle_ops) {
      const std::string err = CheckChain();
      if (!err.empty()) Fail(&r, err);
    }
    return r;
  }

  std::string EndLoop() override {
    // A chain the ops ended inside of is checked here; a finished cycle
    // was already checked by its last op. The timed loop, which follows
    // the memory probes, then starts on a fresh chain, like the probes,
    // which start on the one set-up leaves.
    std::string err;
    if (chain_ops_ != 0 && chain_ops_ != config_.sizes.append_cycle_ops) {
      err = CheckChain();
    }
    StartChain();
    return err;
  }

  std::map<std::string, std::string> Metadata() const override {
    const Sizes& z = config_.sizes;
    return {{"traversal_threads", std::to_string(config_.threads)},
            {"service_threads", std::to_string(config_.threads)},
            {"tree_cache_bytes",
             std::to_string(TreeArtifactCache::kDefaultByteBudget)},
            {"base", std::to_string(z.append_base_rows) + "x" +
                         std::to_string(z.uniform_attrs) + " card " +
                         std::to_string(z.uniform_cardinality) + " theta " +
                         std::to_string(z.append_theta)},
            {"delta_rows", std::to_string(z.append_delta_rows)},
            {"cycle_ops", std::to_string(z.append_cycle_ops)}};
  }

 private:
  // A fresh service with the base registered as a new chain.
  void StartChain() {
    service_.reset();
    service_ = std::make_unique<ProfilingService>(ServiceOptions());
    const Status s = service_->RegisterAppendable("append_base", base_,
                                                  chain_options_, &head_);
    if (!s.ok()) throw std::runtime_error("RegisterAppendable: " + s.ToString());
    chain_ops_ = 0;
    if (config_.trace) StartMirror();
  }

  // The traced run's replay twin of the chain: its own AppendState and
  // prefix tree, driven through the same public calls the service makes.
  void StartMirror() {
    mirror_state_ = AppendState();
    if (!AppendState::Begin(base_, &mirror_state_).ok()) {
      throw std::runtime_error("AppendState::Begin failed");
    }
    ProfileContext ctx;
    ctx.input = &base_;
    ctx.options = chain_options_;
    (void)EncodeStage().Run(&ctx);
    mirror_tree_ = std::make_unique<PrefixTree>(
        PrefixTree::Build(base_, ctx.attr_order, chain_options_.tree_build));
    CatalogEntry entry;
    if (!service_->catalog().Lookup(head_, &entry)) {
      throw std::runtime_error("base profile missing from the catalog");
    }
    mirror_non_keys_ = entry.result.non_keys;
  }

  KeyDiscoveryResult ReplayAppend(const RowBatch& delta, OpTrace* trace,
                                  OpResult* r) {
    OpTrace scratch;
    OpTrace* t = trace != nullptr ? trace : &scratch;
    const int64_t old_rows = mirror_state_.num_rows();
    double start = 0;
    double secs = Timed(&start, [&] { (void)mirror_state_.Absorb(delta); });
    t->Replay("replay.append.encode", start, secs);
    std::vector<const uint32_t*> level_codes;
    for (int l = 0; l < mirror_tree_->num_levels(); ++l) {
      level_codes.push_back(
          mirror_state_.codes(mirror_tree_->attribute_at_level(l)).data() +
          old_rows);
    }
    secs = Timed(&start, [&] {
      (void)mirror_tree_->AbsorbBatch(level_codes, delta.num_rows());
    });
    t->Replay("replay.append.tree_absorb", start, secs);
    std::unique_ptr<FrozenTree> frozen;
    secs = Timed(&start, [&] { frozen = FrozenTree::Freeze(*mirror_tree_); });
    t->Replay("replay.freeze", start, secs);
    KeyDiscoveryResult result =
        ReplayTraversal(*frozen, chain_options_, schema_.num_columns(),
                        &mirror_non_keys_, trace, r);
    mirror_non_keys_ = result.non_keys;
    if (mirror_state_.fingerprint() != head_) {
      Fail(r, "mirror fingerprint differs from the chain head");
    }
    return result;
  }

  // The chain's last report against FindKeys on base + every delta so far.
  std::string CheckChain() {
    TableBuilder builder(schema_);
    for (const RowBatch& b : base_batches_) builder.AddBatch(b);
    for (int k = 0; k < chain_ops_; ++k) {
      builder.AddBatch(deltas_[static_cast<size_t>(k)]);
    }
    const Table concat = builder.Build();
    const KeyDiscoveryResult full = FindKeys(concat, chain_options_);
    if (ReportString(full) != last_report_) {
      return "append chain report differs from FindKeys on the "
             "concatenated table";
    }
    return "";
  }

  WorkloadConfig config_;
  GordianOptions chain_options_;
  Schema schema_;
  std::vector<RowBatch> base_batches_;
  std::vector<RowBatch> deltas_;
  Table base_;
  std::unique_ptr<ProfilingService> service_;
  uint64_t head_ = 0;
  int chain_ops_ = 0;
  std::string last_report_;
  AppendState mirror_state_;
  std::unique_ptr<PrefixTree> mirror_tree_;
  std::vector<AttributeSet> mirror_non_keys_;
};

// --- schema_profile --------------------------------------------------------

// SchemaProfiler over a small tpch_lite schema with a fresh service per op:
// the only workload that reaches FD and FK discovery.
class SchemaProfile : public Workload {
 public:
  explicit SchemaProfile(const WorkloadConfig& config) : config_(config) {
    options_.job.gordian = JobGordianOptions(config.threads);
    // The floors bench_schema uses for full recall on tpch_lite: region
    // has 5 rows, and a real FK can touch a small share of its key domain.
    options_.fk.min_distinct_values = 5;
    options_.fk.min_referenced_coverage = 0.05;
  }

  std::string name() const override { return "schema_profile"; }
  int basis_ops() const override { return 40; }

  void Setup() override {
    // Row order only: relabeling values would break the inclusion
    // dependencies between tables that FK discovery must find.
    tables_ = GenerateTpchLite(config_.sizes.tpch_scale, kReferenceSeed);
    for (size_t i = 0; i < tables_.size(); ++i) {
      Table& t = tables_[i].table;
      const Isomorph iso(t, DeriveSeed(config_.seed, 3, i), false);
      t = Ingest(t.schema(), iso.Batches(0, t.num_rows()));
    }
    inputs_.clear();
    rows_ = 0;
    for (const NamedTable& t : tables_) {
      inputs_.push_back({t.name, &t.table});
      rows_ += t.table.num_rows();
    }
    truth_ = TpchLiteForeignKeys();
    OpResult warm = RunOp(-1, nullptr);
    if (warm.failed) throw std::runtime_error("warm-up: " + warm.failure);
  }

  OpResult RunOp(int index, OpTrace* trace) override {
    OpResult r;
    ServiceOptions so;
    so.num_threads = config_.threads;
    auto service = std::make_unique<ProfilingService>(so);
    SchemaProfiler profiler(service.get());
    SchemaReport report;
    const double t0 = NowSeconds();
    const Status s = profiler.Profile(inputs_, options_, &report);
    const double t1 = NowSeconds();
    r.wall = t1 - t0;
    r.rows = rows_;
    if (!s.ok()) Fail(&r, "SchemaProfiler::Profile: " + s.ToString());
    if (report.tables.size() != tables_.size()) {
      Fail(&r, "report lists the wrong number of tables");
      return r;
    }
    for (size_t i = 0; i < report.tables.size(); ++i) {
      SchemaReport::TableEntry& e = report.tables[i];
      if (e.result.incomplete) Fail(&r, "incomplete result for " + e.name);
      if (index >= 0 && index == config_.corrupt_op && i == 0) {
        Corrupt(&e.result);
      }
      if (!VerifyResult(*e.table, e.result).ok) {
        Fail(&r, "VerifyResult failed for " + e.name);
      }
      r.counts["keys"] += static_cast<int64_t>(e.result.keys.size());
      r.counts["fds"] += static_cast<int64_t>(e.fds.size());
      r.counts["tree_cells"] += e.result.stats.base_tree_cells;
    }
    r.counts["fks"] += static_cast<int64_t>(report.foreign_keys.size());
    const double recall = Recall(report);
    if (recall != 1.0) Fail(&r, "foreign-key recall below 1.0");

    if (trace != nullptr) {
      trace->ProgramLeaves(t0, {{"schema.keys", report.key_seconds},
                                {"schema.fd", report.fd_seconds},
                                {"schema.fk", report.fk_seconds}});
      trace->Add("schema.keys_s", report.key_seconds);
      trace->Add("schema.fd_s", report.fd_seconds);
      trace->Add("schema.fk_s", report.fk_seconds);
      trace->Set("schema.fk_recall", recall);
      // Stage seconds of the table jobs, summed over jobs that ran
      // concurrently: program-reported, and not leaves of the op wall.
      const ServiceMetrics::Snapshot m = service->Metrics();
      trace->Add("core.encode_s", m.stage_seconds[0]);
      trace->Add("core.traverse_s", m.stage_seconds[2]);
      trace->Add("core.convert_s", m.stage_seconds[3]);
      trace->Add("core.validate_s", m.stage_seconds[4]);
      std::vector<CachedTable> cached;
      for (const SchemaReport::TableEntry& e : report.tables) {
        AddTraversalCounts(e.result.stats, trace);
        cached.push_back(
            {e.fingerprint, e.table->num_columns(), e.table->num_rows()});
        if (!e.tree_cache_hit) {
          trace->Add("core.tree_build_s", e.result.stats.build_seconds);
        }
        trace->Add("core.freeze_s", e.result.stats.freeze_seconds);
      }
      AddCacheDeltas(TreeArtifactCache::Stats(),
                     service->tree_cache()->GetStats(), trace);
      trace->Set("tree_cache.bytes_per_code_byte",
                 BytesPerCodeByte(*service->tree_cache(), cached,
                                  options_.job.gordian));
      ReplaySchema(report, trace, &r);
    }
    service.reset();
    return r;
  }

  std::map<std::string, std::string> Metadata() const override {
    char scale[32];
    std::snprintf(scale, sizeof(scale), "%g", config_.sizes.tpch_scale);
    return {{"traversal_threads", std::to_string(config_.threads)},
            {"service_threads", std::to_string(config_.threads)},
            {"tree_cache_bytes",
             std::to_string(TreeArtifactCache::kDefaultByteBudget)},
            {"tpch_scale", scale},
            {"tables", std::to_string(tables_.size())}};
  }

 private:
  // Name-based match of a discovered candidate against one ground-truth FK.
  static bool Matches(const SchemaGroundTruthFk& truth,
                      const ForeignKeyCandidate& fk,
                      const std::vector<ProfiledTable>& tables) {
    const ProfiledTable& from = tables[fk.referencing_table];
    const ProfiledTable& to = tables[fk.referenced_table];
    if (from.name != truth.referencing_table ||
        to.name != truth.referenced_table ||
        fk.foreign_key_columns.size() != truth.foreign_key_columns.size()) {
      return false;
    }
    std::vector<int> key_cols;
    fk.referenced_key.ForEach([&](int a) { key_cols.push_back(a); });
    if (key_cols.size() != truth.referenced_key_columns.size()) return false;
    for (size_t i = 0; i < key_cols.size(); ++i) {
      if (from.table->schema().name(fk.foreign_key_columns[i]) !=
              truth.foreign_key_columns[i] ||
          to.table->schema().name(key_cols[i]) !=
              truth.referenced_key_columns[i]) {
        return false;
      }
    }
    return true;
  }

  double Recall(const SchemaReport& report) const {
    const std::vector<ProfiledTable> tables = report.AsProfiledTables();
    int found = 0;
    for (const SchemaGroundTruthFk& t : truth_) {
      for (const ForeignKeyCandidate& fk : report.foreign_keys) {
        if (Matches(t, fk, tables)) {
          ++found;
          break;
        }
      }
    }
    return truth_.empty() ? 1.0
                          : static_cast<double>(found) /
                                static_cast<double>(truth_.size());
  }

  static std::string FdString(const std::vector<FdCandidate>& fds) {
    std::string s;
    for (const FdCandidate& f : fds) {
      s += f.lhs.ToString() + "->" + std::to_string(f.rhs) + "/" +
           std::to_string(f.lhs_distinct) + " ";
    }
    return s;
  }

  static std::string FkString(const std::vector<ForeignKeyCandidate>& fks) {
    std::string s;
    char buf[96];
    for (const ForeignKeyCandidate& fk : fks) {
      s += std::to_string(fk.referencing_table) + "[";
      for (int c : fk.foreign_key_columns) s += std::to_string(c) + ",";
      std::snprintf(buf, sizeof(buf), "]->%d%s %.12f %.12f %lld\n",
                    fk.referenced_table, fk.referenced_key.ToString().c_str(),
                    fk.coverage, fk.referenced_coverage,
                    static_cast<long long>(fk.distinct_fk_tuples));
      s += buf;
    }
    return s;
  }

  // Serial replay of the FD and FK stages through DiscoverFds and
  // DiscoverForeignKeys; both must reproduce the report.
  void ReplaySchema(const SchemaReport& report, OpTrace* trace, OpResult* r) {
    double start = 0;
    double fd_total = 0;
    for (const SchemaReport::TableEntry& e : report.tables) {
      std::vector<FdCandidate> fds;
      const double secs = Timed(
          &start, [&] { fds = DiscoverFds(*e.table, e.result, options_.fd); });
      trace->Replay("replay.DiscoverFds " + e.name, start, secs);
      fd_total += secs;
      if (FdString(fds) != FdString(e.fds)) {
        Fail(r, "DiscoverFds replay differs for " + e.name);
      }
    }
    trace->Add("schema.fd_replay_s", fd_total);
    std::vector<ForeignKeyCandidate> fks;
    const std::vector<ProfiledTable> profiled = report.AsProfiledTables();
    const double secs = Timed(
        &start, [&] { fks = DiscoverForeignKeys(profiled, options_.fk); });
    trace->Replay("replay.DiscoverForeignKeys", start, secs);
    trace->Add("schema.fk_replay_s", secs);
    if (FkString(fks) != FkString(report.foreign_keys)) {
      Fail(r, "DiscoverForeignKeys replay differs from the report");
    }
  }

  WorkloadConfig config_;
  SchemaProfileOptions options_;
  std::vector<NamedTable> tables_;
  std::vector<std::pair<std::string, const Table*>> inputs_;
  std::vector<SchemaGroundTruthFk> truth_;
  int64_t rows_ = 0;
};

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"cold_profile", "warm_reprofile", "append_stream", "schema_profile"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadConfig& config) {
  if (name == "cold_profile") return std::make_unique<ColdProfile>(config);
  if (name == "warm_reprofile") return std::make_unique<WarmReprofile>(config);
  if (name == "append_stream") return std::make_unique<AppendStream>(config);
  if (name == "schema_profile") return std::make_unique<SchemaProfile>(config);
  return nullptr;
}

}  // namespace perfbench
