#include "core/pipeline.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <numeric>

#include "common/random.h"
#include "common/stopwatch.h"
#include "core/key_conversion.h"
#include "core/non_key_set.h"
#include "core/parallel_finder.h"
#include "core/strength.h"

namespace gordian {

namespace {

// GORDIAN_THREADS engages the parallel traversal for callers that leave
// GordianOptions::traversal_threads at 0 (CI runs the whole suite this way).
// Read once: discovery may run on many threads and getenv is not reliably
// safe against concurrent environment mutation.
int EnvTraversalThreads() {
  static const int cached = [] {
    const char* s = std::getenv("GORDIAN_THREADS");
    if (s == nullptr || *s == '\0') return 0;
    const int v = std::atoi(s);
    return v > 0 ? v : 0;
  }();
  return cached;
}

std::vector<int> ComputeAttributeOrder(const Table& table,
                                       const GordianOptions& options) {
  const int d = table.num_columns();
  std::vector<int> order(d);
  std::iota(order.begin(), order.end(), 0);
  switch (options.attribute_order) {
    case GordianOptions::AttributeOrder::kSchema:
      break;
    case GordianOptions::AttributeOrder::kCardinalityDesc:
      std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return table.ColumnCardinality(a) > table.ColumnCardinality(b);
      });
      break;
    case GordianOptions::AttributeOrder::kCardinalityAsc:
      std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return table.ColumnCardinality(a) < table.ColumnCardinality(b);
      });
      break;
    case GordianOptions::AttributeOrder::kRandom: {
      Random rng(options.order_seed);
      for (int i = d - 1; i > 0; --i) {
        std::swap(order[i],
                  order[rng.Uniform(static_cast<uint64_t>(i) + 1)]);
      }
      break;
    }
  }
  return order;
}

}  // namespace

// A spilled column answers from its per-chunk null stats (no data scan); a
// resident column scans until the first null.
std::vector<int> NullableColumns(const Table& table) {
  std::vector<int> nullable;
  for (int c = 0; c < table.num_columns(); ++c) {
    uint32_t null_code = table.dictionary(c).Lookup(Value::Null());
    if (null_code == UINT32_MAX) continue;
    const CodeColumn& codes = table.column_codes(c);
    if (codes.spilled()
            ? codes.CountEqual(null_code) > 0
            : std::find(codes.begin(), codes.end(), null_code) != codes.end()) {
      nullable.push_back(c);
    }
  }
  return nullable;
}

int ResolveTraversalThreads(const GordianOptions& options) {
  int threads = options.traversal_threads;
  if (threads == 0) threads = EnvTraversalThreads();
  if (threads < 0) threads = 0;  // explicit "force serial"
  return threads;
}

Status EncodeStage::Run(ProfileContext* ctx) {
  const Table& table = *ctx->input;
  const int d = table.num_columns();
  ctx->result.stats.num_attributes = d;
  if (d == 0) {
    ctx->finished = true;
    return Status::OK();
  }

  // SQL-style null handling: bar nullable columns from the search entirely,
  // then lift the results of the projection back to original positions. The
  // projection is profiled by a nested session running the same stages.
  if (ctx->options.null_semantics ==
      GordianOptions::NullSemantics::kExcludeNullableColumns) {
    std::vector<int> nullable = NullableColumns(table);
    if (!nullable.empty()) {
      std::vector<int> kept;
      for (int c = 0; c < d; ++c) {
        if (!std::binary_search(nullable.begin(), nullable.end(), c)) {
          kept.push_back(c);
        }
      }
      if (kept.empty()) {  // nothing can be a key
        ctx->finished = true;
        return Status::OK();
      }
      GordianOptions inner = ctx->options;
      inner.null_semantics = GordianOptions::NullSemantics::kNullEqualsNull;
      Table projected_table = table.SelectColumns(kept);
      ProfileSession nested(inner);
      KeyDiscoveryResult projected;
      Status s = nested.Run(projected_table, &projected);
      if (!s.ok()) return s;
      auto remap = [&](const AttributeSet& attrs) {
        AttributeSet out;
        attrs.ForEach([&](int a) { out.Set(kept[a]); });
        return out;
      };
      for (DiscoveredKey& k : projected.keys) k.attrs = remap(k.attrs);
      for (AttributeSet& nk : projected.non_keys) nk = remap(nk);
      projected.stats.num_attributes = d;
      ctx->result = std::move(projected);
      ctx->finished = true;
      return Status::OK();
    }
  }

  // Optional sampling phase (Section 3.9).
  ctx->data = &table;
  if (ctx->options.sample_rows > 0 &&
      ctx->options.sample_rows < table.num_rows()) {
    ctx->sample_storage =
        table.SampleRows(ctx->options.sample_rows, ctx->options.sample_seed);
    ctx->data = &ctx->sample_storage;
    ctx->result.sampled = true;
  }
  ctx->result.stats.rows_processed = ctx->data->num_rows();

  if (ctx->Cancelled()) {
    ctx->result.incomplete = true;
    ctx->result.incomplete_reason = AbortReason::kCancelled;
    ctx->finished = true;
    return Status::OK();
  }

  ctx->attr_order = ComputeAttributeOrder(*ctx->data, ctx->options);
  return Status::OK();
}

namespace {

// Bytes of the tree artifacts this run holds: the pointer tree's pool when
// it built one, plus the frozen layout.
int64_t TreeBytes(const ProfileContext& ctx) {
  int64_t bytes = ctx.frozen->ApproxBytes();
  if (ctx.owned_tree != nullptr) bytes += ctx.owned_tree->pool().peak_bytes();
  return bytes;
}

// Algorithm 2: builds the prefix tree and freezes it — the tree is never
// mutated again (traversal only touches reference counts), so this is where
// freezing pays. An injected frozen tree skips both. Then the duplicate-
// entity and cancellation checks, which conclude the run.
void BuildTree(ProfileContext* ctx) {
  GordianStats& stats = ctx->result.stats;
  if (ctx->frozen != nullptr) {
    // Built from identical data under identical options, so it is the tree
    // this stage would have produced; assert the level order agrees.
    assert(ctx->frozen->attr_order() == ctx->attr_order &&
           "injected tree was built under a different attribute order");
  } else {
    Stopwatch watch;
    ctx->owned_tree = std::make_unique<PrefixTree>(PrefixTree::Build(
        *ctx->data, ctx->attr_order, ctx->options.tree_build));
    stats.build_seconds = watch.ElapsedSeconds();
    watch.Restart();
    ctx->owned_frozen = FrozenTree::Freeze(*ctx->owned_tree);
    ctx->frozen = ctx->owned_frozen.get();
    stats.freeze_seconds = watch.ElapsedSeconds();
  }
  const FrozenTree& tree = *ctx->frozen;
  stats.base_tree_nodes = tree.node_count();
  stats.base_tree_cells = tree.cell_count();
  stats.frozen_tree_bytes = tree.ApproxBytes();

  if (tree.HasDuplicateEntities()) {
    // Algorithm 2, lines 17-18: a repeated entity means no key exists.
    ctx->result.no_keys = true;
    ctx->result.non_keys.push_back(
        AttributeSet::FirstN(static_cast<int>(stats.num_attributes)));
    stats.peak_memory_bytes = TreeBytes(*ctx);
    ctx->finished = true;
  } else if (ctx->Cancelled()) {
    ctx->result.incomplete = true;
    ctx->result.incomplete_reason = AbortReason::kCancelled;
    stats.peak_memory_bytes = TreeBytes(*ctx);
    ctx->finished = true;
  }
}

// Algorithm 4 over the frozen tree: fanned across the resolved thread count
// when the root has >= 2 top-level slices (docs/parallel.md), serially
// otherwise. Both end in the canonical non-key order, so downstream stages
// (and reports) cannot tell them apart. A partial non-key set cannot
// certify keys, so an aborted traversal concludes the run.
void Traverse(ProfileContext* ctx) {
  Stopwatch watch;
  KeyDiscoveryResult& result = ctx->result;
  FrozenTree& tree = *ctx->frozen;
  const int threads = ResolveTraversalThreads(ctx->options);
  int64_t scratch_bytes = 0;
  if (threads >= 1 && tree.num_levels() >= 2 &&
      tree.level(0).num_cells() >= 2) {
    NonKeySet merged(nullptr);
    ++result.stats.nodes_visited;  // the root, visited once in serial mode
    ParallelTraversalResult pr = ParallelFindNonKeys(
        tree, ctx->options, threads, &merged, &result.stats, &ctx->merge_pool);
    result.incomplete = pr.aborted;
    result.incomplete_reason = pr.reason;
    result.stats.traversal_threads_used = pr.threads_used;
    result.stats.final_non_keys = merged.size();
    result.non_keys = merged.CanonicalNonKeys();
    scratch_bytes = pr.worker_pool_peak_bytes + merged.ApproxBytes();
  } else {
    NonKeySet non_key_set(&result.stats);
    // Warm start (incremental re-profiles): the prior run's non-keys are
    // genuine non-keys of the appended table, so they seed the working set
    // — keeping the final antichain complete — and double as a read-only
    // cover the futility test consults first, pruning settled regions.
    const std::vector<AttributeSet>* warm_seeds =
        ctx->options.warm_start_non_keys;
    const bool warm = warm_seeds != nullptr && !warm_seeds->empty();
    NonKeySet warm_set(nullptr);
    if (warm) {
      for (const AttributeSet& nk : *warm_seeds) {
        warm_set.Insert(nk);
        non_key_set.Insert(nk);
      }
      result.stats.warm_start_seeds += static_cast<int64_t>(warm_seeds->size());
    }
    FrozenNonKeyFinder finder(tree, ctx->options, &non_key_set, &result.stats);
    finder.SetMergePool(&ctx->merge_pool);
    if (warm) finder.SetWarmCover(&warm_set);
    result.incomplete = !finder.Run();
    result.incomplete_reason = finder.abort_reason();
    result.stats.final_non_keys = non_key_set.size();
    result.non_keys = non_key_set.CanonicalNonKeys();
    scratch_bytes = non_key_set.ApproxBytes();
  }
  result.stats.find_seconds = watch.ElapsedSeconds();
  result.stats.peak_memory_bytes =
      TreeBytes(*ctx) + ctx->merge_pool.peak_bytes() + scratch_bytes;
  if (result.incomplete) ctx->finished = true;
}

// Algorithm 6: maximal non-keys -> minimal keys.
void ConvertKeys(ProfileContext* ctx) {
  Stopwatch watch;
  std::vector<AttributeSet> keys =
      NonKeysToKeys(ctx->result.non_keys,
                    static_cast<int>(ctx->result.stats.num_attributes));
  ctx->result.stats.convert_seconds = watch.ElapsedSeconds();
  ctx->result.keys.reserve(keys.size());
  for (const AttributeSet& k : keys) {
    DiscoveredKey dk;
    dk.attrs = k;
    ctx->result.keys.push_back(dk);
  }
}

// Attaches strengths: exact 1.0 for full-data runs, the T(K) lower bound
// for sampled runs (Section 3.9).
void Validate(ProfileContext* ctx) {
  for (DiscoveredKey& k : ctx->result.keys) {
    k.estimated_strength =
        ctx->result.sampled ? EstimatedStrengthLowerBound(*ctx->data, k.attrs)
                            : 1.0;
    if (!ctx->result.sampled) k.exact_strength = 1.0;
  }
}

// Runs one stage and records its wall clock under `name`; the caller fills
// in the metric's bytes/rows (see StageMetric).
template <typename Body>
StageMetric& RunStage(const char* name, std::vector<StageMetric>* metrics,
                      const Body& body) {
  Stopwatch watch;
  body();
  metrics->push_back(StageMetric{name, watch.ElapsedSeconds()});
  return metrics->back();
}

}  // namespace

void RunPostEncode(ProfileContext* ctx, std::vector<StageMetric>* metrics) {
  StageMetric& build = RunStage("tree_build", metrics, [&] { BuildTree(ctx); });
  build.bytes = TreeBytes(*ctx);
  if (ctx->finished) return;
  StageMetric& traverse = RunStage("traverse", metrics, [&] { Traverse(ctx); });
  traverse.bytes = ctx->result.stats.peak_memory_bytes;
  if (ctx->finished) return;
  RunStage("convert", metrics, [&] { ConvertKeys(ctx); });
  RunStage("validate", metrics, [&] { Validate(ctx); });
}

Status ProfileSession::Run(const Table& table, KeyDiscoveryResult* out) {
  ProfileContext ctx;
  ctx.input = &table;
  ctx.options = options_;
  ctx.frozen = shared_frozen_;
  shared_frozen_ = nullptr;  // one Run per injection
  metrics_.clear();

  Status status;
  auto encode_body = [&] { status = EncodeStage().Run(&ctx); };
  StageMetric& encode = RunStage("encode", &metrics_, encode_body);
  encode.rows = ctx.result.stats.rows_processed;
  if (ctx.result.sampled) encode.bytes = ctx.sample_storage.ApproxBytes();
  if (status.ok() && !ctx.finished) RunPostEncode(&ctx, &metrics_);

  built_tree_ = std::move(ctx.owned_tree);
  built_frozen_ = std::move(ctx.owned_frozen);
  *out = std::move(ctx.result);
  return status;
}

}  // namespace gordian
