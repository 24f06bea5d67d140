#include "core/incremental.h"

#include <utility>

#include "common/stopwatch.h"
#include "core/pipeline.h"
#include "table/column_chunk.h"

namespace gordian {

Status AppendState::Begin(const Table& base, AppendState* out) {
  AppendState s;
  s.schema_ = base.schema();
  const int d = base.num_columns();
  s.dicts_.reserve(static_cast<size_t>(d));
  s.codes_.reserve(static_cast<size_t>(d));
  for (int c = 0; c < d; ++c) {
    s.dicts_.push_back(std::make_shared<Dictionary>(base.dictionary(c)));
    // CodeColumn::data() is one contiguous array whether the column is
    // heap-resident or a spilled GRDL mapping, so a spilled base table
    // copies back through the page cache with no special casing.
    const CodeColumn& cc = base.column_codes(c);
    s.codes_.emplace_back(cc.data(), cc.data() + cc.size());
  }
  s.acc_ = FingerprintAccumulator::FromTable(base);
  s.num_rows_ = base.num_rows();
  *out = std::move(s);
  return Status::OK();
}

Status AppendState::Absorb(const RowBatch& batch) {
  const int d = num_columns();
  if (batch.num_columns() != d) {
    return Status::InvalidArgument(
        "append batch has " + std::to_string(batch.num_columns()) +
        " columns, table has " + std::to_string(d));
  }
  const int64_t n = batch.num_rows();
  if (n == 0) return Status::OK();
  // Column-at-a-time, each column in row order: the same first-seen code
  // assignment TableBuilder::AddBatch performs, so the accumulated state is
  // indistinguishable from building the concatenated table in one shot.
  for (int c = 0; c < d; ++c) {
    Dictionary& dict = *dicts_[static_cast<size_t>(c)];
    const ColumnChunk& chunk = batch.column(c);
    std::vector<uint32_t>& codes = codes_[static_cast<size_t>(c)];
    codes.reserve(codes.size() + static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      const uint32_t before = dict.size();
      uint32_t code;
      switch (chunk.type(i)) {
        case ValueType::kNull:
          code = dict.EncodeNull();
          break;
        case ValueType::kInt64:
          code = dict.Encode(chunk.int64_at(i));
          break;
        case ValueType::kDouble:
          code = dict.Encode(chunk.double_at(i));
          break;
        default:
          code = dict.Encode(chunk.string_at(i));
          break;
      }
      if (dict.size() != before) {
        acc_.AbsorbDictValue(c, dict.Decode(code).Hash());
      }
      acc_.AbsorbCode(c, code);
      codes.push_back(code);
    }
  }
  acc_.AddRows(n);
  num_rows_ += n;
  return Status::OK();
}

Table AppendState::Snapshot() const {
  std::vector<std::shared_ptr<Dictionary>> dicts;
  dicts.reserve(dicts_.size());
  for (const std::shared_ptr<Dictionary>& dp : dicts_) {
    dicts.push_back(std::make_shared<Dictionary>(*dp));
  }
  return Table::FromColumns(schema_, std::move(dicts), codes_);
}

Status ReprofileTree(const PrefixTree& tree, const GordianOptions& options,
                     int num_attributes, int64_t num_rows,
                     KeyDiscoveryResult* result) {
  if (options.sample_rows > 0) {
    return Status::InvalidArgument(
        "ReprofileTree: sampling requires the raw table");
  }
  if (options.null_semantics !=
      GordianOptions::NullSemantics::kNullEqualsNull) {
    return Status::InvalidArgument(
        "ReprofileTree: null projection requires the raw table");
  }
  // Hand-seeded context: everything EncodeStage would have produced is
  // already pinned by the tree (the data lives in it). Any prior frozen
  // artifact is stale after an absorb, so the tree is refrozen here and
  // injected; the post-encode stages then skip the build.
  ProfileContext ctx;
  ctx.options = options;
  ctx.attr_order = tree.attr_order();
  ctx.result.stats.num_attributes = num_attributes;
  ctx.result.stats.rows_processed = num_rows;
  Stopwatch freeze_watch;
  ctx.owned_frozen = FrozenTree::Freeze(tree);
  ctx.frozen = ctx.owned_frozen.get();
  ctx.result.stats.freeze_seconds = freeze_watch.ElapsedSeconds();
  std::vector<StageMetric> metrics;
  RunPostEncode(&ctx, &metrics);
  *result = std::move(ctx.result);
  return Status::OK();
}

Status IncrementalProfiler::Begin(const Table& base,
                                  const GordianOptions& options,
                                  IncrementalProfiler* out) {
  if (options.sample_rows > 0) {
    return Status::InvalidArgument(
        "incremental profiling does not support sampling: re-sampling after "
        "an append is not append-monotone");
  }
  if (options.null_semantics !=
      GordianOptions::NullSemantics::kNullEqualsNull) {
    return Status::InvalidArgument(
        "incremental profiling requires kNullEqualsNull semantics: the "
        "nullable-column projection can change with every batch");
  }
  IncrementalProfiler p;
  p.options_ = options;
  Status s = AppendState::Begin(base, &p.state_);
  if (!s.ok()) return s;
  ProfileSession session(options);
  s = session.Run(base, &p.report_);
  if (!s.ok()) return s;
  p.tree_ = session.TakeTree();
  if (p.tree_ != nullptr) p.tree_rows_ = base.num_rows();
  p.current_ = !p.report_.incomplete && p.tree_ != nullptr;
  if (p.current_) p.warm_seeds_ = p.report_.non_keys;
  *out = std::move(p);
  return Status::OK();
}

Status IncrementalProfiler::Append(const RowBatch& batch) {
  Status s = Absorb(batch);
  if (!s.ok()) return s;
  return Refresh();
}

Status IncrementalProfiler::Absorb(const RowBatch& batch) {
  Status s = state_.Absorb(batch);
  if (s.ok() && state_.num_rows() > tree_rows_) current_ = false;
  return s;
}

Status IncrementalProfiler::Refresh() {
  if (current_ && tree_rows_ == state_.num_rows()) return Status::OK();
  if (tree_ == nullptr) return RebuildFromScratch();

  if (tree_rows_ < state_.num_rows()) {
    std::vector<const uint32_t*> level_codes;
    level_codes.reserve(static_cast<size_t>(tree_->num_levels()));
    for (int l = 0; l < tree_->num_levels(); ++l) {
      level_codes.push_back(
          state_.codes(tree_->attribute_at_level(l)).data() + tree_rows_);
    }
    const int64_t pending = state_.num_rows() - tree_rows_;
    const int64_t absorbed =
        tree_->AbsorbBatch(level_codes, pending, options_.cancel_flag);
    tree_rows_ += absorbed;
    if (absorbed < pending) {
      // Cancelled mid-absorb. The tree is a valid prefix tree of the rows
      // absorbed so far; report that honestly and let the next Refresh
      // resume from tree_rows_.
      report_ = KeyDiscoveryResult{};
      report_.stats.num_attributes = state_.num_columns();
      report_.stats.rows_processed = tree_rows_;
      report_.incomplete = true;
      report_.incomplete_reason = AbortReason::kCancelled;
      current_ = false;
      return Status::OK();
    }
  }

  GordianOptions opts = options_;
  if (warm_enabled_ && !warm_seeds_.empty()) {
    opts.warm_start_non_keys = &warm_seeds_;
  }
  KeyDiscoveryResult result;
  Status s = ReprofileTree(*tree_, opts, state_.num_columns(),
                           state_.num_rows(), &result);
  if (!s.ok()) return s;
  report_ = std::move(result);
  current_ = !report_.incomplete;
  // Seeds only advance on complete runs: an aborted traversal's non-keys
  // are genuine but may cover less than the seeds already do.
  if (current_) warm_seeds_ = report_.non_keys;
  return Status::OK();
}

Status IncrementalProfiler::RebuildFromScratch() {
  Table snapshot = state_.Snapshot();
  GordianOptions opts = options_;
  if (warm_enabled_ && !warm_seeds_.empty()) {
    opts.warm_start_non_keys = &warm_seeds_;
  }
  ProfileSession session(opts);
  Status s = session.Run(snapshot, &report_);
  if (!s.ok()) return s;
  tree_ = session.TakeTree();
  tree_rows_ = tree_ != nullptr ? state_.num_rows() : 0;
  current_ = !report_.incomplete && tree_ != nullptr;
  if (current_) warm_seeds_ = report_.non_keys;
  return Status::OK();
}

Status IncrementalProfiler::SeedWarmStart(
    const std::vector<AttributeSet>& seeds) {
  const Table snapshot = state_.Snapshot();
  for (const AttributeSet& nk : seeds) {
    // A unique seed means the caller's "prior" state was NOT a prefix of
    // the current rows — non-keys cannot shrink under appends, so this is a
    // shrinking (or unrelated) delta. Pruning with it would silently drop
    // real keys; refuse instead.
    if (snapshot.IsUnique(nk)) {
      return Status::InvalidArgument(
          "warm-start seed " + nk.ToString() +
          " is unique in the current data; seeds must be genuine non-keys "
          "(appends never retract a non-key — was the table shrunk?)");
    }
  }
  warm_seeds_ = seeds;
  return Status::OK();
}

}  // namespace gordian
