#include "core/streaming.h"

#include <cassert>
#include <fstream>
#include <memory>
#include <utility>

#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "core/strength.h"

namespace gordian {

StreamingProfiler::StreamingProfiler(Schema schema, GordianOptions options,
                                     SpillPolicy spill)
    : options_(std::move(options)),
      schema_(schema),
      spill_(std::move(spill)),
      builder_(schema, spill_),
      reservoir_capacity_(options_.sample_rows),
      rng_(options_.sample_seed) {
  if (reservoir_capacity_ > 0) {
    reservoir_codes_.reserve(static_cast<size_t>(
        reservoir_capacity_ * schema_.num_columns()));
  }
  ResetReservoir();
}

void StreamingProfiler::ResetReservoir() {
  if (reservoir_capacity_ <= 0) return;
  const int d = schema_.num_columns();
  reservoir_rows_ = 0;
  reservoir_codes_.clear();
  reservoir_dicts_.clear();
  reservoir_dicts_.reserve(static_cast<size_t>(d));
  for (int c = 0; c < d; ++c) {
    reservoir_dicts_.push_back(std::make_shared<Dictionary>());
  }
  code_refs_.assign(static_cast<size_t>(d), {});
  live_codes_.assign(static_cast<size_t>(d), 0);
}

uint32_t StreamingProfiler::AcquireCode(int c, const Value& v) {
  uint32_t code = reservoir_dicts_[static_cast<size_t>(c)]->Encode(v);
  auto& refs = code_refs_[static_cast<size_t>(c)];
  if (code >= refs.size()) refs.resize(code + 1, 0);
  if (refs[code]++ == 0) ++live_codes_[static_cast<size_t>(c)];
  return code;
}

uint32_t StreamingProfiler::AcquireCode(int c, const ColumnChunk& chunk,
                                        int64_t i) {
  Dictionary& dict = *reservoir_dicts_[static_cast<size_t>(c)];
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
  auto& refs = code_refs_[static_cast<size_t>(c)];
  if (code >= refs.size()) refs.resize(code + 1, 0);
  if (refs[code]++ == 0) ++live_codes_[static_cast<size_t>(c)];
  return code;
}

void StreamingProfiler::ReleaseRow(int64_t slot) {
  const int d = schema_.num_columns();
  for (int c = 0; c < d; ++c) {
    uint32_t code = reservoir_codes_[static_cast<size_t>(slot * d + c)];
    if (--code_refs_[static_cast<size_t>(c)][code] == 0) {
      --live_codes_[static_cast<size_t>(c)];
    }
  }
}

void StreamingProfiler::MaybeCompactColumn(int c) {
  Dictionary& dict = *reservoir_dicts_[static_cast<size_t>(c)];
  const int64_t size = dict.size();
  // Compact only once the dictionary is big enough to matter and at least
  // half of it is dead — amortizes the O(live) rebuild against the evictions
  // that made it necessary.
  if (size < 1024) return;
  const int64_t dead = size - live_codes_[static_cast<size_t>(c)];
  if (dead * 2 < size) return;

  auto fresh = std::make_shared<Dictionary>();
  const auto& refs = code_refs_[static_cast<size_t>(c)];
  std::vector<uint32_t> remap(static_cast<size_t>(size), UINT32_MAX);
  std::vector<uint32_t> new_refs;
  new_refs.reserve(static_cast<size_t>(live_codes_[static_cast<size_t>(c)]));
  // Re-encode live values in old-code order: the fresh dictionary assigns
  // 0,1,2,... so new_refs lines up with the new code space.
  for (int64_t code = 0; code < size; ++code) {
    if (refs[static_cast<size_t>(code)] == 0) continue;
    remap[static_cast<size_t>(code)] =
        fresh->Encode(dict.Decode(static_cast<uint32_t>(code)));
    new_refs.push_back(refs[static_cast<size_t>(code)]);
  }
  const int d = schema_.num_columns();
  for (int64_t r = 0; r < reservoir_rows_; ++r) {
    uint32_t& cell = reservoir_codes_[static_cast<size_t>(r * d + c)];
    cell = remap[cell];
  }
  reservoir_dicts_[static_cast<size_t>(c)] = std::move(fresh);
  code_refs_[static_cast<size_t>(c)] = std::move(new_refs);
}

int64_t StreamingProfiler::ReservoirSlotForNextRow() {
  // Vitter's Algorithm R: keep the first k rows, then replace a random
  // reservoir slot with probability k / rows_seen. The draw sequence is
  // identical for the row and batch ingest paths.
  if (reservoir_rows_ < reservoir_capacity_) return reservoir_rows_;
  int64_t j =
      static_cast<int64_t>(rng_.Uniform(static_cast<uint64_t>(rows_seen_)));
  return j < reservoir_capacity_ ? j : -1;
}

void StreamingProfiler::AddRow(const std::vector<Value>& row) {
  ++rows_seen_;
  ++ingest_.rows;
  if (reservoir_capacity_ <= 0) {
    builder_.AddRow(row);
    return;
  }
  int64_t slot = ReservoirSlotForNextRow();
  if (slot < 0) return;
  const int d = schema_.num_columns();
  if (slot == reservoir_rows_) {
    ++reservoir_rows_;
    for (int c = 0; c < d; ++c) {
      reservoir_codes_.push_back(AcquireCode(c, row[c]));
    }
  } else {
    ReleaseRow(slot);
    for (int c = 0; c < d; ++c) {
      reservoir_codes_[static_cast<size_t>(slot * d + c)] =
          AcquireCode(c, row[c]);
    }
    for (int c = 0; c < d; ++c) MaybeCompactColumn(c);
  }
}

void StreamingProfiler::AddBatch(const RowBatch& batch) {
  const int d = schema_.num_columns();
  assert(batch.num_columns() == d);
  const int64_t n = batch.num_rows();
  // Counted here — at the public boundary — and nowhere else: the same
  // rows also flow through reservoir replacement below, and that internal
  // hop must not double-count.
  ++ingest_.batches;
  ingest_.rows += n;
  ingest_.bytes += batch.ByteSize();
  if (reservoir_capacity_ <= 0) {
    builder_.AddBatch(batch);
    rows_seen_ += n;
    return;
  }
  for (int64_t i = 0; i < n; ++i) {
    ++rows_seen_;
    int64_t slot = ReservoirSlotForNextRow();
    if (slot < 0) continue;
    if (slot == reservoir_rows_) {
      ++reservoir_rows_;
      for (int c = 0; c < d; ++c) {
        reservoir_codes_.push_back(AcquireCode(c, batch.column(c), i));
      }
    } else {
      ReleaseRow(slot);
      for (int c = 0; c < d; ++c) {
        reservoir_codes_[static_cast<size_t>(slot * d + c)] =
            AcquireCode(c, batch.column(c), i);
      }
      for (int c = 0; c < d; ++c) MaybeCompactColumn(c);
    }
  }
}

int64_t StreamingProfiler::ApproxBytes() const {
  int64_t b = builder_.ApproxBytes();
  b += static_cast<int64_t>(reservoir_codes_.capacity() * sizeof(uint32_t));
  for (const auto& dict : reservoir_dicts_) b += dict->ApproxBytes();
  for (const auto& refs : code_refs_) {
    b += static_cast<int64_t>(refs.capacity() * sizeof(uint32_t));
  }
  return b;
}

KeyDiscoveryResult StreamingProfiler::Finish() {
  KeyDiscoveryResult result;
  Status s = Finish(&result);
  assert(s.ok());
  (void)s;
  return result;
}

Status StreamingProfiler::Finish(KeyDiscoveryResult* out) {
  Table data;
  if (reservoir_capacity_ > 0) {
    // Hand the reservoir's dictionaries and code matrix to a Table without
    // re-encoding; codes need not be dense (compaction keeps them close).
    const int d = schema_.num_columns();
    std::vector<std::vector<uint32_t>> cols(static_cast<size_t>(d));
    for (int c = 0; c < d; ++c) {
      cols[static_cast<size_t>(c)].reserve(
          static_cast<size_t>(reservoir_rows_));
      for (int64_t r = 0; r < reservoir_rows_; ++r) {
        cols[static_cast<size_t>(c)].push_back(
            reservoir_codes_[static_cast<size_t>(r * d + c)]);
      }
    }
    data = Table::FromColumns(schema_, std::move(reservoir_dicts_),
                              std::move(cols));
  } else {
    Status s = builder_.Build(&data);
    if (!s.ok()) {
      // Unrecoverable spill loss; the builder reset itself, reset the rest
      // so the profiler stays reusable.
      ResetReservoir();
      rows_seen_ = 0;
      ingest_ = IngestStats{};
      rng_ = Random(options_.sample_seed);
      return s;
    }
  }

  // Discovery itself must not sample again: the reservoir already did. The
  // run is the same staged pipeline FindKeys composes (core/pipeline.h).
  GordianOptions discovery = options_;
  discovery.sample_rows = 0;
  ProfileSession session(discovery);
  (void)session.Run(data, out);
  // Mark sampled runs so callers know keys carry estimates, and compute the
  // estimates the facade would have attached.
  if (reservoir_capacity_ > 0 && rows_seen_ > reservoir_capacity_) {
    out->sampled = true;
    for (DiscoveredKey& k : out->keys) {
      k.estimated_strength = EstimatedStrengthLowerBound(data, k.attrs);
      k.exact_strength = -1.0;  // unknown: the full stream is gone
    }
  }

  // Reset for reuse. The PRNG is re-seeded too, so a reused profiler draws
  // the same reservoir as a freshly constructed one over the same stream.
  builder_ = TableBuilder(schema_, spill_);
  ResetReservoir();
  rows_seen_ = 0;
  ingest_ = IngestStats{};
  rng_ = Random(options_.sample_seed);
  return Status::OK();
}

Status ProfileCsvFile(const std::string& path, const CsvOptions& csv_options,
                      const GordianOptions& options, const SpillPolicy& spill,
                      KeyDiscoveryResult* out, IngestStats* stats) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);

  CsvBatchReader reader(in, csv_options);
  Status s = reader.Init();
  if (!s.ok()) return s;
  if (reader.num_columns() == 0) {
    return Status::InvalidArgument("empty CSV file: " + path);
  }

  std::unique_ptr<ThreadPool> pool;
  if (csv_options.encode_threads > 1) {
    pool = std::make_unique<ThreadPool>(csv_options.encode_threads);
  }
  StreamingProfiler profiler(Schema(reader.column_names()), options, spill);
  RowBatch batch;
  // Once spilling, a fat batch's string arena must not linger until the
  // next NextBatch reshapes it: budget-bound ingest frees it right after
  // the encode. Same threshold as the ReadCsv spill path.
  constexpr int64_t kBatchShrinkBytes = 8 << 20;
  for (;;) {
    s = reader.NextBatch(&batch, pool.get());
    if (!s.ok()) return s;
    if (batch.num_rows() == 0) break;
    profiler.AddBatch(batch);
    if (spill.enabled() && batch.ApproxBytes() > kBatchShrinkBytes) {
      batch.Clear();
      batch.ShrinkToFit();
    }
    // Ingest can dominate the wall clock on large files, so cancellation
    // must be observable here, not just inside discovery. Amortized: one
    // atomic load per ~4k-row batch.
    if (options.cancel_flag != nullptr &&
        options.cancel_flag->load(std::memory_order_relaxed)) {
      if (stats != nullptr) *stats = profiler.ingest_stats();
      *out = KeyDiscoveryResult{};
      out->incomplete = true;
      out->incomplete_reason = AbortReason::kCancelled;
      return Status::OK();
    }
  }
  // The profiler owns the authoritative ingest accounting (counted once per
  // AddBatch); copy it out before Finish resets the profiler.
  if (stats != nullptr) *stats = profiler.ingest_stats();
  return profiler.Finish(out);
}

Status ProfileCsvFile(const std::string& path, const CsvOptions& csv_options,
                      const GordianOptions& options, KeyDiscoveryResult* out,
                      IngestStats* stats) {
  return ProfileCsvFile(path, csv_options, options, SpillPolicy(), out,
                        stats);
}

}  // namespace gordian
