#ifndef GORDIAN_CORE_STREAMING_H_
#define GORDIAN_CORE_STREAMING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/gordian.h"
#include "core/options.h"
#include "table/csv.h"
#include "table/table.h"

namespace gordian {

// Per-source ingest accounting, owned by the profiler and reported by
// ProfileCsvFile (and surfaced by the profiling service's metrics). Counted
// exactly once per public AddRow/AddBatch call — internal re-encoding
// (reservoir replacement) never touches it, so a row contributes to `rows`
// once no matter how many internal paths it flows through.
struct IngestStats {
  int64_t batches = 0;
  int64_t rows = 0;
  int64_t bytes = 0;  // sum of RowBatch::ByteSize over ingested batches
};

// Single-pass profiling over a stream of entities. Algorithm 2 needs only
// one pass, so a profiler can sit on a stream (a cursor, a pipe, a log
// tail) without materializing the source twice:
//
//   StreamingProfiler profiler(schema, options);
//   while (source.NextBatch(&batch)) profiler.AddBatch(batch);
//   KeyDiscoveryResult result = profiler.Finish();
//
// Two ingestion modes:
//  - full (options.sample_rows == 0): every row is retained (in the
//    dictionary-encoded Table representation, not the raw input);
//  - reservoir (options.sample_rows == k > 0): a uniform k-row sample of
//    the stream is maintained with Vitter's Algorithm R, so arbitrarily
//    long streams profile in O(k) memory — the streaming face of the
//    paper's Section 3.9 sampling mode.
//
// The reservoir holds *encoded* rows: a flat k x d uint32 code matrix plus
// one ref-counted dictionary per column. Evicting a row releases its codes;
// when a column's dictionary is large and mostly dead it is compacted
// (live values re-encoded in old-code order, reservoir codes remapped), so
// a long string-heavy stream never accumulates evicted strings. The
// row-at-a-time and batch ingest paths draw the same Algorithm-R sequence
// and assign identical codes.
//
// Duplicate full entities are detected at Finish() (the no_keys abort).
class StreamingProfiler {
 public:
  // `spill` applies to full-mode ingest only (the retained encoded table may
  // stream its cold columns to GRDL files); the reservoir is O(k) by
  // construction and never spills.
  StreamingProfiler(Schema schema, GordianOptions options = {},
                    SpillPolicy spill = {});

  // Appends one entity from the stream (adapter over the batch path).
  void AddRow(const std::vector<Value>& row);

  // Appends every row of `batch` (must match the schema's column count).
  void AddBatch(const RowBatch& batch);

  int64_t rows_seen() const { return rows_seen_; }

  // Ingest accounting since construction (or the last Finish).
  const IngestStats& ingest_stats() const { return ingest_; }

  // Approximate heap footprint of the ingest state: builder (full mode) or
  // code matrix + dictionaries + refcounts (reservoir mode).
  int64_t ApproxBytes() const;

  // Runs discovery over the ingested (or reservoir-sampled) rows and
  // returns the result; the profiler is left empty and reusable. The
  // Status-returning form fails only when spilled ingest data could not be
  // recovered (TableBuilder::Build semantics); the legacy form asserts
  // that never happened.
  Status Finish(KeyDiscoveryResult* out);
  KeyDiscoveryResult Finish();

 private:
  // Encodes one cell into column `c`'s reservoir dictionary and bumps its
  // refcount; returns the code.
  uint32_t AcquireCode(int c, const Value& v);
  uint32_t AcquireCode(int c, const ColumnChunk& chunk, int64_t i);
  void ReleaseRow(int64_t slot);
  void MaybeCompactColumn(int c);
  void ResetReservoir();

  // One Algorithm-R step: returns the reservoir slot the current row (the
  // rows_seen_-th, already counted) should occupy, or -1 to drop it.
  int64_t ReservoirSlotForNextRow();

  GordianOptions options_;
  Schema schema_;
  SpillPolicy spill_;
  TableBuilder builder_;
  int64_t rows_seen_ = 0;
  IngestStats ingest_;

  // Reservoir state (active when options_.sample_rows > 0).
  int64_t reservoir_capacity_ = 0;
  int64_t reservoir_rows_ = 0;
  std::vector<uint32_t> reservoir_codes_;  // row-major, reservoir_rows_ x d
  std::vector<std::shared_ptr<Dictionary>> reservoir_dicts_;  // one per column
  std::vector<std::vector<uint32_t>> code_refs_;  // per column, per code
  std::vector<int64_t> live_codes_;               // per column: #codes ref>0
  Random rng_;
};

// Profiles a CSV file through a StreamingProfiler without materializing the
// whole file: with options.sample_rows = k, a file of any size profiles in
// O(k) memory. Ingestion is batch-wise via CsvBatchReader. If `stats` is
// non-null it receives per-batch ingest accounting. Returns the discovery
// result.
Status ProfileCsvFile(const std::string& path, const CsvOptions& csv_options,
                      const GordianOptions& options, KeyDiscoveryResult* out,
                      IngestStats* stats = nullptr);

// Same, with a spill policy for full-mode ingest: the retained table's cold
// columns stream to GRDL files under spill.spill_dir once encoded bytes
// exceed the budget, and each RowBatch's string arena is released right
// after it is encoded — so profiling a file much larger than RAM needs
// memory for dictionaries plus roughly the budget. Results are identical
// to the unspilled overload's.
Status ProfileCsvFile(const std::string& path, const CsvOptions& csv_options,
                      const GordianOptions& options, const SpillPolicy& spill,
                      KeyDiscoveryResult* out, IngestStats* stats = nullptr);

}  // namespace gordian

#endif  // GORDIAN_CORE_STREAMING_H_
