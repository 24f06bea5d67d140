#ifndef GORDIAN_CORE_INCREMENTAL_H_
#define GORDIAN_CORE_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/attribute_set.h"
#include "common/status.h"
#include "core/frozen_tree.h"
#include "core/gordian.h"
#include "core/options.h"
#include "core/prefix_tree.h"
#include "table/fingerprint.h"
#include "table/table.h"

namespace gordian {

// Incremental discovery under appends (ROADMAP's open scale item).
//
// The enabling observation is GORDIAN's monotonicity property: appending
// rows can only create non-keys, never retract one. Three consequences are
// exploited here:
//   1. the prefix tree absorbs delta rows in place (PrefixTree::AbsorbBatch)
//      instead of being rebuilt — the tree of base + delta is exactly the
//      base tree with the delta's paths inserted, provided the tree keeps
//      the attribute order it was built under;
//   2. the prior run's non-keys are a sound warm-start seed
//      (GordianOptions::warm_start_non_keys), letting the re-traversal
//      futility-prune every region the delta cannot change;
//   3. the content fingerprint extends in O(delta) per batch
//      (FingerprintAccumulator), so catalog/cache keys stay exact.
// Complete runs produce byte-identical reports to a from-scratch FindKeys
// on the concatenated table (tests/incremental_test.cc pins this across
// serial/parallel x warm on/off x spilled base tables).

// The mutable append-side twin of an immutable Table: private dictionary
// copies plus growing code vectors, seeded from a base table (spilled
// columns are read back through their mapping). Absorb() encodes a RowBatch
// column-at-a-time in row order — the same first-seen code assignment as
// TableBuilder — so the accumulated codes, dictionaries, and fingerprint
// are identical to those of the concatenated table built in one shot.
class AppendState {
 public:
  AppendState() = default;

  AppendState(const AppendState&) = delete;
  AppendState& operator=(const AppendState&) = delete;
  AppendState(AppendState&&) = default;
  AppendState& operator=(AppendState&&) = default;

  // Deep-copies `base`'s dictionaries and codes so subsequent appends never
  // mutate state shared with the caller's table.
  static Status Begin(const Table& base, AppendState* out);

  // Encodes and appends every row of `batch`. Infallible once the shape
  // matches; a column-count mismatch is rejected before any state changes.
  Status Absorb(const RowBatch& batch);

  // A point-in-time immutable Table equal to base + all absorbed batches.
  // Dictionaries are copied (not shared) so later Absorb calls leave the
  // snapshot's contents and fingerprint untouched. O(rows x columns).
  Table Snapshot() const;

  // Equals TableFingerprint(Snapshot()), maintained in O(delta) per batch.
  uint64_t fingerprint() const { return acc_.Fingerprint(); }

  int64_t num_rows() const { return num_rows_; }
  int num_columns() const { return schema_.num_columns(); }
  const Schema& schema() const { return schema_; }
  const std::vector<uint32_t>& codes(int c) const {
    return codes_[static_cast<size_t>(c)];
  }
  const Dictionary& dictionary(int c) const {
    return *dicts_[static_cast<size_t>(c)];
  }

 private:
  Schema schema_;
  std::vector<std::shared_ptr<Dictionary>> dicts_;
  std::vector<std::vector<uint32_t>> codes_;
  FingerprintAccumulator acc_;
  int64_t num_rows_ = 0;
};

// Re-runs the post-encode phases of the profiling pipeline over an
// already-built (and possibly just-absorbed) tree: freeze, duplicate-entity
// check, traversal (serial or parallel per the resolved thread count), key
// conversion, validation. The tree itself is only read — the traversal runs
// over the fresh frozen copy — and there is no Table in sight: the tree IS
// the data. `num_attributes` is the profiled table's column count
// (== tree.num_levels()).
//
// The freeze wall clock is recorded in result->stats.freeze_seconds; the
// frozen copy is dropped when the run returns.
//
// `options.sample_rows` must be 0 and null semantics kNullEqualsNull — both
// need the raw table and are rejected with InvalidArgument.
Status ReprofileTree(const PrefixTree& tree, const GordianOptions& options,
                     int num_attributes, int64_t num_rows,
                     KeyDiscoveryResult* result);

// Keys-current profiling of a growing table: owns the AppendState, the
// absorbed prefix tree, and the latest report; every Append re-encodes just
// the delta, absorbs it into the tree, and re-traverses with the previous
// non-keys as a warm-start seed.
//
//   IncrementalProfiler prof;
//   IncrementalProfiler::Begin(base_table, options, &prof);
//   prof.Append(batch1);   // report() now covers base + batch1
//   prof.Append(batch2);   // ... and so on
//
// Cancellation (options.cancel_flag) is honoured mid-absorb: the tree is
// always left in a valid state covering a prefix of the pending rows, the
// report is marked incomplete, and the next Append (or Refresh) resumes
// where the absorb stopped.
class IncrementalProfiler {
 public:
  IncrementalProfiler() = default;

  IncrementalProfiler(const IncrementalProfiler&) = delete;
  IncrementalProfiler& operator=(const IncrementalProfiler&) = delete;
  IncrementalProfiler(IncrementalProfiler&&) = default;
  IncrementalProfiler& operator=(IncrementalProfiler&&) = default;

  // Profiles `base` from scratch (establishing the pinned attribute order)
  // and readies the incremental state. Rejects options that require the raw
  // table on every run: sampling (re-sampling is not append-monotone) and
  // null-excluding semantics.
  static Status Begin(const Table& base, const GordianOptions& options,
                      IncrementalProfiler* out);

  // Absorbs `batch` and brings report() current. Equivalent to Absorb(batch)
  // followed by Refresh().
  Status Append(const RowBatch& batch);

  // Encodes `batch` into the append state and queues its rows for tree
  // absorption without re-profiling. Use to coalesce several small batches
  // into one Refresh.
  Status Absorb(const RowBatch& batch);

  // Completes any pending tree absorption and re-runs discovery (warm-
  // started unless disabled). No-op when the report is already current.
  Status Refresh();

  // Replaces the warm-start seeds. Every seed must be a genuine non-key of
  // the CURRENT data: rows only ever get appended here, so non-keys from
  // any prior state of this profiler qualify automatically — but seeds
  // carried over from a table whose rows were later REMOVED (a shrinking
  // delta) may have become unique, and futility-pruning with them would
  // silently drop real keys. Each seed is therefore verified against the
  // data; a seed that is now unique is rejected with InvalidArgument and
  // the previous seeds are kept.
  Status SeedWarmStart(const std::vector<AttributeSet>& seeds);

  // Disables (or re-enables) warm-start seeding for subsequent refreshes;
  // the equivalence suite uses this to pin cold-vs-warm byte-identity.
  void set_warm_start(bool enabled) { warm_enabled_ = enabled; }

  // The latest report. Covers every absorbed row unless it is marked
  // incomplete (cancellation/budget) — then Refresh() resumes the work.
  const KeyDiscoveryResult& report() const { return report_; }

  // True when report() reflects all absorbed rows and completed traversal.
  bool current() const { return current_; }

  uint64_t fingerprint() const { return state_.fingerprint(); }
  int64_t num_rows() const { return state_.num_rows(); }
  // Rows already inserted into the tree (== num_rows() unless an absorb was
  // interrupted mid-batch).
  int64_t tree_rows() const { return tree_rows_; }
  // False when no run has built a tree yet (e.g. the base profile was
  // cancelled before its build stage); the next Refresh then rebuilds from
  // a snapshot instead of absorbing.
  bool has_tree() const { return tree_ != nullptr; }
  const AppendState& state() const { return state_; }
  const GordianStats& last_stats() const { return report_.stats; }

 private:
  Status RebuildFromScratch();

  GordianOptions options_;
  AppendState state_;
  std::unique_ptr<PrefixTree> tree_;
  KeyDiscoveryResult report_;
  std::vector<AttributeSet> warm_seeds_;
  int64_t tree_rows_ = 0;
  bool warm_enabled_ = true;
  bool current_ = false;
};

}  // namespace gordian

#endif  // GORDIAN_CORE_INCREMENTAL_H_
