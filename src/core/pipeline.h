#ifndef GORDIAN_CORE_PIPELINE_H_
#define GORDIAN_CORE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/frozen_tree.h"
#include "core/gordian.h"
#include "core/options.h"
#include "core/prefix_tree.h"
#include "table/table.h"

namespace gordian {

// The staged profiling pipeline. GORDIAN's run is naturally phased — encode
// the entities (sampling, null handling, attribute ordering), build the
// prefix tree (Algorithm 2) and freeze it, traverse it for non-keys
// (Algorithm 4), convert non-keys to keys (Algorithm 6), attach strengths
// (Section 3.9) — and a ProfileSession runs those phases in that order over
// a ProfileContext, recording per-stage wall time and bytes.
//
// FindKeys, StreamingProfiler::Finish, the profiling service, the
// incremental profiler, and the engine advisor all run this one sequence;
// they differ only in how the context is seeded (most importantly, whether
// a prefrozen tree is injected from the service's TreeArtifactCache,
// letting a job skip the build and the freeze). The traversal always runs
// FrozenNonKeyFinder, serially or fanned out across workers. Results are
// byte-identical across all seeding paths and thread counts.

// Wall time, bytes, and rows attributed to one executed stage. `bytes` is
// the stage's dominant footprint: the sample's heap for encode, the tree
// pool for build, worker pools + NonKeySet for traversal; 0 when nothing
// meaningful applies. `rows` is the row count the stage operated on (set by
// encode: the rows actually profiled after sampling).
struct StageMetric {
  std::string name;
  double seconds = 0;
  int64_t bytes = 0;
  int64_t rows = 0;
};

// Shared state threaded through the stages of one profiling run. Owns the
// result under construction plus every intermediate the stages exchange.
// Not copyable; lives on the session's stack.
struct ProfileContext {
  // Inputs, set by ProfileSession::Run before the first stage.
  const Table* input = nullptr;
  GordianOptions options;

  // EncodeStage outputs: the data actually profiled (the input table or the
  // sample held in `sample_storage`) and the attribute -> tree-level order.
  const Table* data = nullptr;
  Table sample_storage;
  std::vector<int> attr_order;

  // The tree build's outputs: the pointer tree this run built (kept only
  // for callers that absorb into it) and the frozen layout the
  // traversal runs over. `frozen` points at `owned_frozen`, or at an
  // injected artifact (a TreeArtifactCache hit, or ReprofileTree's refreeze)
  // — then the build and freeze are skipped.
  std::unique_ptr<PrefixTree> owned_tree;
  std::unique_ptr<FrozenTree> owned_frozen;
  FrozenTree* frozen = nullptr;

  // Merge intermediates of the traversal (serial, or the parallel root
  // merge); a frozen tree has no pool of its own.
  PrefixTree::NodePool merge_pool;

  // The result being assembled. A stage that concludes the run (duplicate
  // entities, cancellation, aborted traversal, null-projection hand-off)
  // sets `finished`; the session then skips the remaining stages.
  KeyDiscoveryResult result;
  bool finished = false;

  bool Cancelled() const {
    return options.cancel_flag != nullptr &&
           options.cancel_flag->load(std::memory_order_relaxed);
  }
};

// Sampling (Section 3.9), SQL-style null projection, attribute ordering,
// and the pre-build cancellation check. When null semantics exclude nullable
// columns, this stage runs a nested session over the projected table and
// lifts the results back — concluding the run.
class EncodeStage {
 public:
  Status Run(ProfileContext* ctx);
};

// Column positions holding a NULL (what kExcludeNullableColumns bars).
std::vector<int> NullableColumns(const Table& table);

// The stages after encode — tree_build (Build + Freeze, skipped when
// ctx->frozen was injected; then the duplicate-entity and cancellation
// checks), traverse, convert, validate — over a context whose encode
// outputs are set. None of them fail. Appends one StageMetric per executed
// stage to *metrics. ProfileSession::Run is EncodeStage followed by this;
// ReprofileTree calls it directly with a refrozen tree and no Table.
void RunPostEncode(ProfileContext* ctx, std::vector<StageMetric>* metrics);

// Executes the pipeline over one table. Reusable: each Run resets the
// context.
//
//   ProfileSession session(options);
//   KeyDiscoveryResult r;
//   Status s = session.Run(table, &r);
//   for (const StageMetric& m : session.stage_metrics()) ...
class ProfileSession {
 public:
  explicit ProfileSession(const GordianOptions& options) : options_(options) {}

  // Injects a prefrozen tree for the next Run (a TreeArtifactCache hit): the
  // run skips the build and the freeze, and allocates merge intermediates
  // from its own pool. The tree must match the table/options this session
  // profiles (same data, sample spec, attribute order, build mode) and must
  // not be used concurrently by another run — traversal touches its
  // reference counts, restoring them before Run returns. Cleared after Run.
  void set_shared_frozen_tree(FrozenTree* frozen) { shared_frozen_ = frozen; }

  // Runs every stage in order (stopping early when a stage concludes the
  // run) and moves the result into *out.
  Status Run(const Table& table, KeyDiscoveryResult* out);

  // Per-stage wall/bytes of the last Run, in execution order: encode,
  // tree_build, traverse, convert, validate.
  const std::vector<StageMetric>& stage_metrics() const { return metrics_; }

  // The pointer tree the last Run built, for IncrementalProfiler to absorb
  // appends into (nullptr when a frozen tree was injected, no tree was
  // built, or the session never ran).
  std::unique_ptr<PrefixTree> TakeTree() { return std::move(built_tree_); }

  // The frozen flattening of that tree (non-null exactly when TakeTree's
  // tree is), for TreeArtifactCache to admit.
  std::unique_ptr<FrozenTree> TakeFrozenTree() {
    return std::move(built_frozen_);
  }

 private:
  GordianOptions options_;
  FrozenTree* shared_frozen_ = nullptr;
  std::vector<StageMetric> metrics_;
  std::unique_ptr<PrefixTree> built_tree_;
  std::unique_ptr<FrozenTree> built_frozen_;
};

// The thread count a run under `options` traverses with:
// traversal_threads when set, else GORDIAN_THREADS, else 0 (serial);
// negative forces serial. Exposed so callers (service metrics, benches) can
// report the mode a run will use.
int ResolveTraversalThreads(const GordianOptions& options);

}  // namespace gordian

#endif  // GORDIAN_CORE_PIPELINE_H_
