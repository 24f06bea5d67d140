// The four workloads of the repository benchmark. Each is a closed loop
// (one client thread, one op in flight) over the library's public API; see
// README.md for why each exists and which layer it isolates.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

// Input sizes. The defaults are what the benchmark measures; `Tiny` exists
// for the self-test, which only checks plumbing.
struct Sizes {
  int64_t opic_rows = 50000;
  int opic_attrs = 16;
  int64_t uniform_rows = 200000;
  int uniform_attrs = 8;
  uint64_t uniform_cardinality = 32;
  int64_t append_base_rows = 200000;
  double append_theta = 0.3;
  int64_t append_delta_rows = 1000;
  int append_cycle_ops = 25;
  double tpch_scale = 0.0005;

  static Sizes Tiny();
};

struct WorkloadConfig {
  uint64_t seed = 1;
  Sizes sizes;
  int threads = 1;      // service and traversal threads (nproc)
  bool trace = false;   // traced run: serial replays run beside the ops
  int corrupt_op = -1;  // self-test: corrupt this op's report before checks
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;

  // The fixed op count the tail percentile is chosen at (TailPercentileFor).
  virtual int basis_ops() const = 0;

  // Untimed set-up: generation, service construction, registration and
  // warm-up. Called several times per run; every call starts over.
  virtual void Setup() = 0;

  // One op. `trace` is non-null for the traced ops of a traced run; the
  // op then records its spans and layer values there. A negative `index`
  // marks an untimed op (warm-up, memory probe): it runs and is checked
  // like any other, but never swaps inputs or corrupts its report.
  virtual OpResult RunOp(int index, OpTrace* trace) = 0;

  // Called after the memory probes and again after the timed loop. Runs
  // the checks that only make sense at the end of a loop of ops (the
  // append chain against a from-scratch profile) and returns the failure,
  // or an empty string when they pass. It may reset the workload so the
  // ops that follow start from a fixed position.
  virtual std::string EndLoop() { return ""; }

  // Per-workload run metadata (thread counts, tree-cache budget, sizes).
  virtual std::map<std::string, std::string> Metadata() const = 0;
};

// The workload names, in the order `--workload all` runs them.
std::vector<std::string> WorkloadNames();

// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
