// Shared plumbing of the repository benchmark: client-side spans, what an
// op reports, percentile rules, /proc readers and JSON helpers. Nothing here
// knows about a particular workload; workloads.h defines those.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Seconds on the steady clock since the first call in this process. Spans
// and op walls are all read from this one clock.
double NowSeconds();

// Thrown when a workload fails to isolate the layer it exists to measure
// (for example a cold job that hits a cache). The run stops with the
// message and a non-zero exit code: its numbers would describe a
// different workload.
class GuardError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// One span of the traced run. `source` is "bench" for spans the benchmark
// timed itself around a public call, and "program-reported" for durations
// the library returned (stage timings of a job that only runs inside a
// service call); program-reported spans are laid out back to back inside
// the client span that contains them.
struct Span {
  std::string name;
  double start = 0;  // NowSeconds()
  double seconds = 0;
  std::string source = "bench";
  bool replay = false;  // part of the serial replay, outside the op wall
};

// Spans and layer values of one traced op. Leaf spans lie inside the op
// wall and never overlap, so their sum plus the residual is the wall.
class OpTrace {
 public:
  // Records a client span [start, start + seconds) inside the op wall.
  void Leaf(const std::string& name, double start, double seconds,
            const std::string& source = "bench");
  // Lays out program-reported durations back to back from `start` (the
  // start of the client call that contains them).
  void ProgramLeaves(double start,
                     const std::vector<std::pair<std::string, double>>& parts);
  // A non-leaf client span (its time is already covered by leaves).
  void Outer(const std::string& name, double start, double seconds);
  // A span of the serial replay, outside the op wall.
  void Replay(const std::string& name, double start, double seconds);

  // Adds `v` to the per-op value of layer metric `name`.
  void Add(const std::string& name, double v) { layer_[name] += v; }
  void Set(const std::string& name, double v) { layer_[name] = v; }

  double LeafSeconds() const;
  const std::vector<Span>& spans() const { return spans_; }
  const std::map<std::string, double>& layer() const { return layer_; }

 private:
  std::vector<Span> spans_;
  std::map<std::string, double> layer_;
};

// Runs `fn` and returns its wall seconds; `*start` receives its start.
template <typename F>
double Timed(double* start, F&& fn) {
  *start = NowSeconds();
  fn();
  return NowSeconds() - *start;
}

// What one op reports back to the loop.
struct OpResult {
  double wall = 0;        // client-timed, call to result, checks excluded
  int64_t rows = 0;       // input rows whose key report was brought current
  bool failed = false;    // non-OK status, incomplete, or failed check
  std::string failure;    // first failure message, for the log
  // Deterministic per-op quantities (tree cells, key counts, serial replay
  // counters) that the self-test compares across two runs of one seed.
  std::map<std::string, int64_t> counts;
};

// Median of `v` (0 for an empty vector).
double Median(std::vector<double> v);
// Linear-interpolated percentile q in [0, 100].
double Percentile(std::vector<double> v, double q);

// The tail rule: the highest of p99, p90, p75 (then p50) that leaves at
// least `min_beyond` samples above it at the workload's fixed op count
// `basis_ops`. Fixing the basis, not the count a run happened to reach,
// keeps the chosen percentile the same on every run and commit.
double TailPercentileFor(int basis_ops, int min_beyond = 10);

// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();
// Current resident set size of this process in MiB (VmRSS).
double RssMb();
// Resets VmHWM so the next PeakRssMb() covers only what follows; false
// when the kernel refuses.
bool ResetPeakRss();

// Minimal JSON writer helpers.
std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
