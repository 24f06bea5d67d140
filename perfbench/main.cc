// The repository benchmark: runs the named workloads against the library's
// public API, checks every op's output, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics of a traced run). The last line
// of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   perfbench --workload cold_profile --seed 1 --seconds 15 --trace 0
//
// See README.md for the workloads, the metrics, and how to read them.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "service/tree_cache.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
  bool mean = false;  // aggregate per-op values by mean instead of median
};

// The end-to-end metrics, in BENCHMARK.json order.
const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"job_p50_ms", "ms"},   {"job_tail_ms", "ms"},   {"rows_per_s", "rows/s"},
      {"setup_s", "s"},       {"peak_rss_mb", "MB"},
  };
  return kSpecs;
}

// The per-layer metrics of the traced run. Every run prints all of them; a
// metric whose layer the workload does not reach reads 0.
const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"table.ingest_s", "s"},
      {"core.encode_s", "s"},
      {"core.tree_build_s", "s"},
      {"core.freeze_s", "s"},
      {"core.tree_cells", "count"},
      {"core.traverse_s", "s"},
      {"core.traverse.slice_s", "s"},
      {"core.traverse.root_merge_s", "s"},
      {"core.traverse.merges", "count"},
      {"core.traverse.nodes_visited", "count"},
      {"core.traverse.futility_prunes", "count"},
      {"core.traverse.snapshot_prunes", "count"},
      {"core.traverse.prune_ratio", "ratio"},
      {"core.convert_s", "s"},
      {"core.validate_s", "s"},
      {"core.peak_mb", "MB"},
      {"core.residual_s", "s"},
      {"service.overhead_s", "s"},
      {"tree_cache.hit_rate", "ratio", true},
      {"tree_cache.evictions", "count"},
      {"tree_cache.resident_mb", "MB"},
      {"tree_cache.bytes_per_code_byte", "ratio"},
      {"append.refreeze_s", "s"},
      {"append.traverse_s", "s"},
      {"append.absorb_s", "s"},
      {"append.absorbed_ratio", "ratio", true},
      {"append.warm_start_prune_ratio", "ratio"},
      {"schema.keys_s", "s"},
      {"schema.fd_s", "s"},
      {"schema.fk_s", "s"},
      {"schema.fd_replay_s", "s"},
      {"schema.fk_replay_s", "s"},
      {"schema.fk_recall", "ratio"},
      {"trace.overhead_ms", "ms"},
  };
  return kSpecs;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  std::string size = "full";
  int ops = 0;  // > 0: run exactly this many ops, ignoring --seconds
  int corrupt_op = -1;
  std::string out_dir;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <name|all> --seed N --seconds S "
               "--trace 0|1 [--size full|tiny] [--ops N] [--corrupt-op N] "
               "[--out-dir DIR] [--commit SHA] [--source-digest HEX]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atof(v.c_str());
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--size") a.size = v;
    else if (flag == "--ops") a.ops = std::atoi(v.c_str());
    else if (flag == "--corrupt-op") a.corrupt_op = std::atoi(v.c_str());
    else if (flag == "--out-dir") a.out_dir = v;
    else if (flag == "--commit") a.commit = v;
    else if (flag == "--source-digest") a.source_digest = v;
    else Usage("unknown flag " + flag);
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (a.size != "full" && a.size != "tiny") Usage("--size must be full|tiny");
  if (a.seconds <= 0 && a.ops <= 0) Usage("--seconds must be positive");
  return a;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Set-up runs this many times per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
// Untimed ops after the loop that measure peak RSS: at least the minimum,
// then more until the time is used up or the maximum is reached.
constexpr int kMinMemoryProbes = 3;
constexpr int kMaxMemoryProbes = 15;
constexpr double kMemoryProbeSeconds = 2.0;
// Traced ops whose spans go into the Chrome trace file.
constexpr size_t kMaxExportedOps = 64;

struct RunSummary {
  std::string workload;
  int basis_ops = 0;
  std::vector<double> setup_s;
  std::vector<double> walls;         // untraced ops
  std::vector<double> probe_peak_rss_mb;  // empty when resets fail
  std::vector<double> probe_start_rss_mb;  // resident before each probe
  std::vector<double> traced_walls;  // traced ops (traced run only)
  std::vector<double> row_rates;     // rows per second, untraced ops
  int attempted = 0;
  int failed = 0;
  bool last_failed = false;  // the latest op failed
  std::vector<std::string> failures;
  std::map<std::string, std::vector<double>> layer;  // per traced op
  std::vector<double> leaf_sums;
  std::vector<std::pair<int, OpTrace>> exported;
  std::map<std::string, int64_t> counts;
  double peak_rss_mb = 0;
  std::map<std::string, std::string> metadata;
};

// Records a failed EndLoop check. It covers the ops since the last check,
// so it is charged to the latest op unless that op already failed.
void CountEndLoop(const std::string& failure, RunSummary* sum) {
  if (failure.empty()) return;
  if (!sum->last_failed) ++sum->failed;
  sum->last_failed = true;
  sum->failures.push_back("end of loop: " + failure);
}

void CountOp(int index, const OpResult& r, RunSummary* sum) {
  ++sum->attempted;
  sum->last_failed = r.failed;
  if (r.failed) {
    ++sum->failed;
    sum->failures.push_back("op " + std::to_string(index) + ": " +
                            r.failure);
  }
}

RunSummary RunWorkload(const std::string& name, const Args& args,
                       int threads) {
  WorkloadConfig config;
  config.seed = args.seed;
  config.sizes = args.size == "tiny" ? Sizes::Tiny() : Sizes();
  config.threads = threads;
  config.trace = args.trace;
  config.corrupt_op = args.corrupt_op;

  RunSummary sum;
  sum.workload = name;
  std::unique_ptr<Workload> w = MakeWorkload(name, config);
  if (w == nullptr) Usage("unknown workload " + name);
  sum.basis_ops = w->basis_ops();

  for (int i = 0; i < kSetupRepeats; ++i) {
    double start = 0;
    sum.setup_s.push_back(Timed(&start, [&] { w->Setup(); }));
  }

  if (!args.trace) {
    // Memory probes: a few checked, untimed ops, each starting from a
    // trimmed heap with the peak-RSS counter reset. glibc keeps freed
    // memory in per-thread arenas, so without the trim a process's peak
    // depends on which worker thread happened to run which job. They run
    // before the timed loop, so the heap they start from does not depend
    // on how many ops a run's loop got through.
    // Probes take negative indices, which workloads treat as untimed ops.
    // Cheap ops get more probes: their small peaks are the noisiest.
    const double probe_start = NowSeconds();
    for (int p = 1; p <= kMaxMemoryProbes &&
                    (p <= kMinMemoryProbes ||
                     NowSeconds() - probe_start < kMemoryProbeSeconds);
         ++p) {
#ifdef __GLIBC__
      malloc_trim(0);
#endif
      const bool reset = ResetPeakRss();
      sum.probe_start_rss_mb.push_back(RssMb());
      CountOp(-p, w->RunOp(-p, nullptr), &sum);
      if (reset) sum.probe_peak_rss_mb.push_back(PeakRssMb());
    }
    CountEndLoop(w->EndLoop(), &sum);
  }

  const double loop_start = NowSeconds();
  const int min_ops = args.trace ? 2 : 1;
  for (int i = 0;; ++i) {
    if (args.ops > 0 ? i >= args.ops
                     : (i >= min_ops &&
                        NowSeconds() - loop_start >= args.seconds)) {
      break;
    }
    // A traced run alternates untraced and traced ops, so the tracing
    // overhead is the difference of two medians taken side by side.
    const bool traced = args.trace && i % 2 == 1;
    OpTrace trace;
    OpResult r = w->RunOp(i, traced ? &trace : nullptr);
    CountOp(i, r, &sum);
    for (const auto& [k, v] : r.counts) sum.counts[k] += v;
    if (!traced) {
      sum.walls.push_back(r.wall);
      if (r.wall > 0) sum.row_rates.push_back(r.rows / r.wall);
      continue;
    }
    sum.traced_walls.push_back(r.wall);
    const double leaves = trace.LeafSeconds();
    sum.leaf_sums.push_back(leaves);
    trace.Set("core.residual_s", r.wall - leaves);
    const auto& layer = trace.layer();
    const auto merges = layer.find("core.traverse.merges");
    const auto prunes = layer.find("prunes");
    if (merges != layer.end() && prunes != layer.end() &&
        merges->second + prunes->second > 0) {
      trace.Set("core.traverse.prune_ratio",
                prunes->second / (prunes->second + merges->second));
    }
    for (const auto& [k, v] : trace.layer()) sum.layer[k].push_back(v);
    if (sum.exported.size() < kMaxExportedOps) {
      sum.exported.emplace_back(i, std::move(trace));
    }
  }
  CountEndLoop(w->EndLoop(), &sum);
  sum.peak_rss_mb = sum.probe_peak_rss_mb.empty()
                        ? PeakRssMb()
                        : Median(sum.probe_peak_rss_mb);
  sum.metadata = w->Metadata();
  return sum;
}

double LayerValue(const RunSummary& s, const MetricSpec& m) {
  if (std::string(m.name) == "trace.overhead_ms") {
    return (Median(s.traced_walls) - Median(s.walls)) * 1e3;
  }
  const auto it = s.layer.find(m.name);
  if (it == s.layer.end()) return 0;
  if (!m.mean) return Median(it->second);
  double total = 0;
  for (double v : it->second) total += v;
  return total / static_cast<double>(it->second.size());
}

std::map<std::string, double> EndToEndValues(const RunSummary& s,
                                             double* tail_q) {
  *tail_q = TailPercentileFor(s.basis_ops);
  return {
      {"job_p50_ms", Median(s.walls) * 1e3},
      {"job_tail_ms", Percentile(s.walls, *tail_q) * 1e3},
      {"rows_per_s", Median(s.row_rates)},
      {"setup_s", Median(s.setup_s)},
      {"peak_rss_mb", s.peak_rss_mb},
  };
}

void PrintMetric(const std::string& name, double v, const char* unit,
                 const std::string& note = "") {
  std::printf("  %-34s = %.6g %s%s\n", name.c_str(), v, unit,
              note.empty() ? "" : ("   (" + note + ")").c_str());
}

void PrintSummary(const RunSummary& s, const Args& args) {
  std::printf("\n[%s] ops=%d failed=%d seed=%llu trace=%d\n",
              s.workload.c_str(), s.attempted, s.failed,
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  std::string meta = "{";
  for (const auto& [k, v] : s.metadata) {
    if (meta.size() > 1) meta += ", ";
    meta += JsonString(k) + ": " + JsonString(v);
  }
  std::printf("  workload metadata: %s}\n", meta.c_str());
  for (const std::string& f : s.failures) {
    std::printf("  FAILED %s\n", f.c_str());
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%d of %d ops", s.failed, s.attempted);
  PrintMetric("failed_ratio",
              s.attempted == 0 ? 0 : static_cast<double>(s.failed) /
                                         s.attempted,
              "ratio", buf);
  if (!args.trace) {
    double q = 0;
    const std::map<std::string, double> v = EndToEndValues(s, &q);
    for (const MetricSpec& m : EndToEndMetrics()) {
      std::string note;
      if (std::string(m.name) == "job_tail_ms") {
        std::snprintf(buf, sizeof(buf),
                      "p%g at the fixed op count %d (%.0f beyond); %zu ops "
                      "this run",
                      q, s.basis_ops, s.basis_ops * (100 - q) / 100,
                      s.walls.size());
        note = buf;
      } else if (std::string(m.name) == "setup_s") {
        note = "median of";
        for (double t : s.setup_s) {
          std::snprintf(buf, sizeof(buf), " %.3g", t);
          note += buf;
        }
      } else if (std::string(m.name) == "peak_rss_mb") {
        if (s.probe_peak_rss_mb.empty()) {
          note = "whole process: the kernel refused a peak reset";
        } else {
          std::snprintf(buf, sizeof(buf),
                        "median peak of the memory-probe ops; %.4g MB was "
                        "resident before each: inputs and service caches",
                        Median(s.probe_start_rss_mb));
          note = buf;
        }
      }
      PrintMetric(m.name, v.at(m.name), m.unit, note);
    }
    return;
  }
  for (const MetricSpec& m : PerLayerMetrics()) {
    PrintMetric(m.name, LayerValue(s, m), m.unit);
  }
  std::snprintf(buf, sizeof(buf),
                "traced op p50 %.6g s vs untraced %.6g s, %zu + %zu ops",
                Median(s.traced_walls), Median(s.walls), s.traced_walls.size(),
                s.walls.size());
  std::printf("  tracing overhead: %s\n", buf);
  // Per traced op, spans plus the residual equal the op wall exactly; the
  // line shows the medians of the three.
  std::printf("  accounting (median per traced op): wall %.6g s = spans %.6g "
              "s + residual %.6g s\n",
              Median(s.traced_walls), Median(s.leaf_sums),
              LayerValue(s, {"core.residual_s", "s"}));
}

// Chrome trace-event JSON (load in chrome://tracing or Perfetto): op walls
// and their spans on thread 1, the serial replays on thread 2.
void ExportTrace(const RunSummary& s, const Args& args) {
  if (args.out_dir.empty()) return;
  const std::string path = args.out_dir + "/trace-" + s.workload + "-seed" +
                           std::to_string(args.seed) + ".json";
  std::ofstream out(path);
  if (!out) {
    std::printf("  trace export: cannot write %s\n", path.c_str());
    return;
  }
  auto event = [&](const std::string& name, double start, double secs,
                   int tid, int op, const std::string& source) {
    return "{\"name\": " + JsonString(name) +
           ", \"ph\": \"X\", \"pid\": 1, \"tid\": " + std::to_string(tid) +
           ", \"ts\": " + JsonNumber(start * 1e6) +
           ", \"dur\": " + JsonNumber(secs * 1e6) +
           ", \"args\": {\"op\": " + std::to_string(op) +
           ", \"source\": " + JsonString(source) + "}}";
  };
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (const auto& [op, trace] : s.exported) {
    for (const Span& sp : trace.spans()) {
      out << (first ? "" : ",\n")
          << event(sp.name, sp.start, sp.seconds, sp.replay ? 2 : 1, op,
                   sp.source);
      first = false;
    }
  }
  out << "\n]}\n";
  std::printf("  trace export: %s\n", path.c_str());
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const int threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<std::string> names;
  if (args.workload == "all") {
    names = WorkloadNames();
  } else {
    names.push_back(args.workload);
  }

  std::printf(
      "run metadata: {\"commit\": %s, \"source_digest\": %s, "
      "\"build_type\": %s, \"cpu_model\": %s, \"hardware_threads\": %d, "
      "\"seed\": %llu, \"seconds\": %g, \"size\": %s, "
      "\"tree_cache_budget_bytes\": %lld}\n",
      JsonString(args.commit).c_str(), JsonString(args.source_digest).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), JsonString(CpuModel()).c_str(),
      threads, static_cast<unsigned long long>(args.seed), args.seconds,
      JsonString(args.size).c_str(),
      static_cast<long long>(gordian::TreeArtifactCache::kDefaultByteBudget));

  std::vector<RunSummary> runs;
  for (const std::string& name : names) {
    try {
      runs.push_back(RunWorkload(name, args, threads));
    } catch (const GuardError& e) {
      std::printf("workload guard tripped, results discarded: %s\n", e.what());
      return 3;
    } catch (const std::exception& e) {
      std::printf("workload %s aborted: %s\n", name.c_str(), e.what());
      return 1;
    }
    PrintSummary(runs.back(), args);
    if (args.trace) ExportTrace(runs.back(), args);
  }

  int attempted = 0;
  int failed = 0;
  std::string metrics;
  std::string counts;
  for (const RunSummary& s : runs) {
    attempted += s.attempted;
    failed += s.failed;
    const std::string prefix = names.size() > 1 ? s.workload + "." : "";
    auto add = [&](const std::string& name, double v, const char* unit) {
      metrics += (metrics.empty() ? "" : ", ") + JsonString(prefix + name) +
                 ": {\"value\": " + JsonNumber(v) +
                 ", \"unit\": " + JsonString(unit) + "}";
    };
    if (args.trace) {
      for (const MetricSpec& m : PerLayerMetrics()) {
        add(m.name, LayerValue(s, m), m.unit);
      }
    } else {
      double q = 0;
      const std::map<std::string, double> v = EndToEndValues(s, &q);
      for (const MetricSpec& m : EndToEndMetrics()) add(m.name, v.at(m.name), m.unit);
    }
    for (const auto& [k, v] : s.counts) {
      counts += (counts.empty() ? "" : ", ") + JsonString(prefix + k) + ": " +
                std::to_string(v);
    }
  }
  // Deterministic per-run counts; the self-test compares them across two
  // runs of one seed.
  std::printf("\ncounts: {%s}\n", counts.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": "
      "{%s}}\n",
      failed == 0 ? "true" : "false", attempted, failed, metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
