// profile_csv: a command-line data profiler. Loads CSV files, runs GORDIAN
// (optionally on a sample), and reports the discovered keys with strength
// estimates — the workflow a DBA would run against an undocumented table.
//
// Usage:
//   ./build/examples/profile_csv [flags] [file.csv ...]
//     --sample=N         profile an N-row sample (0 = full table)
//     --timeout=S        wall-clock budget per file, in seconds
//     --threads=N        workers for multi-file runs (0 = one per hardware
//                        thread)
//     --memory_budget=M  spill encoded columns to disk once they exceed M
//                        megabytes of heap (0 = never spill)
//     --spill_dir=path   scratch directory for spilled columns (created if
//                        missing; defaults to gordian_spill/ in the working
//                        directory when --memory_budget is set)
//     --schema           treat the files as one schema: after per-table key
//                        discovery, emit cross-table foreign-key candidates
//                        and top FDs (SchemaProfiler; multi-file mode only)
//
// One file is profiled inline with a detailed report. Several files are
// profiled concurrently through the ProfilingService, one job per file —
// or, with --schema, loaded and handed to SchemaProfiler as a schema.
// With no arguments a demo catalog CSV is generated into the working
// directory and profiled, so the example is runnable out of the box.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_fs.h"
#include "common/flags.h"
#include "core/gordian.h"
#include "core/strength.h"
#include "datagen/opic_like.h"
#include "service/metrics.h"
#include "service/profiling_service.h"
#include "service/schema_profiler.h"
#include "table/csv.h"
#include "table/table.h"

namespace {

std::string EnsureDemoCsv() {
  const std::string path = "profile_demo.csv";
  gordian::Table demo = gordian::GenerateOpicLike(20000, 12, /*seed=*/99);
  gordian::Status s = gordian::WriteCsv(demo, gordian::CsvOptions{}, path);
  if (!s.ok()) {
    std::fprintf(stderr, "cannot write demo csv: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  std::printf("no input given; generated demo catalog %s (20000 rows)\n\n",
              path.c_str());
  return path;
}

int ProfileOneFile(const std::string& path,
                   const gordian::GordianOptions& options,
                   const gordian::SpillPolicy& spill) {
  gordian::Table table;
  gordian::Status s =
      gordian::ReadCsv(path, gordian::CsvOptions{}, spill, &table);
  if (!s.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n", path.c_str(),
                 s.ToString().c_str());
    return 1;
  }
  std::printf("%s: %lld rows, %d columns", path.c_str(),
              static_cast<long long>(table.num_rows()), table.num_columns());
  if (table.spilled_column_count() > 0) {
    std::printf(" (%d column(s) spilled to %s)", table.spilled_column_count(),
                spill.spill_dir.c_str());
  }
  std::printf("\n");
  for (int c = 0; c < table.num_columns(); ++c) {
    std::printf("  %-24s %lld distinct\n", table.schema().name(c).c_str(),
                static_cast<long long>(table.ColumnCardinality(c)));
  }

  gordian::KeyDiscoveryResult result = gordian::FindKeys(table, options);

  if (result.no_keys) {
    std::printf("\nThe file contains duplicate rows: NO attribute set is a "
                "key.\n");
    return 0;
  }
  if (result.incomplete) {
    std::printf("\nsearch aborted (budget/timeout); no keys certified\n");
    return 0;
  }
  if (result.sampled) {
    // Sample keys may be approximate; validate against the full file.
    gordian::ValidateKeys(table, &result);
    std::printf("\nprofiled a %lld-row sample; keys below are validated "
                "against the full file\n",
                static_cast<long long>(options.sample_rows));
  }

  std::printf("\ndiscovered keys (%zu):\n", result.keys.size());
  for (const gordian::DiscoveredKey& k : result.keys) {
    if (result.sampled) {
      const char* tag = k.exact_strength >= 1.0 ? "STRICT" : "approx";
      std::printf("  [%s] %-40s strength=%.4f (estimated >= %.4f)\n", tag,
                  table.schema().Describe(k.attrs).c_str(), k.exact_strength,
                  k.estimated_strength);
    } else {
      std::printf("  [STRICT] %s\n", table.schema().Describe(k.attrs).c_str());
    }
  }
  std::printf(
      "\ndiscovery took %.3f s (build %.3f, freeze %.3f, find %.3f, "
      "convert %.3f)\n",
      result.stats.TotalSeconds(), result.stats.build_seconds,
      result.stats.freeze_seconds, result.stats.find_seconds,
      result.stats.convert_seconds);
  return 0;
}

int ProfileManyFiles(const std::vector<std::string>& paths,
                     const gordian::GordianOptions& options, int threads,
                     double timeout_seconds,
                     const gordian::SpillPolicy& spill) {
  gordian::ServiceOptions service_options;
  service_options.num_threads = threads;
  service_options.spill_dir = spill.spill_dir;
  service_options.spill_memory_budget = spill.memory_budget_bytes;
  gordian::ProfilingService service(service_options);
  std::printf("profiling %zu files on %d worker thread(s)\n\n", paths.size(),
              service.num_threads());

  gordian::ProfileJobOptions job;
  job.gordian = options;
  job.timeout_seconds = timeout_seconds;
  std::vector<gordian::JobId> ids;
  for (const std::string& path : paths) {
    ids.push_back(service.SubmitCsv(path, path, gordian::CsvOptions{}, job));
  }

  int failures = 0;
  for (gordian::JobId id : ids) {
    gordian::ProfileOutcome out = service.Wait(id);
    if (out.info.state == gordian::JobState::kFailed) {
      std::printf("%-32s FAILED: %s\n", out.table_name.c_str(),
                  out.info.error.c_str());
      ++failures;
      continue;
    }
    if (out.result.incomplete) {
      std::printf("%-32s incomplete (budget/timeout) in %.3f s\n",
                  out.table_name.c_str(), out.info.latency_seconds);
      continue;
    }
    std::printf("%-32s %zu key(s) in %.3f s%s\n", out.table_name.c_str(),
                out.result.keys.size(), out.info.latency_seconds,
                out.result.no_keys ? " [duplicate rows: no keys]" : "");
  }

  std::printf("\n%s", FormatServiceMetrics(service.Metrics()).c_str());
  return failures == 0 ? 0 : 1;
}

std::string TableNameOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string name = slash == std::string::npos ? path : path.substr(slash + 1);
  size_t dot = name.find_last_of('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

// --schema: the files are one schema. Tables are loaded up front (spill
// policy applies per file), then a single SchemaProfiler pass discovers
// keys, top FDs, and cross-table foreign-key candidates.
int ProfileSchemaFiles(const std::vector<std::string>& paths,
                       const gordian::GordianOptions& options, int threads,
                       const gordian::SpillPolicy& spill) {
  using namespace gordian;
  std::vector<std::unique_ptr<Table>> owned;
  std::vector<std::pair<std::string, const Table*>> tables;
  for (const std::string& path : paths) {
    auto table = std::make_unique<Table>();
    Status s = ReadCsv(path, CsvOptions{}, spill, table.get());
    if (!s.ok()) {
      std::fprintf(stderr, "error reading %s: %s\n", path.c_str(),
                   s.ToString().c_str());
      return 1;
    }
    owned.push_back(std::move(table));
    tables.emplace_back(TableNameOf(path), owned.back().get());
  }

  ServiceOptions service_options;
  service_options.num_threads = threads;
  ProfilingService service(service_options);
  SchemaProfiler profiler(&service);
  SchemaProfileOptions schema_options;
  schema_options.job.gordian = options;
  SchemaReport report;
  (void)profiler.Profile(tables, schema_options, &report);

  for (const SchemaReport::TableEntry& e : report.tables) {
    std::printf("%-32s %8lld rows  %2d cols  %zu key(s)%s\n", e.name.c_str(),
                static_cast<long long>(e.table->num_rows()),
                e.table->num_columns(), e.result.keys.size(),
                e.result.no_keys ? " [duplicate rows: no keys]" : "");
    for (size_t f = 0; f < e.fds.size() && f < 3; ++f) {
      std::printf("    fd: %s -> %s  (redundancy %.3f)\n",
                  e.table->schema().Describe(e.fds[f].lhs).c_str(),
                  e.table->schema().name(e.fds[f].rhs).c_str(),
                  e.fds[f].redundancy);
    }
  }
  std::printf("\n%zu foreign-key candidate(s):\n", report.foreign_keys.size());
  for (const ForeignKeyCandidate& fk : report.foreign_keys) {
    const auto& from = report.tables[fk.referencing_table];
    const auto& to = report.tables[fk.referenced_table];
    std::string cols;
    for (size_t i = 0; i < fk.foreign_key_columns.size(); ++i) {
      if (i > 0) cols += ", ";
      cols += from.table->schema().name(fk.foreign_key_columns[i]);
    }
    std::printf("  %s(%s) -> %s%s  coverage=%.3f\n", from.name.c_str(),
                cols.c_str(), to.name.c_str(),
                to.table->schema().Describe(fk.referenced_key).c_str(),
                fk.coverage);
  }
  std::printf("\nstage timings: keys %.3fs  fds %.3fs  fks %.3fs\n",
              report.key_seconds, report.fd_seconds, report.fk_seconds);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  gordian::Flags flags(argc, argv);
  std::vector<std::string> paths = flags.positional();
  // "--schema file.csv" (no "="): the parser cannot tell a boolean switch
  // from a value flag and consumes the file as the switch's value; reclaim
  // it as the leading path.
  const bool schema_mode = flags.GetBool("schema", false);
  const std::string schema_value = flags.GetString("schema");
  if (schema_mode && schema_value != "true" && schema_value != "1") {
    paths.insert(paths.begin(), schema_value);
  }
  if (paths.empty()) paths.push_back(EnsureDemoCsv());

  gordian::GordianOptions options;
  options.sample_rows = flags.GetInt("sample", 0);
  const double timeout_seconds = flags.GetDouble("timeout", 0);
  options.time_budget_seconds = timeout_seconds;

  gordian::SpillPolicy spill;
  spill.memory_budget_bytes = flags.GetInt("memory_budget", 0) * (1LL << 20);
  if (spill.memory_budget_bytes > 0) {
    spill.spill_dir = flags.GetString("spill_dir", "gordian_spill");
    gordian::Status s = gordian::DefaultFileSystem()->CreateDir(spill.spill_dir);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot create spill dir %s: %s\n",
                   spill.spill_dir.c_str(), s.ToString().c_str());
      return 1;
    }
  }

  if (flags.GetBool("schema", false)) {
    return ProfileSchemaFiles(paths, options, flags.ThreadCount(), spill);
  }
  if (paths.size() == 1) {
    return ProfileOneFile(paths[0], options, spill);
  }
  return ProfileManyFiles(paths, options, flags.ThreadCount(),
                          timeout_seconds, spill);
}
