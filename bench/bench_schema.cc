// bench_schema: schema-wide discovery over the two multi-table generators
// with known referential structure — tpch_lite and baseball_like. Measures
// (1) FK verification wall time, dictionary-first DiscoverForeignKeys vs the
// value-materializing ReferenceDiscoverForeignKeys (reported under the JSON
// field fk_legacy_seconds), (2) whether the two paths produce byte-identical
// candidate lists, and (3) precision/recall of the discovered foreign keys
// against the generators' built-in ground truth. Results land in
// BENCH_schema.json (overridable via GORDIAN_BENCH_SCHEMA_JSON).
//
// Usage: bench_schema [--tpch_scale=0.01] [--baseball_scale=0.25]
//                     [--threads=N] [--repeats=3]

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "core/foreign_key.h"
#include "core/gordian.h"
#include "datagen/baseball_like.h"
#include "datagen/tpch_lite.h"
#include "service/schema_profiler.h"

namespace {

using gordian::bench::FormatRatio;
using gordian::bench::FormatSeconds;
using gordian::bench::SeriesPrinter;

struct GroundTruthEval {
  int truth_total = 0;
  int truth_found = 0;   // ground-truth FKs present in the candidates
  int candidates = 0;
  int candidates_true = 0;  // candidates that match a ground-truth FK
  double precision() const {
    return candidates == 0 ? 0.0
                           : static_cast<double>(candidates_true) / candidates;
  }
  double recall() const {
    return truth_total == 0 ? 0.0
                            : static_cast<double>(truth_found) / truth_total;
  }
};

// Name-based match: candidate (referencing table, columns) -> (referenced
// table, key columns) equals a ground-truth entry. Both sides are compared
// position-wise after resolving candidate column ids to names.
bool Matches(const gordian::SchemaGroundTruthFk& truth,
             const gordian::ForeignKeyCandidate& fk,
             const std::vector<gordian::ProfiledTable>& tables) {
  const gordian::ProfiledTable& from = tables[fk.referencing_table];
  const gordian::ProfiledTable& to = tables[fk.referenced_table];
  if (from.name != truth.referencing_table) return false;
  if (to.name != truth.referenced_table) return false;
  if (fk.foreign_key_columns.size() != truth.foreign_key_columns.size()) {
    return false;
  }
  std::vector<int> kcols;
  fk.referenced_key.ForEach([&](int a) { kcols.push_back(a); });
  if (kcols.size() != truth.referenced_key_columns.size()) return false;
  for (size_t i = 0; i < kcols.size(); ++i) {
    if (from.table->schema().name(fk.foreign_key_columns[i]) !=
        truth.foreign_key_columns[i]) {
      return false;
    }
    if (to.table->schema().name(kcols[i]) != truth.referenced_key_columns[i]) {
      return false;
    }
  }
  return true;
}

GroundTruthEval Evaluate(const std::vector<gordian::SchemaGroundTruthFk>& truth,
                         const std::vector<gordian::ForeignKeyCandidate>& found,
                         const std::vector<gordian::ProfiledTable>& tables) {
  GroundTruthEval eval;
  eval.truth_total = static_cast<int>(truth.size());
  eval.candidates = static_cast<int>(found.size());
  for (const gordian::SchemaGroundTruthFk& t : truth) {
    for (const gordian::ForeignKeyCandidate& fk : found) {
      if (Matches(t, fk, tables)) {
        ++eval.truth_found;
        break;
      }
    }
  }
  for (const gordian::ForeignKeyCandidate& fk : found) {
    for (const gordian::SchemaGroundTruthFk& t : truth) {
      if (Matches(t, fk, tables)) {
        ++eval.candidates_true;
        break;
      }
    }
  }
  return eval;
}

// Serialization for the byte-equality check between the two paths.
std::string CandidatesToString(
    const std::vector<gordian::ForeignKeyCandidate>& candidates) {
  std::string out;
  char buf[160];
  for (const gordian::ForeignKeyCandidate& fk : candidates) {
    std::string cols;
    for (int c : fk.foreign_key_columns) cols += std::to_string(c) + ",";
    std::snprintf(buf, sizeof(buf), "%d[%s]->%d%s cov=%.12f ref=%.12f n=%lld\n",
                  fk.referencing_table, cols.c_str(), fk.referenced_table,
                  fk.referenced_key.ToString().c_str(), fk.coverage,
                  fk.referenced_coverage,
                  static_cast<long long>(fk.distinct_fk_tuples));
    out += buf;
  }
  return out;
}

struct DatasetResult {
  std::string name;
  int tables = 0;
  int64_t total_rows = 0;
  double key_seconds = 0;
  double dict_seconds = 0;
  double legacy_seconds = 0;
  bool identical = false;
  GroundTruthEval eval;
};

DatasetResult RunDataset(const std::string& name,
                         std::vector<gordian::NamedTable> db,
                         const std::vector<gordian::SchemaGroundTruthFk>& truth,
                         int repeats, int64_t min_distinct,
                         double min_ref_coverage) {
  using namespace gordian;
  DatasetResult out;
  out.name = name;
  out.tables = static_cast<int>(db.size());

  // Keys per table (serial FindKeys: this section times the FK paths, not
  // the key stage, and both paths must start from identical key sets).
  Stopwatch watch;
  std::vector<ProfiledTable> profiled;
  for (const NamedTable& nt : db) {
    out.total_rows += nt.table.num_rows();
    KeyDiscoveryResult r = FindKeys(nt.table);
    profiled.push_back({nt.name, &nt.table, r.KeySets()});
  }
  out.key_seconds = watch.ElapsedSeconds();

  ForeignKeyOptions options;
  options.min_distinct_values = min_distinct;
  options.max_arity = 1;  // the ground-truth FKs are all single-column
  options.min_referenced_coverage = min_ref_coverage;

  // Dictionary-first, best of `repeats`.
  std::vector<ForeignKeyCandidate> dict_candidates;
  out.dict_seconds = 1e30;
  for (int r = 0; r < repeats; ++r) {
    watch.Restart();
    dict_candidates = DiscoverForeignKeys(profiled, options);
    out.dict_seconds = std::min(out.dict_seconds, watch.ElapsedSeconds());
  }

  // The value-materializing reference, best of `repeats`.
  std::vector<ForeignKeyCandidate> legacy_candidates;
  out.legacy_seconds = 1e30;
  for (int r = 0; r < repeats; ++r) {
    watch.Restart();
    legacy_candidates = ReferenceDiscoverForeignKeys(profiled, options);
    out.legacy_seconds = std::min(out.legacy_seconds, watch.ElapsedSeconds());
  }

  out.identical = CandidatesToString(dict_candidates) ==
                  CandidatesToString(legacy_candidates);
  out.eval = Evaluate(truth, dict_candidates, profiled);
  return out;
}

void PrintDataset(const DatasetResult& r) {
  SeriesPrinter p({"path", "fk seconds", "speedup", "identical"});
  p.AddRow({"reference (value-materializing)", FormatSeconds(r.legacy_seconds),
            "1.00", "-"});
  p.AddRow({"dictionary-first", FormatSeconds(r.dict_seconds),
            FormatRatio(r.legacy_seconds / r.dict_seconds),
            r.identical ? "yes" : "NO"});
  p.Print();
  std::printf("  ground truth: %d/%d recovered (recall %.3f), "
              "%d/%d candidates genuine (precision %.3f)\n",
              r.eval.truth_found, r.eval.truth_total, r.eval.recall(),
              r.eval.candidates_true, r.eval.candidates, r.eval.precision());
}

std::string DatasetJson(const DatasetResult& r) {
  std::string out = "    {\n";
  out += "      \"dataset\": \"" + r.name + "\",\n";
  out += "      \"tables\": " + std::to_string(r.tables) + ",\n";
  out += "      \"total_rows\": " + std::to_string(r.total_rows) + ",\n";
  out += "      \"key_discovery_seconds\": " + std::to_string(r.key_seconds) +
         ",\n";
  out += "      \"fk_dictionary_first_seconds\": " +
         std::to_string(r.dict_seconds) + ",\n";
  out += "      \"fk_legacy_seconds\": " + std::to_string(r.legacy_seconds) +
         ",\n";
  out += "      \"dict_speedup\": " +
         std::to_string(r.legacy_seconds / r.dict_seconds) + ",\n";
  out += std::string("      \"paths_identical\": ") +
         (r.identical ? "true" : "false") + ",\n";
  out += "      \"ground_truth_fks\": " + std::to_string(r.eval.truth_total) +
         ",\n";
  out += "      \"recovered\": " + std::to_string(r.eval.truth_found) + ",\n";
  out += "      \"candidates\": " + std::to_string(r.eval.candidates) + ",\n";
  out +=
      "      \"precision\": " + std::to_string(r.eval.precision()) + ",\n";
  out += "      \"recall\": " + std::to_string(r.eval.recall()) + "\n";
  out += "    }";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gordian;
  Flags flags(argc, argv);
  const double tpch_scale = flags.GetDouble("tpch_scale", 0.01);
  const double baseball_scale = flags.GetDouble("baseball_scale", 0.25);
  const int repeats = static_cast<int>(flags.GetInt("repeats", 3));
  // Small reference tables (region: 5 rows) make a large min-distinct floor
  // a recall killer; 5 keeps the flag/status junk out while letting the
  // known small-domain FKs through. Likewise the referenced-coverage floor:
  // genuine FKs into a large key domain (hall_of_fame -> players touches
  // ~10% of players) die above ~0.1, so the default trades precision for
  // full recall and reports both honestly.
  const int64_t min_distinct = flags.GetInt("min_distinct", 5);
  const double min_ref_coverage = flags.GetDouble("min_ref_coverage", 0.05);

  bench::Banner("schema discovery",
                "FK verification: dictionary-first vs reference, and "
                "precision/recall vs generator ground truth");

  std::printf("\ntpch_lite (scale %.3f):\n", tpch_scale);
  DatasetResult tpch =
      RunDataset("tpch_lite", GenerateTpchLite(tpch_scale, /*seed=*/31),
                 TpchLiteForeignKeys(), repeats, min_distinct, min_ref_coverage);
  PrintDataset(tpch);

  std::printf("\nbaseball_like (scale %.2f):\n", baseball_scale);
  DatasetResult baseball =
      RunDataset("baseball_like",
                 GenerateBaseballLike(baseball_scale, /*seed=*/77),
                 BaseballLikeForeignKeys(), repeats, min_distinct, min_ref_coverage);
  PrintDataset(baseball);

  const char* env_path = std::getenv("GORDIAN_BENCH_SCHEMA_JSON");
  const std::string path = (env_path != nullptr && *env_path != '\0')
                               ? env_path
                               : "BENCH_schema.json";
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  os << "{\n  \"benchmark\": \"schema_discovery\",\n  \"datasets\": [\n"
     << DatasetJson(tpch) << ",\n"
     << DatasetJson(baseball) << "\n  ]\n}\n";
  std::cout << "\nwrote " << path << "\n";
  return 0;
}
