#ifndef GORDIAN_CORE_FOREIGN_KEY_H_
#define GORDIAN_CORE_FOREIGN_KEY_H_

#include <string>
#include <vector>

#include "common/attribute_set.h"
#include "core/gordian.h"
#include "table/table.h"

namespace gordian {

// Foreign-key (inclusion dependency) discovery — the extension the paper
// names as future work ("we plan to extend our approach to permit
// identification of foreign-key relationships, thereby automating the
// discovery of full entity-relationship diagrams", Section 6).
//
// A candidate foreign key is a column set F of a referencing table whose
// projected value set is (almost) contained in the value set of a discovered
// key K of a referenced table. Candidates are scored by coverage =
// |distinct F-tuples that appear among K-tuples| / |distinct F-tuples|; a
// strict inclusion dependency has coverage 1.
//
// NULL semantics follow SQL foreign keys: a referencing tuple containing a
// NULL in any foreign-key column asserts nothing, so it is excluded from
// the coverage denominator entirely (it is neither covered nor uncovered,
// and does not count toward distinct_fk_tuples).
//
// Discovery is dictionary-first: candidate column pairs are pruned by
// comparing per-column dictionaries (value type, then value-set containment
// probed dictionary-to-dictionary) before any row is touched, and the
// survivors are verified in code space — referencing codes are translated
// through a dictionary-to-dictionary mapping and probed against the
// referenced key's code tuples, streaming CodeColumn chunks so spilled
// tables verify without residency. ReferenceDiscoverForeignKeys is the
// value-materializing oracle tests compare it against.

struct ForeignKeyCandidate {
  int referencing_table = 0;  // index into the input table list
  // Columns of the referencing table, ordered to correspond position-wise
  // with the referenced key's columns (ascending). A plain AttributeSet
  // would lose that pairing for multi-column foreign keys.
  std::vector<int> foreign_key_columns;
  int referenced_table = 0;    // index into the input table list
  AttributeSet referenced_key; // a discovered key of that table
  double coverage = 0;         // fraction of distinct FK tuples found in K
  // Reverse direction: fraction of the referenced key's values that are
  // actually referenced. Genuine foreign keys tend to reference a sizable
  // share of the key's domain; a small integer column that merely falls
  // inside a dense surrogate-key range does not.
  double referenced_coverage = 0;
  int64_t distinct_fk_tuples = 0;  // NULL-free distinct tuples (denominator)
};

struct ForeignKeyOptions {
  // Candidates below this coverage are dropped. 1.0 = strict inclusion only.
  double min_coverage = 1.0;

  // Only single-column and two-column foreign keys are searched by default;
  // wider FKs are rare and the candidate space grows as d^arity.
  int max_arity = 2;

  // Skip referencing column sets whose distinct count is below this (tiny
  // domains like flags produce meaningless inclusions).
  int64_t min_distinct_values = 20;

  // Names must be paired with equal value types; a numeric FK never
  // references a string key.
  bool require_type_compatibility = true;

  // Candidates referencing less than this fraction of the key's values are
  // dropped (see ForeignKeyCandidate::referenced_coverage). 0 keeps all.
  double min_referenced_coverage = 0.0;
};

// One profiled table: its data plus the keys GORDIAN discovered for it.
struct ProfiledTable {
  std::string name;
  const Table* table = nullptr;
  std::vector<AttributeSet> keys;
};

// Searches all ordered table pairs for inclusion dependencies from column
// sets of the referencing table into discovered keys of the referenced
// table. Self-references are allowed (hierarchies) but the identical column
// set is excluded. The result is in the documented total order (see
// ForeignKeyCandidateLess), so it is byte-stable across runs and paths.
std::vector<ForeignKeyCandidate> DiscoverForeignKeys(
    const std::vector<ProfiledTable>& tables,
    const ForeignKeyOptions& options = {});

// The reference DiscoverForeignKeys (tests and bench_schema only): every
// referencing row is decoded into Values and its tuple hashed against the
// referenced key's tuple set. Same candidates in the same order.
std::vector<ForeignKeyCandidate> ReferenceDiscoverForeignKeys(
    const std::vector<ProfiledTable>& tables,
    const ForeignKeyOptions& options = {});

// One verification work unit: all candidate column tuples of
// tables[referencing_table] checked against the single discovered key
// `key` of tables[referenced_table]. DiscoverForeignKeys is exactly the
// loop over every (referenced table, key, referencing table) unit followed
// by SortForeignKeyCandidates; schedulers (service/schema_profiler.h) fan
// these units across a thread pool and sort the concatenation to get the
// identical list. Thread-safe for concurrent calls over the same tables
// (only const Table accessors whose caches are pre-warmed or guarded).
std::vector<ForeignKeyCandidate> VerifyForeignKeysAgainstKey(
    const std::vector<ProfiledTable>& tables, int referencing_table,
    int referenced_table, const AttributeSet& key,
    const ForeignKeyOptions& options = {});

// The documented total order over candidates: coverage descending, then
// referencing table, referenced table, foreign-key columns, referenced key,
// all ascending. No two distinct candidates compare equal, so a sorted
// report is byte-stable regardless of discovery path or thread count.
bool ForeignKeyCandidateLess(const ForeignKeyCandidate& a,
                             const ForeignKeyCandidate& b);
void SortForeignKeyCandidates(std::vector<ForeignKeyCandidate>* candidates);

// Coverage of the inclusion fk_cols(fk_table) <= key_cols(key_table):
// fraction of the referencing table's distinct NULL-free fk tuples that
// occur among the referenced table's key tuples. Exposed for tests.
double InclusionCoverage(const Table& fk_table, const AttributeSet& fk_cols,
                         const Table& key_table, const AttributeSet& key_cols);

}  // namespace gordian

#endif  // GORDIAN_CORE_FOREIGN_KEY_H_
