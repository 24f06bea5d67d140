#include "core/foreign_key.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "common/hashing.h"

namespace gordian {

namespace {

// Value tuples must be compared across tables, whose dictionaries assign
// codes independently — so fingerprints are built from the decoded Values.
Fingerprint128 TupleFingerprint(const Table& t, int64_t row,
                                const std::vector<int>& cols) {
  Fingerprint128 fp;
  for (int c : cols) fp.Update(t.value(row, c).Hash());
  return fp;
}

std::vector<int> ToCols(const AttributeSet& attrs) {
  std::vector<int> cols;
  attrs.ForEach([&](int a) { cols.push_back(a); });
  return cols;
}

// Dominant value type of a column, judged from its dictionary (NULLs are
// ignored; ties resolve to the first seen).
ValueType ColumnType(const Table& t, int col) {
  const Dictionary& d = t.dictionary(col);
  for (uint32_t code = 0; code < d.size(); ++code) {
    if (!d.Decode(code).is_null()) return d.Decode(code).type();
  }
  return ValueType::kNull;
}

bool TypesCompatible(const Table& a, const std::vector<int>& a_cols,
                     const Table& b, const std::vector<int>& b_cols) {
  for (size_t i = 0; i < a_cols.size(); ++i) {
    if (ColumnType(a, a_cols[i]) != ColumnType(b, b_cols[i])) return false;
  }
  return true;
}

bool RowHasNull(const Table& t, int64_t row, const std::vector<int>& cols) {
  for (int c : cols) {
    if (t.value(row, c).is_null()) return true;
  }
  return false;
}

// --- dictionary-first path ----------------------------------------------

// Per-column facts derivable without decoding rows into Values: which
// dictionary codes actually occur in the rows (a sample or column view may
// carry a parent dictionary with absent values), how many distinct NULL-free
// values that is, and where NULL lives. One chunk-streamed pass per column —
// spilled columns are read through their mmap a chunk at a time, never
// materialized.
struct ColumnArtifact {
  ValueType type = ValueType::kNull;
  uint32_t null_code = UINT32_MAX;
  std::vector<uint8_t> present;   // indexed by dictionary code
  int64_t present_total = 0;      // distinct codes occurring in rows
  int64_t present_nonnull = 0;    // ... excluding the NULL code
};

ColumnArtifact BuildColumnArtifact(const Table& t, int col) {
  ColumnArtifact a;
  const Dictionary& d = t.dictionary(col);
  a.type = ColumnType(t, col);
  a.null_code = d.Lookup(Value::Null());  // UINT32_MAX when absent
  a.present.assign(d.size(), 0);
  const CodeColumn& codes = t.column_codes(col);
  for (int64_t ch = 0; ch < codes.num_chunks(); ++ch) {
    CodeColumn::Span span = codes.Scan(ch);
    for (int64_t i = 0; i < span.count; ++i) a.present[span.data[i]] = 1;
  }
  a.present_total = std::count(a.present.begin(), a.present.end(), 1);
  a.present_nonnull =
      a.present_total - (a.null_code != UINT32_MAX && a.present[a.null_code]);
  return a;
}

// Code translation from the referencing column's dictionary into the
// referenced column's: trans[fc_code] is the referenced code carrying the
// same Value, or UINT32_MAX when the value is absent there. Only codes that
// occur in rows are probed (absent ones can never appear in a tuple).
std::vector<uint32_t> BuildTranslation(const Dictionary& from,
                                       const ColumnArtifact& from_art,
                                       const Dictionary& to) {
  std::vector<uint32_t> trans(from.size(), UINT32_MAX);
  for (uint32_t c = 0; c < from.size(); ++c) {
    if (!from_art.present[c] || c == from_art.null_code) continue;
    trans[c] = to.Lookup(from.Decode(c));
  }
  return trans;
}

// Lazily built, memoized per VerifyForeignKeysAgainstKey call (calls are
// independent, so concurrent verification units never share one).
class ArtifactSet {
 public:
  explicit ArtifactSet(const Table& table)
      : table_(table), arts_(static_cast<size_t>(table.num_columns())) {}

  const ColumnArtifact& Get(int col) {
    if (!arts_[col]) arts_[col] = BuildColumnArtifact(table_, col);
    return *arts_[col];
  }

 private:
  const Table& table_;
  std::vector<std::optional<ColumnArtifact>> arts_;
};

uint64_t PackPair(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

// Applies the shared tail filters and appends the candidate when it passes.
void EmitIfQualified(int fi, int ki, const std::vector<int>& fcols,
                     const AttributeSet& key, int64_t covered,
                     int64_t denominator, int64_t key_tuples,
                     const ForeignKeyOptions& options,
                     std::vector<ForeignKeyCandidate>* out) {
  if (denominator == 0) return;  // every referencing tuple carried a NULL
  if (denominator < options.min_distinct_values) return;
  double coverage =
      static_cast<double>(covered) / static_cast<double>(denominator);
  if (coverage + 1e-12 < options.min_coverage) return;
  double referenced_coverage =
      key_tuples == 0 ? 0.0
                      : static_cast<double>(covered) /
                            static_cast<double>(key_tuples);
  if (referenced_coverage + 1e-12 < options.min_referenced_coverage) return;

  ForeignKeyCandidate cand;
  cand.referencing_table = fi;
  cand.referenced_table = ki;
  cand.foreign_key_columns = fcols;
  cand.referenced_key = key;
  cand.coverage = coverage;
  cand.referenced_coverage = referenced_coverage;
  cand.distinct_fk_tuples = denominator;
  out->push_back(std::move(cand));
}

// All candidate column tuples of tables[fi] with the key's arity, in the
// fixed enumeration order both paths share, minus the key referencing
// itself and, when required, type-incompatible pairings.
std::vector<std::vector<int>> EnumerateCandidates(
    const Table& ft, int fi, const Table& kt, int ki,
    const std::vector<int>& kcols, const ForeignKeyOptions& options) {
  std::vector<std::vector<int>> candidates;
  auto consider = [&](std::vector<int> fcols) {
    if (fi == ki && fcols == kcols) return;
    if (options.require_type_compatibility &&
        !TypesCompatible(ft, fcols, kt, kcols)) {
      return;
    }
    candidates.push_back(std::move(fcols));
  };
  const int d = ft.num_columns();
  for (int c1 = 0; c1 < d; ++c1) {
    if (kcols.size() == 1) {
      consider({c1});
      continue;
    }
    for (int c2 = 0; c2 < d; ++c2) {
      if (c1 != c2) consider({c1, c2});
    }
  }
  return candidates;
}

void VerifyDictionaryFirst(const std::vector<ProfiledTable>& tables, int fi,
                           int ki, const AttributeSet& key,
                           const std::vector<int>& kcols,
                           const ForeignKeyOptions& options,
                           std::vector<ForeignKeyCandidate>* out) {
  const Table& ft = *tables[fi].table;
  const Table& kt = *tables[ki].table;
  const bool strict = options.min_coverage >= 1.0;

  ArtifactSet fk_arts(ft);
  ArtifactSet key_arts(kt);
  // Key-side artifacts are always needed; referencing-side ones only for
  // columns that survive the type check.
  std::vector<const ColumnArtifact*> karts;
  for (int kc : kcols) karts.push_back(&key_arts.Get(kc));

  // The referenced key's distinct code-pair set, built once per call and
  // only for arity-2 keys (arity 1 reads presence straight off the
  // artifact). Chunk-streamed over both key columns.
  std::unordered_set<uint64_t> key_pairs;
  if (kcols.size() == 2) {
    const CodeColumn& k1 = kt.column_codes(kcols[0]);
    const CodeColumn& k2 = kt.column_codes(kcols[1]);
    key_pairs.reserve(static_cast<size_t>(kt.num_rows()));
    const uint32_t* d2 = k2.data();
    for (int64_t ch = 0; ch < k1.num_chunks(); ++ch) {
      CodeColumn::Span span = k1.Scan(ch);
      for (int64_t i = 0; i < span.count; ++i) {
        key_pairs.insert(
            PackPair(span.data[i], d2[span.begin + i]));
      }
    }
  }

  // Memoized translations, keyed by (fk column, key position).
  std::vector<std::vector<std::vector<uint32_t>>> trans_memo(
      ft.num_columns(),
      std::vector<std::vector<uint32_t>>(kcols.size()));
  std::vector<std::vector<uint8_t>> trans_built(
      ft.num_columns(), std::vector<uint8_t>(kcols.size(), 0));
  auto translation = [&](int fc, size_t kpos) -> const std::vector<uint32_t>& {
    if (!trans_built[fc][kpos]) {
      trans_memo[fc][kpos] = BuildTranslation(
          ft.dictionary(fc), fk_arts.Get(fc), kt.dictionary(kcols[kpos]));
      trans_built[fc][kpos] = 1;
    }
    return trans_memo[fc][kpos];
  };

  for (const std::vector<int>& fcols :
       EnumerateCandidates(ft, fi, kt, ki, kcols, options)) {
    if (kcols.size() == 1) {
      // Arity 1 is decided entirely from dictionaries + presence: coverage
      // counts the referencing column's occurring NULL-free values whose
      // translation lands on a referenced code that itself occurs.
      const ColumnArtifact& fa = fk_arts.Get(fcols[0]);
      const ColumnArtifact& ka = *karts[0];
      const std::vector<uint32_t>& trans = translation(fcols[0], 0);
      int64_t covered = 0;
      bool viable = true;
      for (uint32_t c = 0; c < trans.size(); ++c) {
        if (!fa.present[c] || c == fa.null_code) continue;
        uint32_t k = trans[c];
        if (k != UINT32_MAX && ka.present[k]) {
          ++covered;
        } else if (strict) {
          viable = false;  // strict inclusion already broken
          break;
        }
      }
      if (!viable) continue;
      EmitIfQualified(fi, ki, fcols, key, covered, fa.present_nonnull,
                      ka.present_total, options, out);
      continue;
    }

    // Arity 2. Column-level dictionary prune first: under strict inclusion
    // every component of a NULL-free tuple must translate to an occurring
    // referenced code, so a failing value in one column kills the pair —
    // provided the *other* column is NULL-free in the rows (otherwise the
    // failing value might only ever co-occur with NULLs, which the
    // denominator excludes, and the prune would be unsound).
    const ColumnArtifact& fa1 = fk_arts.Get(fcols[0]);
    const ColumnArtifact& fa2 = fk_arts.Get(fcols[1]);
    if (strict) {
      bool pruned = false;
      for (int side = 0; side < 2 && !pruned; ++side) {
        const ColumnArtifact& fa = side == 0 ? fa1 : fa2;
        const ColumnArtifact& other = side == 0 ? fa2 : fa1;
        const bool other_nullfree =
            other.null_code == UINT32_MAX || !other.present[other.null_code];
        if (!other_nullfree) continue;
        const ColumnArtifact& ka = *karts[side];
        const std::vector<uint32_t>& trans = translation(fcols[side], side);
        for (uint32_t c = 0; c < trans.size(); ++c) {
          if (!fa.present[c] || c == fa.null_code) continue;
          uint32_t k = trans[c];
          if (k == UINT32_MAX || !ka.present[k]) {
            pruned = true;
            break;
          }
        }
      }
      if (pruned) continue;
    }

    // Survivors: verify over translated code pairs, streaming the
    // referencing columns chunk by chunk.
    const std::vector<uint32_t>& t1 = translation(fcols[0], 0);
    const std::vector<uint32_t>& t2 = translation(fcols[1], 1);
    const CodeColumn& c1 = ft.column_codes(fcols[0]);
    const CodeColumn& c2 = ft.column_codes(fcols[1]);
    const uint32_t* d2 = c2.data();
    std::unordered_set<uint64_t> seen;
    int64_t covered = 0;
    bool viable = true;
    for (int64_t ch = 0; ch < c1.num_chunks() && viable; ++ch) {
      CodeColumn::Span span = c1.Scan(ch);
      for (int64_t i = 0; i < span.count; ++i) {
        uint32_t a = span.data[i];
        uint32_t b = d2[span.begin + i];
        if (a == fa1.null_code || b == fa2.null_code) continue;  // SQL NULLs
        if (!seen.insert(PackPair(a, b)).second) continue;
        uint32_t ta = t1[a], tb = t2[b];
        if (ta != UINT32_MAX && tb != UINT32_MAX &&
            key_pairs.count(PackPair(ta, tb)) > 0) {
          ++covered;
        } else if (strict) {
          viable = false;
          break;
        }
      }
    }
    if (!viable) continue;
    EmitIfQualified(fi, ki, fcols, key, covered,
                    static_cast<int64_t>(seen.size()),
                    static_cast<int64_t>(key_pairs.size()), options, out);
  }
}

// --- value-materializing reference path -----------------------------------

using TupleSet = std::unordered_set<Fingerprint128, Fingerprint128Hash>;

TupleSet KeyTuples(const Table& kt, const std::vector<int>& kcols) {
  TupleSet key_tuples;
  key_tuples.reserve(static_cast<size_t>(kt.num_rows()));
  for (int64_t r = 0; r < kt.num_rows(); ++r) {
    key_tuples.insert(TupleFingerprint(kt, r, kcols));
  }
  return key_tuples;
}

// Counts the distinct NULL-free `fcols` tuples of `ft` into *distinct (a
// tuple holding a NULL asserts nothing, per SQL FK semantics) and returns
// how many occur among `key_tuples` — or -1 under `strict`, at the first
// uncovered tuple.
int64_t CountCovered(const Table& ft, const std::vector<int>& fcols,
                     const TupleSet& key_tuples, bool strict,
                     int64_t* distinct) {
  TupleSet fk_tuples;
  int64_t covered = 0;
  for (int64_t r = 0; r < ft.num_rows(); ++r) {
    if (RowHasNull(ft, r, fcols)) continue;
    Fingerprint128 fp = TupleFingerprint(ft, r, fcols);
    if (!fk_tuples.insert(fp).second) continue;
    if (key_tuples.count(fp) > 0) {
      ++covered;
    } else if (strict) {
      return -1;
    }
  }
  *distinct = static_cast<int64_t>(fk_tuples.size());
  return covered;
}

void VerifyReference(const std::vector<ProfiledTable>& tables, int fi, int ki,
                     const AttributeSet& key, const std::vector<int>& kcols,
                     const ForeignKeyOptions& options,
                     std::vector<ForeignKeyCandidate>* out) {
  const Table& ft = *tables[fi].table;
  const Table& kt = *tables[ki].table;
  const TupleSet key_tuples = KeyTuples(kt, kcols);
  for (const std::vector<int>& fcols :
       EnumerateCandidates(ft, fi, kt, ki, kcols, options)) {
    int64_t distinct = 0;
    const int64_t covered = CountCovered(
        ft, fcols, key_tuples, options.min_coverage >= 1.0, &distinct);
    if (covered < 0) continue;
    EmitIfQualified(fi, ki, fcols, key, covered, distinct,
                    static_cast<int64_t>(key_tuples.size()), options, out);
  }
}

// Keys the search covers: arity 1 and 2, capped by options.max_arity.
bool SearchedKey(const std::vector<int>& kcols,
                 const ForeignKeyOptions& options) {
  return !kcols.empty() && kcols.size() <= 2 &&
         static_cast<int>(kcols.size()) <= options.max_arity;
}

// Every (referenced table, key, referencing table) unit through `verify`,
// in enumeration order, then the documented total order.
template <typename Verify>
std::vector<ForeignKeyCandidate> DiscoverWith(
    const Verify& verify, const std::vector<ProfiledTable>& tables,
    const ForeignKeyOptions& options) {
  std::vector<ForeignKeyCandidate> found;
  for (size_t ki = 0; ki < tables.size(); ++ki) {
    for (const AttributeSet& key : tables[ki].keys) {
      const std::vector<int> kcols = ToCols(key);
      if (!SearchedKey(kcols, options)) continue;
      for (size_t fi = 0; fi < tables.size(); ++fi) {
        verify(tables, static_cast<int>(fi), static_cast<int>(ki), key, kcols,
               options, &found);
      }
    }
  }
  SortForeignKeyCandidates(&found);
  return found;
}

}  // namespace

double InclusionCoverage(const Table& fk_table, const AttributeSet& fk_cols,
                         const Table& key_table,
                         const AttributeSet& key_cols) {
  std::vector<int> fcols = ToCols(fk_cols);
  std::vector<int> kcols = ToCols(key_cols);
  if (fcols.size() != kcols.size() || fcols.empty()) return 0;
  int64_t distinct = 0;
  const int64_t covered = CountCovered(fk_table, fcols,
                                       KeyTuples(key_table, kcols),
                                       /*strict=*/false, &distinct);
  if (distinct == 0) return 0;
  return static_cast<double>(covered) / static_cast<double>(distinct);
}

std::vector<ForeignKeyCandidate> VerifyForeignKeysAgainstKey(
    const std::vector<ProfiledTable>& tables, int referencing_table,
    int referenced_table, const AttributeSet& key,
    const ForeignKeyOptions& options) {
  std::vector<ForeignKeyCandidate> out;
  const std::vector<int> kcols = ToCols(key);
  if (SearchedKey(kcols, options)) {
    VerifyDictionaryFirst(tables, referencing_table, referenced_table, key,
                          kcols, options, &out);
  }
  return out;
}

bool ForeignKeyCandidateLess(const ForeignKeyCandidate& a,
                             const ForeignKeyCandidate& b) {
  if (a.coverage != b.coverage) return a.coverage > b.coverage;
  if (a.referencing_table != b.referencing_table) {
    return a.referencing_table < b.referencing_table;
  }
  if (a.referenced_table != b.referenced_table) {
    return a.referenced_table < b.referenced_table;
  }
  if (a.foreign_key_columns != b.foreign_key_columns) {
    return a.foreign_key_columns < b.foreign_key_columns;
  }
  return a.referenced_key < b.referenced_key;
}

void SortForeignKeyCandidates(std::vector<ForeignKeyCandidate>* candidates) {
  std::sort(candidates->begin(), candidates->end(), ForeignKeyCandidateLess);
}

std::vector<ForeignKeyCandidate> DiscoverForeignKeys(
    const std::vector<ProfiledTable>& tables,
    const ForeignKeyOptions& options) {
  return DiscoverWith(VerifyDictionaryFirst, tables, options);
}

std::vector<ForeignKeyCandidate> ReferenceDiscoverForeignKeys(
    const std::vector<ProfiledTable>& tables,
    const ForeignKeyOptions& options) {
  return DiscoverWith(VerifyReference, tables, options);
}

}  // namespace gordian
