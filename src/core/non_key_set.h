#ifndef GORDIAN_CORE_NON_KEY_SET_H_
#define GORDIAN_CORE_NON_KEY_SET_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/attribute_set.h"
#include "core/options.h"

namespace gordian {

// The NonKeySet container of Section 3.6: a non-redundant (antichain) set of
// non-keys, stored as attribute bitmaps. Insertion follows Algorithm 5: a
// candidate covered by an existing member is rejected; otherwise members
// covered by the candidate are evicted and the candidate is added.
//
// Members are bucketed by cardinality (popcount). A member can cover a set
// only if it has at least as many attributes, and can be covered only by a
// set with at least as many — so the futility test CoversSet(attrs), whose
// probe is nearly the full attribute set, scans only the few top buckets
// instead of every member, and Insert's reject/evict passes each scan one
// side of the candidate's cardinality. This is the hottest predicate of the
// traversal (Section 3.4.2), hence the specialized layout.
class NonKeySet {
 public:
  explicit NonKeySet(GordianStats* stats = nullptr) : stats_(stats) {}

  // Algorithm 5. Returns true if `non_key` was added.
  bool Insert(const AttributeSet& non_key);

  // True iff some member covers (is a superset of) `attrs`. This is the
  // futility test: every non-key that is a subset of `attrs` would be
  // redundant.
  bool CoversSet(const AttributeSet& attrs) const;

  // Members in insertion order (the order Algorithm 5 accepted them, with
  // evicted members absent), matching the historical flat-vector behavior.
  std::vector<AttributeSet> non_keys() const;

  // Members in canonical order: ascending cardinality, then bitset order
  // (the order MinimizeSets uses for keys). Reports list non-keys this way,
  // so they are byte-identical whatever order the traversal — serial,
  // parallel, or reference — discovered them in.
  std::vector<AttributeSet> CanonicalNonKeys() const;

  int64_t size() const { return count_; }

  // Monotonic counter bumped on every accepted Insert. Evictions always
  // accompany an accepted insert, so the revision changes iff the member
  // set changed — the parallel traversal uses it to skip republishing an
  // unchanged futility snapshot.
  uint64_t revision() const { return next_seq_; }

  // Drops everything, keeping allocated bucket capacity.
  void Clear();

  int64_t ApproxBytes() const;

 private:
  struct Member {
    AttributeSet attrs;
    uint64_t seq;  // global insertion counter, for insertion-order recall
  };

  // buckets_[c] holds the members with exactly c attributes. Index range
  // covers popcounts 0..kMaxAttributes inclusive.
  std::array<std::vector<Member>, AttributeSet::kMaxAttributes + 1> buckets_;
  int min_count_ = AttributeSet::kMaxAttributes + 1;  // lowest non-empty
  int max_count_ = -1;                                // highest non-empty
  int64_t count_ = 0;
  uint64_t next_seq_ = 0;
  GordianStats* stats_;
};

}  // namespace gordian

#endif  // GORDIAN_CORE_NON_KEY_SET_H_
