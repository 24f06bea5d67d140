#include "core/non_key_set.h"

#include <algorithm>

namespace gordian {

bool NonKeySet::Insert(const AttributeSet& non_key) {
  if (stats_ != nullptr) ++stats_->non_key_insert_attempts;
  const int c = non_key.Count();
  // First pass: reject if covered by an existing non-key. Only members with
  // cardinality >= c can cover the candidate.
  for (int b = std::max(c, min_count_); b <= max_count_; ++b) {
    for (const Member& m : buckets_[b]) {
      if (m.attrs.Covers(non_key)) {
        if (stats_ != nullptr) ++stats_->non_keys_rejected_covered;
        return false;
      }
    }
  }
  // Second pass: evict members covered by the candidate — they all have
  // cardinality <= c (and the equal-cardinality bucket can only hold an
  // exact duplicate, which the reject pass already caught).
  int64_t evicted = 0;
  for (int b = min_count_; b < c && b <= max_count_; ++b) {
    std::vector<Member>& bucket = buckets_[b];
    if (bucket.empty()) continue;
    auto keep = std::remove_if(bucket.begin(), bucket.end(),
                               [&](const Member& m) {
                                 return non_key.Covers(m.attrs);
                               });
    evicted += static_cast<int64_t>(bucket.end() - keep);
    bucket.erase(keep, bucket.end());
  }
  if (stats_ != nullptr) stats_->non_keys_evicted += evicted;
  count_ -= evicted;

  buckets_[c].push_back(Member{non_key, next_seq_++});
  ++count_;
  min_count_ = std::min(min_count_, c);
  max_count_ = std::max(max_count_, c);
  // Eviction may have emptied the extreme buckets; the bounds are advisory
  // (scans skip empty buckets cheaply), so no re-tightening pass is needed.
  return true;
}

bool NonKeySet::CoversSet(const AttributeSet& attrs) const {
  // Only members at least as large as the probe can cover it; with the
  // probe being cur_non_key | suffix (nearly the full schema) this visits
  // the top sliver of the antichain.
  for (int b = std::max(attrs.Count(), min_count_); b <= max_count_; ++b) {
    for (const Member& m : buckets_[b]) {
      if (m.attrs.Covers(attrs)) return true;
    }
  }
  return false;
}

std::vector<AttributeSet> NonKeySet::non_keys() const {
  std::vector<Member> all;
  all.reserve(static_cast<size_t>(count_));
  for (int b = std::max(0, min_count_); b <= max_count_; ++b) {
    all.insert(all.end(), buckets_[b].begin(), buckets_[b].end());
  }
  std::sort(all.begin(), all.end(),
            [](const Member& a, const Member& b) { return a.seq < b.seq; });
  std::vector<AttributeSet> out;
  out.reserve(all.size());
  for (const Member& m : all) out.push_back(m.attrs);
  return out;
}

std::vector<AttributeSet> NonKeySet::CanonicalNonKeys() const {
  std::vector<AttributeSet> out;
  out.reserve(static_cast<size_t>(count_));
  for (int b = std::max(0, min_count_); b <= max_count_; ++b) {
    const size_t begin = out.size();
    for (const Member& m : buckets_[b]) out.push_back(m.attrs);
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(begin), out.end());
  }
  return out;
}

void NonKeySet::Clear() {
  for (int b = std::max(0, min_count_); b <= max_count_; ++b) {
    buckets_[b].clear();
  }
  min_count_ = AttributeSet::kMaxAttributes + 1;
  max_count_ = -1;
  count_ = 0;
  next_seq_ = 0;
}

int64_t NonKeySet::ApproxBytes() const {
  int64_t bytes = 0;
  for (const std::vector<Member>& bucket : buckets_) {
    bytes += static_cast<int64_t>(bucket.capacity() * sizeof(Member));
  }
  return bytes;
}

}  // namespace gordian
