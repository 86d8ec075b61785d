#include "rdf/spine.h"

#include <algorithm>
#include <unordered_set>

namespace swdb {

namespace {

// Lexicographic lower bound of `key` within one leaf's columns.
size_t LeafLowerBound(const SpineLeaf& leaf, const SpineKey& key) {
  size_t lo = 0, hi = leaf.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    bool less;
    if (leaf.k0[mid] != key[0]) {
      less = leaf.k0[mid] < key[0];
    } else if (leaf.k1[mid] != key[1]) {
      less = leaf.k1[mid] < key[1];
    } else {
      less = leaf.k2[mid] < key[2];
    }
    if (less) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool LeafKeyEquals(const SpineLeaf& leaf, size_t i, const SpineKey& key) {
  return leaf.k0[i] == key[0] && leaf.k1[i] == key[1] &&
         leaf.k2[i] == key[2];
}

template <typename Col>
void InsertAt(Col& col, size_t slot, uint32_t v) {
  col.insert(col.begin() + static_cast<std::ptrdiff_t>(slot), v);
}
template <typename Col>
void EraseAt(Col& col, size_t slot) {
  col.erase(col.begin() + static_cast<std::ptrdiff_t>(slot));
}

}  // namespace

size_t Spine::bytes() const {
  size_t total = leaves_.capacity() * sizeof(leaves_[0]) +
                 starts_.capacity() * sizeof(size_t);
  for (const auto& leaf : leaves_) total += leaf->bytes();
  return total;
}

void Spine::Clear() {
  leaves_.clear();
  starts_.clear();
  size_ = 0;
}

void Spine::BulkBuild(const std::vector<SpineKey>& entries) {
  Clear();
  const size_t fill = kLeafMax / 2;
  const size_t n = entries.size();
  leaves_.reserve((n + fill - 1) / fill);
  starts_.reserve(leaves_.capacity());
  for (size_t base = 0; base < n; base += fill) {
    const size_t count = std::min(fill, n - base);
    auto leaf = std::make_shared<SpineLeaf>();
    leaf->k0.reserve(count);
    leaf->k1.reserve(count);
    leaf->k2.reserve(count);
    for (size_t i = base; i < base + count; ++i) {
      leaf->k0.push_back(entries[i][0]);
      leaf->k1.push_back(entries[i][1]);
      leaf->k2.push_back(entries[i][2]);
    }
    starts_.push_back(base);
    leaves_.push_back(std::move(leaf));
  }
  size_ = n;
}

size_t Spine::LeafForKey(const SpineKey& key) const {
  // Last leaf whose first key is <= key: partition the leaves by
  // "first key > key" and step back one.
  size_t lo = 0, hi = leaves_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const SpineLeaf& leaf = *leaves_[mid];
    const SpineKey first = leaf.at(0);
    if (first <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? 0 : lo - 1;
}

bool Spine::Contains(const SpineKey& key) const {
  if (empty()) return false;
  const size_t li = LeafForKey(key);
  const SpineLeaf& leaf = *leaves_[li];
  const size_t slot = LeafLowerBound(leaf, key);
  return slot < leaf.size() && LeafKeyEquals(leaf, slot, key);
}

SpineLeaf* Spine::Mutable(size_t li) {
  if (leaves_[li].use_count() != 1) {
    leaves_[li] = std::make_shared<SpineLeaf>(*leaves_[li]);
  }
  return leaves_[li].get();
}

void Spine::Split(size_t li) {
  SpineLeaf& left = *leaves_[li];  // caller just made it unshared
  const size_t half = left.size() / 2;
  auto right = std::make_shared<SpineLeaf>();
  right->k0.assign(left.k0.begin() + half, left.k0.end());
  right->k1.assign(left.k1.begin() + half, left.k1.end());
  right->k2.assign(left.k2.begin() + half, left.k2.end());
  left.k0.resize(half);
  left.k1.resize(half);
  left.k2.resize(half);
  left.k0.shrink_to_fit();
  left.k1.shrink_to_fit();
  left.k2.shrink_to_fit();
  leaves_.insert(leaves_.begin() + static_cast<std::ptrdiff_t>(li) + 1,
                 std::move(right));
  starts_.insert(starts_.begin() + static_cast<std::ptrdiff_t>(li) + 1,
                 starts_[li] + half);
}

bool Spine::Insert(const SpineKey& key) {
  if (empty()) {
    auto leaf = std::make_shared<SpineLeaf>();
    leaf->k0.push_back(key[0]);
    leaf->k1.push_back(key[1]);
    leaf->k2.push_back(key[2]);
    leaves_.push_back(std::move(leaf));
    starts_.push_back(0);
    size_ = 1;
    return true;
  }
  const size_t li = LeafForKey(key);
  {
    const SpineLeaf& leaf = *leaves_[li];
    const size_t slot = LeafLowerBound(leaf, key);
    if (slot < leaf.size() && LeafKeyEquals(leaf, slot, key)) return false;
  }
  SpineLeaf* leaf = Mutable(li);
  const size_t slot = LeafLowerBound(*leaf, key);
  InsertAt(leaf->k0, slot, key[0]);
  InsertAt(leaf->k1, slot, key[1]);
  InsertAt(leaf->k2, slot, key[2]);
  // Renumber the tail before any split: Split computes the new leaf's
  // start in post-insert numbering already.
  for (size_t j = li + 1; j < starts_.size(); ++j) ++starts_[j];
  if (leaf->size() > kLeafMax) Split(li);
  ++size_;
  return true;
}

bool Spine::Erase(const SpineKey& key) {
  if (empty()) return false;
  const size_t li = LeafForKey(key);
  {
    const SpineLeaf& leaf = *leaves_[li];
    const size_t slot = LeafLowerBound(leaf, key);
    if (slot == leaf.size() || !LeafKeyEquals(leaf, slot, key)) return false;
  }
  SpineLeaf* leaf = Mutable(li);
  const size_t slot = LeafLowerBound(*leaf, key);
  EraseAt(leaf->k0, slot);
  EraseAt(leaf->k1, slot);
  EraseAt(leaf->k2, slot);
  const bool emptied = leaf->size() == 0;
  if (emptied) {
    leaves_.erase(leaves_.begin() + static_cast<std::ptrdiff_t>(li));
    starts_.erase(starts_.begin() + static_cast<std::ptrdiff_t>(li));
  }
  for (size_t j = li + (emptied ? 0 : 1); j < starts_.size(); ++j) {
    --starts_[j];
  }
  --size_;
  return true;
}

// Aligned for stable speed of the per-triple full-scan loops that call
// it (see Step in paths/path.cc).
__attribute__((aligned(64)))
SpineKey Spine::At(size_t slot) const {
  const size_t li = LeafIndexOf(slot);
  return leaves_[li]->at(slot - starts_[li]);
}

std::vector<SpineKey> Spine::Keys() const {
  std::vector<SpineKey> out;
  out.reserve(size_);
  for (const auto& leaf : leaves_) {
    for (size_t i = 0; i < leaf->size(); ++i) out.push_back(leaf->at(i));
  }
  return out;
}

size_t Spine::LeafIndexOf(size_t slot) const {
  // Last leaf whose start is <= slot.
  const auto it = std::upper_bound(starts_.begin(), starts_.end(), slot);
  return static_cast<size_t>(it - starts_.begin()) - 1;
}

size_t Spine::LowerBound(const SpineKey& key) const {
  if (empty()) return 0;
  const size_t li = LeafForKey(key);
  const size_t slot = LeafLowerBound(*leaves_[li], key);
  if (slot == leaves_[li]->size() && li + 1 < leaves_.size()) {
    return starts_[li + 1];
  }
  return starts_[li] + slot;
}

std::pair<size_t, size_t> Spine::EqualRange(uint32_t key0,
                                            const uint32_t* key1,
                                            size_t* scanned) const {
  // Column-wise equal_range in global slot space: each probe resolves
  // its leaf by binary search on starts_, so a probe is O(log leaves)
  // and a range O(log^2 n) — no row indirection, no leaf gathering.
  size_t probes = 0;
  auto col_at = [&](int c, size_t slot) -> uint32_t {
    ++probes;
    const size_t li = LeafIndexOf(slot);
    return leaves_[li]->column(c)[slot - starts_[li]];
  };
  auto bound = [&](int c, size_t lo, size_t hi, uint32_t key,
                   bool upper) -> size_t {
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      const uint32_t v = col_at(c, mid);
      if (upper ? v <= key : v < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  size_t lo = bound(0, 0, size_, key0, /*upper=*/false);
  size_t hi = bound(0, lo, size_, key0, /*upper=*/true);
  if (key1 != nullptr && lo < hi) {
    const size_t k1_lo = bound(1, lo, hi, *key1, /*upper=*/false);
    hi = bound(1, k1_lo, hi, *key1, /*upper=*/true);
    lo = k1_lo;
  }
  if (scanned != nullptr) *scanned += probes;
  return {lo, hi};
}

bool Spine::EqualContents(const Spine& other) const {
  if (size_ != other.size_) return false;
  size_t ai = 0, ao = 0;  // our leaf index / offset within it
  size_t bi = 0, bo = 0;  // theirs
  for (size_t done = 0; done < size_;) {
    const SpineLeaf& la = *leaves_[ai];
    const SpineLeaf& lb = *other.leaves_[bi];
    if (ao == 0 && bo == 0 && &la == &lb) {
      done += la.size();
      ++ai;
      ++bi;
      continue;
    }
    const size_t run = std::min(la.size() - ao, lb.size() - bo);
    const auto d = static_cast<std::ptrdiff_t>(run);
    if (!std::equal(la.k0.begin() + ao, la.k0.begin() + ao + d,
                    lb.k0.begin() + bo) ||
        !std::equal(la.k1.begin() + ao, la.k1.begin() + ao + d,
                    lb.k1.begin() + bo) ||
        !std::equal(la.k2.begin() + ao, la.k2.begin() + ao + d,
                    lb.k2.begin() + bo)) {
      return false;
    }
    ao += run;
    bo += run;
    done += run;
    if (ao == la.size()) {
      ++ai;
      ao = 0;
    }
    if (bo == lb.size()) {
      ++bi;
      bo = 0;
    }
  }
  return true;
}

size_t Spine::CountSharedLeavesWith(const Spine& other) const {
  std::unordered_set<const SpineLeaf*> theirs;
  theirs.reserve(other.leaves_.size() * 2);
  for (const auto& leaf : other.leaves_) theirs.insert(leaf.get());
  size_t shared = 0;
  for (const auto& leaf : leaves_) {
    if (theirs.count(leaf.get()) != 0) ++shared;
  }
  return shared;
}

}  // namespace swdb
