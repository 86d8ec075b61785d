#include "rdf/graph.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "rdf/scan.h"

namespace swdb {

const char* IndexOrderName(IndexOrder order) {
  switch (order) {
    case IndexOrder::kSpo:
      return "spo";
    case IndexOrder::kPso:
      return "pso";
    case IndexOrder::kPos:
      return "pos";
    case IndexOrder::kOsp:
      return "osp";
    case IndexOrder::kFullScan:
      return "scan";
  }
  return "?";
}

int ColumnOfPosition(IndexOrder order, int pos) {
  // Key sequences: spo = (s,p,o), pso = (p,s,o), pos = (p,o,s),
  // osp = (o,s,p); kFullScan ranges are served by the primary spine.
  static constexpr int kMap[kNumIndexOrders][3] = {
      /* kSpo:      s,p,o -> */ {0, 1, 2},
      /* kPso:      s,p,o -> */ {1, 0, 2},
      /* kPos:      s,p,o -> */ {2, 0, 1},
      /* kOsp:      s,p,o -> */ {1, 2, 0},
      /* kFullScan: s,p,o -> */ {0, 1, 2},
  };
  return kMap[static_cast<size_t>(order)][pos];
}

namespace {

// The raw term bits of a triple permuted into each order's key
// sequence. Term::operator< compares packed bits, so lexicographic
// order over these uint32 keys is exactly the Triple comparators'
// order — the spine refactor cannot change enumeration order.
inline SpineKey KeySpo(const Triple& t) {
  return {t.s.bits(), t.p.bits(), t.o.bits()};
}
inline SpineKey KeyPso(const Triple& t) {
  return {t.p.bits(), t.s.bits(), t.o.bits()};
}
inline SpineKey KeyPos(const Triple& t) {
  return {t.p.bits(), t.o.bits(), t.s.bits()};
}
inline SpineKey KeyOsp(const Triple& t) {
  return {t.o.bits(), t.s.bits(), t.p.bits()};
}

inline Triple TripleOfSpoKey(const SpineKey& k) {
  return Triple(Term::FromBits(k[0]), Term::FromBits(k[1]),
                Term::FromBits(k[2]));
}

}  // namespace

// --- MatchRange ------------------------------------------------------

MatchRange::const_iterator::const_iterator(const Spine* spine,
                                           IndexOrder order, size_t idx,
                                           size_t limit)
    : spine_(spine), order_(order), idx_(idx), limit_(limit) {
  leaf_base_ = idx;
  leaf_end_ = idx;
  if (idx_ < limit_) AdvanceLeaf();
}

void MatchRange::const_iterator::AdvanceLeaf() {
  if (idx_ >= limit_) return;
  const size_t li = spine_->LeafIndexOf(idx_);
  const SpineLeaf& leaf = spine_->leaf(li);
  leaf_base_ = spine_->leaf_start(li);
  leaf_end_ = leaf_base_ + leaf.size();
  col_s_ = leaf.column(ColumnOfPosition(order_, 0)).data();
  col_p_ = leaf.column(ColumnOfPosition(order_, 1)).data();
  col_o_ = leaf.column(ColumnOfPosition(order_, 2)).data();
}

const Triple& MatchRange::TripleAt(uint32_t slot) const {
  const SpineKey k = spine_->At(slot);
  scratch_.s = Term::FromBits(k[ColumnOfPosition(order_, 0)]);
  scratch_.p = Term::FromBits(k[ColumnOfPosition(order_, 1)]);
  scratch_.o = Term::FromBits(k[ColumnOfPosition(order_, 2)]);
  return scratch_;
}

size_t MatchRange::FilterBound(int pos, Term value,
                               std::vector<uint32_t>* out) const {
  const size_t before = out->size();
  if (empty()) return 0;
  const int c = ColumnOfPosition(order_, pos);
  size_t li = spine_->LeafIndexOf(first_);
  for (size_t slot = first_; slot < last_; ++li) {
    const SpineLeaf& leaf = spine_->leaf(li);
    const size_t base = spine_->leaf_start(li);
    const size_t lo = slot - base;
    const size_t hi = std::min(last_ - base, leaf.size());
    const size_t emitted = out->size();
    scan::FilterEq(leaf.column(c).data(), lo, hi, value.bits(), out);
    if (base != 0) {
      // The kernel emitted leaf-local slots; lift to global slot space.
      for (size_t i = emitted; i < out->size(); ++i) {
        (*out)[i] += static_cast<uint32_t>(base);
      }
    }
    slot = base + hi;
  }
  return out->size() - before;
}

size_t MatchRange::FilterPairEqual(int pos_a, int pos_b,
                                   std::vector<uint32_t>* out) const {
  const size_t before = out->size();
  if (empty()) return 0;
  const int ca = ColumnOfPosition(order_, pos_a);
  const int cb = ColumnOfPosition(order_, pos_b);
  size_t li = spine_->LeafIndexOf(first_);
  for (size_t slot = first_; slot < last_; ++li) {
    const SpineLeaf& leaf = spine_->leaf(li);
    const size_t base = spine_->leaf_start(li);
    const size_t lo = slot - base;
    const size_t hi = std::min(last_ - base, leaf.size());
    const size_t emitted = out->size();
    scan::FilterPairEq(leaf.column(ca).data(), leaf.column(cb).data(), lo, hi,
                       out);
    if (base != 0) {
      for (size_t i = emitted; i < out->size(); ++i) {
        (*out)[i] += static_cast<uint32_t>(base);
      }
    }
    slot = base + hi;
  }
  return out->size() - before;
}

// --- Graph -----------------------------------------------------------

Graph::Graph(std::initializer_list<Triple> triples) {
  BuildFrom(std::vector<Triple>(triples));
}

Graph::Graph(std::vector<Triple> triples) { BuildFrom(std::move(triples)); }

void Graph::BuildFrom(std::vector<Triple> triples) {
  std::sort(triples.begin(), triples.end());
  triples.erase(std::unique(triples.begin(), triples.end()), triples.end());
  std::vector<SpineKey> keys;
  keys.reserve(triples.size());
  for (const Triple& t : triples) keys.push_back(KeySpo(t));
  spo_.BulkBuild(keys);
  indexes_valid_ = false;
}

bool Graph::Insert(const Triple& t) {
  if (!spo_.Insert(KeySpo(t))) return false;
  ++epoch_;
  PatchIndexesInsert(t);
  return true;
}

void Graph::InsertAll(const Graph& other) {
  if (other.empty()) return;
  // A single-key spine patch costs O(leaf + leaf count); a bulk rebuild
  // costs O(n) but loses all leaf sharing with prior copies. Patch per
  // triple while the delta is small relative to the leaf count.
  const size_t threshold =
      std::max<size_t>(64, spo_.size() / Spine::kLeafMax);
  if (other.size() <= threshold) {
    uint64_t changed = 0;
    for (const Triple& t : other) {
      if (spo_.Insert(KeySpo(t))) {
        ++changed;
        PatchIndexesInsert(t);
      }
    }
    // Exactly one epoch bump per changing call, like the bulk path.
    if (changed != 0) ++epoch_;
    return;
  }
  std::vector<SpineKey> ours = spo_.Keys();
  std::vector<SpineKey> theirs = other.spo_.Keys();
  std::vector<SpineKey> merged;
  merged.reserve(ours.size() + theirs.size());
  std::set_union(ours.begin(), ours.end(), theirs.begin(), theirs.end(),
                 std::back_inserter(merged));
  if (merged.size() == spo_.size()) return;  // other ⊆ *this: no-op
  spo_.BulkBuild(merged);
  ++epoch_;
  if (indexes_valid_) DropIndexes();  // bulk path: rebuild on next lookup
}

bool Graph::Erase(const Triple& t) {
  if (!spo_.Erase(KeySpo(t))) return false;
  ++epoch_;
  PatchIndexesErase(t);
  return true;
}

void Graph::DropIndexes() {
  indexes_valid_ = false;
  pso_.Clear();
  pos_.Clear();
  osp_.Clear();
  index_drops_.Add(1);
}

void Graph::PatchIndexesInsert(const Triple& t) {
  if (!indexes_valid_) return;
  pso_.Insert(KeyPso(t));
  pos_.Insert(KeyPos(t));
  osp_.Insert(KeyOsp(t));
  index_patches_.Add(1);
}

void Graph::PatchIndexesErase(const Triple& t) {
  if (!indexes_valid_) return;
  pso_.Erase(KeyPso(t));
  pos_.Erase(KeyPos(t));
  osp_.Erase(KeyOsp(t));
  index_patches_.Add(1);
}

bool Graph::Contains(const Triple& t) const { return spo_.Contains(KeySpo(t)); }

std::vector<Triple> Graph::triples() const {
  std::vector<Triple> out;
  out.reserve(spo_.size());
  for (size_t li = 0; li < spo_.leaf_count(); ++li) {
    const SpineLeaf& leaf = spo_.leaf(li);
    for (size_t i = 0; i < leaf.size(); ++i) {
      out.emplace_back(Term::FromBits(leaf.k0[i]), Term::FromBits(leaf.k1[i]),
                       Term::FromBits(leaf.k2[i]));
    }
  }
  return out;
}

bool Graph::operator==(const Graph& other) const {
  return spo_.EqualContents(other.spo_);
}

bool Graph::IsSubgraphOf(const Graph& other) const {
  if (size() > other.size()) return false;
  // Merge-walk of two sorted streams (std::includes over input
  // iterators whose operator* reuses scratch storage).
  const_iterator a = begin();
  const const_iterator ae = end();
  const_iterator b = other.begin();
  const const_iterator be = other.end();
  while (a != ae) {
    if (b == be) return false;
    const Triple ta = *a;
    const Triple tb = *b;
    if (tb < ta) {
      ++b;
    } else if (ta < tb) {
      return false;
    } else {
      ++a;
      ++b;
    }
  }
  return true;
}

std::vector<Term> Graph::Universe() const {
  std::vector<Term> terms;
  terms.reserve(spo_.size() * 3);
  for (const Triple& t : *this) {
    terms.push_back(t.s);
    terms.push_back(t.p);
    terms.push_back(t.o);
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  return terms;
}

std::vector<Term> Graph::Vocabulary() const {
  std::vector<Term> terms = Universe();
  terms.erase(std::remove_if(terms.begin(), terms.end(),
                             [](Term t) { return !t.IsIri(); }),
              terms.end());
  return terms;
}

std::vector<Term> Graph::BlankNodes() const {
  std::vector<Term> terms = Universe();
  terms.erase(std::remove_if(terms.begin(), terms.end(),
                             [](Term t) { return !t.IsBlank(); }),
              terms.end());
  return terms;
}

std::vector<Term> Graph::Variables() const {
  std::vector<Term> terms = Universe();
  terms.erase(std::remove_if(terms.begin(), terms.end(),
                             [](Term t) { return !t.IsVar(); }),
              terms.end());
  return terms;
}

bool Graph::IsGround() const {
  for (const Triple& t : *this) {
    if (!t.IsGround()) return false;
  }
  return true;
}

bool Graph::IsSimple() const {
  for (const Triple& t : *this) {
    if (vocab::IsRdfsVocab(t.s) || vocab::IsRdfsVocab(t.p) ||
        vocab::IsRdfsVocab(t.o)) {
      return false;
    }
  }
  return true;
}

bool Graph::IsWellFormedData() const {
  for (const Triple& t : *this) {
    if (!t.IsWellFormedData()) return false;
  }
  return true;
}

Graph Graph::Union(const Graph& g1, const Graph& g2) {
  Graph out = g1;
  out.InsertAll(g2);
  return out;
}

void Graph::EnsureIndexes() const {
  if (indexes_valid_) return;
  const size_t n = spo_.size();
  std::vector<SpineKey> keys(n);
  auto build = [&](Spine& ix, SpineKey (*key_of)(const Triple&)) {
    size_t i = 0;
    for (size_t li = 0; li < spo_.leaf_count(); ++li) {
      const SpineLeaf& leaf = spo_.leaf(li);
      for (size_t r = 0; r < leaf.size(); ++r) {
        keys[i++] = key_of(TripleOfSpoKey(leaf.at(r)));
      }
    }
    std::sort(keys.begin(), keys.end());
    ix.BulkBuild(keys);
  };
  build(pso_, KeyPso);
  build(pos_, KeyPos);
  build(osp_, KeyOsp);
  indexes_valid_ = true;
  index_rebuilds_.Add(1);
}

GraphStats Graph::Stats() const {
  GraphStats s;
  s.index_rebuilds = index_rebuilds_.value();
  s.index_patches = index_patches_.value();
  s.index_drops = index_drops_.value();
  s.matches_calls = matches_calls_.value();
  s.rows_scanned = rows_scanned_.value();
  s.rows_yielded = rows_yielded_.value();
  s.indexes_built = indexes_valid_;
  s.bytes_primary = spo_.bytes();
  s.bytes_pso = pso_.bytes();
  s.bytes_pos = pos_.bytes();
  s.bytes_osp = osp_.bytes();
  s.leaves_primary = spo_.leaf_count();
  s.leaves_index =
      pso_.leaf_count() + pos_.leaf_count() + osp_.leaf_count();
  return s;
}

SpineSharing Graph::SharedLeaves(const Graph& other) const {
  SpineSharing s;
  s.shared += spo_.CountSharedLeavesWith(other.spo_);
  s.total += spo_.leaf_count();
  if (indexes_valid_ && other.indexes_valid_) {
    s.shared += pso_.CountSharedLeavesWith(other.pso_);
    s.shared += pos_.CountSharedLeavesWith(other.pos_);
    s.shared += osp_.CountSharedLeavesWith(other.osp_);
    s.total += pso_.leaf_count() + pos_.leaf_count() + osp_.leaf_count();
  }
  return s;
}

MatchRange Graph::BlankRange(int pos) const {
  assert(pos == 0 || pos == 2);
  const Spine* ix = &spo_;
  IndexOrder order = IndexOrder::kSpo;
  if (pos == 2) {
    EnsureIndexes();
    ix = &osp_;
    order = IndexOrder::kOsp;
  }
  const size_t lo = ix->LowerBound({Term::Blank(0).bits(), 0, 0});
  const size_t hi = ix->LowerBound({Term::Var(0).bits(), 0, 0});
  return MatchRange::Over(ix, lo, hi, order);
}

MatchRange Graph::Matches(std::optional<Term> s, std::optional<Term> p,
                          std::optional<Term> o) const {
  matches_calls_.Add(1);

  // One- or two-key equal range over a spine's sorted columns: k0 ==
  // key0, then (optionally) k1 == key1 within the k0 run. The probes
  // are global-slot binary searches resolving leaves on the fly.
  auto range_of = [&](const Spine& ix, uint32_t key0, const uint32_t* key1,
                      IndexOrder order) {
    size_t scanned = 0;
    auto [lo, hi] = ix.EqualRange(key0, key1, &scanned);
    rows_scanned_.Add(scanned);
    rows_yielded_.Add(hi - lo);
    return MatchRange::Over(&ix, lo, hi, order);
  };

  if (s) {
    if (p && o) {
      // Fully bound: a zero- or one-element run in the primary order.
      const SpineKey key = KeySpo(Triple(*s, *p, *o));
      const size_t lo = spo_.LowerBound(key);
      const size_t hi =
          lo + ((lo < spo_.size() && spo_.At(lo) == key) ? 1 : 0);
      rows_yielded_.Add(hi - lo);
      return MatchRange::Over(&spo_, lo, hi, IndexOrder::kSpo);
    }
    if (o) {
      // (s, *, o): contiguous under (o,s,p).
      EnsureIndexes();
      const uint32_t key1 = s->bits();
      return range_of(osp_, o->bits(), &key1, IndexOrder::kOsp);
    }
    // (s) or (s, p): prefix runs of the primary (s,p,o) order.
    const uint32_t key1 = p ? p->bits() : 0;
    return range_of(spo_, s->bits(), p ? &key1 : nullptr, IndexOrder::kSpo);
  }
  if (p) {
    EnsureIndexes();
    if (o) {
      const uint32_t key1 = o->bits();
      return range_of(pos_, p->bits(), &key1, IndexOrder::kPos);
    }
    return range_of(pso_, p->bits(), nullptr, IndexOrder::kPso);
  }
  if (o) {
    EnsureIndexes();
    return range_of(osp_, o->bits(), nullptr, IndexOrder::kOsp);
  }
  rows_yielded_.Add(spo_.size());
  return MatchRange::Over(&spo_, 0, spo_.size(), IndexOrder::kFullScan);
}

}  // namespace swdb
