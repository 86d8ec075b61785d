#ifndef SWDB_RDF_GRAPH_H_
#define SWDB_RDF_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "rdf/spine.h"
#include "rdf/triple.h"

namespace swdb {

/// The physical order that served a triple-pattern lookup. The graph
/// keeps the primary (s,p,o) spine plus three lazily built permutation
/// spines so that *every* combination of bound positions resolves to
/// one contiguous slot range (no post-filtering):
///
///   bound positions          order        range key
///   s / s,p / s,p,o          kSpo         prefix of (s,p,o)
///   p                        kPso         prefix of (p,s,o)
///   p,o                      kPos         prefix of (p,o,s)
///   o / o,s                  kOsp         prefix of (o,s,p)
///   (none)                   kFullScan    all triples (primary order)
enum class IndexOrder : uint8_t {
  kSpo = 0,
  kPso = 1,
  kPos = 2,
  kOsp = 3,
  kFullScan = 4,
};
inline constexpr size_t kNumIndexOrders = 5;

/// Short name of an index order ("spo", "pso", "pos", "osp", "scan").
const char* IndexOrderName(IndexOrder order);

/// Column index (0..2) holding triple position `pos` (0=s, 1=p, 2=o) of
/// an order's key sequence. E.g. for kPso the key sequence is (p,s,o):
/// the subject lives in column 1, the predicate in column 0, the object
/// in column 2. kSpo and kFullScan are the identity.
int ColumnOfPosition(IndexOrder order, int pos);

/// A cumulative counter that tolerates concurrent readers: relaxed
/// atomic load/store (no RMW, so hot-path increments stay cheap), which
/// may drop updates when several threads bump it at once. Exact on the
/// single-threaded paths the tests and benches measure; best-effort
/// observability under the concurrent snapshot read path. Copyable so
/// Graph keeps its value semantics.
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  RelaxedCounter(const RelaxedCounter& o) : v_(o.value()) {}
  RelaxedCounter& operator=(const RelaxedCounter& o) {
    v_.store(o.value(), std::memory_order_relaxed);
    return *this;
  }
  void Add(uint64_t d) const {
    v_.store(v_.load(std::memory_order_relaxed) + d,
             std::memory_order_relaxed);
  }
  void Reset() const { v_.store(0, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  mutable std::atomic<uint64_t> v_{0};
};

/// Storage and scan observability for one Graph, snapshotted by
/// Graph::Stats. Counters are cumulative since construction; byte and
/// leaf figures reflect the current footprint.
struct GraphStats {
  uint64_t index_rebuilds = 0;   ///< full permutation-spine (re)builds
  uint64_t index_patches = 0;    ///< single-mutation COW spine patches
  uint64_t index_drops = 0;      ///< bulk-load permutation drops
  uint64_t matches_calls = 0;    ///< Matches() lookups served
  uint64_t rows_scanned = 0;     ///< probes/rows examined by lookups
  uint64_t rows_yielded = 0;     ///< rows in the returned ranges
  bool indexes_built = false;    ///< permutation spines currently valid
  size_t bytes_primary = 0;      ///< primary (s,p,o) spine
  size_t bytes_pso = 0;          ///< pso spine (0 until built)
  size_t bytes_pos = 0;          ///< pos spine
  size_t bytes_osp = 0;          ///< osp spine
  size_t leaves_primary = 0;     ///< primary spine leaf count
  size_t leaves_index = 0;       ///< permutation spine leaves (all three)
  size_t bytes_total() const {
    return bytes_primary + bytes_pso + bytes_pos + bytes_osp;
  }
};

/// Leaf-sharing between two graphs' spines: of this graph's `total`
/// leaves, `shared` are the same objects (pointer equality) as leaves
/// of the other graph. The publication-observability measure of how
/// much of a snapshot is structurally shared with its predecessor.
struct SpineSharing {
  uint64_t shared = 0;
  uint64_t total = 0;
};

/// A resolved, contiguous slot range of one spine holding exactly the
/// matches of a pattern — the equal_range analogue of Graph::Match.
/// Iterating a MatchRange touches no hash table and performs no
/// comparisons: every element is a match, materialized leaf by leaf
/// from the backing spine's three key columns. The range stays valid
/// until the graph is mutated.
class MatchRange {
 public:
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Triple;
    using difference_type = std::ptrdiff_t;
    using pointer = const Triple*;
    using reference = const Triple&;

    const Triple& operator*() const {
      const size_t i = idx_ - leaf_base_;
      scratch_.s = Term::FromBits(col_s_[i]);
      scratch_.p = Term::FromBits(col_p_[i]);
      scratch_.o = Term::FromBits(col_o_[i]);
      return scratch_;
    }
    const Triple* operator->() const { return &**this; }
    const_iterator& operator++() {
      ++idx_;
      if (idx_ == leaf_end_) AdvanceLeaf();
      return *this;
    }
    bool operator==(const const_iterator& o) const { return idx_ == o.idx_; }
    bool operator!=(const const_iterator& o) const { return idx_ != o.idx_; }

   private:
    friend class MatchRange;
    const_iterator(const Spine* spine, IndexOrder order, size_t idx,
                   size_t limit);
    void AdvanceLeaf();

    const Spine* spine_ = nullptr;
    IndexOrder order_ = IndexOrder::kFullScan;
    size_t idx_ = 0;        // current global slot
    size_t limit_ = 0;      // range end (no leaf loads at or past it)
    size_t leaf_base_ = 0;  // global slot of the cached leaf's start
    size_t leaf_end_ = 0;   // global slot one past the cached leaf
    const uint32_t* col_s_ = nullptr;  // cached leaf columns by position
    const uint32_t* col_p_ = nullptr;
    const uint32_t* col_o_ = nullptr;
    mutable Triple scratch_;  // materialization target of operator*
  };

  MatchRange() = default;

  /// A run [first, last) of global slots in `spine`.
  static MatchRange Over(const Spine* spine, size_t first, size_t last,
                         IndexOrder order) {
    MatchRange r;
    r.spine_ = spine;
    r.first_ = first;
    r.last_ = last;
    r.order_ = order;
    return r;
  }

  size_t size() const { return last_ - first_; }
  bool empty() const { return size() == 0; }
  IndexOrder order() const { return order_; }

  /// True when the range is backed by a lazily built permutation spine
  /// (pso/pos/osp) rather than the primary order.
  bool columnar() const {
    return order_ != IndexOrder::kSpo && order_ != IndexOrder::kFullScan;
  }

  /// The triple at global slot `slot` of the backing spine, as emitted
  /// by the Filter* methods. The reference is to a scratch slot reused
  /// by the next TripleAt call on this range.
  const Triple& TripleAt(uint32_t slot) const;

  /// Residual bound-position filter: appends to *out the backing-spine
  /// slots of the range elements whose position `pos` (0=s, 1=p, 2=o)
  /// holds `value`, in range order. Vectorized compare-and-compress per
  /// leaf. Returns the number of slots appended.
  size_t FilterBound(int pos, Term value, std::vector<uint32_t>* out) const;

  /// Repeated-position residual (e.g. pattern (X, p, X)): appends the
  /// backing-spine slots of elements whose positions `pos_a` and
  /// `pos_b` hold equal terms, in range order. Returns the number
  /// appended.
  size_t FilterPairEqual(int pos_a, int pos_b,
                         std::vector<uint32_t>* out) const;

  const_iterator begin() const {
    return const_iterator(spine_, order_, first_, last_);
  }
  const_iterator end() const {
    return const_iterator(spine_, order_, last_, last_);
  }

 private:
  const Spine* spine_ = nullptr;
  size_t first_ = 0;
  size_t last_ = 0;
  IndexOrder order_ = IndexOrder::kFullScan;
  mutable Triple scratch_;  // TripleAt materialization target
};

/// An RDF graph: a finite set of RDF triples (paper Def. 2.1).
///
/// Triples live in four copy-on-write column spines (see Spine): the
/// primary in (s,p,o) order — Triple::operator< compares packed term
/// bits, so the primary spine *is* the sorted triple set — plus three
/// lazily built permutations in (p,s,o), (p,o,s) and (o,s,p) order
/// serving the pattern-matching queries issued by the homomorphism
/// solver and the closure fixpoint. Each spine stores raw term bits as
/// structure-of-arrays uint32 columns per leaf, so lookups and residual
/// filters sweep contiguous columns (vectorized via scan.h).
///
/// Copying a Graph copies leaf pointers, not leaf contents: an epoch
/// that changed k triples shares every untouched leaf with its
/// predecessor, which is what makes Database snapshot publication
/// proportional to the delta instead of to |G|. Single-triple
/// Insert/Erase clone only the one leaf they touch per spine (built
/// permutations are maintained in place the same way); the bulk
/// InsertAll path drops the permutations and rebuilds them on the next
/// lookup. Either way, outstanding MatchRanges are invalidated by any
/// mutation.
///
/// Every mutation that changes the triple set bumps an epoch counter,
/// so derived structures (closure caches, membership indexes) can
/// detect — rather than silently serve — staleness.
///
/// Graph is equally used for *pattern* sets (query bodies/heads), in
/// which case triples may contain variables.
class Graph {
 public:
  /// Iterates the primary spine in (s,p,o) order, materializing each
  /// triple from the leaf columns. Single-pass semantics (operator*
  /// returns a reference into iterator-owned scratch); operator+ /
  /// operator- support positional slicing.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Triple;
    using difference_type = std::ptrdiff_t;
    using pointer = const Triple*;
    using reference = const Triple&;

    const_iterator() = default;

    const Triple& operator*() const {
      const SpineKey k = spine_->At(idx_);
      scratch_.s = Term::FromBits(k[0]);
      scratch_.p = Term::FromBits(k[1]);
      scratch_.o = Term::FromBits(k[2]);
      return scratch_;
    }
    const Triple* operator->() const { return &**this; }
    const_iterator& operator++() {
      ++idx_;
      return *this;
    }
    const_iterator operator+(difference_type d) const {
      return const_iterator(spine_, idx_ + static_cast<size_t>(d));
    }
    difference_type operator-(const const_iterator& o) const {
      return static_cast<difference_type>(idx_) -
             static_cast<difference_type>(o.idx_);
    }
    bool operator==(const const_iterator& o) const { return idx_ == o.idx_; }
    bool operator!=(const const_iterator& o) const { return idx_ != o.idx_; }

   private:
    friend class Graph;
    const_iterator(const Spine* spine, size_t idx)
        : spine_(spine), idx_(idx) {}

    const Spine* spine_ = nullptr;
    size_t idx_ = 0;
    mutable Triple scratch_;
  };

  Graph() = default;
  Graph(std::initializer_list<Triple> triples);
  explicit Graph(std::vector<Triple> triples);

  /// Inserts a triple; returns true if it was not already present.
  bool Insert(const Triple& t);
  void Insert(Term s, Term p, Term o) { Insert(Triple(s, p, o)); }
  /// Inserts all triples of other (one epoch bump if anything changed).
  void InsertAll(const Graph& other);
  /// Removes a triple; returns true if it was present.
  bool Erase(const Triple& t);

  bool Contains(const Triple& t) const;

  /// Mutation epoch: starts at 0 and increments on every mutation that
  /// changes the triple set (no-op inserts/erases do not count).
  /// Structures caching derived state off this graph record the epoch
  /// they were built at and compare to detect staleness.
  uint64_t epoch() const { return epoch_; }

  size_t size() const { return spo_.size(); }
  bool empty() const { return spo_.empty(); }
  const_iterator begin() const { return const_iterator(&spo_, 0); }
  const_iterator end() const { return const_iterator(&spo_, spo_.size()); }
  /// The triple set materialized as a sorted (s,p,o) vector. Built per
  /// call (O(n)); bind to a const reference or reuse across loops.
  std::vector<Triple> triples() const;
  /// The i-th triple in (s,p,o) order. O(log leaves).
  Triple operator[](size_t i) const {
    const SpineKey k = spo_.At(i);
    return Triple(Term::FromBits(k[0]), Term::FromBits(k[1]),
                  Term::FromBits(k[2]));
  }

  bool operator==(const Graph& other) const;
  bool operator!=(const Graph& other) const { return !(*this == other); }

  /// True if *this ⊆ other as sets of triples (i.e. *this is a subgraph).
  bool IsSubgraphOf(const Graph& other) const;

  /// universe(G): all elements of UB (and variables, for patterns)
  /// occurring in some triple. Sorted ascending.
  std::vector<Term> Universe() const;
  /// voc(G) = universe(G) ∩ U. Sorted ascending.
  std::vector<Term> Vocabulary() const;
  /// The blank nodes occurring in the graph. Sorted ascending.
  std::vector<Term> BlankNodes() const;
  /// The variables occurring in the pattern. Sorted ascending.
  std::vector<Term> Variables() const;

  /// True if the graph has no blank nodes (paper Def. 2.1).
  bool IsGround() const;
  /// True if the graph does not mention the RDFS vocabulary in any
  /// position (paper Def. 2.2).
  bool IsSimple() const;
  /// True if every triple is well-formed data (no variables).
  bool IsWellFormedData() const;

  /// Set-theoretic union G1 ∪ G2 (paper §2.1; blank nodes shared).
  static Graph Union(const Graph& g1, const Graph& g2);

  /// Resolves a pattern (wildcard = std::nullopt) to the contiguous
  /// spine range holding exactly its matches, in O(log² |G|). The range
  /// is invalidated by any mutation of the graph.
  MatchRange Matches(std::optional<Term> s, std::optional<Term> p,
                     std::optional<Term> o) const;

  /// Matches a pattern triple against the graph. Wildcard = std::nullopt.
  /// Invokes visitor for every matching triple; stops early (returning
  /// false) if the visitor returns false. Returns false iff stopped early.
  template <typename Visitor>
  bool Match(std::optional<Term> s, std::optional<Term> p,
             std::optional<Term> o, Visitor&& visitor) const {
    for (const Triple& t : Matches(s, p, o)) {
      if (!visitor(t)) return false;
    }
    return true;
  }

  /// The contiguous range of triples holding a blank node at position
  /// `pos`: 0 (subject, a run of the primary order) or 2 (object, a run
  /// of the osp order). TermKind occupies a term's top two bits, so the
  /// blanks are one run of leading keys in either order. O(log |G|).
  MatchRange BlankRange(int pos) const;

  /// Number of triples matching the given pattern. O(log² |G|): the
  /// size of the resolved spine range, with no scan.
  size_t CountMatches(std::optional<Term> s, std::optional<Term> p,
                      std::optional<Term> o) const {
    return Matches(s, p, o).size();
  }

  /// Builds the lazy permutation spines now if they are stale. The lazy
  /// build mutates `mutable` state, so a const Graph shared across
  /// threads must be warmed once (by one thread) before concurrent
  /// Matches/Contains calls; after that every read path is const-clean.
  void WarmIndexes() const { EnsureIndexes(); }

  /// Storage/scan observability snapshot (see GraphStats). Counter
  /// semantics under concurrent readers follow RelaxedCounter.
  GraphStats Stats() const;

  /// Of this graph's spine leaves (primary + built permutations),
  /// how many are shared (pointer-identical) with `other`. Only spines
  /// built on both sides are compared; `total` counts this graph's
  /// leaves of those spines. O(leaves).
  SpineSharing SharedLeaves(const Graph& other) const;

 private:
  void BuildFrom(std::vector<Triple> triples);
  void EnsureIndexes() const;
  // COW maintenance of built permutations around a single-triple
  // mutation (no-ops when the permutations are stale).
  void PatchIndexesInsert(const Triple& t);
  void PatchIndexesErase(const Triple& t);
  // Drops the permutation spines (next lookup rebuilds).
  void DropIndexes();

  // Primary storage: (s,p,o)-ordered key spine. Term bits compare like
  // Terms, so this spine is the sorted, deduplicated triple set.
  Spine spo_;

  uint64_t epoch_ = 0;

  // Lazily built permutation spines.
  mutable bool indexes_valid_ = false;
  mutable Spine pso_;  // sorted by (p,s,o)
  mutable Spine pos_;  // sorted by (p,o,s)
  mutable Spine osp_;  // sorted by (o,s,p)

  // Observability (see GraphStats / Stats()).
  RelaxedCounter index_rebuilds_;
  RelaxedCounter index_patches_;
  RelaxedCounter index_drops_;
  RelaxedCounter matches_calls_;
  RelaxedCounter rows_scanned_;
  RelaxedCounter rows_yielded_;
};

}  // namespace swdb

#endif  // SWDB_RDF_GRAPH_H_
