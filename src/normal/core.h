#ifndef SWDB_NORMAL_CORE_H_
#define SWDB_NORMAL_CORE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "rdf/graph.h"
#include "rdf/hom.h"
#include "rdf/map.h"
#include "util/status.h"

namespace swdb {

class ThreadPool;

/// Groups the non-ground triples of g by blank-connected component: two
/// blanks are connected when they share a triple. A proper endomorphism
/// restricted to one component (identity elsewhere) is still a proper
/// endomorphism, and conversely a proper endomorphism of g restricts to
/// a fold of the component owning a dropped triple, so leanness can be
/// decided one component at a time with component-sized patterns.
/// Components are returned in a pinned deterministic order (first
/// appearance in g's triple order) with each component's triples in g's
/// order — the order every core/leanness engine in this file, parallel
/// or not, commits to. Only the blank-subject and blank-object runs of
/// g are read (Graph::BlankRange; predicates are never blank in
/// well-formed graphs), so a ground graph costs O(log |G|).
std::vector<std::vector<Triple>> BlankComponents(const Graph& g);

/// Counters for one Core/CoreChecked run. `steps_used` and every other
/// field except `steps_speculative` are *deterministic*: they depend
/// only on the input graph and MatchOptions, never on the worker count,
/// and equal the sequential engine's values exactly (the parallel
/// engine's extra speculative probing is reported separately).
struct CoreStats {
  /// Proper endomorphisms found and applied (folding sequence length).
  uint64_t folds = 0;
  /// FindProperEndomorphism rounds: folds + the final lean confirmation
  /// (or the round that exhausted the budget).
  uint64_t iterations = 0;
  /// Component fold searches whose outcome the run consumed (refuted
  /// components up to each round's winner, plus the winner itself).
  uint64_t components_searched = 0;
  /// Component searches skipped because an earlier round already proved
  /// the identical component lean (folds only shrink the graph and never
  /// touch other components, so leanness persists).
  uint64_t lean_cache_hits = 0;
  /// Matcher steps consumed by the searches counted in
  /// components_searched — bit-identical to the sequential engine.
  uint64_t steps_used = 0;
  /// Matcher steps the parallel engine spent on components at indexes
  /// above a round's winner (work the sequential engine never starts).
  /// Always 0 without a pool; the only worker-count-dependent field.
  uint64_t steps_speculative = 0;
  /// Component searches skipped because a *cross-epoch* LeanCache entry
  /// (see LeanCacheRef) proved the identical component lean in an
  /// earlier run. Deterministic given the same cache state and input —
  /// lookups happen before any search is launched, so the count never
  /// depends on the worker count.
  uint64_t lean_cache_cross_hits = 0;
};

/// Content hash of a component's pinned-order triple vector — the
/// LeanCache / in-run proven-lean key. Folds never add triples, so an
/// untouched component reappears verbatim across rounds and epochs.
struct TripleVecHash {
  size_t operator()(const std::vector<Triple>& v) const {
    uint64_t h = 0x9E3779B97F4A7C15ull ^ v.size();
    for (const Triple& t : v) {
      for (uint64_t bits : {t.s.bits(), t.p.bits(), t.o.bits()}) {
        h ^= bits + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
        h *= 0xFF51AFD7ED558CCDull;
      }
    }
    return static_cast<size_t>(h ^ (h >> 32));
  }
};

/// LeanCache observability snapshot (LeanCache::stats).
struct LeanCacheStats {
  uint64_t cross_hits = 0;     ///< lookups served from the cache
  uint64_t misses = 0;         ///< lookups not served
  uint64_t writes = 0;         ///< entries accepted
  uint64_t stale_rejects = 0;  ///< writes dropped (prover behind)
  uint64_t evictions = 0;      ///< entries killed by an insert delta
  uint64_t clears = 0;         ///< full invalidations
  size_t entries = 0;          ///< live entries right now
  uint64_t erase_stamp = 0;    ///< current global erase stamp
};

/// A cross-epoch proven-lean component cache, shared between the writer
/// and every published snapshot of one Database. An entry says: this
/// blank component, verbatim, folds into no subset of the closure graph
/// it was proven against.
///
/// Soundness across epochs rests on three rules (see DESIGN.md):
///  - Write rule: a refutation is accepted only if the prover's closure
///    version still equals the cache's current version (checked under
///    the cache mutex), and only round-1 refutations — proven against
///    the full closure, not a folded remnant — are ever offered.
///  - Insert rule: when an insert delta extends the closure, every
///    entry containing a triple that unifies with a derived triple
///    (the entry's blanks as wildcards) is evicted — a new fold must
///    map some component triple onto a new triple, so surviving
///    entries stay refuted.
///  - Erase rule: erases only shrink the graph, and leanness transfers
///    to subsets — entries survive. But a *lagging* consumer (an older
///    snapshot whose graph still contains the erased triples) must not
///    consume entries proven against the smaller graph: every erase
///    bumps a monotone stamp, entries record the stamp at write, and a
///    consumer accepts an entry only if its stamp is ≤ the consumer's.
///
/// All methods are thread-safe (one mutex; lookups are a hash probe).
class LeanCache {
 public:
  LeanCache() = default;
  LeanCache(const LeanCache&) = delete;
  LeanCache& operator=(const LeanCache&) = delete;

  /// True if `component` is cached as lean and valid for a consumer
  /// whose graph carries `consumer_erase_stamp`.
  bool Lookup(const std::vector<Triple>& component,
              uint64_t consumer_erase_stamp) const;

  /// Offers a round-1 refutation proven against closure version
  /// `prover_version`; dropped silently if the cache has moved on.
  void Insert(const std::vector<Triple>& component, uint64_t prover_version);

  /// Applies an insert delta: advances to `new_version` and evicts
  /// every entry a derived triple could extend into a fold.
  void OnInsertDelta(const std::vector<Triple>& derived,
                     uint64_t new_version);

  /// Applies an erase: advances to `new_version` and bumps the global
  /// erase stamp (entries survive; lagging consumers are fenced off).
  void OnEraseDelta(uint64_t new_version);

  /// Full invalidation (closure rebuilt or dropped): clears entries,
  /// adopts `new_version`, and bumps the erase stamp so entries written
  /// afterwards are invisible to consumers published before the clear.
  void Clear(uint64_t new_version);

  LeanCacheStats stats() const;

 private:
  mutable std::mutex mu_;
  // component -> erase stamp at write time
  std::unordered_map<std::vector<Triple>, uint64_t, TripleVecHash> entries_;
  uint64_t version_ = 0;
  uint64_t erase_stamp_ = 0;
  mutable LeanCacheStats counters_;
};

/// How a Core/CoreChecked run consumes a shared LeanCache: `version` and
/// `erase_stamp` are the closure version and erase stamp of the graph
/// the caller is normalizing, captured when that graph was. A default
/// (null cache) ref disables cross-epoch caching entirely.
struct LeanCacheRef {
  LeanCache* cache = nullptr;
  uint64_t version = 0;
  uint64_t erase_stamp = 0;
};

/// Searches for a map μ with μ(g) a *proper* subgraph of g (the witness
/// that g is not lean, Def. 3.7). Since ground triples are fixed by every
/// map, μ(g) ⊊ g forces some non-ground triple out of the image, so the
/// search tries, for each non-ground triple t, to map t's blank component
/// into g \ {t}. Returns std::nullopt if g is lean. Deciding this is
/// coNP-complete (paper Thm 3.12(1)); `options.max_steps` bounds each
/// per-triple probe, exactly as one PatternMatcher::FindAny budget.
///
/// A non-null `options.pool` fans the per-component searches out across
/// the pool, one task and one compiled matcher per component, with
/// first-found cancellation: a component aborts once a lower-indexed
/// component has found a fold, and the fold returned is always the one
/// the lowest folding component finds first in probe order — i.e. the
/// sequential engine's fold, bit for bit. Per-probe budgets are kept
/// per-probe rather than pooled so budget exhaustion is also bit-exact
/// at any worker count (see DESIGN.md). `options.stats` is ignored (the
/// search runs many probes; use CoreStats on CoreChecked instead).
Result<std::optional<TermMap>> FindProperEndomorphism(
    const Graph& g, MatchOptions options = MatchOptions());

/// True iff g is lean: no map μ sends g to a proper subgraph of itself
/// (paper Def. 3.7). Asserts the step budget is not exhausted. A
/// non-null pool parallelizes over blank components.
bool IsLean(const Graph& g, ThreadPool* pool = nullptr);

/// Computes core(g): the unique (up to isomorphism) lean subgraph of g
/// that is an instance of g (paper Thm 3.10). Every graph is equivalent
/// to its core. If `witness` is non-null it receives the composed map μ
/// with μ(g) = core(g). A non-null pool parallelizes each round's
/// component searches; the result (graph, witness, folding sequence) is
/// bit-identical to the sequential computation. Folds are applied in
/// place to a copy of g, so the result shares every spine leaf the folds
/// did not touch with g (see DESIGN.md, in-place folding).
/// A non-default `shared` ref consults (and feeds) a cross-epoch
/// LeanCache; the resulting graph is bit-identical with or without it —
/// cached components are lean, so skipping their searches changes no
/// fold — only the work done differs.
Graph Core(const Graph& g, TermMap* witness = nullptr,
           ThreadPool* pool = nullptr, LeanCacheRef shared = {});

/// Budget-aware variant of Core for adversarial inputs (computing cores
/// is DP-hard to even verify, paper Thm 3.12(2)). Parallelism comes via
/// `options.pool`; whether the budget is exhausted — and every CoreStats
/// field except steps_speculative — does not depend on the worker count
/// (a shared LeanCache can change the budget outcome between *runs*, by
/// skipping searches, but never between worker counts within one run).
Result<Graph> CoreChecked(const Graph& g, MatchOptions options,
                          TermMap* witness = nullptr,
                          CoreStats* stats = nullptr,
                          LeanCacheRef shared = {});

}  // namespace swdb

#endif  // SWDB_NORMAL_CORE_H_
