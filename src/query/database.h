#ifndef SWDB_QUERY_DATABASE_H_
#define SWDB_QUERY_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "inference/closure.h"
#include "query/answer.h"
#include "query/batch.h"
#include "query/query.h"
#include "rdf/graph.h"
#include "rdf/term.h"
#include "util/status.h"

namespace swdb {

struct UnionQuery;

/// Observability counters for the incremental maintenance engine. All
/// counters are cumulative since construction (or ResetStats).
///
/// The fields are relaxed atomics so the writer thread can keep counting
/// while reader threads inspect stats() — each counter is individually
/// coherent (copies taken mid-mutation may mix counters from adjacent
/// operations, which is fine for observability data).
struct DatabaseStats {
  std::atomic<uint64_t> inserts{0};  ///< triples actually added
  std::atomic<uint64_t> erases{0};   ///< triples actually removed
  std::atomic<uint64_t> batches{0};  ///< Apply() calls

  std::atomic<uint64_t> closure_full_builds{0};   ///< from-scratch fixpoints
  std::atomic<uint64_t> closure_delta_updates{0};  ///< semi-naive inserts
  std::atomic<uint64_t> closure_erase_updates{0};  ///< DRed deletions
  std::atomic<uint64_t> closure_bulk_resets{0};  ///< bulk cache drops
  std::atomic<uint64_t> closure_cache_hits{0};  ///< Closure() served free
  std::atomic<uint64_t> closure_delta_derived{0};  ///< delta-derived triples
  std::atomic<uint64_t> closure_overdeleted{0};  ///< DRed suspects
  std::atomic<uint64_t> closure_rederived{0};    ///< DRed re-derivations

  std::atomic<uint64_t> nf_rebuilds{0};    ///< core recomputations
  std::atomic<uint64_t> nf_cache_hits{0};  ///< Normalized() from cache
  /// Snapshot-side nf(D) builds: how many times some snapshot's lazy
  /// call_once slot actually ran the core computation (each snapshot
  /// builds at most once no matter how many readers race normalized()).
  std::atomic<uint64_t> snapshot_nf_builds{0};

  std::atomic<uint64_t> membership_builds{0};   ///< membership (re)builds
  std::atomic<uint64_t> membership_queries{0};  ///< EntailsTriple calls

  /// Snapshot publications and their COW cost: per publish, how many
  /// spine leaves of the published data+closure graphs were shared with
  /// the previously published snapshot vs newly materialized. A
  /// publication after a k-triple delta copies O(k) leaves — these two
  /// counters are the direct measure.
  std::atomic<uint64_t> snapshot_publishes{0};
  std::atomic<uint64_t> publish_leaves_shared{0};
  std::atomic<uint64_t> publish_leaves_copied{0};

  /// Storage/scan counters of the data graph and the maintained closure
  /// graph (empty when no closure is cached). Plain snapshots, filled by
  /// Database::CollectStats — the live stats() reference leaves them
  /// zeroed.
  GraphStats data_graph;
  GraphStats closure_graph;
  /// Interning observability (shard load, per-kind counts); plain
  /// snapshot filled by CollectStats.
  DictionaryStats dictionary;
  /// Always zero. These counted a cross-epoch proven-lean component
  /// cache, which the single-blank enumeration in the core engine left
  /// with nothing to save (see DESIGN.md); the fields stay only because
  /// the repository benchmark reads them (perfbench/src/main.cc and
  /// perfbench/src/bench.cc). Drop them with its next change.
  struct LeanCacheCounters {
    uint64_t cross_hits = 0;
    uint64_t misses = 0;
  } lean_cache;
  /// Materialized pre-answer view layer counters (hits, misses, patches,
  /// invalidations, advisor promotions); plain snapshot filled by
  /// CollectStats.
  ViewCacheStats views;

  /// Batched multi-query evaluation (PreAnswerBatch, writer and
  /// snapshots): cumulative BatchStats sums plus the call count. See
  /// query/batch.h for the per-field meanings.
  std::atomic<uint64_t> batch_calls{0};
  std::atomic<uint64_t> batch_queries{0};
  std::atomic<uint64_t> batch_deduped{0};
  std::atomic<uint64_t> batch_premise_fallthroughs{0};
  std::atomic<uint64_t> batch_minting_fallthroughs{0};
  std::atomic<uint64_t> batch_view_hits{0};
  std::atomic<uint64_t> batch_trie_groups{0};
  std::atomic<uint64_t> batch_solo_groups{0};
  std::atomic<uint64_t> batch_prefix_hits{0};
  std::atomic<uint64_t> batch_shared_reused{0};
  std::atomic<uint64_t> batch_limit_exceeded{0};
  /// Union-query fan-outs: branches served by another branch's
  /// evaluation through the same ViewKey grouping the batch path uses.
  std::atomic<uint64_t> union_branches_deduped{0};

  DatabaseStats() = default;
  DatabaseStats(const DatabaseStats& o) { *this = o; }
  DatabaseStats& operator=(const DatabaseStats& o) {
    inserts = o.inserts.load(std::memory_order_relaxed);
    erases = o.erases.load(std::memory_order_relaxed);
    batches = o.batches.load(std::memory_order_relaxed);
    closure_full_builds =
        o.closure_full_builds.load(std::memory_order_relaxed);
    closure_delta_updates =
        o.closure_delta_updates.load(std::memory_order_relaxed);
    closure_erase_updates =
        o.closure_erase_updates.load(std::memory_order_relaxed);
    closure_bulk_resets =
        o.closure_bulk_resets.load(std::memory_order_relaxed);
    closure_cache_hits = o.closure_cache_hits.load(std::memory_order_relaxed);
    closure_delta_derived =
        o.closure_delta_derived.load(std::memory_order_relaxed);
    closure_overdeleted =
        o.closure_overdeleted.load(std::memory_order_relaxed);
    closure_rederived = o.closure_rederived.load(std::memory_order_relaxed);
    nf_rebuilds = o.nf_rebuilds.load(std::memory_order_relaxed);
    nf_cache_hits = o.nf_cache_hits.load(std::memory_order_relaxed);
    snapshot_nf_builds =
        o.snapshot_nf_builds.load(std::memory_order_relaxed);
    membership_builds = o.membership_builds.load(std::memory_order_relaxed);
    membership_queries = o.membership_queries.load(std::memory_order_relaxed);
    snapshot_publishes =
        o.snapshot_publishes.load(std::memory_order_relaxed);
    publish_leaves_shared =
        o.publish_leaves_shared.load(std::memory_order_relaxed);
    publish_leaves_copied =
        o.publish_leaves_copied.load(std::memory_order_relaxed);
    batch_calls = o.batch_calls.load(std::memory_order_relaxed);
    batch_queries = o.batch_queries.load(std::memory_order_relaxed);
    batch_deduped = o.batch_deduped.load(std::memory_order_relaxed);
    batch_premise_fallthroughs =
        o.batch_premise_fallthroughs.load(std::memory_order_relaxed);
    batch_minting_fallthroughs =
        o.batch_minting_fallthroughs.load(std::memory_order_relaxed);
    batch_view_hits = o.batch_view_hits.load(std::memory_order_relaxed);
    batch_trie_groups = o.batch_trie_groups.load(std::memory_order_relaxed);
    batch_solo_groups = o.batch_solo_groups.load(std::memory_order_relaxed);
    batch_prefix_hits = o.batch_prefix_hits.load(std::memory_order_relaxed);
    batch_shared_reused =
        o.batch_shared_reused.load(std::memory_order_relaxed);
    batch_limit_exceeded =
        o.batch_limit_exceeded.load(std::memory_order_relaxed);
    union_branches_deduped =
        o.union_branches_deduped.load(std::memory_order_relaxed);
    data_graph = o.data_graph;
    closure_graph = o.closure_graph;
    dictionary = o.dictionary;
    lean_cache = o.lean_cache;
    views = o.views;
    return *this;
  }
};

/// A group of mutations applied atomically by Database::Apply, so the
/// maintenance engine runs once per batch (one DRed pass for the
/// erases, one semi-naive pass for the inserts) instead of once per
/// triple.
class MutationBatch {
 public:
  MutationBatch& Insert(const Triple& t) {
    inserts_.push_back(t);
    return *this;
  }
  MutationBatch& Erase(const Triple& t) {
    erases_.push_back(t);
    return *this;
  }
  bool empty() const { return inserts_.empty() && erases_.empty(); }
  size_t size() const { return inserts_.size() + erases_.size(); }

 private:
  friend class Database;
  std::vector<Triple> inserts_;
  std::vector<Triple> erases_;
};

/// An immutable, epoch-tagged view of a Database — the unit of the
/// concurrent read path. A snapshot owns shared_ptr copies of the data
/// graph and its RDFS closure (published with warmed indexes, so every
/// read is const-clean), plus lazily built derived artifacts (normal
/// form, closure membership) guarded by std::call_once.
///
/// Threading: all methods are safe to call from any number of threads
/// concurrently, and the snapshot stays valid and unchanged while the
/// owning Database keeps mutating — readers never observe a partial
/// mutation. PreAnswer on premise-free queries is fully concurrent
/// (Skolemization is internally synchronized); premise-bearing queries
/// merge into the dictionary and must be serialized with the writer.
/// The owning Database (whose evaluator the snapshot borrows) must
/// outlive every snapshot it handed out.
class DatabaseSnapshot {
 public:
  /// The data-graph epoch this snapshot reflects.
  uint64_t epoch() const { return epoch_; }
  /// The data graph D at epoch().
  const Graph& data() const { return *data_; }
  /// RDFS-cl(D), maintained by the writer, frozen here.
  const Graph& closure() const { return *closure_; }
  /// nf(D) = core(cl(D)) (or cl(D) under use_closure_only), built on
  /// first use by exactly one thread (call_once; every concurrent
  /// reader observes the one built graph). The core runs on the
  /// snapshot's pool — EvalOptions' match.pool if set, else the
  /// process-shared ThreadPool — with its component-parallel engine,
  /// whose output is bit-identical to the sequential core.
  const Graph& normalized() const;

  /// t ∈ RDFS-cl(D), through a membership index built on first use.
  bool EntailsTriple(const Triple& t) const;
  /// RDFS entailment D ⊨ q against the frozen closure.
  bool Entails(const Graph& q) const;
  /// Single answers of a premise-free query against nf(D), served from
  /// the owning Database's view cache when a view valid for this
  /// snapshot's (closure version, erase stamp) exists — a hit skips
  /// even the lazy nf build. On a miss the snapshot evaluates against
  /// its own nf and, when the advisor promotes the shape, offers the
  /// view back at its captured version (the cache's write rule drops
  /// the offer if the writer has moved on). See the class comment for
  /// the premise-bearing caveat.
  Result<std::vector<Graph>> PreAnswer(const Query& q) const;
  /// Single answers for a whole batch of queries against this one
  /// snapshot, slot for slot bit-identical to calling PreAnswer on each
  /// in order (same answers, same order, same Skolem mints) at any
  /// worker count. Isomorphic shapes are answered once and replayed per
  /// spelling; survivors share prefix enumeration through the batch
  /// trie (see query/batch.h). A batch fully served by the view cache
  /// skips even the lazy nf build. Premise-bearing slots serialize with
  /// the writer exactly like PreAnswer on them would.
  std::vector<Result<std::vector<Graph>>> PreAnswerBatch(
      const std::vector<Query>& queries, BatchStats* stats_out = nullptr) const;

 private:
  friend class Database;
  DatabaseSnapshot(uint64_t epoch, std::shared_ptr<const Graph> data,
                   std::shared_ptr<const Graph> closure,
                   QueryEvaluator* evaluator, EvalOptions options,
                   ThreadPool* pool, DatabaseStats* stats,
                   ViewCacheRef views)
      : epoch_(epoch),
        data_(std::move(data)),
        closure_(std::move(closure)),
        evaluator_(evaluator),
        options_(options),
        pool_(pool),
        stats_(stats),
        views_(views) {}

  uint64_t epoch_;
  std::shared_ptr<const Graph> data_;
  std::shared_ptr<const Graph> closure_;
  QueryEvaluator* evaluator_;
  EvalOptions options_;
  ThreadPool* pool_;       // runs the lazy core build; owned elsewhere
  DatabaseStats* stats_;   // the owning Database's counters
  // The owning Database's view cache, addressed at this snapshot's
  // (closure version, erase stamp); null cache when the view layer is
  // disabled.
  ViewCacheRef views_;

  mutable std::once_flag normalized_once_;
  mutable std::optional<Graph> normalized_;
  mutable std::once_flag membership_once_;
  mutable std::optional<ClosureMembership> membership_;
};

/// A mutable RDF database with *maintained* cached artifacts — the
/// convenience facade a downstream user works against.
///
/// The derived artifacts (RDFS-cl(D); nf(D) = core(cl(D)), §4.1,
/// Note 4.4; the closure-membership index) are computed lazily on first
/// use, and from then on *maintained* across mutations instead of being
/// reset: inserts extend the closure by semi-naive delta propagation
/// (the monotone-fixpoint reading of Def. 2.7), deletions run a DRed
/// over-delete/re-derive pass, and every artifact carries the graph
/// epoch / closure version it reflects so staleness is structurally
/// impossible rather than merely unlikely. Bulk loads larger than the
/// current closure fall back to dropping the cache (a batched rebuild
/// beats replaying a huge delta). Premise-bearing queries still
/// normalize D + P per call.
///
/// Threading model (single writer, many readers): every mutating and
/// cache-maintaining method — Insert/Erase/Apply, Closure, Normalized,
/// Entails, EntailsTriple, PreAnswer — must stay on one writer thread.
/// Reader threads call Snapshot(), which copies the latest published
/// DatabaseSnapshot pointer under a leaf mutex held only for the copy;
/// mutators republish once snapshots have been requested, so a snapshot
/// is always some committed epoch's consistent state, never a
/// mid-mutation view.
class Database {
 public:
  struct ApplyResult {
    size_t inserted = 0;  ///< batch inserts that were new
    size_t erased = 0;    ///< batch erases that were present
  };

  /// The dictionary must outlive the database.
  explicit Database(Dictionary* dict, EvalOptions options = {});

  Dictionary* dict() { return dict_; }
  const Graph& graph() const { return data_; }
  size_t size() const { return data_.size(); }
  /// The data graph's mutation epoch (see Graph::epoch).
  uint64_t epoch() const { return data_.epoch(); }

  /// Inserts a triple; returns true if new. Maintains the cached
  /// closure incrementally if it exists.
  bool Insert(const Triple& t);
  /// Inserts all triples of a graph (one maintenance pass; bulk loads
  /// may drop the cache instead — see class comment).
  void InsertGraph(const Graph& g);
  /// Parses and inserts N-Triples-style text.
  Status InsertText(std::string_view text);
  /// Removes a triple; returns true if it was present. Maintains the
  /// cached closure via DRed if it exists.
  bool Erase(const Triple& t);
  /// Applies a batch of erases then inserts as one maintenance step.
  ApplyResult Apply(const MutationBatch& batch);

  /// RDFS-cl(D), computed on first use and maintained thereafter.
  const Graph& Closure();

  /// nf(D) (or its closure under use_closure_only), recomputed only
  /// when the maintained closure actually changed.
  const Graph& Normalized();

  /// RDFS entailment D ⊨ q (Thm 2.8), evaluated against the maintained
  /// closure (no per-call refixpoint).
  bool Entails(const Graph& q);

  /// t ∈ RDFS-cl(D) through the maintained membership index (paper
  /// Thm 3.6(4) shape): O(|D|) per query, no materialization in the
  /// common case.
  bool EntailsTriple(const Triple& t);

  /// Single answers of a query (§4.1). Premise-free queries route
  /// through the materialized view layer (EvalOptions::views): lookup →
  /// delta maintenance → matcher fallthrough, with answers bit-identical
  /// to the uncached path. Premise-bearing queries always evaluate (the
  /// D + P merge mints fresh blanks per call, so those answers are not
  /// replayable).
  Result<std::vector<Graph>> PreAnswer(const Query& q);
  /// Pre-answers of a union query: branch pre-answers (each routed
  /// through the view layer), concatenated, sorted, deduplicated. With a
  /// MatchOptions::pool, branches fan out over it with pinned merge
  /// order — the result is bit-identical at any worker count.
  Result<std::vector<Graph>> PreAnswer(const UnionQuery& q);
  /// Single answers for a whole batch of queries, slot for slot
  /// bit-identical to calling PreAnswer on each in order (same answers,
  /// same order, same Skolem mints, same dictionary end state) at any
  /// worker count. One normalized graph is pinned for the batch;
  /// isomorphic shapes are answered once and replayed per spelling; the
  /// survivors share prefix enumeration through the batch trie, whose
  /// root subtrees fan out over MatchOptions::pool (see query/batch.h).
  /// Writer-thread only, like PreAnswer.
  std::vector<Result<std::vector<Graph>>> PreAnswerBatch(
      const std::vector<Query>& queries, BatchStats* stats_out = nullptr);
  /// ans∪(q, D). Shares one PreAnswer materialization with any earlier
  /// PreAnswer/AnswerMerge of the same shape through the view layer
  /// instead of re-running the matcher.
  Result<Graph> AnswerUnion(const Query& q);
  /// ans∪ of a union query (branches through the view layer).
  Result<Graph> AnswerUnion(const UnionQuery& q);
  /// ans+(q, D); shares the PreAnswer materialization like AnswerUnion.
  Result<Graph> AnswerMerge(const Query& q);
  /// Parses the query text and evaluates under union semantics.
  Result<Graph> ExecuteQuery(std::string_view query_text);

  /// The latest published immutable snapshot (building and publishing
  /// one on first call). After the first call readers pay one leaf-
  /// mutex-guarded shared_ptr copy — they never wait behind closure
  /// maintenance. Each mutator publishes a fresh snapshot before it
  /// returns, so a snapshot taken after a mutation completes reflects
  /// at least that mutation.
  std::shared_ptr<const DatabaseSnapshot> Snapshot();

  /// The database's evaluator — the Skolem-function identity every
  /// cached and uncached answer path shares (Prop. 4.5). Tests use it to
  /// cross-check view-cache replays against from-scratch evaluation
  /// with bit-identical minted blanks.
  QueryEvaluator* evaluator() { return &evaluator_; }

  /// Maintenance-engine counters.
  const DatabaseStats& stats() const { return stats_; }
  /// stats() plus per-graph storage/scan snapshots (data_graph and, when
  /// a closure is cached, closure_graph). Writer-thread only, like every
  /// other cache-touching accessor.
  DatabaseStats CollectStats() const;
  void ResetStats() { stats_ = DatabaseStats(); }

 private:
  // Incremental maintenance steps; no-ops while no closure is cached.
  void MaintainInsert(const Graph& delta);
  void MaintainErase(const Graph& deleted);
  // The view-layer read path for one premise-free query against the
  // current nf (already maintained to `version`): lookup → advisor →
  // matcher fallthrough → install. Safe to call concurrently from the
  // union-query fan-out (cache methods lock; the evaluator and nf are
  // shared read-only).
  Result<std::vector<Graph>> PreAnswerThroughCache(const Query& q,
                                                   const Graph& nf,
                                                   uint64_t version);
  // Builds a snapshot of the current state and publishes it under
  // snapshot_mu_. Caller holds write_mu_.
  void PublishSnapshotLocked();

  Dictionary* dict_;
  Graph data_;
  QueryEvaluator evaluator_;
  EvalOptions options_;

  // Maintained artifacts, each tagged with the state it reflects:
  // the closure with the data epoch, nf with the closure version, the
  // membership index with the data epoch (internally, via Graph::epoch).
  std::optional<IncrementalClosure> closure_;
  uint64_t closure_epoch_ = 0;
  std::optional<Graph> normalized_;
  uint64_t nf_version_ = 0;
  std::optional<ClosureMembership> membership_;

  // Materialized pre-answer views (see ViewCache): consulted by the
  // writer's PreAnswer and by every snapshot's, delta-patched against
  // each new nf, fully cleared whenever the closure incarnation is
  // dropped (bulk resets), and erase-fenced by every closure erase.
  ViewCache view_cache_;

  // Concurrent read path: mutators hold write_mu_ end to end and, once
  // snapshots_on_, republish before releasing it. snapshot_ is guarded
  // by the leaf mutex snapshot_mu_, held only for the pointer copy /
  // swap — readers never wait behind a maintenance pass. (A leaf mutex
  // instead of std::atomic<std::shared_ptr>: libstdc++ 12's _Sp_atomic
  // unlocks its embedded spinlock with a relaxed RMW, which leaves the
  // _M_ptr accesses formally racy — ThreadSanitizer reports it.)
  // Lock order: write_mu_ before snapshot_mu_ — asserted in debug
  // builds via LockRankScope (util/lock_rank.h) at every acquisition.
  std::mutex write_mu_;
  bool snapshots_on_ = false;  // guarded by write_mu_
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const DatabaseSnapshot> snapshot_;

  DatabaseStats stats_;
};

}  // namespace swdb

#endif  // SWDB_QUERY_DATABASE_H_
