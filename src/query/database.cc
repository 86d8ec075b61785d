#include "query/database.h"

#include <unordered_map>

#include "inference/closure.h"
#include "normal/core.h"
#include "normal/normal_form.h"
#include "parser/text.h"
#include "query/batch.h"
#include "query/union_query.h"
#include "query/view_key.h"
#include "rdf/map.h"
#include "util/check.h"
#include "util/lock_rank.h"
#include "util/thread_pool.h"

namespace swdb {

namespace {

// The pool the nf(D) = core(cl(D)) builds run on: an explicitly
// configured EvalOptions pool wins, else the process-shared pool (sized
// by SWDB_THREADS; 0 degrades to inline). Safe to default on because
// the parallel core is bit-identical to the sequential one.
ThreadPool* CorePool(const EvalOptions& options) {
  return options.match.pool != nullptr ? options.match.pool
                                       : ThreadPool::Shared();
}

// Whether evaluating q can mint fresh blank nodes: premise-bearing
// queries merge P with renamed blanks, head blanks Skolemize. Mint
// *order* determines the minted ids, so such branches must be evaluated
// in a deterministic order (the union fan-out keeps them sequential).
bool QueryMintsBlanks(const Query& q) {
  if (!q.premise.empty()) return true;
  for (const Triple& t : q.head) {
    if (t.s.IsBlank() || t.p.IsBlank() || t.o.IsBlank()) return true;
  }
  return false;
}

// Whether the query body contains blank nodes. PatternMatcher maps
// pattern blanks homomorphically (open terms, like variables), so a
// stored matching over the body *variables* does not pin where a body
// blank went — neither the view cache's kept-filter nor its semi-naive
// patch can maintain such a view soundly. These shapes bypass the cache
// and always evaluate.
bool BodyHasBlanks(const Query& q) {
  for (const Triple& t : q.body) {
    if (t.s.IsBlank() || t.p.IsBlank() || t.o.IsBlank()) return true;
  }
  return false;
}

// Folds one PreAnswerBatch call's counters into the cumulative database
// stats (relaxed atomics: snapshots call this from reader threads).
void AccumulateBatchStats(const BatchStats& s, DatabaseStats* out) {
  const auto add = [](std::atomic<uint64_t>& c, uint64_t v) {
    c.fetch_add(v, std::memory_order_relaxed);
  };
  add(out->batch_calls, 1);
  add(out->batch_queries, s.queries);
  add(out->batch_deduped, s.deduped);
  add(out->batch_premise_fallthroughs, s.premise_fallthroughs);
  add(out->batch_minting_fallthroughs, s.minting_fallthroughs);
  add(out->batch_view_hits, s.view_hits);
  add(out->batch_trie_groups, s.trie_groups);
  add(out->batch_solo_groups, s.solo_groups);
  add(out->batch_prefix_hits, s.prefix_hits);
  add(out->batch_shared_reused, s.shared_bindings_reused);
  add(out->batch_limit_exceeded, s.limit_exceeded);
}

}  // namespace

Database::Database(Dictionary* dict, EvalOptions options)
    : dict_(dict),
      evaluator_(dict, options),
      options_(options),
      view_cache_(options.views) {}

bool Database::Insert(const Triple& t) {
  std::lock_guard<std::mutex> lock(write_mu_);
  LockRankScope rank(kLockRankWrite);
  // Copy first: t may alias data_'s own storage (e.g. a reference
  // obtained from graph()), which the mutation below shifts.
  Triple copy = t;
  if (!data_.Insert(copy)) return false;
  ++stats_.inserts;
  MaintainInsert(Graph({copy}));
  if (snapshots_on_) PublishSnapshotLocked();
  return true;
}

void Database::InsertGraph(const Graph& g) {
  std::lock_guard<std::mutex> lock(write_mu_);
  LockRankScope rank(kLockRankWrite);
  // Collect the actually-new part first: maintenance propagates from the
  // real delta, and an all-duplicates insert must not invalidate
  // anything.
  std::vector<Triple> fresh;
  for (const Triple& t : g) {
    if (!data_.Contains(t)) fresh.push_back(t);
  }
  if (fresh.empty()) return;
  stats_.inserts += fresh.size();
  Graph delta(std::move(fresh));
  data_.InsertAll(delta);
  if (closure_.has_value() &&
      delta.size() > closure_->closure().size() / 2) {
    // Bulk load: replaying a delta comparable to the closure itself is
    // slower than one batched refixpoint on next use.
    closure_.reset();
    normalized_.reset();
    // The closure incarnation (and its version counter) is gone; the
    // view cache's Clear bumps its fence stamp so counter reuse by the
    // next incarnation can never revalidate an old consumer.
    view_cache_.Clear();
    ++stats_.closure_bulk_resets;
  } else {
    MaintainInsert(delta);
  }
  if (snapshots_on_) PublishSnapshotLocked();
}

Status Database::InsertText(std::string_view text) {
  Result<Graph> g = ParseGraph(text, dict_);
  if (!g.ok()) return g.status();
  InsertGraph(*g);
  return Status::OK();
}

bool Database::Erase(const Triple& t) {
  std::lock_guard<std::mutex> lock(write_mu_);
  LockRankScope rank(kLockRankWrite);
  // Copy first: erasing a triple referenced out of graph() is the
  // natural call pattern, and data_.Erase shifts the storage t may
  // alias — the maintenance pass below must see the original value.
  Triple copy = t;
  if (!data_.Erase(copy)) return false;
  ++stats_.erases;
  MaintainErase(Graph({copy}));
  if (snapshots_on_) PublishSnapshotLocked();
  return true;
}

Database::ApplyResult Database::Apply(const MutationBatch& batch) {
  std::lock_guard<std::mutex> lock(write_mu_);
  LockRankScope rank(kLockRankWrite);
  ++stats_.batches;
  ApplyResult result;
  std::vector<Triple> erased;
  for (const Triple& t : batch.erases_) {
    if (data_.Erase(t)) erased.push_back(t);
  }
  result.erased = erased.size();
  stats_.erases += erased.size();
  if (!erased.empty()) MaintainErase(Graph(std::move(erased)));

  std::vector<Triple> inserted;
  for (const Triple& t : batch.inserts_) {
    if (data_.Insert(t)) inserted.push_back(t);
  }
  result.inserted = inserted.size();
  stats_.inserts += inserted.size();
  if (!inserted.empty()) MaintainInsert(Graph(std::move(inserted)));
  if (snapshots_on_) PublishSnapshotLocked();
  return result;
}

void Database::MaintainInsert(const Graph& delta) {
  if (!closure_.has_value()) return;  // not materialized yet: stay lazy
  ClosureDeltaStats ds;
  closure_->InsertDelta(delta, &ds);
  closure_epoch_ = data_.epoch();
  ++stats_.closure_delta_updates;
  stats_.closure_delta_derived += ds.derived;
}

void Database::MaintainErase(const Graph& deleted) {
  if (!closure_.has_value()) return;
  ClosureDeltaStats ds;
  const uint64_t version_before = closure_->version();
  closure_->EraseDelta(data_, deleted, &ds);
  closure_epoch_ = data_.epoch();
  ++stats_.closure_erase_updates;
  stats_.closure_overdeleted += ds.overdeleted;
  stats_.closure_rederived += ds.rederived;
  // Views are patched by the nf delta on the next Maintain; the stamp
  // bump only fences pre-erase snapshots out of post-erase entries.
  if (closure_->version() != version_before) view_cache_.OnErase();
}

DatabaseStats Database::CollectStats() const {
  DatabaseStats out = stats_;
  out.data_graph = data_.Stats();
  if (closure_.has_value()) out.closure_graph = closure_->closure().Stats();
  out.dictionary = dict_->Stats();
  out.views = view_cache_.stats();
  return out;
}

const Graph& Database::Closure() {
  if (!closure_.has_value()) {
    closure_.emplace(data_);
    closure_epoch_ = data_.epoch();
    view_cache_.Clear();
    ++stats_.closure_full_builds;
  } else {
    SWDB_CHECK(closure_epoch_ == data_.epoch(),
               "maintained closure out of sync with the data graph");
    ++stats_.closure_cache_hits;
  }
  return closure_->closure();
}

const Graph& Database::Normalized() {
  if (options_.use_closure_only) return Closure();
  const Graph& cl = Closure();
  if (normalized_.has_value() && nf_version_ == closure_->version()) {
    ++stats_.nf_cache_hits;
    return *normalized_;
  }
  normalized_ = Core(cl, /*witness=*/nullptr, CorePool(options_));
  nf_version_ = closure_->version();
  ++stats_.nf_rebuilds;
  return *normalized_;
}

bool Database::Entails(const Graph& q) {
  Result<bool> r = TryHasHomomorphism(q, Closure());
  SWDB_CHECK(r.ok(),
             "RDFS-entailment step budget exhausted; use TryRdfsEntails "
             "with explicit MatchOptions for graceful degradation");
  return *r;
}

bool Database::EntailsTriple(const Triple& t) {
  if (!membership_.has_value() || !membership_->InSync()) {
    if (membership_.has_value()) {
      membership_->Refresh();
    } else {
      membership_.emplace(data_);
    }
    ++stats_.membership_builds;
  }
  ++stats_.membership_queries;
  return membership_->Contains(t);
}

Result<std::vector<Graph>> Database::PreAnswer(const Query& q) {
  Status valid = q.Validate();
  if (!valid.ok()) return valid;
  if (!q.premise.empty()) {
    // Premise-bearing: the D + P merge mints fresh blank nodes per
    // call, so the answers are not replayable — never cached.
    return evaluator_.PreAnswer(q, data_);
  }
  const Graph& nf = Normalized();
  if (!options_.views.enabled || BodyHasBlanks(q)) {
    return evaluator_.PreAnswerPrenormalized(q, nf);
  }
  // Maintain before lookup: bringing every view to the current nf by
  // its delta is what turns post-mutation requests into hits. The
  // writer's (version, stamp) are by definition the cache's fence.
  const uint64_t version = closure_->version();
  view_cache_.Maintain(nf, version, view_cache_.erase_stamp(), &evaluator_,
                       options_.match);
  return PreAnswerThroughCache(q, nf, version);
}

Result<std::vector<Graph>> Database::PreAnswerThroughCache(const Query& q,
                                                           const Graph& nf,
                                                           uint64_t version) {
  CanonicalQuery canon;
  const ViewKey key = MakeViewKey(q, &canon);
  const uint64_t stamp = view_cache_.erase_stamp();
  if (std::optional<std::vector<Graph>> hit =
          view_cache_.Lookup(key, version, stamp)) {
    return *std::move(hit);
  }
  // Fallthrough: evaluate the canonical spelling (bit-identical answers
  // — see CanonicalQuery), capturing matchings when the advisor decides
  // this shape has earned materialization.
  const bool materialize = view_cache_.RecordMiss(key);
  std::vector<TermMap> matchings;
  Result<std::vector<Graph>> pre = evaluator_.PreAnswerPrenormalized(
      canon.query, nf, materialize ? &matchings : nullptr);
  if (!pre.ok()) return pre;
  if (materialize) {
    view_cache_.Install(key, canon.query, std::move(matchings), *pre,
                        version, stamp);
  }
  return pre;
}

std::vector<Result<std::vector<Graph>>> Database::PreAnswerBatch(
    const std::vector<Query>& queries, BatchStats* stats_out) {
  // Pin one nf up front iff some premise-free slot will need it — the
  // same eager Normalized() the first premise-free call of a sequential
  // replay performs. All-premise (and all-invalid) batches skip it.
  bool any_premise_free = false;
  for (const Query& q : queries) {
    if (q.premise.empty() && q.Validate().ok()) {
      any_premise_free = true;
      break;
    }
  }
  const Graph* nf = nullptr;
  ViewCacheRef views;  // null cache: view layer off for this batch
  if (any_premise_free) {
    nf = &Normalized();
    if (options_.views.enabled) {
      const uint64_t version = closure_->version();
      // Maintain before the batch's lookups, exactly like the
      // sequential writer path: delta-patching every view to the
      // current nf is what turns post-mutation batches into hits.
      view_cache_.Maintain(*nf, version, view_cache_.erase_stamp(),
                           &evaluator_, options_.match);
      views = ViewCacheRef{&view_cache_, version, view_cache_.erase_stamp()};
    }
  }
  BatchStats stats;
  std::vector<Result<std::vector<Graph>>> out = PreAnswerBatchImpl(
      queries, &evaluator_, [nf]() -> const Graph& { return *nf; },
      [this](const Query& q) { return evaluator_.PreAnswer(q, data_); },
      views, options_.match.pool, options_.match, &stats);
  AccumulateBatchStats(stats, &stats_);
  if (stats_out != nullptr) *stats_out = stats;
  return out;
}

Result<std::vector<Graph>> Database::PreAnswer(const UnionQuery& q) {
  Status valid = q.Validate();
  if (!valid.ok()) return valid;
  bool any_premise_free = false;
  for (const Query& branch : q.branches) {
    if (branch.premise.empty()) any_premise_free = true;
  }
  const Graph* nf = nullptr;
  uint64_t version = 0;
  if (any_premise_free) {
    nf = &Normalized();
    version = closure_->version();
    if (options_.views.enabled) {
      view_cache_.Maintain(*nf, version, view_cache_.erase_stamp(),
                           &evaluator_, options_.match);
    }
    // Branch tasks share nf read-only; build its permutations up front
    // so no two tasks race the lazy index build.
    nf->WarmIndexes();
  }

  auto eval_branch = [&](const Query& branch) -> Result<std::vector<Graph>> {
    if (!branch.premise.empty()) return evaluator_.PreAnswer(branch, data_);
    if (!options_.views.enabled || BodyHasBlanks(branch)) {
      return evaluator_.PreAnswerPrenormalized(branch, *nf);
    }
    return PreAnswerThroughCache(branch, *nf, version);
  };

  const size_t n = q.branches.size();
  // Branch dedupe via the batch path's ViewKey grouping: premise-free
  // branches canonicalizing to the same key get one evaluation,
  // replayed per spelling (equal keys share one canonical spelling, so
  // the replay is bit-identical). Head-blank branches key on their
  // exact spelling — a sequential re-evaluation of the duplicate would
  // hit the Skolem cache and mint nothing, so replaying the leader
  // (which runs first, in branch order) preserves the mint sequence.
  // Premise-bearing branches never dedupe: Merge mints per call.
  std::vector<size_t> dup_of(n);
  std::unordered_map<ViewKey, size_t, ViewKeyHash> leader_of;
  for (size_t i = 0; i < n; ++i) {
    dup_of[i] = i;
    if (!q.branches[i].premise.empty()) continue;
    ViewKey key = MakeViewKey(q.branches[i]);
    auto [it, inserted] = leader_of.try_emplace(std::move(key), i);
    if (!inserted) {
      dup_of[i] = it->second;
      stats_.union_branches_deduped.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::vector<std::optional<Result<std::vector<Graph>>>> parts(n);
  ThreadPool* pool = options_.match.pool;
  if (pool != nullptr && n > 1) {
    // Fan out only branches that cannot mint fresh blanks (premise-free
    // with blank-free heads): minting order determines blank ids, so
    // minting branches stay on this thread in branch order — exactly
    // the sequential mint sequence. With the pinned merge below, the
    // result is bit-identical at any worker count.
    TaskGroup group(pool);
    for (size_t i = 0; i < n; ++i) {
      if (dup_of[i] == i && !QueryMintsBlanks(q.branches[i])) {
        group.Run([&, i] { parts[i].emplace(eval_branch(q.branches[i])); });
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (dup_of[i] == i && QueryMintsBlanks(q.branches[i])) {
        parts[i].emplace(eval_branch(q.branches[i]));
      }
    }
    group.Wait();
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (dup_of[i] == i) parts[i].emplace(eval_branch(q.branches[i]));
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (dup_of[i] != i) parts[i] = parts[dup_of[i]];
  }

  std::vector<Graph> all;
  for (size_t i = 0; i < n; ++i) {
    // First error in branch order wins — same status the sequential
    // loop would have returned.
    if (!parts[i]->ok()) return parts[i]->status();
    all.insert(all.end(), (*parts[i])->begin(), (*parts[i])->end());
  }
  std::sort(all.begin(), all.end(), [](const Graph& a, const Graph& b) {
    return a.triples() < b.triples();
  });
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

Result<Graph> Database::AnswerUnion(const Query& q) {
  Result<std::vector<Graph>> pre = PreAnswer(q);
  if (!pre.ok()) return pre.status();
  Graph out;
  for (const Graph& answer : *pre) out.InsertAll(answer);
  return out;
}

Result<Graph> Database::AnswerUnion(const UnionQuery& q) {
  Result<std::vector<Graph>> pre = PreAnswer(q);
  if (!pre.ok()) return pre.status();
  Graph out;
  for (const Graph& answer : *pre) out.InsertAll(answer);
  return out;
}

Result<Graph> Database::AnswerMerge(const Query& q) {
  Result<std::vector<Graph>> pre = PreAnswer(q);
  if (!pre.ok()) return pre.status();
  Graph out;
  for (const Graph& answer : *pre) {
    out.InsertAll(FreshBlankCopy(answer, dict_));
  }
  return out;
}

Result<Graph> Database::ExecuteQuery(std::string_view query_text) {
  Result<Query> q = ParseQuery(query_text, dict_);
  if (!q.ok()) return q.status();
  return AnswerUnion(*q);
}

std::shared_ptr<const DatabaseSnapshot> Database::Snapshot() {
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    LockRankScope rank(kLockRankSnapshot);
    if (snapshot_ != nullptr) return snapshot_;
  }
  // First call: build and publish under the writer lock. Note this may
  // run the closure fixpoint; if readers start cold, either the writer
  // should take the first snapshot, or this call must not race with
  // writer-thread cache methods (Closure/Normalized/...), which do not
  // take the lock.
  std::lock_guard<std::mutex> lock(write_mu_);
  LockRankScope rank(kLockRankWrite);
  {
    std::lock_guard<std::mutex> snap_lock(snapshot_mu_);
    LockRankScope snap_rank(kLockRankSnapshot);
    if (snapshot_ != nullptr) return snapshot_;
    snapshots_on_ = true;
  }
  PublishSnapshotLocked();
  std::lock_guard<std::mutex> snap_lock(snapshot_mu_);
  LockRankScope snap_rank(kLockRankSnapshot);
  return snapshot_;
}

void Database::PublishSnapshotLocked() {
  // All the expensive work — graph copies, the maintained closure, the
  // index warm-up — happens before snapshot_mu_ is touched; readers
  // only ever wait for the pointer swap below.
  // Warm the *writer's* graphs first, then copy: a Graph copy shares
  // spine leaf pointers, so the copy inherits already-built indexes and
  // its own WarmIndexes below is a no-op. Warming the copy instead
  // would rebuild the permutations per publication — O(n), not O(k) —
  // and no leaf would ever be shared with the previous snapshot.
  data_.WarmIndexes();
  const Graph& closure_ref = Closure();
  closure_ref.WarmIndexes();
  auto data = std::make_shared<Graph>(data_);
  auto cl = std::make_shared<Graph>(closure_ref);
  // Readers share these const graphs; every access is const-clean.
  data->WarmIndexes();
  cl->WarmIndexes();
  std::shared_ptr<const DatabaseSnapshot> snap(new DatabaseSnapshot(
      data_.epoch(), std::move(data), std::move(cl), &evaluator_, options_,
      CorePool(options_), &stats_,
      ViewCacheRef{options_.views.enabled ? &view_cache_ : nullptr,
                   closure_->version(), view_cache_.erase_stamp()}));
  std::lock_guard<std::mutex> snap_lock(snapshot_mu_);
  LockRankScope snap_rank(kLockRankSnapshot);
  // COW observability: compare the outgoing snapshot's leaves against
  // the one it replaces (pointer identity — the delta-proportionality
  // measure the publication path is built around).
  if (snapshot_ != nullptr) {
    SpineSharing s = snap->data().SharedLeaves(snapshot_->data());
    const SpineSharing c = snap->closure().SharedLeaves(snapshot_->closure());
    s.shared += c.shared;
    s.total += c.total;
    stats_.publish_leaves_shared.fetch_add(s.shared,
                                           std::memory_order_relaxed);
    stats_.publish_leaves_copied.fetch_add(s.total - s.shared,
                                           std::memory_order_relaxed);
  }
  stats_.snapshot_publishes.fetch_add(1, std::memory_order_relaxed);
  snapshot_ = std::move(snap);
}

// ---------------------------------------------------------------------------
// DatabaseSnapshot

const Graph& DatabaseSnapshot::normalized() const {
  if (options_.use_closure_only) return *closure_;
  std::call_once(normalized_once_, [this] {
    normalized_.emplace(Core(*closure_, /*witness=*/nullptr, pool_));
    normalized_->WarmIndexes();
    ++stats_->snapshot_nf_builds;
  });
  return *normalized_;
}

bool DatabaseSnapshot::EntailsTriple(const Triple& t) const {
  std::call_once(membership_once_, [this] { membership_.emplace(*data_); });
  return membership_->Contains(t);
}

bool DatabaseSnapshot::Entails(const Graph& q) const {
  Result<bool> r = TryHasHomomorphism(q, *closure_);
  SWDB_CHECK(r.ok(),
             "RDFS-entailment step budget exhausted; use TryRdfsEntails "
             "with explicit MatchOptions for graceful degradation");
  return *r;
}

Result<std::vector<Graph>> DatabaseSnapshot::PreAnswer(const Query& q) const {
  if (!q.premise.empty()) {
    // Premise-bearing: merges into the dictionary — see the class
    // comment for the synchronization requirement.
    return evaluator_->PreAnswer(q, *data_);
  }
  if (views_.cache == nullptr || BodyHasBlanks(q)) {
    return evaluator_->PreAnswerPrenormalized(q, normalized());
  }
  CanonicalQuery canon;
  const ViewKey key = MakeViewKey(q, &canon);
  // First probe before touching normalized(): a hit skips the lazy nf
  // build entirely — the common case for a fresh snapshot of a hot
  // shape.
  if (std::optional<std::vector<Graph>> hit =
          views_.cache->Lookup(key, views_.version, views_.erase_stamp)) {
    return *std::move(hit);
  }
  const Graph& nf = normalized();
  // A current snapshot (stamp matches) that is ahead of the cache's
  // base advances it by the nf delta, then re-probes — the same
  // maintain-then-look path the writer takes. Lagging snapshots fall
  // straight through (Maintain fences them out).
  views_.cache->Maintain(nf, views_.version, views_.erase_stamp, evaluator_,
                         options_.match);
  if (std::optional<std::vector<Graph>> hit =
          views_.cache->Lookup(key, views_.version, views_.erase_stamp)) {
    return *std::move(hit);
  }
  const bool materialize = views_.cache->RecordMiss(key);
  std::vector<TermMap> matchings;
  Result<std::vector<Graph>> pre = evaluator_->PreAnswerPrenormalized(
      canon.query, nf, materialize ? &matchings : nullptr);
  if (!pre.ok()) return pre;
  if (materialize) {
    // Installed at this snapshot's captured (version, stamp); the write
    // rule drops the offer when the writer has moved past it.
    views_.cache->Install(key, canon.query, std::move(matchings), *pre,
                          views_.version, views_.erase_stamp);
  }
  return pre;
}

std::vector<Result<std::vector<Graph>>> DatabaseSnapshot::PreAnswerBatch(
    const std::vector<Query>& queries, BatchStats* stats_out) const {
  // The pipeline probes the view cache before calling the normalized
  // lambda, so a fully-hit batch skips the lazy nf build — the same
  // short-circuit the sequential snapshot PreAnswer has per query.
  BatchStats stats;
  std::vector<Result<std::vector<Graph>>> out = PreAnswerBatchImpl(
      queries, evaluator_, [this]() -> const Graph& { return normalized(); },
      [this](const Query& q) { return evaluator_->PreAnswer(q, *data_); },
      views_, options_.match.pool, options_.match, &stats);
  AccumulateBatchStats(stats, stats_);
  if (stats_out != nullptr) *stats_out = stats;
  return out;
}

}  // namespace swdb
