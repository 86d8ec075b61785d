#include "inference/closure.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <utility>

#include "rdf/hom.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace swdb {

using vocab::kDom;
using vocab::kRange;
using vocab::kSc;
using vocab::kSp;
using vocab::kType;

namespace {

/// One closure run: a worklist fixpoint over hash-indexed adjacency.
///
/// Every known triple is processed exactly once. Processing a triple
/// joins it, as each premise position, against the already-known triples
/// through these indexes:
///   - uses_by_pred_: predicate → triples (rule (3) and the use premise
///     of rules (6)/(7));
///   - sp_fwd_/sp_rev_, sc_fwd_/sc_rev_: the sp/sc pair relations;
///   - sp_base_fwd_/sc_base_fwd_: only pairs NOT derived by their own
///     transitivity rule. Rules (2)/(4) run *left-linear*: an arbitrary
///     pair extends forward along base edges only (complete, since every
///     chain decomposes into base edges), while a newly arrived base
///     edge joins the full relation backward. This keeps chain closures
///     at O(pairs · base-degree) instead of O(pairs²).
///   - dom_fwd_/range_fwd_ and type_rev_ for rules (5)–(7).
class ClosureEngine {
 public:
  /// Full fixpoint over g.
  ClosureEngine(const Graph& g, std::vector<RuleApplication>* trace,
                const RuleSet& rules)
      : trace_(trace), rules_(rules) {
    for (const Triple& t : g) {
      Enqueue(t, /*base=*/true);
    }
    AddVocabAxioms();
  }

  /// Semi-naive delta mode: `closure` is seeded into the join indexes
  /// but never re-expanded; only `delta` (and what it derives) enters
  /// the expansion worklist. `closure` must be closed under `rules`,
  /// except that gaps may be covered through the delta — the DRed
  /// re-derive pass relies on exactly this.
  ClosureEngine(const Graph& closure, const Graph& delta,
                std::vector<RuleApplication>* trace, const RuleSet& rules)
      : trace_(trace), rules_(rules) {
    SeedClosed(closure);
    AddVocabAxioms();
    EnqueueDelta(delta);
  }

  void RunToFixpoint() {
    while (cursor_ < worklist_.size()) {
      // Copy: Expand enqueues, and push_back may reallocate worklist_.
      Triple t = worklist_[cursor_++];
      Expand(t);
    }
  }

  /// Round-based parallel fixpoint: each round expands the whole current
  /// frontier [cursor_, size) against the index state at round start —
  /// workers only *read* engine state, buffering conclusions per chunk —
  /// then merges the buffers in pinned chunk order. This computes the
  /// same closure as RunToFixpoint: a rule instance whose premises are
  /// both in the worklist fires when its later-expanded premise is
  /// expanded (the earlier one is indexed from the moment it was
  /// enqueued), and same-round premises see each other because the whole
  /// frontier is indexed before the round starts. The worklist order is
  /// deterministic and independent of the worker count (fixed chunk
  /// grain), though it differs from the sequential order; the resulting
  /// graph is identical. Falls back to sequential when tracing (trace
  /// order is derivation order, which rounds do not preserve) or when no
  /// pool is available.
  void RunToFixpointParallel(ThreadPool* pool) {
    if (trace_ != nullptr || pool == nullptr || pool->num_threads() == 0) {
      RunToFixpoint();
      return;
    }
    constexpr size_t kMinParallelFrontier = 256;
    constexpr size_t kGrain = 64;
    std::vector<std::vector<std::pair<Triple, bool>>> found;
    while (cursor_ < worklist_.size()) {
      const size_t begin = cursor_;
      const size_t n = worklist_.size() - begin;
      if (n < kMinParallelFrontier) {
        // Too little to amortize a fan-out; expand one triple the
        // classic way (it may grow the frontier past the threshold).
        Triple t = worklist_[cursor_++];
        Expand(t);
        continue;
      }
      const size_t nchunks = (n + kGrain - 1) / kGrain;
      found.assign(nchunks, {});
      pool->ParallelFor(n, kGrain, [this, begin, &found](size_t lo,
                                                         size_t hi) {
        CollectSink sink{this, &found[lo / kGrain]};
        for (size_t i = lo; i < hi; ++i) {
          ExpandWith(worklist_[begin + i], sink);
        }
      });
      cursor_ = begin + n;
      for (const auto& chunk : found) {
        for (const auto& [c, base] : chunk) {
          if (known_.count(c)) continue;  // first derivation wins
          Enqueue(c, base);
        }
      }
    }
  }

  /// Appends further delta triples after a previous fixpoint — the
  /// persistent-engine entry point (IncrementalClosure).
  void EnqueueDelta(const Graph& delta) {
    for (const Triple& t : delta) Enqueue(t, /*base=*/true);
  }

  /// All triples known so far, in derivation order (seeds first).
  const std::vector<Triple>& worklist() const { return worklist_; }
  size_t known_size() const { return worklist_.size(); }

  /// Destructively converts the worklist into the result graph.
  Graph TakeResult() { return Graph(std::move(worklist_)); }

 private:
  // Registers every triple of an already-closed graph without
  // scheduling it for expansion.
  void SeedClosed(const Graph& closure) {
    for (const Triple& t : closure) Enqueue(t, /*base=*/true);
    cursor_ = worklist_.size();
  }

  // Rule (9): the vocabulary reflexivity axioms hold unconditionally.
  void AddVocabAxioms() {
    if (!rules_.reflexivity) return;
    for (Term v : vocab::kAll) {
      Triple t(v, kSp, v);
      if (known_.count(t)) continue;
      Record(RuleId::kSpReflexVocab, {}, {t});
      Enqueue(t, /*base=*/true);
    }
  }

  void Record(RuleId rule, std::vector<Triple> premises,
              std::vector<Triple> conclusions) {
    if (trace_ == nullptr) return;
    trace_->push_back(
        RuleApplication{rule, std::move(premises), std::move(conclusions)});
  }

  // Registers a new triple in the worklist and all indexes. `base`
  // marks sc/sp pairs not derived by their own transitivity rule.
  void Enqueue(const Triple& t, bool base) {
    if (!known_.insert(t).second) return;
    worklist_.push_back(t);
    uses_by_pred_[t.p].push_back(t);
    if (t.p == kSp) {
      sp_fwd_[t.s].push_back(t.o);
      sp_rev_[t.o].push_back(t.s);
      if (base) sp_base_fwd_[t.s].push_back(t.o);
    } else if (t.p == kSc) {
      sc_fwd_[t.s].push_back(t.o);
      sc_rev_[t.o].push_back(t.s);
      if (base) sc_base_fwd_[t.s].push_back(t.o);
    } else if (t.p == kType) {
      type_rev_[t.o].push_back(t.s);
    } else if (t.p == kDom) {
      dom_fwd_[t.s].push_back(t.o);
    } else if (t.p == kRange) {
      range_fwd_[t.s].push_back(t.o);
    }
    if ((t.p == kSp || t.p == kSc) && base) {
      base_edges_.insert(t);
    }
  }

  // Derives conclusion c by `rule` from `premises` if new.
  void Add(const Triple& c, RuleId rule, std::vector<Triple> premises) {
    if (!c.IsWellFormedData()) return;  // blank predicate: not a triple
    if (known_.count(c)) return;
    Record(rule, std::move(premises), {c});
    bool base = !(c.p == kSp && rule == RuleId::kSpTransitivity) &&
                !(c.p == kSc && rule == RuleId::kScTransitivity);
    Enqueue(c, base);
  }

  // Rules (11)/(13) conclude two reflexive triples at once.
  void AddPair(const Triple& c1, const Triple& c2, RuleId rule,
               const Triple& premise) {
    bool n1 = !known_.count(c1);
    bool n2 = !known_.count(c2);
    if (!n1 && !n2) return;
    Record(rule, {premise}, {c1, c2});
    if (n1) Enqueue(c1, /*base=*/true);
    if (n2) Enqueue(c2, /*base=*/true);
  }

  // Both accessors return copies: Add() mutates the underlying vectors
  // while callers iterate, so handing out references would be
  // use-after-reallocation UB whenever a conclusion updates the very
  // index being scanned (e.g. rule (3) deriving more uses of the
  // predicate it is iterating).
  std::vector<Term> Neighbors(
      const std::unordered_map<Term, std::vector<Term>>& index,
      Term key) const {
    auto it = index.find(key);
    return it == index.end() ? std::vector<Term>() : it->second;
  }

  std::vector<Triple> Uses(Term predicate) const {
    auto it = uses_by_pred_.find(predicate);
    return it == uses_by_pred_.end() ? std::vector<Triple>() : it->second;
  }

  // Where rule conclusions go. DirectSink is the classic sequential
  // path: derive-and-enqueue immediately. CollectSink buffers (it only
  // *reads* engine state), which is what lets a parallel round expand a
  // whole frontier concurrently and merge the conclusions afterwards.
  struct DirectSink {
    ClosureEngine* e;
    void Add(const Triple& c, RuleId rule, std::vector<Triple> premises) {
      e->Add(c, rule, std::move(premises));
    }
    void AddPair(const Triple& c1, const Triple& c2, RuleId rule,
                 const Triple& premise) {
      e->AddPair(c1, c2, rule, premise);
    }
  };
  struct CollectSink {
    const ClosureEngine* e;
    // (conclusion, base flag) in derivation order; may still contain
    // duplicates across sinks — the merge dedups through known_.
    std::vector<std::pair<Triple, bool>>* out;
    void Add(const Triple& c, RuleId rule, std::vector<Triple> /*premises*/) {
      if (!c.IsWellFormedData()) return;
      if (e->known_.count(c)) return;
      const bool base = !(c.p == kSp && rule == RuleId::kSpTransitivity) &&
                        !(c.p == kSc && rule == RuleId::kScTransitivity);
      out->emplace_back(c, base);
    }
    void AddPair(const Triple& c1, const Triple& c2, RuleId /*rule*/,
                 const Triple& /*premise*/) {
      if (!e->known_.count(c1)) out->emplace_back(c1, true);
      if (!e->known_.count(c2)) out->emplace_back(c2, true);
    }
  };

  void Expand(const Triple& t) {
    DirectSink sink{this};
    ExpandWith(t, sink);
  }

  // Joins triple t, as every premise position, against the indexes.
  // Snapshot note: the adjacency vectors can reallocate while we append
  // during iteration, so each loop copies the neighbor list first.
  // With a CollectSink nothing reallocates, but the copies stay — the
  // cost is small and one body serves both modes.
  template <typename Sink>
  void ExpandWith(const Triple& t, Sink& sink) {
    // --- Generic: t as the "use" triple (X, A, Y). ---
    // Rule (8).
    if (rules_.reflexivity) {
      sink.Add(Triple(t.p, kSp, t.p), RuleId::kSpReflexFromUse, {t});
    }
    // Rule (3) use side and rules (6)/(7) use side: follow sp upward
    // from the predicate.
    if (rules_.sp_inheritance || rules_.marin_subproperty_typing) {
      const std::vector<Term> supers = Neighbors(sp_fwd_, t.p);
      for (Term b : supers) {
        if (rules_.sp_inheritance) {
          sink.Add(Triple(t.s, b, t.o), RuleId::kSpInheritance,
              {Triple(t.p, kSp, b), t});
        }
        if (!rules_.marin_subproperty_typing) continue;
        if (rules_.dom_typing) {
          for (Term klass : Neighbors(dom_fwd_, b)) {
            sink.Add(Triple(t.s, kType, klass), RuleId::kDomTyping,
                {Triple(b, kDom, klass), Triple(t.p, kSp, b), t});
          }
        }
        if (rules_.range_typing) {
          for (Term klass : Neighbors(range_fwd_, b)) {
            sink.Add(Triple(t.o, kType, klass), RuleId::kRangeTyping,
                {Triple(b, kRange, klass), Triple(t.p, kSp, b), t});
          }
        }
      }
    }
    // Rules (6)/(7), direct part (C = A): (t.p, dom/range, B) types the
    // use immediately; the (t.p, sp, t.p) premise is supplied by rule
    // (8) just above, so the recorded instantiation stays valid.
    if (rules_.dom_typing) {
      for (Term klass : Neighbors(dom_fwd_, t.p)) {
        sink.Add(Triple(t.s, kType, klass), RuleId::kDomTyping,
            {Triple(t.p, kDom, klass), Triple(t.p, kSp, t.p), t});
      }
    }
    if (rules_.range_typing) {
      for (Term klass : Neighbors(range_fwd_, t.p)) {
        sink.Add(Triple(t.o, kType, klass), RuleId::kRangeTyping,
            {Triple(t.p, kRange, klass), Triple(t.p, kSp, t.p), t});
      }
    }

    // --- Predicate-specific joins. ---
    if (t.p == kSp) {
      // Rule (2), left-linear (see the class comment).
      if (rules_.sp_transitivity) {
        const std::vector<Term> base_out = Neighbors(sp_base_fwd_, t.o);
        for (Term c : base_out) {
          sink.Add(Triple(t.s, kSp, c), RuleId::kSpTransitivity,
              {t, Triple(t.o, kSp, c)});
        }
        if (base_edges_.count(t)) {
          const std::vector<Term> preds = Neighbors(sp_rev_, t.s);
          for (Term z : preds) {
            sink.Add(Triple(z, kSp, t.o), RuleId::kSpTransitivity,
                {Triple(z, kSp, t.s), t});
          }
        }
      }
      // Rule (3), sp side: existing uses of predicate t.s gain t.o.
      if (rules_.sp_inheritance) {
        const std::vector<Triple> uses = Uses(t.s);
        for (const Triple& use : uses) {
          sink.Add(Triple(use.s, t.o, use.o), RuleId::kSpInheritance, {t, use});
        }
      }
      // Rules (6)/(7), sp side: t = (C, sp, A) with (A, dom/range, B).
      if (rules_.marin_subproperty_typing) {
        const std::vector<Triple> sub_uses = Uses(t.s);
        if (rules_.dom_typing) {
          for (Term klass : Neighbors(dom_fwd_, t.o)) {
            for (const Triple& use : sub_uses) {
              sink.Add(Triple(use.s, kType, klass), RuleId::kDomTyping,
                  {Triple(t.o, kDom, klass), t, use});
            }
          }
        }
        if (rules_.range_typing) {
          for (Term klass : Neighbors(range_fwd_, t.o)) {
            for (const Triple& use : sub_uses) {
              sink.Add(Triple(use.o, kType, klass), RuleId::kRangeTyping,
                  {Triple(t.o, kRange, klass), t, use});
            }
          }
        }
      }
      // Rule (11).
      if (rules_.reflexivity) {
        sink.AddPair(Triple(t.s, kSp, t.s), Triple(t.o, kSp, t.o),
                RuleId::kSpReflexPair, t);
      }
    } else if (t.p == kSc) {
      // Rule (4), left-linear.
      if (rules_.sc_transitivity) {
        const std::vector<Term> base_out = Neighbors(sc_base_fwd_, t.o);
        for (Term c : base_out) {
          sink.Add(Triple(t.s, kSc, c), RuleId::kScTransitivity,
              {t, Triple(t.o, kSc, c)});
        }
        if (base_edges_.count(t)) {
          const std::vector<Term> preds = Neighbors(sc_rev_, t.s);
          for (Term z : preds) {
            sink.Add(Triple(z, kSc, t.o), RuleId::kScTransitivity,
                {Triple(z, kSc, t.s), t});
          }
        }
      }
      // Rule (5), sc side: instances of t.s lift to t.o.
      if (rules_.sc_typing) {
        const std::vector<Term> instances = Neighbors(type_rev_, t.s);
        for (Term x : instances) {
          sink.Add(Triple(x, kType, t.o), RuleId::kScTyping,
              {t, Triple(x, kType, t.s)});
        }
      }
      // Rule (13).
      if (rules_.reflexivity) {
        sink.AddPair(Triple(t.s, kSc, t.s), Triple(t.o, kSc, t.o),
                RuleId::kScReflexPair, t);
      }
    } else if (t.p == kType) {
      // Rule (5), type side.
      if (rules_.sc_typing) {
        const std::vector<Term> supers_sc = Neighbors(sc_fwd_, t.o);
        for (Term b : supers_sc) {
          sink.Add(Triple(t.s, kType, b), RuleId::kScTyping,
              {Triple(t.o, kSc, b), t});
        }
      }
      // Rule (12).
      if (rules_.reflexivity) {
        sink.Add(Triple(t.o, kSc, t.o), RuleId::kScReflexFromUse, {t});
      }
    } else if (t.p == kDom || t.p == kRange) {
      // Rules (6)/(7), dom/range side: (c, sp, t.s) and uses of c. The
      // direct C = A case joins the uses of t.s itself; the Marin part
      // follows sp downward.
      const bool enabled =
          t.p == kDom ? rules_.dom_typing : rules_.range_typing;
      // Rules (10)/(12) first: the direct joins below cite the rule-(10)
      // reflexive triple as a premise, so it must enter the trace first.
      if (rules_.reflexivity) {
        sink.Add(Triple(t.s, kSp, t.s), RuleId::kSpReflexDomRange, {t});
        sink.Add(Triple(t.o, kSc, t.o), RuleId::kScReflexFromUse, {t});
      }
      if (enabled) {
        const std::vector<Triple> direct_uses = Uses(t.s);
        for (const Triple& use : direct_uses) {
          if (t.p == kDom) {
            sink.Add(Triple(use.s, kType, t.o), RuleId::kDomTyping,
                {t, Triple(t.s, kSp, t.s), use});
          } else {
            sink.Add(Triple(use.o, kType, t.o), RuleId::kRangeTyping,
                {t, Triple(t.s, kSp, t.s), use});
          }
        }
      }
      if (enabled && rules_.marin_subproperty_typing) {
        const std::vector<Term> subs = Neighbors(sp_rev_, t.s);
        for (Term c : subs) {
          const std::vector<Triple> uses = Uses(c);
          for (const Triple& use : uses) {
            if (t.p == kDom) {
              sink.Add(Triple(use.s, kType, t.o), RuleId::kDomTyping,
                  {t, Triple(c, kSp, t.s), use});
            } else {
              sink.Add(Triple(use.o, kType, t.o), RuleId::kRangeTyping,
                  {t, Triple(c, kSp, t.s), use});
            }
          }
        }
      }
    }
  }

  std::unordered_set<Triple> known_;
  std::vector<Triple> worklist_;
  size_t cursor_ = 0;
  std::vector<RuleApplication>* trace_;
  RuleSet rules_;

  std::unordered_map<Term, std::vector<Triple>> uses_by_pred_;
  std::unordered_map<Term, std::vector<Term>> sp_fwd_;
  std::unordered_map<Term, std::vector<Term>> sp_rev_;
  std::unordered_map<Term, std::vector<Term>> sc_fwd_;
  std::unordered_map<Term, std::vector<Term>> sc_rev_;
  std::unordered_map<Term, std::vector<Term>> sp_base_fwd_;
  std::unordered_map<Term, std::vector<Term>> sc_base_fwd_;
  std::unordered_map<Term, std::vector<Term>> dom_fwd_;
  std::unordered_map<Term, std::vector<Term>> range_fwd_;
  std::unordered_map<Term, std::vector<Term>> type_rev_;
  std::unordered_set<Triple> base_edges_;
};

/// Sound one-step derivability check used by the DRed re-derive pass:
/// true only if c has a rule-(2)–(13) derivation whose premises all lie
/// in p (possibly via a premise itself one-step derivable from p, which
/// keeps c ∈ RDFS-cl(p) — soundness is what matters here). It is
/// complete for single rule applications over p, which is exactly what
/// DRed requires of the re-derive seed.
bool DerivableOneStep(const Graph& p, const Triple& c) {
  if (!c.IsWellFormedData()) return false;
  // Rule (3), any conclusion predicate (including the reserved ones —
  // pathological graphs can mint sp/sc/type edges through it): some
  // explicit (c.s, p', c.o) with p' = c.p or (p', sp, c.p) ∈ p.
  bool hit = false;
  p.Match(c.s, std::nullopt, c.o, [&](const Triple& use) {
    if (use.p == c.p || p.Contains(Triple(use.p, kSp, c.p))) {
      hit = true;
      return false;
    }
    return true;
  });
  if (hit) return true;
  if (c.p == kSp) {
    if (c.s == c.o) {
      const Term a = c.s;
      for (Term v : vocab::kAll) {
        if (a == v) return true;  // rule (9)
      }
      if (p.CountMatches(std::nullopt, a, std::nullopt) > 0) return true;
      if (p.CountMatches(a, kDom, std::nullopt) > 0) return true;  // (10)
      if (p.CountMatches(a, kRange, std::nullopt) > 0) return true;
      if (p.CountMatches(a, kSp, std::nullopt) > 0) return true;  // (11)
      if (p.CountMatches(std::nullopt, kSp, a) > 0) return true;
      return false;
    }
    // Rule (2): a two-edge sp path.
    p.Match(c.s, kSp, std::nullopt, [&](const Triple& e) {
      if (p.Contains(Triple(e.o, kSp, c.o))) {
        hit = true;
        return false;
      }
      return true;
    });
    return hit;
  }
  if (c.p == kSc) {
    if (c.s == c.o) {
      const Term a = c.s;
      if (p.CountMatches(std::nullopt, kType, a) > 0) return true;  // (12)
      if (p.CountMatches(std::nullopt, kDom, a) > 0) return true;
      if (p.CountMatches(std::nullopt, kRange, a) > 0) return true;
      if (p.CountMatches(a, kSc, std::nullopt) > 0) return true;  // (13)
      if (p.CountMatches(std::nullopt, kSc, a) > 0) return true;
      return false;
    }
    // Rule (4): a two-edge sc path.
    p.Match(c.s, kSc, std::nullopt, [&](const Triple& e) {
      if (p.Contains(Triple(e.o, kSc, c.o))) {
        hit = true;
        return false;
      }
      return true;
    });
    return hit;
  }
  if (c.p == kType) {
    // Rule (5): (c.s, type, a) with (a, sc, c.o).
    p.Match(c.s, kType, std::nullopt, [&](const Triple& ty) {
      if (p.Contains(Triple(ty.o, kSc, c.o))) {
        hit = true;
        return false;
      }
      return true;
    });
    if (hit) return true;
    // Rule (6): (A, dom, c.o) with a use (c.s, p', _), p' = A or
    // (p', sp, A) ∈ p. (The direct part's (A, sp, A) premise is itself
    // rule-(10) derivable from the dom triple, keeping this sound.)
    // The use range is independent of the outer row: resolve it once
    // outside the join (p is not mutated here, so it stays valid).
    MatchRange dom_uses = p.Matches(c.s, std::nullopt, std::nullopt);
    p.Match(std::nullopt, kDom, c.o, [&](const Triple& d) {
      for (const Triple& use : dom_uses) {
        if (use.p == d.s || p.Contains(Triple(use.p, kSp, d.s))) {
          hit = true;
          return false;
        }
      }
      return true;
    });
    if (hit) return true;
    // Rule (7): (A, range, c.o) with a use (_, p', c.s).
    MatchRange range_uses = p.Matches(std::nullopt, std::nullopt, c.s);
    p.Match(std::nullopt, kRange, c.o, [&](const Triple& r) {
      for (const Triple& use : range_uses) {
        if (use.p == r.s || p.Contains(Triple(use.p, kSp, r.s))) {
          hit = true;
          return false;
        }
      }
      return true;
    });
    return hit;
  }
  // dom/range and ordinary predicates: only rule (3) (checked above)
  // concludes them.
  return false;
}

// Enumerates the conclusions of every rule application that uses t as a
// premise, drawing the remaining premises from g's permutation indexes.
// Conclusions may repeat, be ill-formed (blank predicate), or already be
// present — the callback filters. The callback must not mutate g.
//
// Joining against the full transitive relations in g over-approximates
// the engine's left-linear evaluation; combined with a worklist that
// eventually processes every member triple it is also complete, which is
// exactly what both the over-delete walk and the re-derive walk need.
template <typename Emit>
void ForEachConsequence(const Graph& g, const Triple& t, Emit&& emit) {
  emit(Triple(t.p, kSp, t.p));  // rule (8)
  g.Match(t.p, kSp, std::nullopt, [&](const Triple& e) {
    emit(Triple(t.s, e.o, t.o));  // rule (3), t as the use
    // Rules (6)/(7), t as the use (X, C, Y): the reflexive
    // (t.p, sp, t.p) edge makes the direct C = A case fall out.
    g.Match(e.o, kDom, std::nullopt, [&](const Triple& d) {
      emit(Triple(t.s, kType, d.o));
      return true;
    });
    g.Match(e.o, kRange, std::nullopt, [&](const Triple& r) {
      emit(Triple(t.o, kType, r.o));
      return true;
    });
    return true;
  });
  if (t.p == kSp) {
    // Rule (2), t as either premise.
    g.Match(std::nullopt, kSp, t.s, [&](const Triple& e) {
      emit(Triple(e.s, kSp, t.o));
      return true;
    });
    g.Match(t.o, kSp, std::nullopt, [&](const Triple& e) {
      emit(Triple(t.s, kSp, e.o));
      return true;
    });
    // Rule (3), t as the schema premise, and rules (6)/(7) with t as the
    // (C, sp, A) premise (A = t.o, C = t.s) all join against the uses of
    // t.s — resolve that range once and reuse it (emit must not mutate
    // g, so the range stays valid across all three loops).
    MatchRange uses = g.Matches(std::nullopt, t.s, std::nullopt);
    for (const Triple& use : uses) {
      emit(Triple(use.s, t.o, use.o));
    }
    g.Match(t.o, kDom, std::nullopt, [&](const Triple& d) {
      for (const Triple& use : uses) {
        emit(Triple(use.s, kType, d.o));
      }
      return true;
    });
    g.Match(t.o, kRange, std::nullopt, [&](const Triple& r) {
      for (const Triple& use : uses) {
        emit(Triple(use.o, kType, r.o));
      }
      return true;
    });
    emit(Triple(t.s, kSp, t.s));  // rule (11)
    emit(Triple(t.o, kSp, t.o));
  } else if (t.p == kSc) {
    // Rule (4), t as either premise.
    g.Match(std::nullopt, kSc, t.s, [&](const Triple& e) {
      emit(Triple(e.s, kSc, t.o));
      return true;
    });
    g.Match(t.o, kSc, std::nullopt, [&](const Triple& e) {
      emit(Triple(t.s, kSc, e.o));
      return true;
    });
    // Rule (5), t as the sc premise.
    g.Match(std::nullopt, kType, t.s, [&](const Triple& i) {
      emit(Triple(i.s, kType, t.o));
      return true;
    });
    emit(Triple(t.s, kSc, t.s));  // rule (13)
    emit(Triple(t.o, kSc, t.o));
  } else if (t.p == kType) {
    // Rule (5), t as the type premise.
    g.Match(t.o, kSc, std::nullopt, [&](const Triple& e) {
      emit(Triple(t.s, kType, e.o));
      return true;
    });
    emit(Triple(t.o, kSc, t.o));  // rule (12)
  } else if (t.p == kDom) {
    // Rule (6), t as the (A, dom, B) premise: the reflexive
    // (t.s, sp, t.s) edge covers the direct C = A case.
    g.Match(std::nullopt, kSp, t.s, [&](const Triple& e) {
      g.Match(std::nullopt, e.s, std::nullopt, [&](const Triple& use) {
        emit(Triple(use.s, kType, t.o));
        return true;
      });
      return true;
    });
    emit(Triple(t.s, kSp, t.s));  // rule (10)
    emit(Triple(t.o, kSc, t.o));  // rule (12)
  } else if (t.p == kRange) {
    // Rule (7), t as the (A, range, B) premise.
    g.Match(std::nullopt, kSp, t.s, [&](const Triple& e) {
      g.Match(std::nullopt, e.s, std::nullopt, [&](const Triple& use) {
        emit(Triple(use.o, kType, t.o));
        return true;
      });
      return true;
    });
    emit(Triple(t.s, kSp, t.s));  // rule (10)
    emit(Triple(t.o, kSc, t.o));  // rule (12)
  }
}

// Over-delete for the DRed deletion path: collects every closure triple
// forward-reachable from a deleted triple through a rule application,
// joining directly against the closure graph's own permutation indexes
// (the suspect cone is typically tiny, so seeding a full engine over
// |cl| would dominate). A triple provably still in the new closure —
// asserted in base_after or one-step derivable from it — is never
// suspected, which stops the reflexivity rules from tainting whole
// derivation cycles.
std::unordered_set<Triple> CollectSuspects(const Graph& cl,
                                           const Graph& deleted,
                                           const Graph& base_after) {
  std::unordered_set<Triple> suspects;
  std::unordered_set<Triple> cleared;  // memoized protection verdicts
  std::vector<Triple> work;
  auto mark = [&](const Triple& c) {
    if (!c.IsWellFormedData()) return;
    if (!cl.Contains(c)) return;
    if (suspects.count(c) || cleared.count(c)) return;
    if (base_after.Contains(c) || DerivableOneStep(base_after, c)) {
      cleared.insert(c);
      return;
    }
    suspects.insert(c);
    work.push_back(c);
  };
  for (const Triple& t : deleted) mark(t);
  while (!work.empty()) {
    const Triple t = work.back();
    work.pop_back();
    ForEachConsequence(cl, t, mark);
  }
  return suspects;
}

// Semi-naive forward worklist: derives everything downstream of `work`
// (whose triples must already be in g), inserting conclusions into g in
// place. Each conclusion batch is buffered so g is never mutated while
// its indexes are being matched.
void PropagateInsertions(Graph& g, std::vector<Triple> work) {
  std::vector<Triple> found;
  while (!work.empty()) {
    const Triple t = work.back();
    work.pop_back();
    found.clear();
    ForEachConsequence(g, t, [&](const Triple& c) {
      if (c.IsWellFormedData() && !g.Contains(c)) found.push_back(c);
    });
    for (const Triple& c : found) {
      if (g.Insert(c)) work.push_back(c);
    }
  }
}

}  // namespace


Graph RdfsClosure(const Graph& g, std::vector<RuleApplication>* trace) {
  ClosureEngine engine(g, trace, RuleSet::All());
  engine.RunToFixpoint();
  return engine.TakeResult();
}

Graph RdfsClosureParallel(const Graph& g, ThreadPool* pool) {
  ClosureEngine engine(g, /*trace=*/nullptr, RuleSet::All());
  engine.RunToFixpointParallel(pool);
  return engine.TakeResult();
}

Graph RdfsClosureWithRules(const Graph& g, const RuleSet& rules) {
  ClosureEngine engine(g, /*trace=*/nullptr, rules);
  engine.RunToFixpoint();
  return engine.TakeResult();
}

Graph RdfsClosureDelta(const Graph& closure, const Graph& delta_inserts,
                       std::vector<RuleApplication>* trace,
                       ClosureDeltaStats* stats, ThreadPool* pool) {
  ClosureEngine engine(closure, delta_inserts, trace, RuleSet::All());
  engine.RunToFixpointParallel(pool);
  Graph out = engine.TakeResult();
  if (stats != nullptr) {
    stats->delta_size = 0;
    for (const Triple& t : delta_inserts) {
      if (!closure.Contains(t)) ++stats->delta_size;
    }
    stats->derived = out.size() - closure.size();
    stats->overdeleted = 0;
    stats->rederived = 0;
  }
  return out;
}

Graph RdfsClosureErase(const Graph& closure, const Graph& base_after,
                       const Graph& deleted, ClosureDeltaStats* stats) {
  // Fast path: a deleted triple that is still one-step derivable from
  // the remaining base keeps the closure intact; if every deleted
  // triple is, nothing can fall out and the whole pass is skippable.
  bool all_protected = true;
  for (const Triple& t : deleted) {
    if (!DerivableOneStep(base_after, t)) {
      all_protected = false;
      break;
    }
  }
  if (all_protected) {
    if (stats != nullptr) {
      stats->delta_size = deleted.size();
      stats->derived = 0;
      stats->overdeleted = 0;
      stats->rederived = 0;
    }
    return closure;
  }

  // (1) Over-delete: everything forward-reachable from a deleted triple
  // through a rule application becomes suspect.
  std::unordered_set<Triple> suspects =
      CollectSuspects(closure, deleted, base_after);

  // (2) The untainted remainder survives unconditionally: a triple with
  // no derivation path touching a deleted triple keeps its derivation.
  // For the usual tiny suspect cone, patching a copy of the closure in
  // place reuses its already-built indexes; a cone that is a sizable
  // fraction of |cl| would turn the per-erase memmoves quadratic, so
  // fall back to one filtered pass (which rebuilds indexes lazily).
  Graph out;
  if (suspects.size() * 16 <= closure.size()) {
    out = closure;
    for (const Triple& t : suspects) out.Erase(t);
  } else {
    std::vector<Triple> kept;
    kept.reserve(closure.size() - suspects.size());
    for (const Triple& t : closure) {
      if (!suspects.count(t)) kept.push_back(t);
    }
    out = Graph(std::move(kept));
  }
  const size_t kept_size = out.size();

  // (3) Re-derive: a suspect re-enters if it is still asserted in the
  // base or one-step derivable from the survivors; the semi-naive
  // worklist then replays everything downstream of the rescued triples.
  std::vector<Triple> rescued;
  for (const Triple& t : suspects) {
    if (base_after.Contains(t) || DerivableOneStep(out, t)) {
      rescued.push_back(t);
    }
  }
  for (const Triple& t : rescued) out.Insert(t);
  PropagateInsertions(out, std::move(rescued));
  if (stats != nullptr) {
    stats->delta_size = deleted.size();
    stats->derived = 0;
    stats->overdeleted = suspects.size();
    stats->rederived = out.size() - kept_size;
  }
  return out;
}

Graph RdfsClosureNaive(const Graph& g) {
  Graph result = g;
  for (;;) {
    std::vector<RuleApplication> apps = EnumerateApplications(result);
    if (apps.empty()) return result;
    for (const RuleApplication& app : apps) {
      for (const Triple& c : app.conclusions) {
        result.Insert(c);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// IncrementalClosure

/// Wraps a live ClosureEngine so its join indexes persist across
/// updates: an insert enqueues only the delta and resumes the fixpoint.
class IncrementalClosure::Impl {
 public:
  explicit Impl(const Graph& base, ThreadPool* pool)
      : engine_(base, /*trace=*/nullptr, RuleSet::All()), pool_(pool) {
    engine_.RunToFixpointParallel(pool_);
  }

  /// Re-seeds from an already-closed graph (post-deletion rebuild).
  struct ReseedTag {};
  Impl(const Graph& closed, ThreadPool* pool, ReseedTag)
      : engine_(closed, Graph(), /*trace=*/nullptr, RuleSet::All()),
        pool_(pool) {
    engine_.RunToFixpointParallel(pool_);  // no-op unless the seed had gaps
  }

  void set_pool(ThreadPool* pool) { pool_ = pool; }

  /// Returns the number of newly derived triples (delta included).
  size_t InsertDelta(const Graph& delta) {
    const size_t before = engine_.known_size();
    engine_.EnqueueDelta(delta);
    engine_.RunToFixpointParallel(pool_);
    return engine_.known_size() - before;
  }

  const std::vector<Triple>& worklist() const { return engine_.worklist(); }

 private:
  ClosureEngine engine_;
  ThreadPool* pool_ = nullptr;
};

IncrementalClosure::IncrementalClosure(const Graph& base)
    : impl_(std::make_unique<Impl>(base, /*pool=*/nullptr)),
      closure_(std::vector<Triple>(impl_->worklist())),
      version_(1) {}

void IncrementalClosure::set_pool(ThreadPool* pool) {
  pool_ = pool;
  if (impl_ != nullptr) impl_->set_pool(pool);
}

IncrementalClosure::~IncrementalClosure() = default;
IncrementalClosure::IncrementalClosure(IncrementalClosure&&) noexcept =
    default;
IncrementalClosure& IncrementalClosure::operator=(
    IncrementalClosure&&) noexcept = default;

void IncrementalClosure::InsertDelta(const Graph& delta,
                                     ClosureDeltaStats* stats) {
  size_t fresh = 0;
  for (const Triple& t : delta) {
    if (!closure_.Contains(t)) ++fresh;
  }
  if (impl_ == nullptr) {
    // Deferred rebuild after a deletion (see EraseDelta): re-seed the
    // engine from the maintained closure now that we need it again.
    impl_ = std::make_unique<Impl>(closure_, pool_, Impl::ReseedTag{});
  }
  const size_t derived = impl_->InsertDelta(delta);
  if (stats != nullptr) {
    stats->delta_size = fresh;
    stats->derived = derived;
    stats->overdeleted = 0;
    stats->rederived = 0;
  }
  if (derived == 0) return;
  // Fold the newly derived slice into the maintained graph: small
  // slices take the single-insert path (which patches the permutation
  // indexes in place), large ones the batched merge-and-rebuild.
  const std::vector<Triple>& wl = impl_->worklist();
  constexpr size_t kPatchThreshold = 16;
  if (derived <= kPatchThreshold) {
    for (size_t i = wl.size() - derived; i < wl.size(); ++i) {
      closure_.Insert(wl[i]);
    }
  } else {
    closure_.InsertAll(
        Graph(std::vector<Triple>(wl.end() - derived, wl.end())));
  }
  ++version_;
}

void IncrementalClosure::EraseDelta(const Graph& base_after,
                                    const Graph& deleted,
                                    ClosureDeltaStats* stats) {
  Graph next = RdfsClosureErase(closure_, base_after, deleted, stats);
  // RdfsClosureErase never derives outside the old closure, so a size
  // match means content match.
  const bool changed = next.size() != closure_.size();
  if (changed) {
    // The engine's indexes still reference dropped triples; rebuilding
    // is O(|closure|), so defer it until the next insert actually needs
    // a live engine — erase-heavy series never pay for it.
    impl_.reset();
    closure_ = std::move(next);
    ++version_;
  }
}

Graph SemanticClosure(const Graph& g, Dictionary* dict) {
  if (g.IsGround()) {
    // For ground graphs the unique maximal ground equivalent extension is
    // the deductive closure (proof of Thm 3.6(1)).
    return RdfsClosure(g);
  }
  TermMap sk;
  Graph skolemized = Skolemize(g, dict, &sk);
  Graph closed = RdfsClosure(skolemized);
  return DeSkolemize(closed, sk);
}

// ---------------------------------------------------------------------------
// ClosureMembership

ClosureMembership::ClosureMembership(const Graph& g)
    : g_(&g), built_epoch_(g.epoch()) {
  Build();
}

bool ClosureMembership::InSync() const {
  return g_->epoch() == built_epoch_;
}

void ClosureMembership::Refresh() {
  direct_ = true;
  sp_fwd_.clear();
  sc_fwd_.clear();
  props_.clear();
  classes_.clear();
  materialized_.reset();
  built_epoch_ = g_->epoch();
  Build();
}

void ClosureMembership::Build() {
  // The direct case analysis below is valid when no reserved keyword
  // occurs in subject or object position — the same restriction the paper
  // places on graphs in Thm 3.16. Outside it, triples like (p, sp, sc) or
  // (type, dom, a) let rules (3), (6) and (7) mint sp/sc/dom/range/type
  // triples through cascades the analysis does not model, so we answer
  // from a materialized closure instead.
  for (const Triple& t : *g_) {
    if (vocab::IsRdfsVocab(t.s) || vocab::IsRdfsVocab(t.o)) {
      direct_ = false;
      break;
    }
  }
  if (!direct_) {
    materialized_ = RdfsClosure(*g_);
    return;
  }

  for (const Triple& t : *g_) {
    props_.insert(t.p);  // rule (8)
    if (t.p == kSp) {
      sp_fwd_[t.s].push_back(t.o);
      props_.insert(t.s);  // rule (11)
      props_.insert(t.o);
    } else if (t.p == kSc) {
      sc_fwd_[t.s].push_back(t.o);
      classes_.insert(t.s);  // rule (13)
      classes_.insert(t.o);
    } else if (t.p == kDom || t.p == kRange) {
      props_.insert(t.s);    // rule (10)
      classes_.insert(t.o);  // rule (12)
    } else if (t.p == kType) {
      classes_.insert(t.o);  // rule (12)
    }
  }
  for (Term v : vocab::kAll) props_.insert(v);  // rule (9)
}

bool ClosureMembership::Reaches(
    const std::unordered_map<Term, std::vector<Term>>& fwd, Term a,
    Term b) const {
  std::deque<Term> queue{a};
  std::unordered_set<Term> seen{a};
  while (!queue.empty()) {
    Term cur = queue.front();
    queue.pop_front();
    auto it = fwd.find(cur);
    if (it == fwd.end()) continue;
    for (Term next : it->second) {
      if (next == b) return true;
      if (seen.insert(next).second) queue.push_back(next);
    }
  }
  return false;
}

bool ClosureMembership::Contains(const Triple& t) const {
  SWDB_CHECK(InSync(),
             "ClosureMembership used after the underlying graph mutated "
             "(epoch mismatch); call Refresh() first");
  if (!direct_) return materialized_->Contains(t);
  return DirectContains(t);
}

bool ClosureMembership::DirectContains(const Triple& t) const {
  if (!t.IsWellFormedData()) return false;
  if (t.p == kSp) {
    if (t.s == t.o) return props_.count(t.s) > 0;
    return Reaches(sp_fwd_, t.s, t.o);
  }
  if (t.p == kSc) {
    if (t.s == t.o) return classes_.count(t.s) > 0;
    return Reaches(sc_fwd_, t.s, t.o);
  }
  if (t.p == kDom || t.p == kRange) {
    // No rule derives new dom/range triples outside the pathological case.
    return g_->Contains(t);
  }
  if (t.p == kType) {
    // Classes x is typed with before sc-lifting (rule 5):
    //   - explicit (x, type, c);
    //   - rule (6): (A, dom, c) with some use (x, p', _), p' ⊑sp A;
    //   - rule (7): (A, range, c) with some use (_, p', x), p' ⊑sp A.
    // Then (x, type, b) ∈ cl(G) iff some such c has c = b or c →sc* b.
    std::vector<Term> base;
    g_->Match(t.s, kType, std::nullopt, [&](const Triple& ty) {
      base.push_back(ty.o);
      return true;
    });
    // Forward sp-closure of the predicates of triples incident to x.
    auto sp_reachable_from = [&](const std::vector<Term>& starts) {
      std::unordered_set<Term> seen(starts.begin(), starts.end());
      std::deque<Term> queue(starts.begin(), starts.end());
      while (!queue.empty()) {
        Term cur = queue.front();
        queue.pop_front();
        auto it = sp_fwd_.find(cur);
        if (it == sp_fwd_.end()) continue;
        for (Term next : it->second) {
          if (seen.insert(next).second) queue.push_back(next);
        }
      }
      return seen;
    };
    std::vector<Term> subject_preds;
    g_->Match(t.s, std::nullopt, std::nullopt, [&](const Triple& use) {
      subject_preds.push_back(use.p);
      return true;
    });
    std::vector<Term> object_preds;
    for (const Triple& use : *g_) {
      if (use.o == t.s) object_preds.push_back(use.p);
    }
    for (Term a : sp_reachable_from(subject_preds)) {
      g_->Match(a, kDom, std::nullopt, [&](const Triple& dom_t) {
        base.push_back(dom_t.o);
        return true;
      });
    }
    for (Term a : sp_reachable_from(object_preds)) {
      g_->Match(a, kRange, std::nullopt, [&](const Triple& rng_t) {
        base.push_back(rng_t.o);
        return true;
      });
    }
    // sc-lift: some base class reaches t.o.
    for (Term c : base) {
      if (c == t.o || Reaches(sc_fwd_, c, t.o)) return true;
    }
    return false;
  }
  // Ordinary predicate q: (x, q, y) ∈ cl(G) iff some explicit
  // (x, p', y) has p' = q or p' →sp* q (rule 3).
  bool found = false;
  g_->Match(t.s, std::nullopt, t.o, [&](const Triple& use) {
    if (use.p == t.p || Reaches(sp_fwd_, use.p, t.p)) {
      found = true;
      return false;
    }
    return true;
  });
  return found;
}

Result<bool> TryRdfsEntails(const Graph& g1, const Graph& g2,
                            MatchOptions options) {
  Graph closure = RdfsClosure(g1);
  return TryHasHomomorphism(g2, closure, options);
}

bool RdfsEntails(const Graph& g1, const Graph& g2) {
  Result<bool> r = TryRdfsEntails(g1, g2);
  SWDB_CHECK(r.ok(),
             "RDFS-entailment step budget exhausted; use TryRdfsEntails "
             "with explicit MatchOptions for graceful degradation");
  return *r;
}

bool RdfsEquivalent(const Graph& g1, const Graph& g2) {
  return RdfsEntails(g1, g2) && RdfsEntails(g2, g1);
}

}  // namespace swdb
