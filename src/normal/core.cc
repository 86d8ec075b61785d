#include "normal/core.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>

#include "util/check.h"
#include "util/thread_pool.h"

namespace swdb {

namespace {

// Groups `triples` (non-ground) by blank-connected component, in order
// of first appearance, each component's triples in input order.
std::vector<std::vector<Triple>> SplitByBlanks(
    const std::vector<Triple>& triples) {
  std::unordered_map<Term, Term> parent;
  // Iterative root walk with full path compression: blank chains grow
  // with the data (a 10k-blank chain is ordinary input, not an
  // adversarial one), and a recursive find would grow the call stack
  // with the chain.
  auto find = [&parent](Term x) -> Term {
    Term root = x;
    for (auto it = parent.find(root);
         it != parent.end() && it->second != root; it = parent.find(root)) {
      root = it->second;
    }
    while (x != root) {
      auto it = parent.find(x);
      Term next = it->second;
      it->second = root;
      x = next;
    }
    return root;
  };
  auto unite = [&](Term a, Term b) {
    Term ra = find(a);
    Term rb = find(b);
    if (ra != rb) parent[ra] = rb;
  };
  for (const Triple& t : triples) {
    if (t.s.IsBlank() && t.o.IsBlank()) unite(t.s, t.o);
  }
  std::unordered_map<Term, size_t> component_index;
  std::vector<std::vector<Triple>> components;
  for (const Triple& t : triples) {
    Term representative = find(t.s.IsBlank() ? t.s : t.o);
    auto [it, inserted] =
        component_index.try_emplace(representative, components.size());
    if (inserted) components.emplace_back();
    components[it->second].push_back(t);
  }
  return components;
}

}  // namespace

std::vector<std::vector<Triple>> BlankComponents(const Graph& g) {
  // The non-ground triples in g's order: the blank-object run minus its
  // blank-subject triples, sorted back into (s,p,o) order, merged with
  // the blank-subject run. A ground graph costs two range probes.
  std::vector<Triple> non_ground;
  for (const Triple& t : g.BlankRange(2)) {
    if (!t.s.IsBlank()) non_ground.push_back(t);
  }
  std::sort(non_ground.begin(), non_ground.end());
  const size_t blank_objects = non_ground.size();
  for (const Triple& t : g.BlankRange(0)) non_ground.push_back(t);
  std::inplace_merge(non_ground.begin(), non_ground.begin() + blank_objects,
                     non_ground.end());
  return SplitByBlanks(non_ground);
}

namespace {

constexpr size_t kNoWinner = std::numeric_limits<size_t>::max();

// Outcome of the fold search over one blank component: the first fold
// in probe order, or a refutation (possibly budget-limited).
struct ComponentResult {
  std::optional<TermMap> fold;
  bool budget_hit = false;
  bool enumerated = false;  // decided lean by the single-blank enumeration
  uint64_t steps = 0;  // matcher steps across this component's searches
};

// The blank node of a component that has exactly one, or nullopt.
std::optional<Term> SoleBlank(const std::vector<Triple>& component) {
  std::optional<Term> blank;
  for (const Triple& t : component) {
    for (Term x : {t.s, t.p, t.o}) {
      if (!x.IsBlank()) continue;
      if (blank.has_value() && *blank != x) return std::nullopt;
      blank = x;
    }
  }
  return blank;
}

// Searches one component for a fold: a map component → g \ {t} for some
// triple t of the component, probing the triples in order and returning
// at the first fold. A single-blank component is first decided by one
// enumeration into g (see FindProperEndomorphism): if no solution moves
// its blank b it is lean, and the probes run only when one does or the
// enumeration hit its budget — so the fold found is always the probes'
// own. The enumeration and each probe carry their own options.max_steps
// budget — identical to the sequential engine, and independent of what
// any concurrently searched component consumes, which is what makes
// budget exhaustion worker-count-invariant. `first_found`, when
// non-null, aborts the search (between probes and inside the matcher)
// once a lower-indexed component has found a fold; a cancelled result
// is never consulted, because a lower winner exists by construction.
ComponentResult SearchComponent(const std::vector<Triple>& component,
                                const Graph& g, MatchOptions options,
                                const std::atomic<size_t>* first_found,
                                size_t index) {
  ComponentResult out;
  options.pool = nullptr;   // the component search is the unit of fan-out
  options.stats = nullptr;  // a multi-probe driver; see header
  options.exclude_triple.reset();  // the enumeration maps into all of g
  PatternMatcher matcher(component, &g, options);
  if (first_found != nullptr) matcher.set_cancellation(first_found, index);
  if (const std::optional<Term> b = SoleBlank(component)) {
    bool moved = false;
    const Status s = matcher.Enumerate([&moved, b](const TermMap& m) {
      moved = m.Apply(*b) != *b;
      return !moved;
    });
    out.steps += matcher.steps_used();
    if (s.ok() && !moved) {
      out.enumerated = true;
      return out;
    }
  }
  for (const Triple& t : component) {
    if (first_found != nullptr &&
        first_found->load(std::memory_order_relaxed) < index) {
      return out;  // a lower component owns the answer
    }
    matcher.set_exclude_triple(t);
    Result<std::optional<TermMap>> r = matcher.FindAny();
    out.steps += matcher.steps_used();
    if (!r.ok()) {
      out.budget_hit = true;
      continue;
    }
    if (r->has_value()) {
      out.fold = std::move(**r);
      return out;
    }
  }
  return out;
}

// One round of the proper-endomorphism search over a pinned-ordered
// list of components, aggregated exactly as the sequential engine
// would observe it.
struct SearchOutcome {
  // Index into `components` of the lowest component that found a fold,
  // or kNoWinner. The parallel engine may complete higher-indexed
  // searches too; those never override a lower winner.
  size_t winner = kNoWinner;
  std::optional<TermMap> fold;  // the winner's fold
  // Some pre-winner probe exhausted its budget (meaningful for the
  // round's return value only when there is no winner, mirroring the
  // sequential engine's latch-and-continue behaviour).
  bool budget_hit = false;
  // Components below the winner refuted completely within budget — the
  // exact set the sequential engine proves lean this round.
  std::vector<size_t> refuted;
  uint64_t enumerated = 0;         // refuted by the single-blank fast path
  uint64_t steps_used = 0;         // deterministic: pre-winner + winner
  uint64_t steps_speculative = 0;  // parallel-only post-winner probing
};

SearchOutcome SearchAllComponents(
    const std::vector<const std::vector<Triple>*>& components, const Graph& g,
    const MatchOptions& options) {
  SearchOutcome out;
  std::vector<ComponentResult> results(components.size());
  const bool parallel = options.pool != nullptr &&
                        options.pool->num_threads() > 0 &&
                        components.size() >= 2;
  if (parallel) {
    // Component matchers resolve index ranges concurrently; build the
    // lazy permutations once, here, instead of racing there.
    g.WarmIndexes();
    // Lowest component index that found a fold so far. Only components
    // *above* it are cancelled, so every component at or below the final
    // minimum runs to its own deterministic completion — the winner (and
    // its fold) is therefore the sequential one at any worker count.
    std::atomic<size_t> first_found{kNoWinner};
    TaskGroup group(options.pool);
    for (size_t c = 0; c < components.size(); ++c) {
      group.Run([c, &components, &g, &options, &results, &first_found] {
        if (first_found.load(std::memory_order_relaxed) < c) return;
        ComponentResult r =
            SearchComponent(*components[c], g, options, &first_found, c);
        if (r.fold.has_value()) {
          size_t cur = first_found.load(std::memory_order_relaxed);
          while (cur > c && !first_found.compare_exchange_weak(
                                cur, c, std::memory_order_relaxed)) {
          }
        }
        results[c] = std::move(r);
      });
    }
    group.Wait();
  } else {
    for (size_t c = 0; c < components.size(); ++c) {
      results[c] = SearchComponent(*components[c], g, options,
                                   /*first_found=*/nullptr, 0);
      if (results[c].fold.has_value()) break;  // pinned order: lowest wins
    }
  }

  for (size_t c = 0; c < results.size(); ++c) {
    if (results[c].fold.has_value()) {
      out.winner = c;
      break;
    }
  }
  for (size_t c = 0; c < results.size(); ++c) {
    ComponentResult& r = results[c];
    if (c < out.winner) {  // everything when there is no winner
      out.steps_used += r.steps;
      if (r.budget_hit) {
        out.budget_hit = true;
      } else {
        out.refuted.push_back(c);
        out.enumerated += r.enumerated ? 1 : 0;
      }
    } else if (c == out.winner) {
      out.steps_used += r.steps;
      out.fold = std::move(r.fold);
    } else {
      out.steps_speculative += r.steps;  // speculation past the winner
    }
  }
  return out;
}

}  // namespace

Result<std::optional<TermMap>> FindProperEndomorphism(const Graph& g,
                                                      MatchOptions options) {
  std::vector<std::vector<Triple>> components = BlankComponents(g);
  std::vector<const std::vector<Triple>*> targets;
  targets.reserve(components.size());
  for (const std::vector<Triple>& c : components) targets.push_back(&c);
  SearchOutcome out = SearchAllComponents(targets, g, options);
  if (out.fold.has_value()) return std::move(out.fold);
  if (out.budget_hit) {
    return Status::LimitExceeded("proper-endomorphism search budget hit");
  }
  return std::optional<TermMap>(std::nullopt);
}

bool IsLean(const Graph& g, ThreadPool* pool) {
  MatchOptions options;
  options.pool = pool;
  Result<std::optional<TermMap>> r = FindProperEndomorphism(g, options);
  SWDB_CHECK(r.ok(),
             "leanness step budget exhausted; use FindProperEndomorphism "
             "with explicit MatchOptions for graceful degradation");
  return !r->has_value();
}

namespace {

// One blank component of the graph CoreChecked is folding, and whether
// this run has proven it lean.
struct Component {
  std::vector<Triple> triples;  // in graph order; front() is the least
  bool lean = false;
};

// Applies `fold`, a fold of (*components)[w] = C, to *g in place. A fold
// is the identity outside C and maps C into g, so h(g) = g \ (C \ h(C)):
// only the triples of C outside its image are erased, each a leaf-local
// COW patch. C's survivors are re-split (erasing triples can disconnect
// C's blanks but never connect them to another component's) and the
// pieces are re-inserted so the list stays ordered by first triple —
// the order BlankComponents would return for the folded graph.
void FoldInPlace(const TermMap& fold, size_t w,
                 std::vector<Component>* components, Graph* g) {
  std::vector<Triple> folded = std::move((*components)[w].triples);
  components->erase(components->begin() + static_cast<ptrdiff_t>(w));
  std::vector<Triple> image;
  image.reserve(folded.size());
  for (const Triple& t : folded) image.push_back(fold.Apply(t));
  std::sort(image.begin(), image.end());
  std::vector<Triple> survivors;
  for (const Triple& t : folded) {
    if (std::binary_search(image.begin(), image.end(), t)) {
      survivors.push_back(t);
    } else {
      g->Erase(t);
    }
  }
  for (std::vector<Triple>& piece : SplitByBlanks(survivors)) {
    auto at = std::upper_bound(
        components->begin(), components->end(), piece.front(),
        [](const Triple& t, const Component& c) {
          return t < c.triples.front();
        });
    components->insert(at, Component{std::move(piece), false});
  }
}

}  // namespace

Result<Graph> CoreChecked(const Graph& g, MatchOptions options,
                          TermMap* witness, CoreStats* stats) {
  Graph current = g;
  TermMap composed;
  CoreStats local;
  // The components are found once and maintained across folds. A
  // component proven lean in an earlier round stays lean: a fold is the
  // identity outside its own component, so every other component's
  // triples survive verbatim, and the graph only ever shrinks — a
  // shrinking target can lose homomorphisms but never gain one. (Nor
  // can components merge: folds add no triples, so blanks never become
  // newly connected.) Only refutations the sequential engine would also
  // have run are recorded — never speculative parallel ones — so the
  // folding sequence and the budget accounting stay worker-count-
  // invariant.
  std::vector<Component> components;
  for (std::vector<Triple>& c : BlankComponents(current)) {
    components.push_back(Component{std::move(c), false});
  }
  for (;;) {
    ++local.iterations;
    std::vector<const std::vector<Triple>*> targets;
    std::vector<size_t> target_component;  // components index per target
    for (size_t i = 0; i < components.size(); ++i) {
      const Component& c = components[i];
      if (c.lean) {
        ++local.lean_cache_hits;
        continue;
      }
      targets.push_back(&c.triples);
      target_component.push_back(i);
    }
    SearchOutcome out = SearchAllComponents(targets, current, options);
    local.steps_used += out.steps_used;
    local.steps_speculative += out.steps_speculative;
    local.components_enumerated += out.enumerated;
    local.components_searched +=
        out.winner == kNoWinner ? targets.size() : out.winner + 1;
    for (size_t idx : out.refuted) {
      components[target_component[idx]].lean = true;
    }
    if (!out.fold.has_value()) {
      if (out.budget_hit) {
        if (stats != nullptr) *stats = local;
        return Status::LimitExceeded("proper-endomorphism search budget hit");
      }
      break;  // lean: done
    }
    ++local.folds;
    composed = composed.ComposeWith(*out.fold);
    FoldInPlace(*out.fold, target_component[out.winner], &components,
                &current);
  }
  if (witness != nullptr) *witness = composed;
  if (stats != nullptr) *stats = local;
  return current;
}

Graph Core(const Graph& g, TermMap* witness, ThreadPool* pool) {
  MatchOptions options;
  options.pool = pool;
  Result<Graph> r = CoreChecked(g, options, witness);
  SWDB_CHECK(r.ok(),
             "core step budget exhausted; use CoreChecked for graceful "
             "degradation");
  return *std::move(r);
}

}  // namespace swdb
