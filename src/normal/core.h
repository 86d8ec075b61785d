#ifndef SWDB_NORMAL_CORE_H_
#define SWDB_NORMAL_CORE_H_

#include <cstdint>
#include <optional>
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
  /// Components decided lean by the single-blank fast path: one
  /// enumeration of the component into the graph found no solution that
  /// moves its blank (see FindProperEndomorphism). Counted over the same
  /// searches as components_searched, so it is deterministic.
  uint64_t components_enumerated = 0;
};

/// Searches for a map μ with μ(g) a *proper* subgraph of g (the witness
/// that g is not lean, Def. 3.7). Since ground triples are fixed by every
/// map, μ(g) ⊊ g forces some non-ground triple out of the image, so the
/// search tries, for each non-ground triple t, to map t's blank component
/// into g \ {t}. Returns std::nullopt if g is lean. Deciding this is
/// coNP-complete (paper Thm 3.12(1)).
///
/// A component with exactly one blank node b is first decided by one
/// enumeration of the component into g: every triple of it mentions b,
/// so a map with μ(b) = b sends it onto itself and a map with μ(b) ≠ b
/// sends it off itself entirely (a fold). If no solution moves b the
/// component is lean; if one does, or the enumeration runs out of
/// budget, the per-triple probes run as for any other component, so the
/// fold returned is the one the probes alone would find.
/// `options.max_steps` bounds that enumeration and each per-triple
/// probe, each exactly as one PatternMatcher call's budget.
///
/// A non-null `options.pool` fans the per-component searches out across
/// the pool, one task and one compiled matcher per component, with
/// first-found cancellation: a component aborts once a lower-indexed
/// component has found a fold, and the fold returned is always the one
/// the lowest folding component finds first in probe order — i.e. the
/// sequential engine's fold, bit for bit. Budgets are kept per matcher
/// call rather than pooled so budget exhaustion is also bit-exact at
/// any worker count (see DESIGN.md). `options.stats` is ignored (the
/// search runs many probes; use CoreStats on CoreChecked instead).
Result<std::optional<TermMap>> FindProperEndomorphism(
    const Graph& g, MatchOptions options = MatchOptions());

/// True iff g is lean: no map μ sends g to a proper subgraph of itself
/// (paper Def. 3.7). Asserts that no component search exhausted the
/// default step budget (see FindProperEndomorphism). A non-null pool
/// parallelizes over blank components.
bool IsLean(const Graph& g, ThreadPool* pool = nullptr);

/// Computes core(g): the unique (up to isomorphism) lean subgraph of g
/// that is an instance of g (paper Thm 3.10). Every graph is equivalent
/// to its core. If `witness` is non-null it receives the composed map μ
/// with μ(g) = core(g). A non-null pool parallelizes each round's
/// component searches; the result (graph, witness, folding sequence) is
/// bit-identical to the sequential computation. Folds are applied in
/// place to a copy of g, so the result shares every spine leaf the folds
/// did not touch with g (see DESIGN.md, in-place folding).
Graph Core(const Graph& g, TermMap* witness = nullptr,
           ThreadPool* pool = nullptr);

/// Budget-aware variant of Core for adversarial inputs (computing cores
/// is DP-hard to even verify, paper Thm 3.12(2)). Parallelism comes via
/// `options.pool`. `options.max_steps` bounds each matcher call of the
/// component searches (a single-blank component's enumeration and each
/// per-triple probe; see FindProperEndomorphism); the run fails only if
/// some search the sequential engine consumes exhausted it with no fold
/// found. Whether that happens — and every CoreStats field except
/// steps_speculative — does not depend on the worker count.
Result<Graph> CoreChecked(const Graph& g, MatchOptions options,
                          TermMap* witness = nullptr,
                          CoreStats* stats = nullptr);

}  // namespace swdb

#endif  // SWDB_NORMAL_CORE_H_
