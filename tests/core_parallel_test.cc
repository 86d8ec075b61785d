// The parallel core engine (component-level fan-out of the
// proper-endomorphism search behind Core()/nf(D)). Everything
// observable — the core graph, the composed witness, the folding
// sequence, budget-exhaustion status, and the deterministic CoreStats
// counters — must be bit-identical to the sequential engine at every
// worker count; only steps_speculative (wasted parallel probing) may
// differ. This binary is part of the TSan job (scripts/check_tsan.sh).

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "gen/generators.h"
#include "graphtheory/digraph.h"
#include "inference/closure.h"
#include "normal/core.h"
#include "normal/normal_form.h"
#include "rdf/graph.h"
#include "rdf/hom.h"
#include "rdf/map.h"
#include "util/rng.h"
#include "util/str.h"
#include "util/thread_pool.h"

namespace swdb {
namespace {

const std::vector<size_t> kWorkerCounts = {0, 1, 2, 4, 8};

// A blank-heavy graph with several independent blank components: a
// union of random blobs (each blob's blanks are fresh, so blobs never
// share a component) over a partially shared ground vocabulary.
Graph MultiComponentGraph(uint64_t seed, Dictionary* dict) {
  Rng rng(seed * 977 + 13);
  RandomGraphSpec spec;
  spec.num_nodes = 8;
  spec.num_triples = 14;
  spec.num_predicates = 2;
  spec.blank_ratio = 0.6;
  Graph g;
  const int blobs = 2 + static_cast<int>(seed % 4);
  for (int b = 0; b < blobs; ++b) {
    g.InsertAll(RandomSimpleGraph(spec, dict, &rng));
  }
  return g;
}

TEST(CoreParallel, BitIdenticalAcrossWorkerCounts) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Dictionary dict;
    Graph g = MultiComponentGraph(seed, &dict);

    TermMap seq_witness;
    CoreStats seq_stats;
    Result<Graph> seq =
        CoreChecked(g, MatchOptions(), &seq_witness, &seq_stats);
    ASSERT_TRUE(seq.ok()) << "seed " << seed;

    for (size_t workers : kWorkerCounts) {
      ThreadPool pool(workers);
      MatchOptions options;
      options.pool = &pool;
      TermMap witness;
      CoreStats stats;
      Result<Graph> par = CoreChecked(g, options, &witness, &stats);
      ASSERT_TRUE(par.ok()) << "seed " << seed << " workers " << workers;
      // Bit-identical graph: the same triples in the same order.
      EXPECT_EQ(par->triples(), seq->triples())
          << "seed " << seed << " workers " << workers;
      EXPECT_EQ(witness, seq_witness)
          << "seed " << seed << " workers " << workers;
      EXPECT_EQ(stats.folds, seq_stats.folds)
          << "seed " << seed << " workers " << workers;
      EXPECT_EQ(stats.iterations, seq_stats.iterations)
          << "seed " << seed << " workers " << workers;
      EXPECT_EQ(stats.steps_used, seq_stats.steps_used)
          << "seed " << seed << " workers " << workers;
      EXPECT_EQ(stats.components_searched, seq_stats.components_searched)
          << "seed " << seed << " workers " << workers;
      EXPECT_EQ(stats.lean_cache_hits, seq_stats.lean_cache_hits)
          << "seed " << seed << " workers " << workers;
      EXPECT_EQ(stats.components_enumerated, seq_stats.components_enumerated)
          << "seed " << seed << " workers " << workers;
    }
  }
}

TEST(CoreParallel, BudgetExhaustionParity) {
  // Any budget, any worker count: CoreChecked succeeds or returns the
  // same LimitExceeded, with the identical deterministic step count.
  const std::vector<uint64_t> budgets = {1, 4, 32, 256, 2048, 50'000'000};
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Dictionary dict;
    Graph g = MultiComponentGraph(seed, &dict);
    for (uint64_t budget : budgets) {
      MatchOptions seq_options;
      seq_options.max_steps = budget;
      TermMap seq_witness;
      CoreStats seq_stats;
      Result<Graph> seq = CoreChecked(g, seq_options, &seq_witness,
                                      &seq_stats);
      for (size_t workers : kWorkerCounts) {
        ThreadPool pool(workers);
        MatchOptions options = seq_options;
        options.pool = &pool;
        TermMap witness;
        CoreStats stats;
        Result<Graph> par = CoreChecked(g, options, &witness, &stats);
        ASSERT_EQ(par.ok(), seq.ok())
            << "seed " << seed << " budget " << budget << " workers "
            << workers;
        if (seq.ok()) {
          EXPECT_EQ(par->triples(), seq->triples());
          EXPECT_EQ(witness, seq_witness);
        } else {
          EXPECT_EQ(par.status().code(), StatusCode::kLimitExceeded);
          EXPECT_EQ(par.status().code(), seq.status().code());
        }
        // The deterministic counters hold on both the success and the
        // exhaustion path.
        EXPECT_EQ(stats.folds, seq_stats.folds);
        EXPECT_EQ(stats.steps_used, seq_stats.steps_used)
            << "seed " << seed << " budget " << budget << " workers "
            << workers;
        EXPECT_EQ(stats.components_searched, seq_stats.components_searched);
        EXPECT_EQ(stats.components_enumerated,
                  seq_stats.components_enumerated);
      }
    }
  }
}

TEST(CoreParallel, FindProperEndomorphismReturnsSequentialFold) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Dictionary dict;
    Graph g = MultiComponentGraph(seed, &dict);
    Result<std::optional<TermMap>> seq = FindProperEndomorphism(g);
    ASSERT_TRUE(seq.ok());
    for (size_t workers : kWorkerCounts) {
      ThreadPool pool(workers);
      MatchOptions options;
      options.pool = &pool;
      Result<std::optional<TermMap>> par = FindProperEndomorphism(g, options);
      ASSERT_TRUE(par.ok()) << "seed " << seed << " workers " << workers;
      EXPECT_EQ(*par, *seq) << "seed " << seed << " workers " << workers;
    }
  }
}

TEST(CoreParallel, LowestComponentWinsOverFasterHigherFold) {
  // Component 0 is an anchored odd cycle — lean, and expensive to
  // certify (the coNP shape of Thm 3.12). Component 1 folds instantly.
  // The sequential engine refutes component 0 before touching
  // component 1; the parallel engine finds component 1's fold first and
  // must still wait out component 0 (first-found cancellation only ever
  // cancels *higher* components), returning the identical fold.
  Dictionary dict;
  Term e = dict.Iri("e");
  Graph g;
  std::vector<Term> cycle_blanks;
  g.InsertAll(EncodeAsRdf(Digraph::SymmetricCycle(7), &dict, e,
                          &cycle_blanks));
  g.Insert(dict.Iri("anchor"), dict.Iri("ap"), cycle_blanks[0]);
  Term a = dict.Iri("a");
  Term p = dict.Iri("p");
  Term x = dict.FreshBlank();
  g.Insert(a, p, x);
  g.Insert(a, p, dict.Iri("b"));

  Result<std::optional<TermMap>> seq = FindProperEndomorphism(g);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(seq->has_value());
  EXPECT_EQ((*seq)->Apply(x), dict.Iri("b"));
  for (size_t workers : kWorkerCounts) {
    ThreadPool pool(workers);
    MatchOptions options;
    options.pool = &pool;
    Result<std::optional<TermMap>> par = FindProperEndomorphism(g, options);
    ASSERT_TRUE(par.ok()) << "workers " << workers;
    EXPECT_EQ(*par, *seq) << "workers " << workers;
  }
}

TEST(CoreParallel, IsLeanAgreesWithSequential) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Dictionary dict;
    Graph g = MultiComponentGraph(seed, &dict);
    const bool lean = IsLean(g);
    for (size_t workers : {size_t{0}, size_t{2}, size_t{4}}) {
      ThreadPool pool(workers);
      EXPECT_EQ(IsLean(g, &pool), lean)
          << "seed " << seed << " workers " << workers;
    }
  }
}

TEST(CoreParallel, ParallelWitnessFoldsGraphOntoCore) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Dictionary dict;
    Graph g = MultiComponentGraph(seed, &dict);
    ThreadPool pool(4);
    MatchOptions options;
    options.pool = &pool;
    TermMap witness;
    Result<Graph> core = CoreChecked(g, options, &witness);
    ASSERT_TRUE(core.ok());
    EXPECT_EQ(witness.Apply(g), *core) << "seed " << seed;
    EXPECT_TRUE(core->IsSubgraphOf(g)) << "seed " << seed;
    EXPECT_TRUE(IsLean(*core, &pool)) << "seed " << seed;
  }
}

TEST(CoreParallel, NormalFormOnPoolMatchesSequential) {
  // nf(D) = core(cl(D)) end to end: parallel closure + parallel core
  // produce the exact sequential graph.
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Dictionary dict;
    Rng rng(seed + 5);
    SchemaWorkloadSpec spec;
    spec.num_classes = 6;
    spec.num_properties = 5;
    spec.num_instances = 10;
    spec.num_facts = 24;
    Graph g = SchemaWorkload(spec, &dict, &rng);
    // Blank redundancy so the core actually folds something.
    Graph extra = MultiComponentGraph(seed, &dict);
    g.InsertAll(extra);
    Graph seq = NormalForm(g);
    for (size_t workers : {size_t{1}, size_t{4}}) {
      ThreadPool pool(workers);
      Graph par = NormalForm(g, &pool);
      EXPECT_EQ(par.triples(), seq.triples())
          << "seed " << seed << " workers " << workers;
    }
  }
}

TEST(CoreParallel, SingleComponentFallsBackToSequential) {
  // One giant blank component: the component fan-out has nothing to
  // split (a documented limitation — see DESIGN.md); the pool path must
  // still be correct and identical.
  Dictionary dict;
  Term p = dict.Iri("p");
  Term a = dict.Iri("a");
  Graph g;
  g.Insert(a, p, a);
  Term prev = dict.FreshBlank();
  for (int i = 0; i < 6; ++i) {
    Term next = dict.FreshBlank();
    g.Insert(prev, p, next);
    prev = next;
  }
  Graph seq_core = Core(g);
  EXPECT_EQ(seq_core, Graph({Triple(a, p, a)}));
  ThreadPool pool(4);
  EXPECT_EQ(Core(g, nullptr, &pool).triples(), seq_core.triples());
}

TEST(CoreParallel, GroundGraphWithPoolIsItsOwnCore) {
  Dictionary dict;
  Graph g;
  g.Insert(dict.Iri("a"), dict.Iri("p"), dict.Iri("b"));
  g.Insert(dict.Iri("b"), dict.Iri("p"), dict.Iri("c"));
  ThreadPool pool(4);
  EXPECT_EQ(Core(g, nullptr, &pool), g);
  EXPECT_TRUE(IsLean(g, &pool));
}

}  // namespace
}  // namespace swdb
