// Differential tests of CoreChecked's in-place folding against a
// fold-by-rebuild referee: FindProperEndomorphism on the whole current
// graph each round, applied with TermMap::Apply (a full rebuild). Both
// pick the lowest folding component in BlankComponents order, so the
// folding sequences — and with them the core, the fold count and the
// composed witness — must agree exactly. The engine must also give the
// same result and CoreStats at every worker count. This binary is part
// of the TSan job (scripts/check_tsan.sh).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "gen/generators.h"
#include "gen/sp2b.h"
#include "inference/closure.h"
#include "normal/core.h"
#include "rdf/graph.h"
#include "rdf/map.h"
#include "testutil.h"
#include "util/str.h"
#include "util/thread_pool.h"

namespace swdb {
namespace {

using swdb::testing::Data;

struct RefereeCore {
  Graph core;
  TermMap witness;
  uint64_t folds = 0;
};

RefereeCore FoldByRebuild(const Graph& g) {
  RefereeCore out;
  out.core = g;
  for (;;) {
    Result<std::optional<TermMap>> fold = FindProperEndomorphism(out.core);
    EXPECT_TRUE(fold.ok());
    if (!fold.ok() || !fold->has_value()) break;
    out.witness = out.witness.ComposeWith(**fold);
    out.core = (*fold)->Apply(out.core);
    ++out.folds;
  }
  return out;
}

// Checks CoreChecked on `g` against the referee, sequentially and on
// pools of 0, 1 and 4 workers. Returns the sequential fold count.
uint64_t ExpectMatchesReferee(const Graph& g, const std::string& label) {
  const RefereeCore ref = FoldByRebuild(g);

  TermMap witness;
  CoreStats stats;
  Result<Graph> core = CoreChecked(g, MatchOptions(), &witness, &stats);
  EXPECT_TRUE(core.ok()) << label;
  if (!core.ok()) return 0;
  EXPECT_EQ(core->triples(), ref.core.triples()) << label;
  EXPECT_EQ(stats.folds, ref.folds) << label;
  EXPECT_EQ(witness, ref.witness) << label;
  EXPECT_EQ(witness.Apply(g), *core) << label;

  for (size_t workers : {0, 1, 4}) {
    ThreadPool pool(workers);
    MatchOptions options;
    options.pool = &pool;
    TermMap par_witness;
    CoreStats par_stats;
    Result<Graph> par = CoreChecked(g, options, &par_witness, &par_stats);
    const std::string at = label + " workers " + std::to_string(workers);
    EXPECT_TRUE(par.ok()) << at;
    if (!par.ok()) continue;
    EXPECT_EQ(par->triples(), core->triples()) << at;
    EXPECT_EQ(par_witness, witness) << at;
    EXPECT_EQ(par_stats.folds, stats.folds) << at;
    EXPECT_EQ(par_stats.iterations, stats.iterations) << at;
    EXPECT_EQ(par_stats.components_searched, stats.components_searched)
        << at;
    EXPECT_EQ(par_stats.steps_used, stats.steps_used) << at;
    EXPECT_EQ(par_stats.lean_cache_hits, stats.lean_cache_hits) << at;
  }
  return stats.folds;
}

TEST(CoreFold, MatchesRebuildRefereeOnSp2bClosures) {
  for (double blank_fraction : {0.1, 0.3}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      Dictionary dict;
      Sp2bSpec spec;
      spec.target_triples = 8000;
      spec.seed = seed;
      spec.blank_author_fraction = blank_fraction;
      Sp2bGenerator gen(spec, &dict);
      const Graph closure = RdfsClosure(gen.GenerateCorpus());
      const uint64_t folds = ExpectMatchesReferee(
          closure, "fraction " + std::to_string(blank_fraction) + " seed " +
                       std::to_string(seed));
      EXPECT_GT(folds, 0u) << "the corpus should exercise folding";
    }
  }
}

TEST(CoreFold, FoldIntoAnotherComponent) {
  // {a p X, X q Y} maps X→U, Y→V into the second component, so the
  // whole first component is erased and nothing of it survives.
  Dictionary dict;
  Graph g = Data(&dict,
                 "a p _:X .\n"
                 "_:X q _:Y .\n"
                 "a p _:U .\n"
                 "_:U q _:V .\n"
                 "_:V r b .");
  EXPECT_EQ(ExpectMatchesReferee(g, "into another component"), 1u);
  EXPECT_EQ(Core(g), Data(&dict,
                          "a p _:U .\n"
                          "_:U q _:V .\n"
                          "_:V r b ."));
}

TEST(CoreFold, ComponentSplitsAfterItsFold) {
  // M folds onto the IRI m, which disconnects L from R: the survivors
  // re-split into two components. The piece led by "m p _:R" keeps the
  // folded component's place; the piece led by "_:L p m" sorts after
  // the components of _:K and _:Y, which later rounds search first.
  Dictionary dict;
  Graph g = Data(&dict,
                 "_:L p _:M .\n"
                 "_:M p _:R .\n"
                 "_:L p m .\n"
                 "m p _:R .\n"
                 "_:L q a .\n"
                 "_:R q b .\n"
                 "c p _:K .\n"
                 "_:K q d .\n"
                 "z s y .\n"
                 "z s _:Y1 .\n"
                 "z s _:Y2 .");
  EXPECT_EQ(BlankComponents(g).size(), 4u);
  EXPECT_EQ(ExpectMatchesReferee(g, "split"), 3u);
  Graph core = Core(g);
  EXPECT_EQ(BlankComponents(core).size(), 3u);
  EXPECT_EQ(core, Data(&dict,
                       "_:L p m .\n"
                       "m p _:R .\n"
                       "_:L q a .\n"
                       "_:R q b .\n"
                       "c p _:K .\n"
                       "_:K q d .\n"
                       "z s y ."));
}

TEST(CoreFold, SplitPiecesKeepRebuildOrder) {
  // The first probe drops "k r _:M", forcing M onto m, which cuts L off
  // from R. The piece {m p _:R, _:R q b} and the component of _:T are
  // then twins, and the lower of the two in BlankComponents order is
  // the one folded away. The piece keeps the folded component's place,
  // ahead of _:T, so _:R folds onto _:T; a piece re-inserted out of
  // order would fold _:T onto _:R instead.
  Dictionary dict;
  Graph g = Data(&dict,
                 "k r _:M .\n"
                 "k r m .\n"
                 "_:L p _:M .\n"
                 "_:M p _:R .\n"
                 "_:L p m .\n"
                 "m p _:R .\n"
                 "_:L q a .\n"
                 "_:R q b .\n"
                 "m p _:T .\n"
                 "_:T q b .");
  EXPECT_EQ(ExpectMatchesReferee(g, "twins"), 2u);
  EXPECT_EQ(Core(g), Data(&dict,
                          "k r m .\n"
                          "_:L p m .\n"
                          "_:L q a .\n"
                          "m p _:T .\n"
                          "_:T q b ."));
}

TEST(CoreFold, BlankChainFoldsOntoGroundLoop) {
  Dictionary dict;
  Term p = dict.Iri("p");
  Graph g = BlankChain(64, p, &dict);
  g.Insert(dict.Iri("a"), p, dict.Iri("a"));
  ExpectMatchesReferee(g, "chain");
  EXPECT_EQ(Core(g), Data(&dict, "a p a ."));
}

TEST(CoreFold, FoldsShareEveryUntouchedLeaf) {
  // Structural gate: in-place folding clones only the leaves holding
  // erased triples, so the core of a 10k-triple ground graph with a few
  // folding components shares almost all leaves with its input. A
  // whole-graph rebuild shares none.
  Dictionary dict;
  Term p = dict.Iri("p");
  Term q = dict.Iri("q");
  std::vector<Triple> triples;
  for (uint32_t i = 0; i < 10000; ++i) {
    triples.emplace_back(dict.Iri(NumberedName("s", i)), p,
                         dict.Iri(NumberedName("o", i % 97)));
  }
  Term hub = dict.Iri("hub");
  triples.emplace_back(hub, q, dict.Iri("x"));
  for (int i = 0; i < 8; ++i) triples.emplace_back(hub, q, dict.FreshBlank());
  const Graph g(std::move(triples));
  g.WarmIndexes();

  CoreStats stats;
  Result<Graph> core = CoreChecked(g, MatchOptions(), nullptr, &stats);
  ASSERT_TRUE(core.ok());
  EXPECT_EQ(stats.folds, 8u);
  EXPECT_EQ(core->size(), 10001u);
  SpineSharing sharing = core->SharedLeaves(g);
  ASSERT_GT(sharing.total, 0u);
  // The erased triples sit together in each of the four spines, so
  // exactly one leaf per spine is cloned.
  EXPECT_EQ(sharing.shared, sharing.total - 4);
  EXPECT_GE(static_cast<double>(sharing.shared),
            0.9 * static_cast<double>(sharing.total))
      << sharing.shared << " of " << sharing.total << " leaves shared";
}

}  // namespace
}  // namespace swdb
