// Differential tests of CoreChecked's in-place folding against a
// fold-by-rebuild referee: FindProperEndomorphism on the whole current
// graph each round, applied with TermMap::Apply (a full rebuild). Both
// pick the lowest folding component in BlankComponents order, so the
// folding sequences — and with them the core, the fold count and the
// composed witness — must agree exactly. The engine must also give the
// same result and CoreStats at every worker count. This binary is part
// of the TSan job (scripts/check_tsan.sh).
//
// The referee above runs the engine's own component search, so every
// core is also checked by an independent leanness referee written here
// from the bare matcher: for each blank component and each of its
// triples t, the component must not map into core \ {t}. A wrong
// "lean" from the single-blank fast path would otherwise pass on both
// sides.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gen/generators.h"
#include "gen/sp2b.h"
#include "inference/closure.h"
#include "normal/core.h"
#include "rdf/graph.h"
#include "rdf/hom.h"
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

// The independent leanness referee: true iff no blank component of g
// maps into g minus one of its own triples, probed triple by triple
// with a plain PatternMatcher (never the engine's component search).
bool NoComponentFolds(const Graph& g, const std::string& label) {
  bool lean = true;
  for (const std::vector<Triple>& component : BlankComponents(g)) {
    PatternMatcher matcher(component, &g);
    for (const Triple& t : component) {
      matcher.set_exclude_triple(t);
      Result<std::optional<TermMap>> fold = matcher.FindAny();
      EXPECT_TRUE(fold.ok()) << label;
      if (fold.ok() && fold->has_value()) {
        ADD_FAILURE() << label << ": a component of the core folds";
        lean = false;
        break;
      }
    }
  }
  return lean;
}

// Checks CoreChecked on `g` against the referee, sequentially and on
// pools of 0, 1 and 4 workers, and the core it returns against the
// independent leanness referee. Returns the sequential CoreStats.
CoreStats ExpectMatchesReferee(const Graph& g, const std::string& label) {
  const RefereeCore ref = FoldByRebuild(g);

  TermMap witness;
  CoreStats stats;
  Result<Graph> core = CoreChecked(g, MatchOptions(), &witness, &stats);
  EXPECT_TRUE(core.ok()) << label;
  if (!core.ok()) return stats;
  EXPECT_TRUE(NoComponentFolds(*core, label));
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
    EXPECT_EQ(par_stats.components_enumerated, stats.components_enumerated)
        << at;
  }
  return stats;
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
      const CoreStats stats = ExpectMatchesReferee(
          closure, "fraction " + std::to_string(blank_fraction) + " seed " +
                       std::to_string(seed));
      EXPECT_GT(stats.folds, 0u) << "the corpus should exercise folding";
      // Blank authors are single-blank components; the lean ones are
      // decided by one enumeration each.
      EXPECT_GT(stats.components_enumerated, 0u);
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
  EXPECT_EQ(ExpectMatchesReferee(g, "into another component").folds, 1u);
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
  EXPECT_EQ(ExpectMatchesReferee(g, "split").folds, 3u);
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
  EXPECT_EQ(ExpectMatchesReferee(g, "twins").folds, 2u);
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

// A planted shape: CoreChecked, checked against both referees, must
// fold `folds` times, decide `enumerated` components by the single-blank
// enumeration, and return `core_text`.
void ExpectPlantedCore(const std::string& text, const std::string& core_text,
                       uint64_t folds, uint64_t enumerated) {
  Dictionary dict;
  const Graph g = Data(&dict, text);
  const CoreStats stats = ExpectMatchesReferee(g, text);
  EXPECT_EQ(stats.folds, folds) << text;
  EXPECT_EQ(stats.components_enumerated, enumerated) << text;
  EXPECT_EQ(Core(g), Data(&dict, core_text)) << text;
}

TEST(CoreFold, SingleBlankSelfLoop) {
  // _:b p _:b maps only onto a ground self-loop.
  ExpectPlantedCore(
      "_:b p _:b .\n"
      "_:b q c .\n"
      "a p b .",
      "_:b p _:b .\n"
      "_:b q c .\n"
      "a p b .",
      /*folds=*/0, /*enumerated=*/1);
  ExpectPlantedCore(
      "_:b p _:b .\n"
      "_:b q c .\n"
      "x p x .\n"
      "x q c .",
      "x p x .\n"
      "x q c .",
      /*folds=*/1, /*enumerated=*/0);
}

TEST(CoreFold, SingleBlankInObjectPositionOnly) {
  ExpectPlantedCore(
      "a p _:b .\n"
      "c q _:b .\n"
      "a p d .\n"
      "c q e .",
      "a p _:b .\n"
      "c q _:b .\n"
      "a p d .\n"
      "c q e .",
      /*folds=*/0, /*enumerated=*/1);
  ExpectPlantedCore(
      "a p _:b .\n"
      "c q _:b .\n"
      "a p d .\n"
      "c q d .",
      "a p d .\n"
      "c q d .",
      /*folds=*/1, /*enumerated=*/0);
}

TEST(CoreFold, SingleBlankWithGroundTwinFolds) {
  ExpectPlantedCore(
      "_:b type Person .\n"
      "_:b name n .\n"
      "e type Person .\n"
      "e name n .",
      "e type Person .\n"
      "e name n .",
      /*folds=*/1, /*enumerated=*/0);
}

TEST(CoreFold, TwoIdenticalBlankAuthorsExactlyOneFolds) {
  // The first author's enumeration finds the second and falls back to
  // the probes, which fold it away; the survivor is then decided lean
  // by one enumeration.
  Dictionary dict;
  const Graph g = Data(&dict,
                       "_:b1 type Person .\n"
                       "_:b1 name n .\n"
                       "_:b2 type Person .\n"
                       "_:b2 name n .");
  const CoreStats stats = ExpectMatchesReferee(g, "twin authors");
  EXPECT_EQ(stats.folds, 1u);
  EXPECT_EQ(stats.components_enumerated, 1u);
  const Graph core = Core(g);
  EXPECT_EQ(core.size(), 2u);
  EXPECT_EQ(BlankComponents(core).size(), 1u);
}

TEST(CoreFold, SingleBlankCandidateFailsOnItsLastTriple) {
  // x matches _:b on p and q but not on r: the only other candidate
  // dies on the component's last triple, so _:b is lean.
  ExpectPlantedCore(
      "_:b p a .\n"
      "_:b q c .\n"
      "_:b r d .\n"
      "x p a .\n"
      "x q c .\n"
      "x r e .",
      "_:b p a .\n"
      "_:b q c .\n"
      "_:b r d .\n"
      "x p a .\n"
      "x q c .\n"
      "x r e .",
      /*folds=*/0, /*enumerated=*/1);
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
