#include "rdf/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>

#include "parser/text.h"
#include "rdf/scan.h"
#include "testutil.h"

namespace swdb {
namespace {

using swdb::testing::Data;

class GraphTest : public ::testing::Test {
 protected:
  Dictionary dict_;
  Term a_ = dict_.Iri("urn:a");
  Term b_ = dict_.Iri("urn:b");
  Term c_ = dict_.Iri("urn:c");
  Term p_ = dict_.Iri("urn:p");
  Term q_ = dict_.Iri("urn:q");
  Term x_ = dict_.Blank("X");
  Term y_ = dict_.Blank("Y");
};

TEST_F(GraphTest, InsertDeduplicatesAndSorts) {
  Graph g;
  EXPECT_TRUE(g.Insert(Triple(b_, p_, c_)));
  EXPECT_TRUE(g.Insert(Triple(a_, p_, b_)));
  EXPECT_FALSE(g.Insert(Triple(a_, p_, b_)));
  EXPECT_EQ(g.size(), 2u);
  EXPECT_TRUE(std::is_sorted(g.begin(), g.end()));
}

TEST_F(GraphTest, InitializerListNormalizes) {
  Graph g{Triple(b_, p_, c_), Triple(a_, p_, b_), Triple(a_, p_, b_)};
  EXPECT_EQ(g.size(), 2u);
  EXPECT_TRUE(g.Contains(Triple(a_, p_, b_)));
}

TEST_F(GraphTest, EraseRemovesAndReportsPresence) {
  Graph g{Triple(a_, p_, b_)};
  EXPECT_TRUE(g.Erase(Triple(a_, p_, b_)));
  EXPECT_FALSE(g.Erase(Triple(a_, p_, b_)));
  EXPECT_TRUE(g.empty());
}

TEST_F(GraphTest, SubgraphRelation) {
  Graph g{Triple(a_, p_, b_), Triple(b_, p_, c_)};
  Graph sub{Triple(a_, p_, b_)};
  EXPECT_TRUE(sub.IsSubgraphOf(g));
  EXPECT_FALSE(g.IsSubgraphOf(sub));
  EXPECT_TRUE(g.IsSubgraphOf(g));
}

TEST_F(GraphTest, UniverseAndVocabulary) {
  Graph g{Triple(a_, p_, x_), Triple(x_, q_, b_)};
  std::vector<Term> universe = g.Universe();
  EXPECT_EQ(universe.size(), 5u);  // a, p, X, q, b
  std::vector<Term> voc = g.Vocabulary();
  EXPECT_EQ(voc.size(), 4u);  // a, p, q, b
  std::vector<Term> blanks = g.BlankNodes();
  ASSERT_EQ(blanks.size(), 1u);
  EXPECT_EQ(blanks[0], x_);
}

TEST_F(GraphTest, GroundAndSimplePredicates) {
  Graph ground{Triple(a_, p_, b_)};
  EXPECT_TRUE(ground.IsGround());
  EXPECT_TRUE(ground.IsSimple());

  Graph with_blank{Triple(a_, p_, x_)};
  EXPECT_FALSE(with_blank.IsGround());
  EXPECT_TRUE(with_blank.IsSimple());

  Graph with_vocab{Triple(a_, vocab::kSc, b_)};
  EXPECT_TRUE(with_vocab.IsGround());
  EXPECT_FALSE(with_vocab.IsSimple());
}

TEST_F(GraphTest, SimpleChecksAllPositions) {
  // Vocabulary in subject or object position also breaks simplicity
  // (Def. 2.2 intersects the whole vocabulary with rdfsV).
  Graph subj{Triple(vocab::kType, p_, b_)};
  EXPECT_FALSE(subj.IsSimple());
  Graph obj{Triple(a_, p_, vocab::kType)};
  EXPECT_FALSE(obj.IsSimple());
}

TEST_F(GraphTest, UnionSharesBlankNodes) {
  Graph g1{Triple(x_, p_, a_)};
  Graph g2{Triple(x_, p_, b_)};
  Graph u = Graph::Union(g1, g2);
  EXPECT_EQ(u.size(), 2u);
  EXPECT_EQ(u.BlankNodes().size(), 1u);  // X shared
}

TEST_F(GraphTest, MatchBySubject) {
  Graph g{Triple(a_, p_, b_), Triple(a_, q_, c_), Triple(b_, p_, c_)};
  size_t count = 0;
  g.Match(a_, std::nullopt, std::nullopt, [&](const Triple&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 2u);
}

TEST_F(GraphTest, MatchByPredicate) {
  Graph g{Triple(a_, p_, b_), Triple(a_, q_, c_), Triple(b_, p_, c_)};
  EXPECT_EQ(g.CountMatches(std::nullopt, p_, std::nullopt), 2u);
  EXPECT_EQ(g.CountMatches(std::nullopt, q_, std::nullopt), 1u);
}

TEST_F(GraphTest, MatchByPredicateObject) {
  Graph g{Triple(a_, p_, c_), Triple(b_, p_, c_), Triple(a_, p_, b_)};
  EXPECT_EQ(g.CountMatches(std::nullopt, p_, c_), 2u);
}

TEST_F(GraphTest, MatchByObjectOnly) {
  Graph g{Triple(a_, p_, c_), Triple(b_, q_, c_), Triple(a_, p_, b_)};
  EXPECT_EQ(g.CountMatches(std::nullopt, std::nullopt, c_), 2u);
}

TEST_F(GraphTest, MatchFullyBound) {
  Graph g{Triple(a_, p_, b_)};
  EXPECT_EQ(g.CountMatches(a_, p_, b_), 1u);
  EXPECT_EQ(g.CountMatches(a_, p_, c_), 0u);
}

TEST_F(GraphTest, MatchSubjectPredicate) {
  Graph g{Triple(a_, p_, b_), Triple(a_, p_, c_), Triple(a_, q_, b_)};
  EXPECT_EQ(g.CountMatches(a_, p_, std::nullopt), 2u);
}

TEST_F(GraphTest, MatchEarlyStop) {
  Graph g{Triple(a_, p_, b_), Triple(a_, p_, c_)};
  size_t count = 0;
  bool completed = g.Match(std::nullopt, std::nullopt, std::nullopt,
                           [&](const Triple&) {
                             ++count;
                             return false;
                           });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 1u);
}

TEST_F(GraphTest, MatchSurvivesMutationBetweenCalls) {
  Graph g{Triple(a_, p_, b_)};
  EXPECT_EQ(g.CountMatches(std::nullopt, p_, std::nullopt), 1u);
  g.Insert(Triple(b_, p_, c_));
  EXPECT_EQ(g.CountMatches(std::nullopt, p_, std::nullopt), 2u);
  g.Erase(Triple(a_, p_, b_));
  EXPECT_EQ(g.CountMatches(std::nullopt, p_, std::nullopt), 1u);
}

TEST_F(GraphTest, BlankRangesHoldExactlyTheBlankPositions) {
  Term v = dict_.Var("V");
  Graph g{{a_, p_, b_}, {a_, p_, x_}, {x_, q_, y_}, {y_, p_, c_},
          {b_, q_, y_}, {v, p_, x_}, {x_, p_, v}, {v, q_, c_}};
  for (int pos : {0, 2}) {
    std::vector<Triple> expected;
    for (const Triple& t : g) {
      if ((pos == 0 ? t.s : t.o).IsBlank()) expected.push_back(t);
    }
    MatchRange range = g.BlankRange(pos);
    std::vector<Triple> got(range.begin(), range.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "position " << pos;
  }
  Graph ground{{a_, p_, b_}, {b_, q_, c_}};
  EXPECT_TRUE(ground.BlankRange(0).empty());
  EXPECT_TRUE(ground.BlankRange(2).empty());
  EXPECT_TRUE(Graph().BlankRange(2).empty());
}

TEST_F(GraphTest, InsertAllIsSetUnion) {
  Graph g1{Triple(a_, p_, b_)};
  Graph g2{Triple(a_, p_, b_), Triple(b_, p_, c_)};
  g1.InsertAll(g2);
  EXPECT_EQ(g1.size(), 2u);
}

class MatchRangeTest : public ::testing::Test {
 protected:
  MatchRangeTest() {
    for (int s = 0; s < 4; ++s) {
      for (int p = 0; p < 3; ++p) {
        for (int o = 0; o < 4; ++o) {
          if ((s + 2 * p + o) % 3 == 0) {
            g_.Insert(Term_(s), Pred_(p), Term_(o));
          }
        }
      }
    }
  }
  Term Term_(int i) { return dict_.Iri("urn:n" + std::to_string(i)); }
  Term Pred_(int i) { return dict_.Iri("urn:p" + std::to_string(i)); }

  // Reference: brute-force filter over all triples.
  std::vector<Triple> Brute(std::optional<Term> s, std::optional<Term> p,
                            std::optional<Term> o) {
    std::vector<Triple> out;
    for (const Triple& t : g_) {
      if (s && t.s != *s) continue;
      if (p && t.p != *p) continue;
      if (o && t.o != *o) continue;
      out.push_back(t);
    }
    return out;
  }

  Dictionary dict_;
  Graph g_;
};

TEST_F(MatchRangeTest, EveryBoundCombinationAgreesWithBruteForce) {
  std::vector<std::optional<Term>> subjects = {std::nullopt, Term_(0), Term_(2),
                                               dict_.Iri("urn:absent")};
  std::vector<std::optional<Term>> preds = {std::nullopt, Pred_(0), Pred_(1)};
  std::vector<std::optional<Term>> objects = {std::nullopt, Term_(1), Term_(3)};
  for (const auto& s : subjects) {
    for (const auto& p : preds) {
      for (const auto& o : objects) {
        std::vector<Triple> expected = Brute(s, p, o);
        MatchRange range = g_.Matches(s, p, o);
        EXPECT_EQ(range.size(), expected.size());
        EXPECT_EQ(range.empty(), expected.empty());
        std::vector<Triple> got(range.begin(), range.end());
        std::sort(got.begin(), got.end());
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(got, expected);
        EXPECT_EQ(g_.CountMatches(s, p, o), expected.size());
      }
    }
  }
}

TEST_F(MatchRangeTest, IndexOrderSelection) {
  // Each bound-position combination resolves to one contiguous range in a
  // specific permutation.
  EXPECT_EQ(g_.Matches(std::nullopt, std::nullopt, std::nullopt).order(),
            IndexOrder::kFullScan);
  EXPECT_EQ(g_.Matches(Term_(0), std::nullopt, std::nullopt).order(),
            IndexOrder::kSpo);
  EXPECT_EQ(g_.Matches(Term_(0), Pred_(0), std::nullopt).order(),
            IndexOrder::kSpo);
  EXPECT_EQ(g_.Matches(Term_(0), Pred_(0), Term_(0)).order(),
            IndexOrder::kSpo);
  EXPECT_EQ(g_.Matches(std::nullopt, Pred_(0), std::nullopt).order(),
            IndexOrder::kPso);
  EXPECT_EQ(g_.Matches(std::nullopt, Pred_(0), Term_(0)).order(),
            IndexOrder::kPos);
  EXPECT_EQ(g_.Matches(std::nullopt, std::nullopt, Term_(0)).order(),
            IndexOrder::kOsp);
  EXPECT_EQ(g_.Matches(Term_(0), std::nullopt, Term_(0)).order(),
            IndexOrder::kOsp);
}

TEST_F(MatchRangeTest, IndexOrderNamesAreStable) {
  EXPECT_STREQ(IndexOrderName(IndexOrder::kSpo), "spo");
  EXPECT_STREQ(IndexOrderName(IndexOrder::kPso), "pso");
  EXPECT_STREQ(IndexOrderName(IndexOrder::kPos), "pos");
  EXPECT_STREQ(IndexOrderName(IndexOrder::kOsp), "osp");
  EXPECT_STREQ(IndexOrderName(IndexOrder::kFullScan), "scan");
}

TEST_F(MatchRangeTest, MatchVisitorSeesSameTriplesAndStopsEarly) {
  size_t visited = 0;
  g_.Match(std::nullopt, Pred_(1), std::nullopt, [&](const Triple& t) {
    EXPECT_EQ(t.p, Pred_(1));
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, g_.CountMatches(std::nullopt, Pred_(1), std::nullopt));

  size_t stopped_at = 0;
  bool completed = g_.Match(std::nullopt, std::nullopt, std::nullopt,
                            [&](const Triple&) { return ++stopped_at < 2; });
  EXPECT_FALSE(completed);
  EXPECT_EQ(stopped_at, 2u);
}

TEST_F(MatchRangeTest, MutationAfterIndexBuildIsReflected) {
  Term s = Term_(0);
  size_t before = g_.CountMatches(std::nullopt, std::nullopt, s);
  g_.Insert(dict_.Iri("urn:new"), Pred_(0), s);
  EXPECT_EQ(g_.CountMatches(std::nullopt, std::nullopt, s), before + 1);
  g_.Erase(Triple(dict_.Iri("urn:new"), Pred_(0), s));
  EXPECT_EQ(g_.CountMatches(std::nullopt, std::nullopt, s), before);
}

// ---------------------------------------------------------------------------
// Vectorized scan kernels: the dispatched entry points must be
// bit-identical to the scalar references on arbitrary inputs (the suite
// runs once with SWDB_SIMD=ON and once with OFF in CI, so both sides of
// the dispatch get exercised against the same references).

TEST(ScanKernels, KernelNameIsStable) {
  const std::string name = scan::KernelName();
  EXPECT_TRUE(name == "avx2" || name == "sse2" || name == "scalar") << name;
  if (!scan::SimdEnabled()) EXPECT_EQ(name, "scalar");
}

TEST(ScanKernels, FilterEqMatchesScalarOnRandomInput) {
  std::mt19937 rng(20260808);
  for (int round = 0; round < 40; ++round) {
    const size_t n = rng() % 300;
    std::vector<uint32_t> col(n);
    for (uint32_t& v : col) {
      // Small value universe forces hits; high bit set half the time
      // (term kind bits live there, and the SIMD compare must handle
      // the full unsigned range).
      v = (rng() % 8) | ((rng() & 1) << 31);
    }
    const uint32_t key = (rng() % 8) | ((rng() & 1) << 31);
    const size_t lo = n == 0 ? 0 : rng() % (n + 1);
    const size_t hi = lo + (n - lo == 0 ? 0 : rng() % (n - lo + 1));
    std::vector<uint32_t> got, want;
    const size_t ngot = scan::FilterEq(col.data(), lo, hi, key, &got);
    const size_t nwant = scan::FilterEqScalar(col.data(), lo, hi, key, &want);
    EXPECT_EQ(ngot, nwant);
    EXPECT_EQ(got, want);
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  }
}

TEST(ScanKernels, FilterPairEqMatchesScalarOnRandomInput) {
  std::mt19937 rng(987654321);
  for (int round = 0; round < 40; ++round) {
    const size_t n = rng() % 300;
    std::vector<uint32_t> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = (rng() % 4) | ((rng() & 1) << 31);
      b[i] = (rng() & 1) ? a[i] : (rng() % 4) | ((rng() & 1) << 31);
    }
    std::vector<uint32_t> got, want;
    scan::FilterPairEq(a.data(), b.data(), 0, n, &got);
    scan::FilterPairEqScalar(a.data(), b.data(), 0, n, &want);
    EXPECT_EQ(got, want);
  }
}

TEST(ScanKernels, SortedEqualRangeMatchesStdEqualRange) {
  std::mt19937 rng(424242);
  for (int round = 0; round < 30; ++round) {
    // Heavy duplicate runs — some far longer than the linear-sweep
    // window — plus the full unsigned range via the high bit.
    const size_t n = 1 + rng() % 2000;
    std::vector<uint32_t> col;
    col.reserve(n);
    while (col.size() < n) {
      const uint32_t v = (rng() % 6) | ((rng() & 1) << 31);
      const size_t run = 1 + rng() % 700;
      for (size_t i = 0; i < run && col.size() < n; ++i) col.push_back(v);
    }
    std::sort(col.begin(), col.end());
    for (uint32_t key : {0u, 3u, 5u, 7u, (3u | (1u << 31)), 0xFFFFFFFFu}) {
      auto want = std::equal_range(col.begin(), col.end(), key);
      const auto [dlo, dhi] =
          scan::SortedEqualRange(col.data(), 0, col.size(), key);
      const auto [slo, shi] =
          scan::SortedEqualRangeScalar(col.data(), 0, col.size(), key);
      EXPECT_EQ(dlo, static_cast<size_t>(want.first - col.begin()));
      EXPECT_EQ(dhi, static_cast<size_t>(want.second - col.begin()));
      EXPECT_EQ(slo, dlo);
      EXPECT_EQ(shi, dhi);
    }
  }
}

// ---------------------------------------------------------------------------
// Columnar storage: randomized parity against brute force over all 8
// bound-position combinations, with the enumeration order pinned to the
// serving permutation, before and after interleaved in-place patching.

class ColumnarFuzzTest : public ::testing::Test {
 protected:
  Term S(uint32_t i) { return Term::Iri(vocab::kReservedIris + i); }
  Term P(uint32_t i) { return Term::Iri(vocab::kReservedIris + 100 + i); }
  Term O(uint32_t i) { return Term::Blank(i); }  // exercises kind bits

  Triple RandomTriple(std::mt19937& rng) {
    return Triple(S(rng() % 9), P(rng() % 5), O(rng() % 9));
  }

  static std::array<uint32_t, 3> KeyOf(const Triple& t, IndexOrder ord) {
    switch (ord) {
      case IndexOrder::kPso:
        return {t.p.bits(), t.s.bits(), t.o.bits()};
      case IndexOrder::kPos:
        return {t.p.bits(), t.o.bits(), t.s.bits()};
      case IndexOrder::kOsp:
        return {t.o.bits(), t.s.bits(), t.p.bits()};
      default:
        return {t.s.bits(), t.p.bits(), t.o.bits()};
    }
  }

  // Checks every bound combination over a sample of keys: same triples
  // as brute force, in exactly the serving permutation's order.
  void CheckAllCombos(const Graph& g) {
    std::vector<std::optional<Term>> ss = {std::nullopt, S(0), S(4), S(8)};
    std::vector<std::optional<Term>> ps = {std::nullopt, P(0), P(3)};
    std::vector<std::optional<Term>> os = {std::nullopt, O(1), O(7)};
    for (const auto& s : ss) {
      for (const auto& p : ps) {
        for (const auto& o : os) {
          std::vector<Triple> expected;
          for (const Triple& t : g) {
            if (s && t.s != *s) continue;
            if (p && t.p != *p) continue;
            if (o && t.o != *o) continue;
            expected.push_back(t);
          }
          MatchRange range = g.Matches(s, p, o);
          const IndexOrder ord = range.order();
          std::sort(expected.begin(), expected.end(),
                    [ord](const Triple& x, const Triple& y) {
                      return KeyOf(x, ord) < KeyOf(y, ord);
                    });
          std::vector<Triple> got(range.begin(), range.end());
          ASSERT_EQ(got, expected)
              << "order " << IndexOrderName(ord) << " size " << g.size();
        }
      }
    }
  }
};

TEST_F(ColumnarFuzzTest, MatchesAgreeWithBruteForceAcrossMutations) {
  std::mt19937 rng(7);
  for (int round = 0; round < 5; ++round) {
    Graph g;
    for (int i = 0; i < 120; ++i) g.Insert(RandomTriple(rng));
    CheckAllCombos(g);  // freshly built indexes
    // Interleaved single-triple mutations: reads between them keep the
    // unread-patch counter below the crossover, so this exercises the
    // in-place columnar patch paths.
    for (int step = 0; step < 60; ++step) {
      if (rng() & 1) {
        g.Insert(RandomTriple(rng));
      } else if (!g.empty()) {
        const Triple victim = g[rng() % g.size()];
        g.Erase(victim);
      }
      if (step % 10 == 0) CheckAllCombos(g);
    }
    CheckAllCombos(g);
    const GraphStats st = g.Stats();
    EXPECT_GT(st.index_patches, 0u) << "fuzz never hit the patch path";
  }
}

TEST_F(ColumnarFuzzTest, FilterBoundAndPairEqualAgreeWithBruteForce) {
  std::mt19937 rng(99);
  Graph g;
  for (int i = 0; i < 200; ++i) g.Insert(RandomTriple(rng));
  // Diagonal triples so FilterPairEqual has survivors: s and o share the
  // term universe only through explicit equality of bits, so craft a few
  // (b, p, b) rows via blank subjects.
  for (uint32_t i = 0; i < 6; ++i) g.Insert(Triple(O(i), P(0), O(i)));

  // Columnar range (predicate-bound) and direct range (full scan).
  const MatchRange byp = g.Matches(std::nullopt, P(0), std::nullopt);
  ASSERT_TRUE(byp.columnar());
  const MatchRange full = g.Matches(std::nullopt, std::nullopt, std::nullopt);
  ASSERT_FALSE(full.columnar());

  for (const MatchRange* range : {&byp, &full}) {
    // FilterBound on the object position.
    for (uint32_t k = 0; k < 9; ++k) {
      std::vector<uint32_t> rows;
      range->FilterBound(2, O(k), &rows);
      std::vector<Triple> got;
      for (uint32_t row : rows) got.push_back(range->TripleAt(row));
      std::vector<Triple> want;
      for (const Triple& t : *range) {
        if (t.o == O(k)) want.push_back(t);
      }
      EXPECT_EQ(got, want);
    }
    // FilterPairEqual on (s, o).
    std::vector<uint32_t> rows;
    range->FilterPairEqual(0, 2, &rows);
    std::vector<Triple> got;
    for (uint32_t row : rows) got.push_back(range->TripleAt(row));
    std::vector<Triple> want;
    for (const Triple& t : *range) {
      if (t.s == t.o) want.push_back(t);
    }
    EXPECT_EQ(got, want);
    EXPECT_FALSE(want.empty()) << "pair filter had nothing to keep";
  }
}

// ---------------------------------------------------------------------------
// COW spine sharing, leaf splits, and stats.

TEST(GraphSpine, CopySharesLeavesAndPatchesDiverge) {
  Graph g;
  for (uint32_t i = 0; i < 5000; ++i) {
    g.Insert(Triple(Term::Iri(100 + i), Term::Iri(50 + i % 7),
                    Term::Iri(200 + i % 97)));
  }
  g.WarmIndexes();
  const Graph snapshot = g;  // copies leaf pointers, not contents
  snapshot.WarmIndexes();    // already built: shares the spines

  const SpineSharing before = g.SharedLeaves(snapshot);
  ASSERT_GT(before.total, 8u);  // 5000 triples span multiple leaves
  EXPECT_EQ(before.shared, before.total);

  // A single insert clones at most one leaf per spine (plus a possible
  // split); everything else stays shared, and the snapshot is untouched.
  const size_t snap_size = snapshot.size();
  ASSERT_TRUE(g.Insert(Triple(Term::Iri(99), Term::Iri(49), Term::Iri(199))));
  const SpineSharing after = g.SharedLeaves(snapshot);
  EXPECT_EQ(snapshot.size(), snap_size);
  EXPECT_FALSE(snapshot.Contains(
      Triple(Term::Iri(99), Term::Iri(49), Term::Iri(199))));
  EXPECT_GE(after.shared + 8, after.total);  // ≤ 2 leaves diverged per spine
  EXPECT_LT(after.shared, after.total);
  EXPECT_GT(g.Stats().index_patches, 0u);
}

TEST(GraphSpine, MutationFuzzMatchesFromScratchBuild) {
  std::mt19937 rng(20260808);
  Graph g;
  std::set<Triple> ref;
  // Interleave inserts/erases (biased toward growth so leaves split),
  // periodically checking the mutated graph is bit-identical to a
  // from-scratch build of the reference set.
  for (int step = 0; step < 12000; ++step) {
    const Triple t(Term::Iri(rng() % 700), Term::Iri(rng() % 11),
                   Term::Iri(rng() % 700));
    if (rng() % 4 != 0) {
      EXPECT_EQ(g.Insert(t), ref.insert(t).second);
    } else {
      EXPECT_EQ(g.Erase(t), ref.erase(t) != 0);
    }
    if (step % 400 == 0) g.WarmIndexes();  // exercise the patch paths
    if (step % 1499 == 0) {
      ASSERT_EQ(g.size(), ref.size());
      const Graph fresh(std::vector<Triple>(ref.begin(), ref.end()));
      ASSERT_TRUE(g == fresh);
      ASSERT_EQ(g.triples(), fresh.triples());
    }
  }
  ASSERT_EQ(g.size(), ref.size());
  size_t i = 0;
  for (const Triple& t : g) {
    ASSERT_EQ(g[i++], t);
    ASSERT_TRUE(ref.count(t) != 0);
  }
  // Lookups agree with the reference on every routing combination.
  std::vector<Triple> probes(ref.begin(), ref.end());
  for (size_t k = 0; k < probes.size(); k += 97) {
    const Triple& t = probes[k];
    EXPECT_GE(g.CountMatches(t.s, std::nullopt, std::nullopt), 1u);
    EXPECT_GE(g.CountMatches(t.s, t.p, std::nullopt), 1u);
    EXPECT_GE(g.CountMatches(std::nullopt, t.p, t.o), 1u);
    EXPECT_EQ(g.CountMatches(t.s, t.p, t.o), 1u);
  }
}

TEST(GraphStatsTest, CountsCallsBytesAndYields) {
  Graph g;
  for (uint32_t i = 0; i < 64; ++i) {
    g.Insert(Triple(Term::Iri(100 + i % 8), Term::Iri(50 + i % 4),
                    Term::Iri(200 + i % 16)));
  }
  const size_t n = g.size();
  GraphStats st = g.Stats();
  EXPECT_EQ(st.matches_calls, 0u);
  EXPECT_FALSE(st.indexes_built);
  EXPECT_GE(st.bytes_primary, n * sizeof(Triple));
  EXPECT_EQ(st.bytes_pso, 0u);

  const size_t hits = g.CountMatches(std::nullopt, Term::Iri(50), std::nullopt);
  g.CountMatches(std::nullopt, std::nullopt, Term::Iri(200));
  st = g.Stats();
  EXPECT_EQ(st.matches_calls, 2u);
  EXPECT_GE(st.rows_yielded, hits);
  EXPECT_TRUE(st.indexes_built);
  // Three uint32 key columns per permutation spine, three permutations.
  EXPECT_GE(st.bytes_pso, n * 3 * sizeof(uint32_t));
  EXPECT_GE(st.bytes_total(),
            st.bytes_primary + 3 * n * 3 * sizeof(uint32_t));
  EXPECT_GE(st.leaves_primary, 1u);
  EXPECT_GE(st.leaves_index, 3u);
}

TEST(GraphParse, RoundTrip) {
  Dictionary dict;
  Graph g = Data(&dict,
                 "urn:a urn:p urn:b .\n"
                 "_:X urn:p urn:b .\n"
                 "urn:a sc urn:c .\n");
  std::string text = FormatGraph(g, dict);
  Dictionary dict2;
  Result<Graph> reparsed = ParseGraph(text, &dict2);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->size(), g.size());
  EXPECT_EQ(FormatGraph(*reparsed, dict2), text);
}

}  // namespace
}  // namespace swdb
