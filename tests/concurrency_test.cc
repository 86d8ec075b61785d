// The Database concurrent read path: N reader threads working through
// epoch-tagged snapshots while one writer applies randomized mutation
// batches. Every reader-observed snapshot must equal some committed
// epoch's from-scratch state — never a partial mutation — and snapshots
// taken earlier must stay unchanged while the database moves on.
//
// Sizes are deliberately modest: this binary is the core of the TSan job
// (scripts/check_tsan.sh), which runs it under ~10x instrumentation
// slowdown.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "inference/closure.h"
#include "normal/core.h"
#include "query/database.h"
#include "query/query.h"
#include "rdf/graph.h"
#include "rdf/term.h"
#include "testutil.h"
#include "util/rng.h"

namespace swdb {
namespace {

// A small universe that exercises every rule (mirrors incremental_test).
std::vector<Term> Universe(Dictionary* dict) {
  return {
      dict->Iri("u:a"), dict->Iri("u:b"), dict->Iri("u:c"),
      dict->Iri("u:p"), dict->Iri("u:q"), dict->Iri("u:x"),
      dict->Iri("u:y"), dict->Blank("uB1"), dict->Blank("uB2"),
  };
}

// Well-formed only: the Database contract (like the parser front door)
// excludes blank-predicate triples, and incremental maintenance matches
// the from-scratch closure only on well-formed data.
Triple RandomTriple(const std::vector<Term>& universe, Rng* rng,
                    double schema_bias) {
  for (;;) {
    Term s = universe[rng->Below(universe.size())];
    Term o = universe[rng->Below(universe.size())];
    Term p;
    if (rng->Next() % 100 < static_cast<uint64_t>(schema_bias * 100)) {
      p = vocab::kAll[rng->Below(vocab::kReservedIris)];
    } else {
      p = universe[rng->Below(universe.size())];
    }
    Triple t(s, p, o);
    if (t.IsWellFormedData()) return t;
  }
}

TEST(DatabaseSnapshot, ReflectsCommittedStateAndStaysImmutable) {
  Dictionary dict;
  Database db(&dict);
  std::vector<Term> universe = Universe(&dict);
  Rng rng(42);

  db.Insert(RandomTriple(universe, &rng, 0.5));
  std::shared_ptr<const DatabaseSnapshot> before = db.Snapshot();
  const Graph frozen_data = before->data();
  const Graph frozen_closure = before->closure();
  EXPECT_EQ(before->epoch(), db.epoch());
  EXPECT_EQ(before->closure(), RdfsClosure(before->data()));

  for (int step = 0; step < 30; ++step) {
    MutationBatch batch;
    for (int i = 0; i < 3; ++i) {
      batch.Insert(RandomTriple(universe, &rng, 0.6));
    }
    if (db.size() > 0 && rng.Chance(0.4)) {
      batch.Erase(db.graph().triples()[rng.Below(db.size())]);
    }
    db.Apply(batch);

    std::shared_ptr<const DatabaseSnapshot> snap = db.Snapshot();
    EXPECT_EQ(snap->epoch(), db.epoch());
    EXPECT_EQ(snap->data(), db.graph());
    EXPECT_EQ(snap->closure(), RdfsClosure(snap->data()));
  }
  // The old snapshot is frozen at its epoch forever.
  EXPECT_EQ(before->data(), frozen_data);
  EXPECT_EQ(before->closure(), frozen_closure);
}

TEST(DatabaseSnapshot, ConcurrentReadersSeeOnlyCommittedEpochs) {
  Dictionary dict;
  Database db(&dict);
  std::vector<Term> universe = Universe(&dict);
  Rng writer_rng(7);

  // Seed and publish the first snapshot from the writer thread, so
  // readers never trigger the initial closure build themselves.
  for (int i = 0; i < 10; ++i) {
    db.Insert(RandomTriple(universe, &writer_rng, 0.5));
  }
  db.Snapshot();

  constexpr int kReaders = 4;
  constexpr int kWriterSteps = 40;
  std::atomic<bool> stop{false};
  std::atomic<int> reader_failures{0};
  std::atomic<uint64_t> snapshots_checked{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&db, &stop, &reader_failures, &snapshots_checked,
                          r] {
      Rng rng(1000 + static_cast<uint64_t>(r));
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const DatabaseSnapshot> snap = db.Snapshot();
        // Internal consistency: the snapshot's artifacts belong to ONE
        // epoch. (Equality with the writer's from-scratch closure for
        // this epoch is verified below, on the writer thread, against
        // the recorded epoch->data history.)
        if (snap->epoch() != snap->data().epoch()) {
          reader_failures.fetch_add(1);
          break;
        }
        if (rng.Chance(0.3)) {
          // Membership answers must agree with the frozen closure.
          const Graph& cl = snap->closure();
          if (cl.size() > 0) {
            const Triple probe =
                cl.triples()[rng.Below(cl.size())];
            if (!snap->EntailsTriple(probe)) {
              reader_failures.fetch_add(1);
              break;
            }
          }
        } else {
          // Entailment of a triple drawn from the closure always holds.
          const Graph& cl = snap->closure();
          if (cl.size() > 0) {
            const Triple probe = cl.triples()[rng.Below(cl.size())];
            if (!snap->Entails(Graph({probe}))) {
              reader_failures.fetch_add(1);
              break;
            }
          }
        }
        snapshots_checked.fetch_add(1);
      }
    });
  }

  // Writer: randomized batches; record each committed epoch's data graph
  // so snapshots can be validated against from-scratch recomputation.
  std::map<uint64_t, Graph> committed;
  committed[db.epoch()] = db.graph();
  std::vector<std::shared_ptr<const DatabaseSnapshot>> observed;
  for (int step = 0; step < kWriterSteps; ++step) {
    MutationBatch batch;
    const int inserts = 1 + static_cast<int>(writer_rng.Below(3));
    for (int i = 0; i < inserts; ++i) {
      batch.Insert(RandomTriple(universe, &writer_rng, 0.6));
    }
    if (db.size() > 0 && writer_rng.Chance(0.5)) {
      batch.Erase(db.graph().triples()[writer_rng.Below(db.size())]);
    }
    db.Apply(batch);
    committed[db.epoch()] = db.graph();
    observed.push_back(db.Snapshot());
  }
  // On a loaded (or single-core) machine the writer can finish before a
  // reader completes one iteration; wait for real reader progress so the
  // liveness assertion below is meaningful.
  while (snapshots_checked.load() == 0 && reader_failures.load() == 0) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_GT(snapshots_checked.load(), 0u);

  // Every snapshot the writer collected mid-stream equals the recorded
  // committed state of its epoch, closure included.
  for (const auto& snap : observed) {
    auto it = committed.find(snap->epoch());
    ASSERT_NE(it, committed.end());
    EXPECT_EQ(snap->data(), it->second);
    EXPECT_EQ(snap->closure(), RdfsClosure(it->second));
  }
}

TEST(DatabaseSnapshot, ConcurrentPremiseFreePreAnswer) {
  Dictionary dict;
  Database db(&dict);
  std::vector<Term> universe = Universe(&dict);
  Rng writer_rng(21);
  for (int i = 0; i < 12; ++i) {
    db.Insert(RandomTriple(universe, &writer_rng, 0.4));
  }
  db.Snapshot();

  // A premise-free query: one open triple over the normalized database.
  Query q;
  Term var_x = dict.Var("x");
  Term var_y = dict.Var("y");
  q.body.Insert(Triple(var_x, vocab::kType, var_y));
  q.head.Insert(Triple(var_x, vocab::kType, var_y));

  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&db, &q, &stop, &failures] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const DatabaseSnapshot> snap = db.Snapshot();
        Result<std::vector<Graph>> answers = snap->PreAnswer(q);
        if (!answers.ok()) {
          failures.fetch_add(1);
          break;
        }
        // Every answer triple is entailed by the snapshot.
        for (const Graph& a : *answers) {
          for (const Triple& t : a) {
            if (!snap->closure().Contains(t)) {
              failures.fetch_add(1);
              return;
            }
          }
        }
      }
    });
  }
  for (int step = 0; step < 25; ++step) {
    MutationBatch batch;
    batch.Insert(RandomTriple(universe, &writer_rng, 0.5));
    if (db.size() > 0 && writer_rng.Chance(0.3)) {
      batch.Erase(db.graph().triples()[writer_rng.Below(db.size())]);
    }
    db.Apply(batch);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// Blank-redundant data whose nf(D) actually folds: several independent
// blank components, each subsumed by a ground triple, so the lazy
// normalized() build runs the full (parallel) core engine.
void InsertFoldableData(Database* db, Dictionary* dict) {
  Term a = dict->Iri("u:a");
  for (int i = 0; i < 4; ++i) {
    Term p = dict->Iri("u:p" + std::to_string(i));
    db->Insert(Triple(a, p, dict->Iri("u:b" + std::to_string(i))));
    db->Insert(Triple(a, p, dict->FreshBlank()));
  }
}

TEST(DatabaseSnapshot, RacedNormalizedBuildsCoreExactlyOnce) {
  // N readers race the first normalized() call on a fresh snapshot: the
  // call_once slot must run the core build exactly once (observed via
  // the snapshot_nf_builds counter), and every reader must see the same
  // Graph object with the from-scratch nf(D) content.
  Dictionary dict;
  Database db(&dict);
  InsertFoldableData(&db, &dict);
  std::shared_ptr<const DatabaseSnapshot> snap = db.Snapshot();
  ASSERT_EQ(db.stats().snapshot_nf_builds.load(), 0u);

  constexpr int kReaders = 8;
  std::atomic<int> ready{0};
  std::vector<const Graph*> observed(kReaders, nullptr);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&snap, &ready, &observed, r] {
      // Crude barrier so the calls really race the call_once.
      ready.fetch_add(1);
      while (ready.load(std::memory_order_relaxed) < kReaders) {
        std::this_thread::yield();
      }
      observed[r] = &snap->normalized();
    });
  }
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(db.stats().snapshot_nf_builds.load(), 1u);
  const Graph expected = Core(RdfsClosure(snap->data()));
  for (int r = 0; r < kReaders; ++r) {
    ASSERT_NE(observed[r], nullptr);
    EXPECT_EQ(observed[r], observed[0]) << "reader " << r;
    EXPECT_EQ(*observed[r], expected) << "reader " << r;
  }
  // The core really folded the redundant blanks away.
  EXPECT_LT(expected.size(), RdfsClosure(snap->data()).size());
}

TEST(DatabaseSnapshot, NormalizedBuildsOncePerSnapshotEpoch) {
  Dictionary dict;
  Database db(&dict);
  InsertFoldableData(&db, &dict);
  std::shared_ptr<const DatabaseSnapshot> first = db.Snapshot();
  const Graph& first_nf = first->normalized();
  EXPECT_EQ(db.stats().snapshot_nf_builds.load(), 1u);
  // Repeated calls on the same snapshot reuse the built core.
  EXPECT_EQ(&first->normalized(), &first_nf);
  EXPECT_EQ(db.stats().snapshot_nf_builds.load(), 1u);

  db.Insert(Triple(dict.Iri("u:a"), dict.Iri("u:q"), dict.FreshBlank()));
  std::shared_ptr<const DatabaseSnapshot> second = db.Snapshot();
  ASSERT_NE(second, first);
  const Graph second_nf = second->normalized();
  EXPECT_EQ(db.stats().snapshot_nf_builds.load(), 2u);
  EXPECT_EQ(second_nf, Core(RdfsClosure(second->data())));
  // The first snapshot's normal form is frozen at its epoch.
  EXPECT_EQ(first->normalized(), Core(RdfsClosure(first->data())));
  EXPECT_EQ(db.stats().snapshot_nf_builds.load(), 2u);
}

// --------------------------------------------------------------------------
// Sharded dictionary: concurrent interning.

TEST(DictionaryConcurrency, ParallelInternOfSharedNamesConverges) {
  // N threads intern the same name set in different orders. Every
  // thread must end up with the same name -> id assignment (ids are
  // handed out once, under the owning shard's lock), and the lock-free
  // Name() must round-trip every id.
  Dictionary dict;
  constexpr int kThreads = 8;
  constexpr int kNames = 400;
  std::vector<std::string> names;
  names.reserve(kNames);
  for (int i = 0; i < kNames; ++i) {
    names.push_back("u:shared" + std::to_string(i));
  }

  std::vector<std::vector<Term>> got(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      ready.fetch_add(1);
      while (ready.load(std::memory_order_relaxed) < kThreads) {
        std::this_thread::yield();
      }
      got[w].reserve(kNames);
      // Stagger the order per thread so shards are hit in different
      // sequences and first-interner races actually happen.
      for (int i = 0; i < kNames; ++i) {
        const int j = (i * 7 + w * 53) % kNames;
        Term t = (j % 3 == 0) ? dict.Blank(names[j]) : dict.Iri(names[j]);
        got[w].push_back(t);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Agreement: reorder each thread's terms back to canonical order.
  for (int w = 0; w < kThreads; ++w) {
    std::vector<Term> canon(kNames);
    for (int i = 0; i < kNames; ++i) {
      canon[(i * 7 + w * 53) % kNames] = got[w][i];
    }
    for (int j = 0; j < kNames; ++j) {
      EXPECT_EQ(canon[j], (j % 3 == 0) ? dict.Blank(names[j])
                                       : dict.Iri(names[j]))
          << "thread " << w << " name " << j;
      // Blank labels render with the "_:" prefix.
      EXPECT_EQ(dict.Name(canon[j]),
                (j % 3 == 0) ? "_:" + names[j] : names[j]);
    }
  }
  // Exactly one id per distinct (kind, name): no duplicates leaked.
  DictionaryStats ds = dict.Stats();
  size_t sharded = 0;
  for (size_t n : ds.shard_entries) sharded += n;
  EXPECT_EQ(sharded, ds.terms());
}

TEST(DictionaryConcurrency, LockFreeNameReadsRaceInterning) {
  // Readers hammer Name() on every id published so far while writers
  // keep interning fresh names: Name() takes no lock, so this is the
  // TSan-visible proof the id -> name table publication is race-free.
  Dictionary dict;
  std::atomic<uint32_t> published{0};
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    for (int i = 0; i < 4000; ++i) {
      Term t = dict.Iri("u:grow" + std::to_string(i));
      published.store(t.id(), std::memory_order_release);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      uint64_t reads = 0;
      while (!stop.load(std::memory_order_relaxed) || reads == 0) {
        const uint32_t hi = published.load(std::memory_order_acquire);
        if (hi == 0) continue;
        Term probe = Term::Iri(hi);
        if (dict.Name(probe).rfind("u:grow", 0) != 0) failures.fetch_add(1);
        ++reads;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(dict.Name(dict.Iri("u:grow0")), "u:grow0");
}

TEST(DictionaryConcurrency, FreshBlanksDistinctAcrossThreads) {
  Dictionary dict;
  constexpr int kThreads = 8;
  constexpr int kEach = 300;
  std::vector<std::vector<Term>> fresh(kThreads);
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kEach; ++i) fresh[w].push_back(dict.FreshBlank());
    });
  }
  for (std::thread& t : threads) t.join();
  std::map<uint32_t, int> seen;
  for (int w = 0; w < kThreads; ++w) {
    for (Term t : fresh[w]) {
      EXPECT_TRUE(t.IsBlank());
      EXPECT_EQ(++seen[t.id()], 1) << "duplicate fresh blank id " << t.id();
    }
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kThreads * kEach));
}

// --------------------------------------------------------------------------
// Delta-proportional publication.

TEST(DatabaseSnapshot, PublicationSharesLeavesWithPredecessor) {
  // After a big load, a single-triple insert must republish by sharing
  // almost every spine leaf with the previous snapshot and copying only
  // the touched ones.
  Dictionary dict;
  Database db(&dict);
  std::vector<Triple> bulk;
  Term p = dict.Iri("u:p");
  for (int i = 0; i < 6000; ++i) {
    bulk.emplace_back(dict.Iri("u:s" + std::to_string(i)), p,
                      dict.Iri("u:o" + std::to_string(i % 97)));
  }
  db.InsertGraph(Graph(std::move(bulk)));
  std::shared_ptr<const DatabaseSnapshot> first = db.Snapshot();

  db.Insert(Triple(dict.Iri("u:new"), p, dict.Iri("u:o0")));
  std::shared_ptr<const DatabaseSnapshot> second = db.Snapshot();
  ASSERT_NE(second, first);

  // Direct structural check: nearly all of the second snapshot's leaves
  // are the first snapshot's leaves (pointer-identical).
  SpineSharing s = second->data().SharedLeaves(first->data());
  EXPECT_GT(s.total, 20u);  // the load is big enough to be multi-leaf
  EXPECT_GT(s.shared, 0u);
  EXPECT_LE(s.total - s.shared, 8u)  // at most ~one leaf per spine copied
      << "shared " << s.shared << " of " << s.total;

  // And the counters saw it: the second publication shared much more
  // than it copied.
  const DatabaseStats stats = db.stats();
  EXPECT_GE(stats.snapshot_publishes.load(), 2u);
  EXPECT_GT(stats.publish_leaves_shared.load(),
            stats.publish_leaves_copied.load());

  // Sharing is an optimization only: content equals a from-scratch
  // build.
  EXPECT_EQ(second->data(), db.graph());
  EXPECT_EQ(second->closure(), RdfsClosure(second->data()));
  EXPECT_EQ(first->data().size(), 6000u);
}

// --------------------------------------------------------------------------
// Normal forms across epochs.

// Several independent *lean* blank components (nothing to fold onto):
// every nf build must keep all of them.
void InsertLeanComponents(Database* db, Dictionary* dict, int n = 4) {
  for (int i = 0; i < n; ++i) {
    db->Insert(Triple(dict->Iri("u:ls" + std::to_string(i)),
                      dict->Iri("u:lp" + std::to_string(i)),
                      dict->FreshBlank()));
  }
}

TEST(Database, NfAfterUnrelatedInsertMatchesFromScratch) {
  // Normalize, insert a triple unrelated to every blank component, and
  // normalize again: the rebuilt nf keeps the lean components and is
  // bit-identical to the from-scratch normal form.
  Dictionary dict;
  Database db(&dict);
  InsertLeanComponents(&db, &dict);
  (void)db.Normalized();

  db.Insert(
      Triple(dict.Iri("u:lonely"), dict.Iri("u:q"), dict.Iri("u:ground")));
  const Graph& nf = db.Normalized();
  EXPECT_EQ(nf, Core(RdfsClosure(db.graph())));
}

TEST(Database, InsertMakingAComponentFoldableFoldsIt) {
  // A lean component becomes foldable when its ground image appears:
  // the nf after that insert must drop the blank triple.
  Dictionary dict;
  Database db(&dict);
  Term a = dict.Iri("u:a");
  Term p = dict.Iri("u:p");
  Term blank = dict.FreshBlank();
  db.Insert(Triple(a, p, blank));  // lean: nothing to fold onto
  const Graph& nf1 = db.Normalized();
  EXPECT_TRUE(nf1.Contains(Triple(a, p, blank)));

  db.Insert(Triple(a, p, dict.Iri("u:b")));  // ground image appears
  const Graph& nf2 = db.Normalized();
  EXPECT_FALSE(nf2.Contains(Triple(a, p, blank)))
      << "the newly foldable component survived the insert";
  EXPECT_EQ(nf2, Core(RdfsClosure(db.graph())));
}

TEST(DatabaseSnapshot, NfAcrossEpochsMatchesFromScratch) {
  // Two epochs' snapshots with the same lean components each build
  // their own nf, equal to their own from-scratch core.
  Dictionary dict;
  Database db(&dict);
  InsertLeanComponents(&db, &dict);
  std::shared_ptr<const DatabaseSnapshot> first = db.Snapshot();
  (void)first->normalized();

  db.Insert(
      Triple(dict.Iri("u:lonely"), dict.Iri("u:q"), dict.Iri("u:ground")));
  std::shared_ptr<const DatabaseSnapshot> second = db.Snapshot();
  const Graph& nf = second->normalized();
  EXPECT_EQ(nf, Core(RdfsClosure(second->data())));
  // The first snapshot stays frozen and correct.
  EXPECT_EQ(first->normalized(), Core(RdfsClosure(first->data())));
}

TEST(DatabaseSnapshot, LaggingSnapshotKeepsItsNfAfterErase) {
  // A snapshot published *before* an erase keeps the nf of its own
  // frozen closure, whatever the writer normalizes after the erase.
  Dictionary dict;
  Database db(&dict);
  Term a = dict.Iri("u:a");
  Term p = dict.Iri("u:p");
  Term q = dict.Iri("u:q");
  Term blank = dict.FreshBlank();
  db.Insert(Triple(a, p, blank));
  db.Insert(Triple(a, p, dict.Iri("u:b")));  // makes the component fold
  db.Insert(Triple(a, q, dict.Iri("u:c")));
  std::shared_ptr<const DatabaseSnapshot> lagging = db.Snapshot();

  // Erase the ground image: in the *new* state the blank component is
  // lean again.
  db.Erase(Triple(a, p, dict.Iri("u:b")));
  EXPECT_TRUE(db.Normalized().Contains(Triple(a, p, blank)));

  // The lagging snapshot still contains the ground image, so its
  // component folds.
  const Graph& nf = lagging->normalized();
  EXPECT_FALSE(nf.Contains(Triple(a, p, blank)));
  EXPECT_EQ(nf, Core(RdfsClosure(lagging->data())));
}

// --- Materialized view layer vs the snapshot read path ----------------

// Views promoted on first sight, so every test below exercises the
// install/patch machinery without warm-up loops.
EvalOptions EagerViewOptions() {
  EvalOptions o;
  o.views.promote_after = 1;
  return o;
}

TEST(ViewCacheSnapshots, LaggingSnapshotStaysOnItsOwnNormalForm) {
  // A snapshot materializes a view at version V1; the writer then moves
  // on (insert patches the view, erase bumps the fence stamp). The
  // lagging snapshot must keep answering against *its* normal form —
  // bit-identical to its first run — never consuming entries written
  // for a later state.
  Dictionary dict;
  Database db(&dict, EagerViewOptions());
  Term a = dict.Iri("u:a");
  Term b = dict.Iri("u:b");
  Term c = dict.Iri("u:c");
  Term p = dict.Iri("u:p");
  db.Insert(Triple(a, p, b));
  db.Insert(Triple(b, p, c));
  db.Insert(Triple(c, p, a));
  Query q = testing::Q(&dict,
                       "head: ?X u:p ?Y .\n"
                       "body: ?X u:p ?Y .\n");

  std::shared_ptr<const DatabaseSnapshot> lagging = db.Snapshot();
  Result<std::vector<Graph>> first = lagging->PreAnswer(q);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(db.CollectStats().views.installs, 0u)
      << "snapshot miss at the current version should install the view";

  // Writer moves two states ahead and queries through the cache both
  // times (the insert patches the view, the erase fences it).
  db.Insert(Triple(c, p, dict.Iri("u:d")));
  Result<std::vector<Graph>> after_insert = db.PreAnswer(q);
  ASSERT_TRUE(after_insert.ok());
  db.Erase(Triple(a, p, b));
  Result<std::vector<Graph>> after_erase = db.PreAnswer(q);
  ASSERT_TRUE(after_erase.ok());

  // The lagging snapshot's repeat is bit-identical to its first run and
  // to from-scratch evaluation of its frozen data.
  Result<std::vector<Graph>> again = lagging->PreAnswer(q);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *first);
  Result<std::vector<Graph>> lagging_scratch =
      db.evaluator()->PreAnswer(q, lagging->data());
  ASSERT_TRUE(lagging_scratch.ok());
  EXPECT_EQ(*again, *lagging_scratch);

  // And the writer's cached answers match from-scratch on the current
  // graph — patch and fence left both sides sound.
  Result<std::vector<Graph>> writer_scratch =
      db.evaluator()->PreAnswer(q, db.graph());
  ASSERT_TRUE(writer_scratch.ok());
  EXPECT_EQ(*after_erase, *writer_scratch);
}

TEST(ViewCacheSnapshots, SnapshotHitSkipsItsOwnNormalFormBuild) {
  // A view materialized by the writer serves a fresh snapshot directly:
  // same answers, and the snapshot's lazy nf(D) build never runs.
  Dictionary dict;
  Database db(&dict, EagerViewOptions());
  Term a = dict.Iri("u:a");
  Term p = dict.Iri("u:p");
  db.Insert(Triple(a, p, dict.Iri("u:b")));
  db.Insert(Triple(dict.Iri("u:b"), p, dict.Iri("u:c")));
  Query q = testing::Q(&dict,
                       "head: ?X u:p ?Y .\n"
                       "body: ?X u:p ?Y .\n");

  Result<std::vector<Graph>> writer = db.PreAnswer(q);
  ASSERT_TRUE(writer.ok());
  const uint64_t builds_before =
      db.stats().snapshot_nf_builds.load(std::memory_order_relaxed);

  std::shared_ptr<const DatabaseSnapshot> snap = db.Snapshot();
  Result<std::vector<Graph>> from_snap = snap->PreAnswer(q);
  ASSERT_TRUE(from_snap.ok());
  EXPECT_EQ(*from_snap, *writer);
  EXPECT_EQ(db.stats().snapshot_nf_builds.load(std::memory_order_relaxed),
            builds_before)
      << "a view hit must not trigger the snapshot's lazy core build";
  EXPECT_GT(db.CollectStats().views.hits, 0u);
}

TEST(ViewCacheMaintenance, SymmetricBodyPatchKeepsSeededBlanksPinned) {
  // Regression: the semi-naive patch seeds the matcher with variables
  // already bound to concrete nf terms. When such a binding is a blank
  // node, the specialized pattern shows the matcher a *blank*, which
  // hom.h treats as an open term — the matcher could satisfy the
  // pattern by sending it elsewhere while the patched matching kept the
  // literal binding, materializing answers whose body image is not in
  // nf. A symmetric body over a variable predicate is the shape that
  // exposed it.
  Dictionary dict;
  Database db(&dict, EagerViewOptions());
  std::vector<Term> universe = Universe(&dict);
  Rng writer_rng(11);
  for (int i = 0; i < 12; ++i) {
    db.Insert(RandomTriple(universe, &writer_rng, 0.4));
  }
  std::vector<Query> queries;
  queries.push_back(testing::Q(&dict,
                               "head: ?X u:p ?Y .\n"
                               "body: ?X u:p ?Y .\n"));
  queries.push_back(testing::Q(&dict,
                               "head: ?X u:q ?Y .\n"
                               "body: ?X ?P ?Y .\n"
                               "body: ?Y ?P ?X .\n"));
  queries.push_back(testing::Q(&dict,
                               "head: _:m u:p ?Y .\n"
                               "body: ?X u:p ?Y .\n"));
  for (int step = 0; step < 25; ++step) {
    MutationBatch batch;
    batch.Insert(RandomTriple(universe, &writer_rng, 0.5));
    batch.Insert(RandomTriple(universe, &writer_rng, 0.5));
    if (db.size() > 0 && writer_rng.Chance(0.3)) {
      batch.Erase(db.graph().triples()[writer_rng.Below(db.size())]);
    }
    db.Apply(batch);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      Result<std::vector<Graph>> cached = db.PreAnswer(queries[qi]);
      Result<std::vector<Graph>> scratch =
          db.evaluator()->PreAnswer(queries[qi], db.graph());
      ASSERT_TRUE(cached.ok() && scratch.ok());
      ASSERT_EQ(*cached, *scratch) << "step=" << step << " q=" << qi
                                   << " cached=" << cached->size()
                                   << " scratch=" << scratch->size();
    }
  }
}

TEST(ViewCacheSnapshots, ConcurrentReadersStayBitIdenticalWhileWriterPatches) {
  // Reader threads answer a fixed query set through epoch-tagged
  // snapshots (view lookups, installs, fenced fallthroughs) while the
  // writer applies mutation batches and queries through the same cache
  // (Maintain patches under concurrent lookups). Every reader-observed
  // answer vector must equal from-scratch evaluation of that snapshot's
  // frozen data — bit-identical, including Skolem-minted head blanks.
  Dictionary dict;
  Database db(&dict, EagerViewOptions());
  std::vector<Term> universe = Universe(&dict);
  Rng writer_rng(11);
  for (int i = 0; i < 12; ++i) {
    db.Insert(RandomTriple(universe, &writer_rng, 0.4));
  }
  std::vector<Query> queries;
  queries.push_back(testing::Q(&dict,
                               "head: ?X u:p ?Y .\n"
                               "body: ?X u:p ?Y .\n"));
  queries.push_back(testing::Q(&dict,
                               "head: ?X u:q ?Y .\n"
                               "body: ?X ?P ?Y .\n"
                               "body: ?Y ?P ?X .\n"));
  queries.push_back(testing::Q(&dict,
                               "head: _:m u:p ?Y .\n"
                               "body: ?X u:p ?Y .\n"));
  db.Snapshot();  // publish before readers start

  constexpr int kReaders = 4;
  constexpr int kWriterSteps = 25;
  std::atomic<bool> stop{false};
  std::atomic<int> reader_failures{0};
  std::atomic<uint64_t> answers_checked{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&db, &queries, &stop, &reader_failures,
                          &answers_checked] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const DatabaseSnapshot> snap = db.Snapshot();
        for (const Query& q : queries) {
          Result<std::vector<Graph>> cached = snap->PreAnswer(q);
          Result<std::vector<Graph>> scratch =
              db.evaluator()->PreAnswer(q, snap->data());
          if (!cached.ok() || !scratch.ok() || *cached != *scratch) {
            reader_failures.fetch_add(1, std::memory_order_relaxed);
          }
          answers_checked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (int step = 0; step < kWriterSteps; ++step) {
    MutationBatch batch;
    batch.Insert(RandomTriple(universe, &writer_rng, 0.5));
    batch.Insert(RandomTriple(universe, &writer_rng, 0.5));
    if (db.size() > 0 && writer_rng.Chance(0.3)) {
      batch.Erase(db.graph().triples()[writer_rng.Below(db.size())]);
    }
    db.Apply(batch);
    for (const Query& q : queries) {
      Result<std::vector<Graph>> writer_answers = db.PreAnswer(q);
      EXPECT_TRUE(writer_answers.ok());
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_GT(answers_checked.load(), 0u);
  const DatabaseStats stats = db.CollectStats();
  EXPECT_GT(stats.views.installs, 0u);
  EXPECT_GT(stats.views.hits, 0u);
}

TEST(DatabaseStatsAtomics, CopyAndResetBehave) {
  Dictionary dict;
  Database db(&dict);
  db.Insert(Triple(dict.Iri("a"), vocab::kType, dict.Iri("b")));
  (void)db.EntailsTriple(Triple(dict.Iri("a"), vocab::kType, dict.Iri("b")));
  DatabaseStats copy = db.stats();
  EXPECT_EQ(copy.inserts.load(), 1u);
  EXPECT_EQ(copy.membership_queries.load(), 1u);
  db.ResetStats();
  EXPECT_EQ(db.stats().inserts.load(), 0u);
}

}  // namespace
}  // namespace swdb
