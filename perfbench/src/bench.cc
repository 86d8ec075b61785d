#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <unordered_set>
#include <utility>

#include "inference/closure.h"
#include "normal/core.h"
#include "paths/path.h"
#include "rdf/iso.h"

namespace perfbench {

using swdb::Database;
using swdb::DatabaseSnapshot;
using swdb::Graph;
using swdb::RequestKind;
using swdb::Result;
using swdb::ServingRequest;
using swdb::TemplateId;
using swdb::Term;
using swdb::Triple;

namespace {

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

// The union post-processing PreAnswer(UnionQuery) applies: first branch
// error wins, then concatenate, sort, dedupe.
Result<std::vector<Graph>> CombineBranches(
    std::vector<Result<std::vector<Graph>>> parts) {
  std::vector<Graph> all;
  for (auto& part : parts) {
    if (!part.ok()) return part.status();
    all.insert(all.end(), std::make_move_iterator(part->begin()),
               std::make_move_iterator(part->end()));
  }
  std::sort(all.begin(), all.end(), [](const Graph& a, const Graph& b) {
    return a.triples() < b.triples();
  });
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

void Store(Result<std::vector<Graph>> r, ReadOutput* out) {
  if (!r.ok()) {
    out->error = true;
    return;
  }
  out->answers = r->size();
  out->graphs = std::move(*r);
}

// Citation targets are always earlier papers, so the graph is acyclic and
// (references)+ from src is exactly the set BFS reaches.
std::vector<Term> BfsReach(const Graph& g, Term pred, Term src) {
  std::vector<Term> frontier{src};
  std::unordered_set<Term> seen{src};
  std::vector<Term> out;
  while (!frontier.empty()) {
    const Term u = frontier.back();
    frontier.pop_back();
    for (const Triple& t : g.Matches(u, pred, std::nullopt)) {
      if (seen.insert(t.o).second) {
        out.push_back(t.o);
        frontier.push_back(t.o);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Term> ClosureTypes(const Graph& closure, Term node) {
  std::vector<Term> out;
  for (const Triple& t :
       closure.Matches(node, swdb::vocab::kType, std::nullopt)) {
    out.push_back(t.o);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  // Thread budget: readers + writer thread + kSwdbThreads <= 4 cores.
  static const std::vector<WorkloadSpec> kAll = {
      {"read_uniform", 500'000, 0.0, 3, false, false, false, 0.01},
      {"read_hot", 500'000, 0.0, 3, true, false, false, 0.01},
      {"write_ground", 1'000'000, 0.0, 2, false, true, false, 0.05},
      {"write_blank", 20'000, 0.1, 0, false, false, true, 0.5},
  };
  return kAll;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL + 1;
}

std::unique_ptr<Rig> Setup(const WorkloadSpec& spec) {
  auto rig = std::make_unique<Rig>();
  swdb::Sp2bSpec gen_spec;
  gen_spec.target_triples = spec.triples;
  gen_spec.seed = kDatasetSeed;
  gen_spec.blank_author_fraction = spec.blank_author_fraction;

  const int64_t t0 = NowNs();
  rig->dict = std::make_unique<swdb::Dictionary>();
  rig->gen = std::make_unique<swdb::Sp2bGenerator>(gen_spec, rig->dict.get());
  Graph corpus = rig->gen->GenerateCorpus();
  const int64_t t1 = NowNs();
  rig->db = std::make_unique<Database>(rig->dict.get());
  rig->db->InsertGraph(corpus);
  const int64_t t2 = NowNs();
  // The Database keeps the published snapshot (and its nf) alive.
  const std::shared_ptr<const DatabaseSnapshot> first = rig->db->Snapshot();
  const int64_t t3 = NowNs();
  (void)first->normalized();
  const int64_t t4 = NowNs();

  rig->times.corpus_s = Seconds(t0, t1);
  rig->times.bulk_load_s = Seconds(t1, t2);
  rig->times.first_closure_s = Seconds(t2, t3);
  rig->times.first_nf_s = Seconds(t3, t4);
  rig->corpus_triples = corpus.size();
  rig->mix = std::make_unique<swdb::WorkloadMix>(*rig->gen, rig->dict.get());
  return rig;
}

std::vector<std::string> SpanNames(const swdb::WorkloadMix& mix) {
  std::vector<std::string> names = {
      "request",
      "write",
      "query.snapshot_pin",
      "normal.snapshot_nf",
      "query.probe",
      "inference.apply.insert_only",
      "inference.apply.with_erase",
  };
  swdb::Rng rng(1);
  for (size_t i = 0; i < kTemplateCount; ++i) {
    const auto id = static_cast<TemplateId>(i);
    std::string prefix;
    switch (mix.Build(id, &rng).kind) {
      case RequestKind::kQuery: prefix = "query.preanswer."; break;
      case RequestKind::kUnion:
      case RequestKind::kPremise: prefix = "query.preanswer_batch."; break;
      case RequestKind::kPath: prefix = "paths.eval."; break;
    }
    names.push_back(prefix + std::string(swdb::TemplateName(id)));
  }
  return names;
}

RequestSource::RequestSource(const swdb::WorkloadMix* mix, bool hot)
    : mix_(mix), hot_(hot), weights_(swdb::WorkloadMix::DefaultWeights()) {
  for (const uint32_t w : weights_) total_weight_ += w;
  if (!hot_) return;
  // Largest-remainder split of the pool across templates by weight, at
  // least one request each.
  std::array<size_t, kTemplateCount> size{};
  std::array<double, kTemplateCount> rem{};
  size_t used = 0;
  for (size_t i = 0; i < kTemplateCount; ++i) {
    const double exact = static_cast<double>(kHotPoolSize) * weights_[i] /
                         static_cast<double>(total_weight_);
    size[i] = std::max<size_t>(1, static_cast<size_t>(exact));
    rem[i] = exact - std::floor(exact);
    used += size[i];
  }
  while (used < kHotPoolSize) {
    const size_t i = static_cast<size_t>(
        std::max_element(rem.begin(), rem.end()) - rem.begin());
    size[i] += 1;
    rem[i] = -1;
    used += 1;
  }
  swdb::Rng rng(StreamSeed(kDatasetSeed, 101));
  for (size_t i = 0; i < kTemplateCount; ++i) {
    double acc = 0;
    for (size_t r = 0; r < size[i]; ++r) {
      pool_[i].push_back(mix_->Build(static_cast<TemplateId>(i), &rng));
      acc += 1.0 / static_cast<double>(r + 1);
      cdf_[i].push_back(acc);
    }
    for (double& c : cdf_[i]) c /= acc;
  }
}

const ServingRequest& RequestSource::Next(swdb::Rng* rng,
                                          ServingRequest* scratch) const {
  if (!hot_) {
    *scratch = mix_->Sample(rng);
    return *scratch;
  }
  uint64_t pick = rng->Below(total_weight_);
  size_t id = 0;
  while (id + 1 < kTemplateCount && pick >= weights_[id]) {
    pick -= weights_[id];
    ++id;
  }
  const double u =
      static_cast<double>(rng->Next() >> 11) * (1.0 / 9007199254740992.0);
  const auto& cdf = cdf_[id];
  const size_t rank = std::min<size_t>(
      cdf.size() - 1,
      static_cast<size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                          cdf.begin()));
  return pool_[id][rank];
}

std::shared_ptr<const DatabaseSnapshot> ServeRead(Database* db,
                                                  const ServingRequest& req,
                                                  SpanLog* log,
                                                  ReadOutput* out) {
  ScopedSpan root(log, kSpanRequest);
  std::shared_ptr<const DatabaseSnapshot> snap;
  {
    ScopedSpan span(log, kSpanPin);
    snap = db->Snapshot();
  }
  {
    // Called explicitly so nf wait is split from query time.
    ScopedSpan span(log, kSpanNf);
    (void)snap->normalized();
  }
  ScopedSpan span(log, TemplateSpan(req.template_id));
  switch (req.kind) {
    case RequestKind::kQuery:
      Store(snap->PreAnswer(req.query), out);
      break;
    case RequestKind::kUnion:
    case RequestKind::kPremise: {
      // Premise requests are served as their premise-free Ωq union
      // (Prop. 5.9): one batched evaluation, then the union combine.
      auto parts = snap->PreAnswerBatch(req.union_q.branches);
      Store(CombineBranches(std::move(parts)), out);
      break;
    }
    case RequestKind::kPath:
      out->nodes = swdb::EvalPathFrom(snap->data(), *req.path,
                                      req.path_sources);
      out->answers = out->nodes.size();
      break;
  }
  return snap;
}

bool RefereeAgrees(Database* db, Term references, const DatabaseSnapshot& snap,
                   const ServingRequest& req, const ReadOutput& served) {
  swdb::QueryEvaluator* eval = db->evaluator();
  auto same = [&served](const Result<std::vector<Graph>>& expected) {
    if (!expected.ok()) return served.error;
    return !served.error && served.graphs == *expected;
  };
  switch (req.kind) {
    case RequestKind::kQuery:
      return same(eval->PreAnswerPrenormalized(req.query, snap.normalized()));
    case RequestKind::kUnion:
    case RequestKind::kPremise: {
      std::vector<Result<std::vector<Graph>>> parts;
      for (const swdb::Query& branch : req.union_q.branches) {
        parts.push_back(
            eval->PreAnswerPrenormalized(branch, snap.normalized()));
      }
      return same(CombineBranches(std::move(parts)));
    }
    case RequestKind::kPath: {
      const std::vector<Term> expected =
          req.template_id == TemplateId::kCitationReach
              ? BfsReach(snap.data(), references, req.path_sources[0])
              : ClosureTypes(snap.closure(), req.path_sources[0]);
      return served.nodes == expected;
    }
  }
  return false;
}

bool AuditSnapshot(const DatabaseSnapshot& snap) {
  const Graph closure = swdb::RdfsClosure(snap.data());
  if (!(closure == snap.closure())) return false;
  // NormalForm(g) is Core(RdfsClosure(g)); reusing the closure above
  // halves the audit's cost at 1M triples.
  return swdb::AreIsomorphic(snap.normalized(), swdb::Core(closure));
}

Writer::Writer(Rig* rig, uint64_t seed)
    : rig_(rig), rng_(StreamSeed(seed, 0)) {
  vp_ = rig->dict->Var("p");
  vo_ = rig->dict->Var("o");
}

WriteCycle Writer::Cycle(int64_t due_ns, SpanLog* log) {
  WriteCycle c;
  Database* db = rig_->db.get();
  swdb::MutationBatch batch;
  for (size_t i = 0; i < kBatchErases && !reservoir_.empty(); ++i) {
    const size_t idx = rng_.Below(reservoir_.size());
    batch.Erase(reservoir_[idx]);
    reservoir_[idx] = reservoir_.back();
    reservoir_.pop_back();
  }
  c.with_erase = !batch.empty();
  const std::vector<Triple> fresh =
      rig_->gen->NextPublications(kBatchInserts);
  for (const Triple& t : fresh) batch.Insert(t);
  const Term paper = rig_->gen->papers().back();
  swdb::Query probe;
  probe.body = Graph({Triple(paper, vp_, vo_)});
  probe.head = probe.body;

  const swdb::DatabaseStats before = db->CollectStats();
  std::this_thread::sleep_until(
      Clock::time_point(std::chrono::nanoseconds(due_ns)));
  const int64_t start = NowNs();
  c.late_ms = static_cast<double>(start - due_ns) / 1e6;
  Result<std::vector<Graph>> answers = std::vector<Graph>{};
  {
    ScopedSpan root(log, kSpanWrite);
    swdb::Database::ApplyResult applied;
    {
      ScopedSpan span(log, c.with_erase ? kSpanApplyWithErase
                                        : kSpanApplyInsertOnly);
      applied = db->Apply(batch);
    }
    {
      ScopedSpan span(log, kSpanPin);
      c.snap = db->Snapshot();
    }
    {
      ScopedSpan span(log, kSpanNf);
      (void)c.snap->normalized();
    }
    ScopedSpan span(log, kSpanProbe);
    answers = c.snap->PreAnswer(probe);
    c.inserted = applied.inserted;
    c.erased = applied.erased;
  }
  c.visible_ms = static_cast<double>(NowNs() - start) / 1e6;
  const swdb::DatabaseStats after = db->CollectStats();

  c.applied = c.inserted + c.erased;
  c.overdeleted = Delta(before.closure_overdeleted, after.closure_overdeleted);
  c.rederived = Delta(before.closure_rederived, after.closure_rederived);
  c.delta_derived =
      Delta(before.closure_delta_derived, after.closure_delta_derived);
  c.nf_builds = Delta(before.snapshot_nf_builds, after.snapshot_nf_builds);
  c.lean_hits = after.lean_cache.cross_hits - before.lean_cache.cross_hits;
  c.lean_misses = after.lean_cache.misses - before.lean_cache.misses;

  // Fresh means: every ground triple the batch inserted about the paper
  // is a single answer of the probe (core folding never drops ground
  // triples).
  if (answers.ok()) {
    c.probe_answers = answers->size();
    c.probe_ok = true;
    for (const Triple& t : fresh) {
      if (t.s != paper || !t.IsGround()) continue;
      const Graph want({t});
      if (std::find(answers->begin(), answers->end(), want) ==
          answers->end()) {
        c.probe_ok = false;
      }
    }
  }

  for (const Triple& t : fresh) reservoir_.push_back(t);
  return c;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

void ResetPeakRss() {
  // "5" resets VmHWM to the current RSS (proc(5), clear_refs).
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

}  // namespace perfbench
