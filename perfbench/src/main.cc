// The repository benchmark: one workload, one seed, one measured window.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--git-rev <rev>] [--git-dirty <0|1>]
//
// Prints a run stamp, every metric as "metric <name> <value> <unit>", and
// as its last line the JSON result: end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1. Exits 1 when any referee check, audit
// or probe failed. See README.md for the workloads and the metric map.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "harness.h"

namespace perfbench {
namespace {

using swdb::DatabaseSnapshot;
using swdb::DatabaseStats;
using swdb::ServingRequest;

constexpr int kSetupRepeats = 3;
constexpr double kWarmupS = 1.0;
constexpr int kIdleBatches = 8;  // read-only workloads: writes on set-up 2
constexpr uint64_t kNoEpoch = ~uint64_t{0};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string git_rev = "unknown";
  std::string git_dirty = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = static_cast<int>(std::strtol(v, &end, 10));
      if (*end != '\0' || a->seconds < 1 || a->seconds > 60) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] == '1';
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else if (flag == "--git-rev") {
      a->git_rev = v;
    } else if (flag == "--git-dirty") {
      a->git_dirty = v;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

// One served read of the measured window.
struct ReadRecord {
  int64_t end_ns = 0;
  double latency_us = 0;
  uint64_t answers = 0;
  uint8_t template_id = 0;
  bool traced = false;
  bool error = false;
};

// A read kept for the referees, with the snapshot it was served from.
struct CheckSample {
  ServingRequest req;
  ReadOutput out;
  std::shared_ptr<const DatabaseSnapshot> snap;
};

// Everything one thread produced; only that thread touches it until joined.
struct ThreadOut {
  std::vector<ReadRecord> reads;
  std::vector<CheckSample> samples;
  std::vector<WriteCycle> cycles;
  SpanLog log;
};

// State the window's threads share.
struct Window {
  Rig* rig = nullptr;
  const WorkloadSpec* spec = nullptr;
  const RequestSource* source = nullptr;
  uint64_t seed = 0;
  bool trace = false;
  int64_t t0 = 0;
  int64_t t_end = 0;
  std::atomic<bool> stop{false};
  // Epoch of the retained write snapshot whose reads the referees judge;
  // read-only workloads judge every read (one snapshot).
  std::atomic<uint64_t> audit_epoch{kNoEpoch};
};

void ServeOne(Window* w, swdb::Rng* rng, ServingRequest* scratch,
              ThreadOut* out) {
  const ServingRequest& req = w->source->Next(rng, scratch);
  const bool keep = rng->Chance(w->spec->check_fraction);
  // A traced run traces every other read of each thread, so the traced
  // and untraced halves see the same conditions (trace.overhead_pct).
  const bool traced = w->trace && out->reads.size() % 2 == 0;
  ReadOutput ro;
  const int64_t start = NowNs();
  std::shared_ptr<const DatabaseSnapshot> snap =
      ServeRead(w->rig->db.get(), req, traced ? &out->log : nullptr, &ro);
  const int64_t end = NowNs();
  ReadRecord r;
  r.end_ns = end;
  r.latency_us = static_cast<double>(end - start) / 1e3;
  r.answers = ro.answers;
  r.template_id = static_cast<uint8_t>(req.template_id);
  r.traced = traced;
  r.error = ro.error;
  out->reads.push_back(r);
  const bool read_only = !w->spec->scheduled_writer && !w->spec->write_loop;
  if (keep && (read_only || snap->epoch() == w->audit_epoch.load())) {
    out->samples.push_back(CheckSample{req, std::move(ro), std::move(snap)});
  }
}

void ReaderLoop(Window* w, int tid, ThreadOut* out) {
  swdb::Rng rng(StreamSeed(w->seed, 1 + static_cast<uint64_t>(tid)));
  ServingRequest scratch;
  while (!w->stop.load(std::memory_order_acquire)) {
    ServeOne(w, &rng, &scratch, out);
  }
}

// Index of the write batch whose snapshot is retained for the audit: a
// with-erase batch among the counted ones, chosen by the seed.
int AuditBatch(uint64_t seed) { return 1 + static_cast<int>(seed % 2); }

// Keeps a write batch's record; its snapshot is retained for the audit
// (and its reads for the referees) only when `retain`: for the audit
// batch, and in the write loop also the first, insert-only batch.
void KeepCycle(Window* w, int k, WriteCycle c, bool retain, ThreadOut* out) {
  if (retain && (k == AuditBatch(w->seed) || (w->spec->write_loop && k == 0))) {
    w->audit_epoch.store(c.snap->epoch());
  } else {
    c.snap.reset();
  }
  out->cycles.push_back(std::move(c));
}

void ScheduledWriter(Window* w, ThreadOut* out) {
  Writer writer(w->rig, w->seed);
  for (int k = 0;; ++k) {
    const int64_t due =
        w->t0 + static_cast<int64_t>(k * kWriterPeriodS * 1e9);
    if (k >= kCountedBatches && due >= w->t_end) break;
    KeepCycle(w, k, writer.Cycle(due, w->trace ? &out->log : nullptr), true,
              out);
  }
}

struct ReplayCounts {
  std::array<uint64_t, kTemplateCount> answers{};
  uint64_t ops = 0;
  uint64_t errors = 0;
  uint64_t rows_scanned = 0;
  uint64_t matches_calls = 0;
  uint64_t view_hits = 0;
  uint64_t view_misses = 0;
};

// Scan counters of the pinned snapshot's graphs, each object once.
void SumGraphStats(const DatabaseSnapshot& snap, uint64_t* rows,
                   uint64_t* calls) {
  std::vector<const swdb::Graph*> graphs = {&snap.data(), &snap.closure(),
                                            &snap.normalized()};
  std::sort(graphs.begin(), graphs.end());
  graphs.erase(std::unique(graphs.begin(), graphs.end()), graphs.end());
  *rows = 0;
  *calls = 0;
  for (const swdb::Graph* g : graphs) {
    const swdb::GraphStats s = g->Stats();
    *rows += s.rows_scanned;
    *calls += s.matches_calls;
  }
}

// Fixed-quota single-threaded replay of the workload's read stream on a
// fresh database: its counters repeat exactly for a given seed.
ReplayCounts Replay(Rig* rig, const WorkloadSpec& spec, uint64_t seed) {
  ReplayCounts c;
  RequestSource source(rig->mix.get(), spec.hot);
  swdb::Rng rng(StreamSeed(seed, 50));
  ServingRequest scratch;
  std::shared_ptr<const DatabaseSnapshot> snap = rig->db->Snapshot();
  uint64_t rows0 = 0, calls0 = 0, rows1 = 0, calls1 = 0;
  SumGraphStats(*snap, &rows0, &calls0);
  const DatabaseStats before = rig->db->CollectStats();
  for (uint64_t i = 0; i < kReplayOps; ++i) {
    const ServingRequest& req = source.Next(&rng, &scratch);
    ReadOutput ro;
    ServeRead(rig->db.get(), req, nullptr, &ro);
    c.answers[static_cast<size_t>(req.template_id)] += ro.answers;
    c.errors += ro.error ? 1 : 0;
    c.ops += 1;
  }
  const DatabaseStats after = rig->db->CollectStats();
  SumGraphStats(*snap, &rows1, &calls1);
  c.rows_scanned = rows1 - rows0;
  c.matches_calls = calls1 - calls0;
  c.view_hits = after.views.hits - before.views.hits;
  c.view_misses = after.views.misses - before.views.misses;
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Counter deltas, summed over the databases a phase ran on.
struct Counters {
  double publishes = 0, view_patches = 0, view_invalidations = 0;
  double nf_builds = 0, leaves_copied = 0, lean_hits = 0, lean_misses = 0;
  double view_hits = 0, view_misses = 0, batch_deduped = 0, batch_queries = 0;

  void Add(const DatabaseStats& b, const DatabaseStats& a) {
    publishes += Delta(b.snapshot_publishes, a.snapshot_publishes);
    view_patches += a.views.patches - b.views.patches;
    view_invalidations += a.views.invalidations - b.views.invalidations;
    nf_builds += Delta(b.snapshot_nf_builds, a.snapshot_nf_builds);
    leaves_copied += Delta(b.publish_leaves_copied, a.publish_leaves_copied);
    lean_hits += a.lean_cache.cross_hits - b.lean_cache.cross_hits;
    lean_misses += a.lean_cache.misses - b.lean_cache.misses;
    view_hits += a.views.hits - b.views.hits;
    view_misses += a.views.misses - b.views.misses;
    batch_deduped += Delta(b.batch_deduped, a.batch_deduped);
    batch_queries += Delta(b.batch_queries, a.batch_queries);
  }
};

// Closed-loop writer on the calling thread: `cycles` write→probe cycles
// back to back, each followed by `reads` reads. Returns its seconds.
double WriteLoop(Window* w, int cycles, int reads, bool retain,
                 ThreadOut* out, Counters* read_side, Counters* write_side) {
  Writer writer(w->rig, w->seed);
  swdb::Rng rng(StreamSeed(w->seed, 1));
  ServingRequest scratch;
  const DatabaseStats before = w->rig->db->CollectStats();
  const int64_t t0 = NowNs();
  int64_t due = t0;
  for (int k = 0; k < cycles; ++k) {
    KeepCycle(w, k, writer.Cycle(due, w->trace ? &out->log : nullptr), retain,
              out);
    for (int r = 0; r < reads; ++r) ServeOne(w, &rng, &scratch, out);
    due = NowNs();
  }
  const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
  const DatabaseStats after = w->rig->db->CollectStats();
  if (read_side != nullptr) read_side->Add(before, after);
  write_side->Add(before, after);
  return seconds;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

// Span aggregates across every thread's log.
struct SpanAgg {
  std::vector<double> durations_us;
  double self_ns = 0;
};

void WriteTrace(const std::string& path, const std::string& stamp,
                const std::vector<std::string>& names,
                const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"stamp\": %s, \"names\": [", stamp.c_str());
  for (size_t i = 0; i < names.size(); ++i) {
    std::fprintf(f, "%s%s", i ? ", " : "", JsonString(names[i]).c_str());
  }
  std::fprintf(f, "]}\n");
  for (size_t t = 0; t < logs.size(); ++t) {
    const std::vector<Span>& spans = logs[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"thread\": %zu, \"request\": %" PRIu64
                   ", \"span\": %zu, \"parent\": %lld, \"name\": %u"
                   ", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                   t, s.request, i,
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   static_cast<unsigned>(s.name),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  std::fclose(f);
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  // Before anything touches the shared pool, which reads it once.
  setenv("SWDB_THREADS", std::to_string(kSwdbThreads).c_str(), 1);

  FailureTally tally;
  std::vector<SetupTimes> setups;
  std::vector<ThreadOut> outs(static_cast<size_t>(std::max(spec->readers, 0)) +
                              1);
  ThreadOut& main_out = outs.back();  // the writer thread or the main loop
  Window w;
  w.spec = spec;
  w.seed = args.seed;
  w.trace = args.trace;
  Counters read_side, write_side;
  ReplayCounts replay;
  double window_s = 0;
  double peak_rss_mb = 0;
  std::unique_ptr<Rig> rig;
  std::vector<std::string> names;

  // Every set-up is timed; set-up 1 also hosts the exact-count replay.
  //  - write_loop: each set-up runs one episode of the write loop, so the
  //    loop's samples come from three stretches of the run and each
  //    episode sees the same sequence of database states.
  //  - read-only workloads: set-up 2 hosts the writer's batches on the
  //    idle database; the last set-up serves the read-only window.
  //  - scheduled writer: the last set-up serves readers and writer.
  for (int i = 0; i < kSetupRepeats; ++i) {
    const bool last = i + 1 == kSetupRepeats;
    rig.reset();  // one database in memory at a time
    rig = Setup(*spec);
    setups.push_back(rig->times);
    if (i == 0) replay = Replay(rig.get(), *spec, args.seed);
    RequestSource source(rig->mix.get(), spec->hot);
    w.rig = rig.get();
    w.source = &source;
    // peak_rss_mb covers the measured phases only, not set-up garbage the
    // allocator still holds.
    ResetPeakRss();
    bool measured = true;
    if (spec->write_loop) {
      const int cycles = std::max(
          kCountedBatches,
          static_cast<int>(std::lround(args.seconds * kWriteLoopCyclesPerS /
                                       kSetupRepeats)));
      window_s += WriteLoop(&w, cycles, kReadsPerCycle, last, &main_out,
                            &read_side, &write_side);
    } else if (i == 1 && !spec->scheduled_writer) {
      WriteLoop(&w, kIdleBatches, 0, false, &main_out, nullptr, &write_side);
    } else if (last) {
      // Readers start kWarmupS before the window (first-touch page
      // faults, view-cache fill); the scheduled writer's first batch is
      // due at t0.
      const DatabaseStats before = rig->db->CollectStats();
      w.t0 = NowNs() + static_cast<int64_t>(kWarmupS * 1e9);
      w.t_end = w.t0 + static_cast<int64_t>(args.seconds) * 1'000'000'000;
      std::vector<std::thread> threads;
      for (int t = 0; t < spec->readers; ++t) {
        threads.emplace_back(ReaderLoop, &w, t, &outs[static_cast<size_t>(t)]);
      }
      std::thread writer;
      if (spec->scheduled_writer) {
        writer = std::thread(ScheduledWriter, &w, &main_out);
      }
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(w.t_end)));
      w.stop.store(true, std::memory_order_release);
      for (std::thread& t : threads) t.join();
      if (writer.joinable()) writer.join();
      const DatabaseStats after = rig->db->CollectStats();
      read_side.Add(before, after);
      if (spec->scheduled_writer) write_side.Add(before, after);
      window_s = args.seconds;
    } else {
      measured = false;
    }
    if (measured) peak_rss_mb = std::max(peak_rss_mb, PeakRssMb());
    if (last) names = SpanNames(*rig->mix);
    w.source = nullptr;
  }
  const DatabaseStats final_stats = rig->db->CollectStats();

  // ---- Referees, probes and audits: all outside the measured window.
  std::vector<ReadRecord> reads;
  for (const ThreadOut& o : outs) {
    reads.insert(reads.end(), o.reads.begin(), o.reads.end());
  }
  const std::vector<WriteCycle>& cycles = main_out.cycles;
  uint64_t checks = 0;
  for (ThreadOut& o : outs) {
    for (const CheckSample& s : o.samples) {
      checks += 1;
      if (!RefereeAgrees(rig->db.get(), rig->gen->vocab().references, *s.snap,
                         s.req, s.out)) {
        tally.mismatches += 1;
      }
    }
    o.samples.clear();
  }
  uint64_t audits = 0;
  for (const WriteCycle& c : cycles) {
    tally.attempted += 1;
    if (!c.probe_ok) tally.mismatches += 1;
    if (c.snap != nullptr) {
      audits += 1;
      tally.attempted += 1;
      if (!AuditSnapshot(*c.snap)) tally.audit_failures += 1;
    }
  }
  for (const ReadRecord& r : reads) {
    tally.attempted += 1;
    tally.errors += r.error ? 1 : 0;
  }

  // ---- End-to-end metrics.
  // Per template and tracing state: read latencies.
  std::array<std::array<std::vector<double>, 2>, kTemplateCount> lat_by{};
  std::vector<double> lat_window;
  uint64_t window_reads = 0, answers = 0;
  for (const ReadRecord& r : reads) {
    if (!spec->write_loop && (r.end_ns < w.t0 || r.end_ns >= w.t_end)) {
      continue;
    }
    window_reads += 1;
    answers += r.answers;
    lat_by[r.template_id][r.traced].push_back(r.latency_us);
    if (!args.trace || !r.traced) lat_window.push_back(r.latency_us);
  }
  const LatencySummary lat = Summarize(lat_window);

  std::vector<double> visible_ms, setup_s;
  double applied = 0, visible_s = 0, late_max_ms = 0;
  double overdeleted = 0, rederived = 0, delta_derived = 0;
  for (const WriteCycle& c : cycles) {
    visible_ms.push_back(c.visible_ms);
    applied += static_cast<double>(c.applied);
    visible_s += c.visible_ms / 1e3;
    late_max_ms = std::max(late_max_ms, c.late_ms);
    overdeleted += static_cast<double>(c.overdeleted);
    rederived += static_cast<double>(c.rederived);
    delta_derived += static_cast<double>(c.delta_derived);
  }
  for (const SetupTimes& t : setups) setup_s.push_back(t.total());

  MetricSet e2e;
  bool ok = true;
  ok &= e2e.Add("read_qps", static_cast<double>(window_reads) / window_s,
                "req/s");
  ok &= e2e.Add("read_p50_us", lat.p50.value, "us");
  ok &= e2e.Add("read_p99_us", lat.p99.value, "us");
  ok &= e2e.Add("write_visible_p50_ms", Median(visible_ms), "ms");
  ok &= e2e.Add("write_triples_per_s", Ratio(applied, visible_s), "triples/s");
  ok &= e2e.Add("setup_s", Median(setup_s), "s");
  ok &= e2e.Add("peak_rss_mb", peak_rss_mb, "MiB");

  // ---- Per-layer metrics.
  MetricSet layer;
  std::vector<SpanAgg> agg(names.size());
  double root_ns = 0, root_self_ns = 0;
  std::vector<const SpanLog*> logs;
  for (const ThreadOut& o : outs) {
    logs.push_back(&o.log);
    const std::vector<Span>& spans = o.log.spans();
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      SpanAgg& a = agg[spans[i].name];
      a.durations_us.push_back(static_cast<double>(spans[i].duration_ns()) /
                               1e3);
      a.self_ns += static_cast<double>(self[i]);
      if (spans[i].parent == kNoParent) {
        root_ns += static_cast<double>(spans[i].duration_ns());
        root_self_ns += static_cast<double>(self[i]);
      }
    }
  }
  if (args.trace) {
    for (size_t n = kSpanPin; n < names.size(); ++n) {
      const LatencySummary s = Summarize(agg[n].durations_us);
      ok &= layer.Add(names[n] + ".p50_us", s.p50.value, "us");
      ok &= layer.Add(names[n] + ".p99_us", s.p99.value, "us");
      ok &= layer.Add(names[n] + ".busy_share", Ratio(agg[n].self_ns, root_ns),
                      "ratio");
    }
  }
  const Counters& rs = read_side;
  const Counters& ws = write_side;
  const double n_cycles = static_cast<double>(cycles.size());
  uint64_t replay_answers = 0;
  for (const uint64_t a : replay.answers) replay_answers += a;

  ok &= layer.Add("query.view_hit_ratio",
                  Ratio(rs.view_hits, rs.view_hits + rs.view_misses), "ratio");
  ok &= layer.Add("query.union_dedupe_ratio",
                  Ratio(rs.batch_deduped, rs.batch_queries), "ratio");
  ok &= layer.Add("query.view_patches_per_publish",
                  Ratio(ws.view_patches, ws.publishes), "count/publish");
  ok &= layer.Add("query.view_invalidations_per_publish",
                  Ratio(ws.view_invalidations, ws.publishes), "count/publish");
  ok &= layer.Add("query.answers_per_op",
                  Ratio(static_cast<double>(answers),
                        static_cast<double>(window_reads)),
                  "answers/op");
  ok &= layer.Add("inference.overdeleted_per_batch",
                  Ratio(overdeleted, n_cycles), "count/batch");
  ok &= layer.Add("inference.rederive_ratio", Ratio(rederived, overdeleted),
                  "ratio");
  ok &= layer.Add("inference.delta_derived_per_batch",
                  Ratio(delta_derived, n_cycles), "count/batch");
  ok &= layer.Add("inference.writer_late_max_ms", late_max_ms, "ms");
  ok &= layer.Add("normal.nf_builds_per_publish",
                  Ratio(ws.nf_builds, ws.publishes), "count/publish");
  ok &= layer.Add("normal.lean_cache_hit_ratio",
                  Ratio(ws.lean_hits, ws.lean_hits + ws.lean_misses), "ratio");
  ok &= layer.Add("rdf.rows_scanned_per_answer",
                  Ratio(static_cast<double>(replay.rows_scanned),
                        static_cast<double>(replay_answers)),
                  "count/answer");
  ok &= layer.Add("rdf.matches_calls_per_op",
                  Ratio(static_cast<double>(replay.matches_calls),
                        static_cast<double>(replay.ops)),
                  "count/op");
  ok &= layer.Add("rdf.publish_leaves_copied_per_publish",
                  Ratio(ws.leaves_copied, ws.publishes), "count/publish");
  ok &= layer.Add("rdf.graph_bytes",
                  static_cast<double>(final_stats.data_graph.bytes_total() +
                                      final_stats.closure_graph.bytes_total()),
                  "B");
  std::vector<double> gen_s, load_s, closure_s, nf_s;
  for (const SetupTimes& t : setups) {
    gen_s.push_back(t.corpus_s);
    load_s.push_back(t.bulk_load_s);
    closure_s.push_back(t.first_closure_s);
    nf_s.push_back(t.first_nf_s);
  }
  ok &= layer.Add("gen.corpus_s", Median(gen_s), "s");
  ok &= layer.Add("query.bulk_load_s", Median(load_s), "s");
  ok &= layer.Add("inference.first_closure_s", Median(closure_s), "s");
  ok &= layer.Add("normal.first_nf_s", Median(nf_s), "s");
  if (args.trace) {
    // Extra read time tracing costs, per template at the mix's shares: in
    // a closed loop, the traced run's read_qps deficit. Per-template
    // medians, so a writer stall landing on either half does not count.
    double extra = 0, base = 0;
    for (const auto& by_state : lat_by) {
      if (by_state[0].empty() || by_state[1].empty()) continue;
      const double n =
          static_cast<double>(by_state[0].size() + by_state[1].size());
      const double untraced = Median(by_state[0]);
      extra += n * (Median(by_state[1]) - untraced);
      base += n * untraced;
    }
    ok &= layer.Add("trace.overhead_pct", Ratio(extra, base) * 100, "%");
    ok &= layer.Add("trace.uncovered_share", Ratio(root_self_ns, root_ns),
                    "ratio");
  }
  // Exact counts: the replay, and the first kCountedBatches write batches.
  for (size_t t = 0; t < kTemplateCount; ++t) {
    ok &= layer.Add(
        "count.replay.answers." +
            std::string(swdb::TemplateName(static_cast<swdb::TemplateId>(t))),
        static_cast<double>(replay.answers[t]), "count");
  }
  ok &= layer.Add("count.replay.rows_scanned",
                  static_cast<double>(replay.rows_scanned), "count");
  ok &= layer.Add("count.replay.matches_calls",
                  static_cast<double>(replay.matches_calls), "count");
  ok &= layer.Add("count.replay.view_hits",
                  static_cast<double>(replay.view_hits), "count");
  ok &= layer.Add("count.replay.view_misses",
                  static_cast<double>(replay.view_misses), "count");
  std::map<std::string, uint64_t> wc;
  for (size_t i = 0; i < cycles.size() && i < kCountedBatches; ++i) {
    const WriteCycle& c = cycles[i];
    wc["inserted"] += c.inserted;
    wc["erased"] += c.erased;
    wc["overdeleted"] += c.overdeleted;
    wc["rederived"] += c.rederived;
    wc["delta_derived"] += c.delta_derived;
    wc["nf_builds"] += c.nf_builds;
    wc["lean_cache_hits"] += c.lean_hits;
    wc["lean_cache_misses"] += c.lean_misses;
    wc["probe_answers"] += c.probe_answers;
  }
  for (const char* k : {"inserted", "erased", "overdeleted", "rederived",
                        "delta_derived", "nf_builds", "lean_cache_hits",
                        "lean_cache_misses", "probe_answers"}) {
    ok &= layer.Add(std::string("count.write.") + k,
                    static_cast<double>(wc[k]), "count");
  }
  if (!ok) {
    std::fprintf(stderr, "perfbench: malformed or duplicate metric\n");
    return 3;
  }

  // ---- Report.
  const std::string stamp =
      "{\"workload\": " + JsonString(spec->name) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + std::to_string(args.seconds) +
      ", \"trace\": " + (args.trace ? "1" : "0") +
      ", \"git_rev\": " + JsonString(args.git_rev) +
      ", \"git_dirty\": " + JsonString(args.git_dirty) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"cpu_model\": " + JsonString(CpuModel()) +
      ", \"swdb_threads\": " + std::to_string(kSwdbThreads) +
      ", \"readers\": " + std::to_string(spec->readers) +
      ", \"corpus_target_triples\": " + std::to_string(spec->triples) +
      ", \"corpus_triples\": " + std::to_string(rig->corpus_triples) +
      ", \"final_triples\": " + std::to_string(rig->db->size()) +
      ", \"blank_author_fraction\": " +
      FormatNumber(spec->blank_author_fraction) + "}";
  std::printf("stamp %s\n", stamp.c_str());
  std::printf(
      "samples reads=%" PRIu64 " latency_samples=%zu p99_rank=%zu"
      " p99_beyond=%zu p99_supported=%d window_s=%.3f write_batches=%zu"
      " checks=%" PRIu64 " audits=%" PRIu64 "\n",
      window_reads, lat.count, lat.p99.rank, lat.p99.beyond,
      lat.p99.supported() ? 1 : 0, window_s, cycles.size(), checks, audits);
  std::printf("setup_s");
  for (const double s : setup_s) std::printf(" %s", FormatNumber(s).c_str());
  std::printf("\nwrite_visible_ms");
  for (const double v : visible_ms) std::printf(" %.3f", v);
  std::printf("\n");
  std::printf("failed_share %s attempted=%" PRIu64 " errors=%" PRIu64
              " mismatches=%" PRIu64 " audit_failures=%" PRIu64 "\n",
              FormatNumber(tally.share()).c_str(), tally.attempted,
              tally.errors, tally.mismatches, tally.audit_failures);
  for (const MetricSet* set : {&e2e, &layer}) {
    for (const Metric& m : set->metrics()) {
      std::printf("metric %s %s %s\n", m.name.c_str(),
                  FormatNumber(m.value).c_str(), m.unit.c_str());
    }
  }
  if (args.trace && !args.trace_out.empty()) {
    WriteTrace(args.trace_out, stamp, names, logs);
  }
  std::printf("%s\n", ResultLine(tally, args.trace ? layer : e2e).c_str());
  std::fflush(stdout);
  return tally.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds "
                 "<1-60> --trace <0|1> [--trace-out <file>] [--git-rev <rev>]"
                 " [--git-dirty <0|1>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
