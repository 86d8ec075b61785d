#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// The benchmark's workloads and the calls it makes into the library.
// Every layer is driven through its public entry points only
// (Database::InsertGraph / Snapshot / Apply, DatabaseSnapshot::normalized
// / PreAnswer / PreAnswerBatch, EvalPathFrom) and observed through the
// counters Database::CollectStats() and Graph::Stats() expose; spans are
// recorded here, around those calls.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gen/sp2b.h"
#include "harness.h"
#include "query/database.h"
#include "serve/workload.h"
#include "util/rng.h"

namespace perfbench {

using swdb::kTemplateCount;

/// One workload: corpus shape, thread budget and traffic. See README.md
/// for why each exists.
struct WorkloadSpec {
  const char* name;
  uint64_t triples;
  double blank_author_fraction;
  int readers;            ///< concurrent reader threads in the window
  bool hot;               ///< requests from the skewed 256-request pool
  bool scheduled_writer;  ///< a writer thread on a fixed 2 s period
  bool write_loop;        ///< single-threaded write→probe→reads loop
  double check_fraction;  ///< share of reads kept for the referees
};

const WorkloadSpec* FindWorkload(std::string_view name);
const std::vector<WorkloadSpec>& Workloads();

// Fixed traffic parameters (README.md, "Workloads").
/// SWDB_THREADS for every workload: with 3 workers write_blank's nf builds
/// were no faster than with 1 and varied twice as much between runs.
inline constexpr int kSwdbThreads = 1;
inline constexpr size_t kBatchInserts = 128;
inline constexpr size_t kBatchErases = 32;
inline constexpr double kWriterPeriodS = 2.0;
inline constexpr int kCountedBatches = 3;     ///< exact write counts: first 3
inline constexpr size_t kHotPoolSize = 256;
inline constexpr uint64_t kReplayOps = 1000;  ///< exact read counts
inline constexpr int kReadsPerCycle = 512;    ///< write_loop reads per cycle
inline constexpr double kWriteLoopCyclesPerS = 2.4;  ///< write_loop length

/// Span names. Template spans follow the fixed ones, one per template,
/// prefixed by how the template is served.
enum SpanName : uint16_t {
  kSpanRequest = 0,
  kSpanWrite,
  kSpanPin,
  kSpanNf,
  kSpanProbe,
  kSpanApplyInsertOnly,
  kSpanApplyWithErase,
  kSpanTemplateBase,
};
inline uint16_t TemplateSpan(swdb::TemplateId id) {
  return static_cast<uint16_t>(kSpanTemplateBase + static_cast<size_t>(id));
}

/// Distinct deterministic Rng seeds per (seed, role).
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// Growth of one DatabaseStats counter between two copies.
inline uint64_t Delta(const std::atomic<uint64_t>& before,
                      const std::atomic<uint64_t>& after) {
  return after.load(std::memory_order_relaxed) -
         before.load(std::memory_order_relaxed);
}

/// Set-up phases, in seconds.
struct SetupTimes {
  double corpus_s = 0;
  double bulk_load_s = 0;
  double first_closure_s = 0;  ///< first Snapshot(): closure + publish
  double first_nf_s = 0;
  double total() const {
    return corpus_s + bulk_load_s + first_closure_s + first_nf_s;
  }
};

/// One freshly built database with its generator and request sampler.
/// Members are declared in dependency order so they are destroyed in
/// reverse: the Database before the Dictionary it borrows.
struct Rig {
  std::unique_ptr<swdb::Dictionary> dict;
  std::unique_ptr<swdb::Sp2bGenerator> gen;
  std::unique_ptr<swdb::Database> db;
  std::unique_ptr<swdb::WorkloadMix> mix;
  SetupTimes times;
  uint64_t corpus_triples = 0;
};

/// The data every run shares: the corpus and the hot request pool come
/// from this seed; --seed varies the traffic (request draws, the writer's
/// erase picks, referee samples, the audited batch). Across corpus seeds,
/// nf builds alone varied 0.53–0.75 s at 20k triples and first closures
/// 3.3–4.7 s at 1M; across pool seeds read_hot's read_p50_us varied 17%.
inline constexpr uint64_t kDatasetSeed = 1;

/// Generates the corpus, bulk-loads it, and builds the first snapshot
/// and its nf — the timed set-up.
std::unique_ptr<Rig> Setup(const WorkloadSpec& spec);

/// Span names, indexed by SpanName / TemplateSpan; template prefixes come
/// from how `mix` serves each template.
std::vector<std::string> SpanNames(const swdb::WorkloadMix& mix);

/// The requests a workload's readers send: fresh uniform draws from the
/// mix, or (hot) a fixed pool of 256 pre-sampled requests split across
/// templates in proportion to the default weights, drawn by template
/// weight and then by Zipf(1) rank inside the template — the template
/// mix stays the default one while the constants repeat.
class RequestSource {
 public:
  RequestSource(const swdb::WorkloadMix* mix, bool hot);
  /// The next request; `scratch` holds uniform draws.
  const swdb::ServingRequest& Next(swdb::Rng* rng,
                                   swdb::ServingRequest* scratch) const;

 private:
  const swdb::WorkloadMix* mix_;
  bool hot_;
  swdb::WorkloadMix::Weights weights_;
  uint32_t total_weight_ = 0;
  std::array<std::vector<swdb::ServingRequest>, kTemplateCount> pool_;
  std::array<std::vector<double>, kTemplateCount> cdf_;
};

/// What one read returned: answer graphs for queries and unions, nodes
/// for paths.
struct ReadOutput {
  bool error = false;
  uint64_t answers = 0;
  std::vector<swdb::Graph> graphs;
  std::vector<swdb::Term> nodes;
};

/// Serves one request: pin → normalized() → PreAnswer, PreAnswerBatch or
/// EvalPathFrom, with a span around each call when `log` is set. Returns
/// the pinned snapshot; the latency window is the whole call.
std::shared_ptr<const swdb::DatabaseSnapshot> ServeRead(
    swdb::Database* db, const swdb::ServingRequest& req, SpanLog* log,
    ReadOutput* out);

/// Re-derives a read's answer on the same snapshot without the view
/// cache, the batch trie or the path evaluator: PreAnswerPrenormalized
/// on the pinned nf per query or union branch, a hand-rolled BFS for
/// citation_reach (over `references`), the closure's rdf:type facts for
/// type_of_path. Returns true when the served output agrees.
bool RefereeAgrees(swdb::Database* db, swdb::Term references,
                   const swdb::DatabaseSnapshot& snap,
                   const swdb::ServingRequest& req, const ReadOutput& served);

/// Maintained closure == RdfsClosure(data) and nf ≅ core(RdfsClosure(data))
/// (NormalForm's definition) for one retained snapshot.
bool AuditSnapshot(const swdb::DatabaseSnapshot& snap);

/// One writer batch and its freshness probe.
struct WriteCycle {
  bool with_erase = false;
  uint64_t applied = 0;  ///< triples inserted + erased
  uint64_t inserted = 0;
  uint64_t erased = 0;
  double visible_ms = 0;  ///< Apply call → probe answer returned
  double late_ms = 0;     ///< start behind schedule
  uint64_t overdeleted = 0;
  uint64_t rederived = 0;
  uint64_t delta_derived = 0;
  uint64_t nf_builds = 0;
  uint64_t lean_hits = 0;
  uint64_t lean_misses = 0;
  uint64_t probe_answers = 0;
  bool probe_ok = false;  ///< the probe saw the batch's fresh paper
  std::shared_ptr<const swdb::DatabaseSnapshot> snap;
};

/// The writer: batches of kBatchInserts fresh publications that also erase
/// kBatchErases of its own earlier inserts (none in the first batch).
class Writer {
 public:
  Writer(Rig* rig, uint64_t seed);
  /// Builds the next batch, waits until `due_ns` (NowNs clock), then
  /// times Apply → pin → normalized() → probe read of the batch's newest
  /// paper. A closed-loop caller passes the end of its previous step as
  /// `due_ns`. Writer-thread only.
  WriteCycle Cycle(int64_t due_ns, SpanLog* log);

 private:
  Rig* rig_;
  swdb::Rng rng_;
  std::vector<swdb::Triple> reservoir_;
  swdb::Term vp_, vo_;
};

/// Peak resident set size of this process since start or the last
/// ResetPeakRss(), in MiB.
double PeakRssMb();
/// Restarts the peak at the current resident set size, so a phase's peak
/// excludes set-up garbage the allocator still holds.
void ResetPeakRss();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
