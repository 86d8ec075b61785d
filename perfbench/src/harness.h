#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Library-independent helpers of the benchmark harness: the percentile
// rule, span recording and self-time attribution, metric naming, failure
// accounting and the result line. Kept apart from the workload code so
// tests/harness_test.cc can pin them without building a database.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles.

/// A percentile is supported by its sample when at least this many
/// samples lie beyond it; with fewer it is close to the sample maximum.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile of an ascending sample: the value at 1-based
/// rank ceil(q * n), plus how many samples lie strictly beyond that rank.
struct Percentile {
  double value = 0;
  size_t rank = 0;    ///< 1-based; 0 for an empty sample
  size_t beyond = 0;  ///< n - rank
  bool supported() const { return beyond >= kMinSamplesBeyond; }
};
Percentile NearestRank(const std::vector<double>& sorted, double q);

/// Median of an unsorted sample (mean of the middle two for even n);
/// 0 for an empty sample.
double Median(std::vector<double> v);

/// p50 and p99 of one latency sample, with the sample count.
struct LatencySummary {
  size_t count = 0;
  Percentile p50;
  Percentile p99;
};
LatencySummary Summarize(std::vector<double> samples);

// ---------------------------------------------------------------------------
// Spans.

using Clock = std::chrono::steady_clock;
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline constexpr uint32_t kNoParent = 0xffffffffu;

/// One timed interval at a layer boundary. `parent` indexes the enclosing
/// span in the same SpanLog (kNoParent for a request's root span); every
/// span of one request carries the request's id.
struct Span {
  uint64_t request = 0;
  uint32_t parent = kNoParent;
  uint16_t name = 0;  ///< index into the caller's name table
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Per-thread, append-only span store. Spans are kept in memory and
/// written out after the run; one log is only ever touched by its thread.
class SpanLog {
 public:
  /// Opens a span under the innermost open one (a root when none is
  /// open; a root starts a new request id). Returns its index.
  uint32_t Begin(uint16_t name);
  void End(uint32_t index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
  uint64_t next_request_ = 0;
  uint64_t request_ = 0;
};

/// RAII span; a null log makes it a no-op, so untraced runs pay one
/// branch per boundary.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, uint16_t name)
      : log_(log), index_(log != nullptr ? log->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  uint32_t index_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children counted once,
/// children clipped to the parent).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Metrics and the result line.

/// 1 to 64 characters from [A-Za-z0-9_.-], starting with a letter or digit.
bool ValidMetricName(std::string_view name);
/// 1 to 16 characters from [A-Za-z0-9_/%.-], as in "ms", "1/s", "count".
bool ValidUnit(std::string_view unit);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// An ordered set of uniquely named metrics. Add() refuses (returns
/// false) a malformed or repeated name, a malformed unit or a non-finite
/// value.
class MetricSet {
 public:
  bool Add(std::string_view name, double value, std::string_view unit);
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(std::string_view name) const;

 private:
  std::vector<Metric> metrics_;
};

/// Operations attempted and the failures among them. failed_share is
/// (errors + referee mismatches + audit failures) / attempted.
struct FailureTally {
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t mismatches = 0;
  uint64_t audit_failures = 0;

  uint64_t failed() const { return errors + mismatches + audit_failures; }
  double share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted);
  }
};

/// A number with all its digits (shortest round-trip form).
std::string FormatNumber(double v);

/// The one-line JSON result:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
std::string ResultLine(const FailureTally& tally, const MetricSet& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
