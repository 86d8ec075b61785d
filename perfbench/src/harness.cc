#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace perfbench {

Percentile NearestRank(const std::vector<double>& sorted, double q) {
  Percentile p;
  const size_t n = sorted.size();
  if (n == 0) return p;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  p.value = sorted[rank - 1];
  p.rank = rank;
  p.beyond = n - rank;
  return p;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

LatencySummary Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  LatencySummary s;
  s.count = samples.size();
  s.p50 = NearestRank(samples, 0.50);
  s.p99 = NearestRank(samples, 0.99);
  return s;
}

uint32_t SpanLog::Begin(uint16_t name) {
  Span s;
  if (open_.empty()) {
    request_ = next_request_++;
  } else {
    s.parent = open_.back();
  }
  s.request = request_;
  s.name = name;
  const uint32_t index = static_cast<uint32_t>(spans_.size());
  open_.push_back(index);
  // Stamp the start last, so bookkeeping is charged to the parent.
  s.start_ns = NowNs();
  spans_.push_back(s);
  return index;
}

void SpanLog::End(uint32_t index) {
  spans_[index].end_ns = NowNs();
  // Spans close innermost first (ScopedSpan is RAII).
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent != kNoParent && s.parent < spans.size()) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;  // covered up to here
    for (auto [b, e] : kids) {
      b = std::max(b, reach);
      e = std::min(e, s.end_ns);
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    self[i] = s.duration_ns() - covered;
  }
  return self;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (const char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (const char c : unit) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '/' ||
                    c == '%' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

bool MetricSet::Add(std::string_view name, double value,
                    std::string_view unit) {
  if (!ValidMetricName(name) || !ValidUnit(unit) || !std::isfinite(value) ||
      Find(name) != nullptr) {
    return false;
  }
  metrics_.push_back(Metric{std::string(name), value, std::string(unit)});
  return true;
}

const Metric* MetricSet::Find(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string FormatNumber(double v) {
  char buf[32];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);  // counts stay integers
    return buf;
  }
  for (int digits = 1; digits <= 17; ++digits) {
    std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string ResultLine(const FailureTally& tally, const MetricSet& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.metrics()) {
    if (!first) out += ", ";
    first = false;
    // Names and units are validated ASCII without quotes or backslashes.
    out += "\"" + m.name + "\": {\"value\": " + FormatNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
