// Tests for the benchmark harness's own helpers (src/harness.h).

#include "harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRankAndSamplesBeyond) {
  const std::vector<double> v = OneTo(1000);
  const Percentile p50 = NearestRank(v, 0.50);
  EXPECT_EQ(p50.value, 500);
  EXPECT_EQ(p50.rank, 500u);
  EXPECT_EQ(p50.beyond, 500u);
  const Percentile p99 = NearestRank(v, 0.99);
  EXPECT_EQ(p99.value, 990);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_TRUE(p99.supported());
}

TEST(Percentile, P99NeedsTenSamplesBeyond) {
  // 999 samples: rank ceil(989.01) = 990 leaves only 9 beyond.
  const Percentile p = NearestRank(OneTo(999), 0.99);
  EXPECT_EQ(p.rank, 990u);
  EXPECT_EQ(p.beyond, 9u);
  EXPECT_FALSE(p.supported());
}

TEST(Percentile, SmallAndEmptySamples) {
  EXPECT_EQ(NearestRank({}, 0.5).rank, 0u);
  const Percentile one = NearestRank({7.0}, 0.99);
  EXPECT_EQ(one.value, 7.0);
  EXPECT_EQ(one.beyond, 0u);
  EXPECT_EQ(NearestRank(OneTo(3), 0.0).value, 1);  // rank clamps to 1
  EXPECT_EQ(NearestRank(OneTo(3), 1.0).value, 3);
}

TEST(Percentile, SummarizeSortsAndCounts) {
  std::vector<double> v = OneTo(2000);
  std::reverse(v.begin(), v.end());
  const LatencySummary s = Summarize(v);
  EXPECT_EQ(s.count, 2000u);
  EXPECT_EQ(s.p50.value, 1000);
  EXPECT_EQ(s.p99.value, 1980);
  EXPECT_EQ(s.p99.beyond, 20u);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

Span MakeSpan(uint32_t parent, int64_t start, int64_t end) {
  Span s;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, NestedChildren) {
  // root [0,100) > a [10,40) > a1 [15,25);  root > b [50,90)
  const std::vector<Span> spans = {
      MakeSpan(kNoParent, 0, 100), MakeSpan(0, 10, 40), MakeSpan(1, 15, 25),
      MakeSpan(0, 50, 90)};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 30 - 40);
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 40);
  // Self times of one request add up to its root's duration.
  EXPECT_EQ(self[0] + self[1] + self[2] + self[3], 100);
}

TEST(SelfTime, OverlappingAndOverhangingChildrenCountOnce) {
  const std::vector<Span> spans = {MakeSpan(kNoParent, 0, 100),
                                   MakeSpan(0, 10, 50), MakeSpan(0, 30, 60),
                                   MakeSpan(0, 90, 120)};
  // Covered: [10,60) and [90,100) = 60.
  EXPECT_EQ(SelfTimes(spans)[0], 40);
}

TEST(SpanLog, RecordsParentsAndRequestIds) {
  SpanLog log;
  {
    ScopedSpan root(&log, 0);
    { ScopedSpan child(&log, 1); }
    { ScopedSpan child(&log, 2); }
  }
  { ScopedSpan root(&log, 0); }
  { ScopedSpan off(nullptr, 5); }  // untraced: records nothing
  const std::vector<Span>& s = log.spans();
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0].parent, kNoParent);
  EXPECT_EQ(s[1].parent, 0u);
  EXPECT_EQ(s[2].parent, 0u);
  EXPECT_EQ(s[2].name, 2);
  EXPECT_EQ(s[3].parent, kNoParent);
  EXPECT_EQ(s[0].request, s[2].request);
  EXPECT_NE(s[0].request, s[3].request);
  for (const Span& span : s) EXPECT_GE(span.end_ns, span.start_ns);
  EXPECT_LE(s[0].start_ns, s[1].start_ns);
  EXPECT_GE(s[0].end_ns, s[2].end_ns);
}

TEST(MetricNames, Validation) {
  EXPECT_TRUE(ValidMetricName("read_qps"));
  EXPECT_TRUE(ValidMetricName("query.preanswer.paper_meta.p99_us"));
  EXPECT_TRUE(ValidMetricName("0-x"));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(".hidden"));
  EXPECT_FALSE(ValidMetricName("_x"));
  EXPECT_FALSE(ValidMetricName("a b"));
  EXPECT_FALSE(ValidMetricName("a\"b"));
  EXPECT_FALSE(ValidMetricName("a/b"));
  EXPECT_TRUE(ValidUnit("req/s"));
  EXPECT_TRUE(ValidUnit("%"));
  EXPECT_FALSE(ValidUnit(""));
  EXPECT_FALSE(ValidUnit("a b"));
  EXPECT_FALSE(ValidUnit(std::string(17, 'u')));
}

TEST(MetricSet, RefusesBadNamesDuplicatesAndNonFinite) {
  MetricSet m;
  EXPECT_TRUE(m.Add("a", 1.5, "ms"));
  EXPECT_FALSE(m.Add("a", 2, "ms"));
  EXPECT_FALSE(m.Add("b c", 2, "ms"));
  EXPECT_FALSE(m.Add("b", 2, "m s"));
  EXPECT_FALSE(m.Add("b", 0.0 / 0.0, "ms"));
  EXPECT_EQ(m.metrics().size(), 1u);
  ASSERT_NE(m.Find("a"), nullptr);
  EXPECT_EQ(m.Find("a")->value, 1.5);
}

TEST(FailureTally, ShareCountsEveryKindOfFailure) {
  FailureTally t;
  EXPECT_EQ(t.share(), 0);
  t.attempted = 200;
  t.errors = 1;
  t.mismatches = 2;
  t.audit_failures = 1;
  EXPECT_EQ(t.failed(), 4u);
  EXPECT_DOUBLE_EQ(t.share(), 0.02);
}

TEST(ResultLine, ShapeAndDigits) {
  FailureTally t;
  t.attempted = 3;
  MetricSet m;
  ASSERT_TRUE(m.Add("latency_ms", 1.2034567891234, "ms"));
  ASSERT_TRUE(m.Add("setup_s", 0.1, "s"));
  EXPECT_EQ(ResultLine(t, m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.2034567891234, "
            "\"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.1, \"unit\": "
            "\"s\"}}}");
  t.mismatches = 1;
  EXPECT_EQ(ResultLine(t, MetricSet()),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, "
            "\"metrics\": {}}");
}

}  // namespace
}  // namespace perfbench
