#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/statistics.h"
#include "obs/trace.h"

namespace pstorm::obs {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (kCompiledOut) GTEST_SKIP() << "observability compiled out";
    MetricsRegistry::SetEnabled(true);
    MetricsRegistry::Global().ResetForTest();
  }
  void TearDown() override {
    MetricsRegistry::SetEnabled(true);
    MetricsRegistry::Global().ResetForTest();
  }
};

TEST_F(MetricsTest, RegistryInternsByName) {
  auto& registry = MetricsRegistry::Global();
  Counter& a = registry.GetCounter("test_interned_total");
  Counter& b = registry.GetCounter("test_interned_total");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &registry.GetCounter("test_other_total"));
  // Counter / gauge / histogram namespaces are independent.
  Gauge& g = registry.GetGauge("test_interned_total");
  EXPECT_EQ(&g, &registry.GetGauge("test_interned_total"));
  Histogram& h = registry.GetHistogram("test_interned_total");
  EXPECT_EQ(&h, &registry.GetHistogram("test_interned_total"));
}

TEST_F(MetricsTest, ConcurrentIncrementsAreExact) {
  Counter& c = MetricsRegistry::Global().GetCounter("test_concurrent_total");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), uint64_t{kThreads} * kPerThread);
}

TEST_F(MetricsTest, DisabledRecordingIsDropped) {
  auto& registry = MetricsRegistry::Global();
  Counter& c = registry.GetCounter("test_toggle_total");
  Histogram& h = registry.GetHistogram("test_toggle_micros");
  c.Increment();
  h.Record(5);
  MetricsRegistry::SetEnabled(false);
  c.Increment();
  h.Record(5);
  MetricsRegistry::SetEnabled(true);
  c.Increment();
  h.Record(5);
  EXPECT_EQ(c.Value(), 2u);  // The middle increment fell on the floor.
  EXPECT_EQ(h.Count(), 2u);
}

TEST_F(MetricsTest, GaugeSetAndAdd) {
  Gauge& g = MetricsRegistry::Global().GetGauge("test_gauge");
  g.Set(7);
  EXPECT_EQ(g.Value(), 7);
  g.Add(-10);
  EXPECT_EQ(g.Value(), -3);
}

TEST_F(MetricsTest, HistogramBucketBoundaries) {
  EXPECT_EQ(Histogram::BucketRange(0), (std::pair<uint64_t, uint64_t>{0, 0}));
  EXPECT_EQ(Histogram::BucketRange(1), (std::pair<uint64_t, uint64_t>{1, 1}));
  EXPECT_EQ(Histogram::BucketRange(2), (std::pair<uint64_t, uint64_t>{2, 3}));
  EXPECT_EQ(Histogram::BucketRange(10),
            (std::pair<uint64_t, uint64_t>{512, 1023}));
  EXPECT_EQ(Histogram::BucketRange(64).second, ~uint64_t{0});

  Histogram& h = MetricsRegistry::Global().GetHistogram("test_buckets");
  h.Record(0);
  h.Record(1);
  h.Record(2);
  h.Record(3);
  h.Record(1023);
  h.Record(~uint64_t{0});
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.BucketCount(2), 2u);
  EXPECT_EQ(h.BucketCount(10), 1u);
  EXPECT_EQ(h.BucketCount(64), 1u);
  EXPECT_EQ(h.Count(), 6u);
}

TEST_F(MetricsTest, ScopedTimerRecordsIntoBothSinks) {
  Histogram& h = MetricsRegistry::Global().GetHistogram("test_timer_micros");
  double seconds = -1.0;
  { ScopedTimer timer(&h, &seconds); }
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_GE(seconds, 0.0);
}

TEST_F(MetricsTest, DumpIsPrometheusShaped) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("test_dump_total").Add(42);
  registry.GetGauge("test_dump_gauge").Set(-5);
  Histogram& h = registry.GetHistogram("test_dump_micros");
  h.Record(3);   // bucket 2, ceiling 3
  h.Record(3);
  h.Record(100);  // bucket 7, ceiling 127

  const std::string dump = registry.Dump();
  EXPECT_NE(dump.find("# TYPE test_dump_total counter\ntest_dump_total 42\n"),
            std::string::npos);
  EXPECT_NE(dump.find("# TYPE test_dump_gauge gauge\ntest_dump_gauge -5\n"),
            std::string::npos);
  EXPECT_NE(dump.find("# TYPE test_dump_micros histogram\n"),
            std::string::npos);
  // Bucket lines are cumulative and only populated buckets appear.
  EXPECT_NE(dump.find("test_dump_micros_bucket{le=\"3\"} 2\n"),
            std::string::npos);
  EXPECT_NE(dump.find("test_dump_micros_bucket{le=\"127\"} 3\n"),
            std::string::npos);
  EXPECT_NE(dump.find("test_dump_micros_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(dump.find("test_dump_micros_sum 106\n"), std::string::npos);
  EXPECT_NE(dump.find("test_dump_micros_count 3\n"), std::string::npos);
  EXPECT_EQ(dump.find("le=\"1\""), std::string::npos);  // empty bucket
}

// Satellite: the histogram's quantile bounds must bracket the exact
// percentile computed from the raw samples, for any sample set and any p.
TEST_F(MetricsTest, QuantileBoundsBracketExactPercentile) {
  Rng rng(20260806);
  for (int trial = 0; trial < 200; ++trial) {
    Histogram& h = MetricsRegistry::Global().GetHistogram("test_quantile");
    h.Reset();
    const int n = 1 + static_cast<int>(rng.Uniform(0.0, 400.0));
    std::vector<double> samples;
    samples.reserve(n);
    for (int i = 0; i < n; ++i) {
      // Exponentially distributed magnitudes exercise many buckets; values
      // stay below 2^50 so the double-based Percentile is exact.
      const auto v = static_cast<uint64_t>(
          std::exp(rng.Uniform(0.0, 34.0)));
      h.Record(v);
      samples.push_back(static_cast<double>(v));
    }
    for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
      const double exact = Percentile(samples, p);
      const auto [lo, hi] = h.QuantileBounds(p);
      EXPECT_LE(static_cast<double>(lo), exact)
          << "trial " << trial << " n=" << n << " p=" << p;
      EXPECT_GE(static_cast<double>(hi), exact)
          << "trial " << trial << " n=" << n << " p=" << p;
    }
  }
}

TEST_F(MetricsTest, QuantileBoundsEdgeCases) {
  Histogram& h = MetricsRegistry::Global().GetHistogram("test_quantile_edge");
  // Empty histogram.
  EXPECT_EQ(h.QuantileBounds(50.0), (std::pair<uint64_t, uint64_t>{0, 0}));
  // Single sample: every percentile is that sample.
  h.Record(1000);  // bucket 10: [512, 1023]
  for (double p : {0.0, 50.0, 100.0}) {
    const auto [lo, hi] = h.QuantileBounds(p);
    EXPECT_LE(lo, 1000u);
    EXPECT_GE(hi, 1000u);
    EXPECT_EQ(lo, 512u);
    EXPECT_EQ(hi, 1023u);
  }
  // Out-of-range p clamps instead of crashing.
  EXPECT_EQ(h.QuantileBounds(-5.0), h.QuantileBounds(0.0));
  EXPECT_EQ(h.QuantileBounds(250.0), h.QuantileBounds(100.0));
}

TEST_F(MetricsTest, ResetZeroesWithoutInvalidatingReferences) {
  auto& registry = MetricsRegistry::Global();
  Counter& c = registry.GetCounter("test_reset_total");
  c.Add(9);
  registry.ResetForTest();
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();  // Same reference keeps working.
  EXPECT_EQ(c.Value(), 1u);
  EXPECT_EQ(&c, &registry.GetCounter("test_reset_total"));
}

TEST(SubmissionTraceTest, ToStringRendersAllSections) {
  SubmissionTrace trace;
  trace.job_key = "WordCount@RandomText1Gb";
  trace.matched = true;
  trace.composite = true;
  trace.profile_source = "a+b";
  trace.map_side.side = "map";
  trace.map_side.path = "full";
  trace.map_side.stages.push_back(StageTrace{"dynamic", 10, 4, "theta=0.5"});
  trace.map_side.winner_job_key = "a";
  trace.map_side.winner_score = 0.9;
  trace.reduce_side.side = "reduce";
  trace.reduce_side.path = "no_match";
  trace.store.scans = 3;
  trace.store.entry_cache_hits = 2;
  trace.cbo.candidates_evaluated = 700;
  trace.cbo.rounds.push_back(CboRoundTrace{"seed+global", 400, 1.5, 0.2});
  trace.cbo.rounds.push_back(CboRoundTrace{"refine 1", 150, 1.25, 250e-6});
  trace.timeline.push_back(SpanRecord{"match", 0.01});
  trace.timeline.push_back(SpanRecord{"cbo", 250e-6});

  const std::string s = trace.ToString();
  EXPECT_NE(s.find("WordCount@RandomText1Gb"), std::string::npos);
  EXPECT_NE(s.find("map"), std::string::npos);
  EXPECT_NE(s.find("dynamic"), std::string::npos);
  EXPECT_NE(s.find("theta=0.5"), std::string::npos);
  EXPECT_NE(s.find("seed+global"), std::string::npos);
  EXPECT_NE(s.find("match"), std::string::npos);
  // Wall times render in microseconds, so sub-millisecond phases read as
  // nonzero; best= is a simulated runtime and stays in seconds.
  EXPECT_NE(s.find("best=1.250s wall=250us"), std::string::npos) << s;
  EXPECT_NE(s.find("cbo=250us"), std::string::npos) << s;
}

}  // namespace
}  // namespace pstorm::obs
