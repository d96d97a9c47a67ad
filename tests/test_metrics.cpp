// Metrics registry: counter/gauge/histogram semantics, bucket and
// quantile math, snapshot lookups, Prometheus rendering, and race-free
// concurrent updates (the MetricsConcurrency suite runs under the TSan CI
// lane).
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "support/assert.hpp"
#include "support/metrics.hpp"

namespace distapx::metrics {
namespace {

TEST(Metrics, CounterIncReturnsPostIncrementValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(c.inc(), 1u);
  EXPECT_EQ(c.inc(), 2u);
  EXPECT_EQ(c.inc(5), 7u);
  EXPECT_EQ(c.value(), 7u);
}

TEST(Metrics, GaugeSetAndAdd) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.set(42);
  EXPECT_EQ(g.value(), 42);
  g.add(-50);
  EXPECT_EQ(g.value(), -8);
}

TEST(Metrics, RegistryReturnsStableInstancePerName) {
  Registry reg;
  Counter& a = reg.counter("x_total");
  Counter& b = reg.counter("x_total");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  // A histogram re-registered under the same name keeps its first buckets.
  Histogram& h1 = reg.histogram("lat_ms", {1, 2, 3});
  Histogram& h2 = reg.histogram("lat_ms", {10, 20});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 3u);
}

TEST(Metrics, SnapshotLookupsFallBackWhenAbsent) {
  Registry reg;
  reg.counter("present_total").inc(3);
  reg.gauge("depth").set(-4);
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_or("present_total"), 3u);
  EXPECT_EQ(snap.counter_or("absent_total", 99), 99u);
  EXPECT_EQ(snap.gauge_or("depth"), -4);
  EXPECT_EQ(snap.gauge_or("absent", 7), 7);
  EXPECT_EQ(snap.histogram("absent"), nullptr);
}

TEST(MetricsHistogram, ObservationsLandInTheRightBuckets) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);  // <= 1 -> bucket 0
  h.observe(1.0);  // boundary values belong to their bucket (le semantics)
  h.observe(1.5);  // bucket 1
  h.observe(4.0);  // bucket 2
  h.observe(100);  // overflow
  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.counts[3], 1u);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.sum, 0.5 + 1.0 + 1.5 + 4.0 + 100);
}

TEST(MetricsHistogram, QuantileInterpolatesWithinBuckets) {
  Histogram h({10.0, 20.0});
  h.observe(5);  // 1 observation in [0, 10]
  h.observe(15);
  h.observe(15);
  h.observe(15);  // 3 observations in (10, 20]
  const HistogramSnapshot s = h.snapshot();
  // rank 1 of 4 lands in the first bucket, interpolated across its width.
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 10.0);
  // rank 2 is the first of three in (10, 20]: one third into the bucket.
  EXPECT_NEAR(s.quantile(0.5), 10.0 + 10.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 20.0);
}

TEST(MetricsHistogram, QuantileOverflowPinsToLastBoundAndEmptyIsZero) {
  Histogram h({10.0, 20.0});
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.5), 0.0);
  h.observe(1e9);
  // The overflow bucket has no upper edge; the quantile must not invent
  // an extrapolation beyond the ladder.
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.99), 20.0);
}

TEST(MetricsHistogram, RejectsNonIncreasingBounds) {
  EXPECT_THROW(Histogram({1.0, 1.0}), EnsureError);
  EXPECT_THROW(Histogram({2.0, 1.0}), EnsureError);
}

TEST(MetricsHistogram, DefaultLatencyLadderIsStrictlyIncreasing) {
  const auto& b = default_latency_buckets_ms();
  ASSERT_GE(b.size(), 2u);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
}

TEST(Metrics, RenderPrometheusGroupsLabelVariantsUnderOneHeader) {
  Registry reg;
  reg.counter("results_ok_total").inc(3);
  reg.histogram("run_latency_ms{algo=\"luby\"}", {1.0, 2.0}).observe(1.5);
  reg.histogram("run_latency_ms{algo=\"nmis\"}", {1.0, 2.0}).observe(0.5);
  const std::string text = render_prometheus(reg.snapshot());

  EXPECT_NE(text.find("# TYPE distapx_results_ok_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("distapx_results_ok_total 3\n"), std::string::npos);
  // Cumulative buckets with the le label appended to the existing block.
  EXPECT_NE(
      text.find("distapx_run_latency_ms_bucket{algo=\"luby\",le=\"1\"} 0\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("distapx_run_latency_ms_bucket{algo=\"luby\",le=\"2\"} 1\n"),
      std::string::npos);
  EXPECT_NE(
      text.find(
          "distapx_run_latency_ms_bucket{algo=\"luby\",le=\"+Inf\"} 1\n"),
      std::string::npos);
  EXPECT_NE(text.find("distapx_run_latency_ms_sum{algo=\"luby\"} 1.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("distapx_run_latency_ms_count{algo=\"luby\"} 1\n"),
            std::string::npos);
  // Both algo variants render, but the # TYPE header appears exactly once.
  EXPECT_NE(text.find("distapx_run_latency_ms_count{algo=\"nmis\"} 1\n"),
            std::string::npos);
  const std::string header = "# TYPE distapx_run_latency_ms histogram\n";
  const std::size_t first = text.find(header);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find(header, first + 1), std::string::npos);
}

TEST(MetricsConcurrency, ParallelUpdatesNeverLoseCounts) {
  Registry reg;
  Counter& c = reg.counter("hits_total");
  Gauge& g = reg.gauge("depth");
  Histogram& h = reg.histogram("lat_ms", {0.5, 1.0, 2.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        g.add(t % 2 == 0 ? 1 : -1);
        h.observe(static_cast<double>(i % 3));
      }
    });
  }
  // Scrape while the writers run: snapshot() must be race-free and each
  // histogram snapshot self-consistent (count == sum of bucket counts).
  for (int i = 0; i < 50; ++i) {
    const Snapshot snap = reg.snapshot();
    const HistogramSnapshot* hs = snap.histogram("lat_ms");
    ASSERT_NE(hs, nullptr);
    std::uint64_t total = 0;
    for (const std::uint64_t n : hs->counts) total += n;
    EXPECT_EQ(total, hs->count);
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(reg.gauge("depth").value(), 0);
  EXPECT_EQ(h.snapshot().count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, FloatGaugeRegistersSnapshotsAndRenders) {
  Registry reg;
  reg.float_gauge("process_cpu_seconds_total").set(1.5);
  EXPECT_EQ(&reg.float_gauge("process_cpu_seconds_total"),
            &reg.float_gauge("process_cpu_seconds_total"));
  const Snapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.float_or("process_cpu_seconds_total"), 1.5);
  EXPECT_DOUBLE_EQ(snap.float_or("absent", 9.25), 9.25);
  const std::string rendered = render_prometheus(snap);
  EXPECT_NE(rendered.find("# TYPE distapx_process_cpu_seconds_total gauge"),
            std::string::npos);
  EXPECT_NE(rendered.find("distapx_process_cpu_seconds_total 1.5"),
            std::string::npos);
}

TEST(Metrics, RefreshHookRunsBeforeEverySnapshot) {
  Registry reg;
  int calls = 0;
  reg.set_refresh_hook([&reg, &calls] {
    ++calls;
    reg.gauge("sampled").set(calls);
  });
  EXPECT_EQ(reg.snapshot().gauge_or("sampled"), 1);
  EXPECT_EQ(reg.snapshot().gauge_or("sampled"), 2);
  EXPECT_EQ(calls, 2);
}

TEST(Metrics, SnapshotCarriesTheCumulativeHistogram) {
  Registry reg;
  Histogram& h = reg.histogram("lat_ms", {1, 10, 100});
  for (int i = 0; i < 4; ++i) h.observe(2.0);
  h.observe(500.0);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "lat_ms");
  const HistogramSnapshot& s = snap.histograms[0].hist;
  EXPECT_EQ(s.counts, (std::vector<std::uint64_t>{0, 4, 0, 1}));
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.sum, 4 * 2.0 + 500.0);
  ASSERT_NE(snap.histogram("lat_ms"), nullptr);
  EXPECT_EQ(snap.histogram("lat_ms")->count, 5u);
  // Counts only grow: a later snapshot holds every earlier observation.
  h.observe(2.0);
  EXPECT_EQ(reg.snapshot().histograms[0].hist.count, 6u);
  EXPECT_EQ(s.count, 5u);  // the earlier snapshot is a copy
}

TEST(MetricsConcurrency, RegistrationRacesResolveToOneInstance) {
  Registry reg;
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      seen[static_cast<std::size_t>(t)] = &reg.counter("raced_total");
      reg.counter("raced_total").inc();
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[0], seen[t]);
  EXPECT_EQ(reg.snapshot().counter_or("raced_total"), 8u);
}

}  // namespace
}  // namespace distapx::metrics
