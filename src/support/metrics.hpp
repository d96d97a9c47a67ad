// In-process metrics registry: the one place every subsystem's counters,
// gauges, and latency histograms live, and the one snapshot every stats
// surface renders from.
//
// Before this layer each tier invented its own stats struct (socket-server
// counters, daemon report fields, cache hit atomics) and the numbers could
// disagree between surfaces. Now the flow is: subsystems bump named
// metrics in a Registry (lock-free atomics on the hot path; a mutex only
// on first registration of a name), and every consumer — the STATS frame,
// the CLI's final counter print, the HTTP /metrics endpoint, the typed
// SocketServerStats/CacheStats views — reads one Snapshot, so the socket
// API and the admin endpoint can never tell different stories.
//
// Concurrency model: metric handles returned by counter()/gauge()/
// histogram() are stable for the Registry's lifetime (node-based storage;
// registration never moves an existing metric). All updates and reads are
// relaxed atomics — these are independent monotone counters and samples,
// never used to synchronize anything — so updates from any number of
// threads and snapshot() from any other thread are race-free under TSan.
// A snapshot is per-metric atomic, not cross-metric consistent: two
// counters read microseconds apart may straddle an update. That skew is
// inherent to live scraping and harmless for monotone series.
//
// Naming: metric names are plain identifiers, optionally with one
// Prometheus-style label suffix baked into the name ("run_latency_ms" or
// "run_latency_ms{algo=\"luby\"}"). Counters end in _total by convention.
// render_prometheus() prefixes everything with "distapx_" and groups
// same-base labeled series under one # TYPE header. Metric names are a
// stable interface (dashboards and CI assert on them): renames follow the
// same discipline as kEngineVersion bumps — documented in the README
// inventory, never silent.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace distapx::metrics {

/// Monotone event counter. inc() returns the post-increment value, so a
/// caller can use the counter itself as a sequence source (the socket
/// server derives submit numbers this way) instead of keeping a shadow.
class Counter {
 public:
  std::uint64_t inc(std::uint64_t by = 1) noexcept {
    return v_.fetch_add(by, std::memory_order_relaxed) + by;
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous level (queue depth, open connections, drain state).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Gauge for values that are fractional by nature (CPU seconds). Kept
/// separate from Gauge so integer series stay exact in every renderer.
class FloatGauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0};
};

/// A histogram's state at one instant. `counts[i]` is the number of
/// observations in bucket i (NOT cumulative): bucket i < bounds.size()
/// holds observations v <= bounds[i] (and > bounds[i-1]); the final
/// element is the overflow (+Inf) bucket. `count` is the sum of counts —
/// always self-consistent with the buckets, even when the snapshot raced
/// concurrent observes.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 entries
  std::uint64_t count = 0;
  double sum = 0;

  /// Bucket-interpolated quantile, q in [0, 1]: find the bucket holding
  /// the rank-q observation and interpolate linearly inside it (the first
  /// bucket interpolates from 0, the overflow bucket pins to the last
  /// bound — an unbounded tail has no upper edge to interpolate toward).
  /// Returns 0 for an empty histogram.
  [[nodiscard]] double quantile(double q) const noexcept;
};

/// Fixed-bucket histogram. Buckets are chosen at registration and never
/// change; observe() is a lower_bound over ~20 doubles, one relaxed
/// atomic add on the bucket and a relaxed CAS on the sum. Every reader
/// (Prometheus rendering, /vars, the STATS views) sees cumulative
/// counts.
class Histogram {
 public:
  /// `bounds` must be strictly increasing; an overflow bucket is added
  /// implicitly.
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept;
  [[nodiscard]] HistogramSnapshot snapshot() const;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  ///< bounds_.size() + 1
  std::atomic<double> sum_{0};
};

/// Default latency ladder in milliseconds: 10µs to 10s, roughly 2.5x per
/// step. Covers a cache hit (~tens of µs) through a long sweep (seconds)
/// with enough resolution for p50/p95/p99 interpolation.
const std::vector<double>& default_latency_buckets_ms();

/// One registry's state at one instant; everything is sorted by name.
struct Snapshot {
  struct CounterSample {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    std::int64_t value = 0;
  };
  struct FloatSample {
    std::string name;
    double value = 0;
  };
  struct HistogramSample {
    std::string name;
    HistogramSnapshot hist;
  };

  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<FloatSample> floats;
  std::vector<HistogramSample> histograms;

  /// Value of a counter/gauge by exact name; `fallback` when absent (a
  /// series that has never been bumped may not exist yet).
  [[nodiscard]] std::uint64_t counter_or(std::string_view name,
                                         std::uint64_t fallback = 0) const;
  [[nodiscard]] std::int64_t gauge_or(std::string_view name,
                                      std::int64_t fallback = 0) const;
  [[nodiscard]] double float_or(std::string_view name,
                                double fallback = 0) const;
  /// Null when absent.
  [[nodiscard]] const HistogramSnapshot* histogram(
      std::string_view name) const;
};

/// Named-metric registry. Each serving process owns one and threads it
/// through its components (socket server -> cache -> batch server), so
/// every counter in that process lands in the same /metrics page; tests
/// construct private registries per fixture.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Returns the metric registered under `name`, creating it on first
  /// use. The returned reference is stable for the Registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  FloatGauge& float_gauge(std::string_view name);
  /// Re-registering an existing histogram name returns the existing
  /// instance; its buckets are fixed by the first registration.
  Histogram& histogram(std::string_view name,
                       const std::vector<double>& bounds);

  /// Hook invoked at the start of every snapshot(), before any lock is
  /// held — the place to refresh sampled gauges (rusage, fd counts) so
  /// each scrape sees current values. The hook must only touch metric
  /// handles it already resolved; registering new names from inside it
  /// deadlocks. One hook per registry; setting replaces.
  void set_refresh_hook(std::function<void()> hook);

  [[nodiscard]] Snapshot snapshot() const;

 private:
  mutable std::mutex mu_;  ///< guards the maps, never the metric values
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<FloatGauge>, std::less<>> floats_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  mutable std::mutex hook_mu_;  ///< guards refresh_hook_ set vs. call
  std::function<void()> refresh_hook_;
};

/// Prometheus text exposition (version 0.0.4) of a snapshot: one # TYPE
/// header per metric base name (label variants grouped), cumulative
/// _bucket/_sum/_count series per histogram, `prefix` prepended to every
/// name.
std::string render_prometheus(const Snapshot& snap,
                              std::string_view prefix = "distapx_");

}  // namespace distapx::metrics
