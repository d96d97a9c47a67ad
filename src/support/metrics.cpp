#include "support/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "support/assert.hpp"

namespace distapx::metrics {

namespace {

/// Shortest round-trip-ish rendering for bucket bounds and sums ("0.25",
/// "10", "2.5e+06") — %g keeps the ladder values readable, which matters
/// because they appear in le="..." labels dashboards match on.
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// Splits "name{label=\"x\"}" into the base name and the label block
/// (empty when unlabeled). The base is what # TYPE lines are keyed on.
std::pair<std::string_view, std::string_view> split_labels(
    std::string_view name) {
  const std::size_t brace = name.find('{');
  if (brace == std::string_view::npos) return {name, {}};
  return {name.substr(0, brace), name.substr(brace)};
}

/// Joins an existing label block with one more label: `{a="b"}` + le
/// becomes `{a="b",le="0.5"}`, no block becomes `{le="0.5"}`.
std::string with_le_label(std::string_view labels, const std::string& le) {
  if (labels.empty()) return "{le=\"" + le + "\"}";
  std::string out(labels.substr(0, labels.size() - 1));  // drop '}'
  out += ",le=\"" + le + "\"}";
  return out;
}

}  // namespace

double HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0) return 0;
  q = std::min(std::max(q, 0.0), 1.0);
  // The rank-q observation, 1-based; ceil so q=0.5 over 2 observations
  // picks the first (conservative, matches nearest-rank conventions).
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count))));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (cum + counts[i] < rank) {
      cum += counts[i];
      continue;
    }
    // rank falls inside bucket i. The overflow bucket has no upper edge:
    // pin to the last finite bound rather than invent an extrapolation.
    if (i >= bounds.size()) return bounds.empty() ? 0 : bounds.back();
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double hi = bounds[i];
    const double into =
        static_cast<double>(rank - cum) / static_cast<double>(counts[i]);
    return lo + (hi - lo) * into;
  }
  return bounds.empty() ? 0 : bounds.back();  // unreachable when consistent
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(bounds_.size() + 1) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    DISTAPX_ENSURE_MSG(bounds_[i - 1] < bounds_[i],
                       "histogram bounds must be strictly increasing");
  }
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  // No atomic<double>::fetch_add before C++20 library support settles;
  // a CAS loop is equivalent and contention here is negligible.
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.bounds = bounds_;
  s.counts.reserve(counts_.size());
  for (const auto& c : counts_) {
    const std::uint64_t n = c.load(std::memory_order_relaxed);
    s.counts.push_back(n);
    s.count += n;
  }
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

const std::vector<double>& default_latency_buckets_ms() {
  static const std::vector<double> kBuckets{
      0.01, 0.025, 0.05, 0.1,  0.25, 0.5,  1,    2.5,  5,    10,
      25,   50,    100,  250,  500,  1000, 2500, 5000, 10000};
  return kBuckets;
}

std::uint64_t Snapshot::counter_or(std::string_view name,
                                   std::uint64_t fallback) const {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  return fallback;
}

std::int64_t Snapshot::gauge_or(std::string_view name,
                                std::int64_t fallback) const {
  for (const auto& g : gauges) {
    if (g.name == name) return g.value;
  }
  return fallback;
}

double Snapshot::float_or(std::string_view name, double fallback) const {
  for (const auto& f : floats) {
    if (f.name == name) return f.value;
  }
  return fallback;
}

const HistogramSnapshot* Snapshot::histogram(std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h.hist;
  }
  return nullptr;
}

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

FloatGauge& Registry::float_gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = floats_.find(name);
  if (it != floats_.end()) return *it->second;
  return *floats_.emplace(std::string(name), std::make_unique<FloatGauge>())
              .first->second;
}

Histogram& Registry::histogram(std::string_view name,
                               const std::vector<double>& bounds) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return *histograms_
              .emplace(std::string(name), std::make_unique<Histogram>(bounds))
              .first->second;
}

void Registry::set_refresh_hook(std::function<void()> hook) {
  const std::lock_guard<std::mutex> lock(hook_mu_);
  refresh_hook_ = std::move(hook);
}

Snapshot Registry::snapshot() const {
  std::function<void()> hook;
  {
    const std::lock_guard<std::mutex> lock(hook_mu_);
    hook = refresh_hook_;
  }
  // Run before taking mu_ so a hook that resolves handles up front but
  // still calls into the registry cannot deadlock against us.
  if (hook) hook();
  const std::lock_guard<std::mutex> lock(mu_);
  Snapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    s.counters.push_back({name, c->value()});
  }
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    s.gauges.push_back({name, g->value()});
  }
  s.floats.reserve(floats_.size());
  for (const auto& [name, f] : floats_) {
    s.floats.push_back({name, f->value()});
  }
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    s.histograms.push_back({name, h->snapshot()});
  }
  return s;
}

std::string render_prometheus(const Snapshot& snap, std::string_view prefix) {
  std::string out;
  const auto type_header = [&](std::string_view base, const char* type,
                               std::string_view& last_base) {
    if (base == last_base) return;  // label variants share one header
    last_base = base;
    out += "# TYPE ";
    out += prefix;
    out += base;
    out += ' ';
    out += type;
    out += '\n';
  };

  std::string_view last_base;
  for (const auto& c : snap.counters) {
    const auto [base, labels] = split_labels(c.name);
    type_header(base, "counter", last_base);
    out += prefix;
    out += base;
    out += labels;
    out += ' ' + std::to_string(c.value) + '\n';
  }
  last_base = {};
  for (const auto& g : snap.gauges) {
    const auto [base, labels] = split_labels(g.name);
    type_header(base, "gauge", last_base);
    out += prefix;
    out += base;
    out += labels;
    out += ' ' + std::to_string(g.value) + '\n';
  }
  last_base = {};
  for (const auto& f : snap.floats) {
    const auto [base, labels] = split_labels(f.name);
    type_header(base, "gauge", last_base);
    out += prefix;
    out += base;
    out += labels;
    out += ' ' + format_double(f.value) + '\n';
  }
  last_base = {};
  for (const auto& h : snap.histograms) {
    const auto [base, labels] = split_labels(h.name);
    type_header(base, "histogram", last_base);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.hist.counts.size(); ++i) {
      cum += h.hist.counts[i];
      const std::string le = i < h.hist.bounds.size()
                                 ? format_double(h.hist.bounds[i])
                                 : std::string("+Inf");
      out += prefix;
      out += base;
      out += "_bucket" + with_le_label(labels, le) + ' ' +
             std::to_string(cum) + '\n';
    }
    out += prefix;
    out += base;
    out += "_sum";
    out += labels;
    out += ' ' + format_double(h.hist.sum) + '\n';
    out += prefix;
    out += base;
    out += "_count";
    out += labels;
    out += ' ' + std::to_string(h.hist.count) + '\n';
  }
  return out;
}

}  // namespace distapx::metrics
