#include "support/trace.hpp"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "support/log.hpp"

namespace distapx::trace {

namespace {

using SteadyClock = std::chrono::steady_clock;

std::uint64_t ns_between(SteadyClock::time_point a,
                         SteadyClock::time_point b) noexcept {
  return b > a ? static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                         .count())
               : 0;
}

std::uint64_t wall_unix_ms() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

bool env_disables_tracing() noexcept {
  const char* v = std::getenv("DISTAPX_TRACE");
  if (v == nullptr) return false;
  return std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0 ||
         std::strcmp(v, "false") == 0;
}

std::atomic<bool>& enabled_flag() noexcept {
  // First use reads the environment once; set_enabled overrides later.
  static std::atomic<bool> flag{!env_disables_tracing()};
  return flag;
}

thread_local Context g_context;

std::string iso_utc(std::uint64_t unix_ms) {
  const time_t secs = static_cast<time_t>(unix_ms / 1000);
  struct tm tm_utc;
  ::gmtime_r(&secs, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

/// Deep copies of the traces behind `ptrs`, made outside the sink's lock.
std::vector<Trace> copy_traces(
    const std::vector<std::shared_ptr<const Trace>>& ptrs) {
  std::vector<Trace> out;
  out.reserve(ptrs.size());
  for (const auto& p : ptrs) out.push_back(*p);
  return out;
}

}  // namespace

bool enabled() noexcept {
  return enabled_flag().load(std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept {
  enabled_flag().store(on, std::memory_order_relaxed);
}

// ---- Collector -----------------------------------------------------------

Collector::Collector(std::uint64_t id, std::string endpoint)
    : id_(id), endpoint_(std::move(endpoint)), t0_(SteadyClock::now()) {
  trace_.id = id_;
  trace_.endpoint = endpoint_;
  trace_.start_unix_ms = wall_unix_ms();
}

std::uint32_t Collector::begin(std::string_view name, std::uint32_t parent) {
  const std::uint64_t start = ns_between(t0_, SteadyClock::now());
  const std::lock_guard<std::mutex> lock(mu_);
  if (trace_.spans.size() >= kMaxSpansPerTrace) {
    ++dropped_;
    return 0;
  }
  Span s;
  s.id = static_cast<std::uint32_t>(trace_.spans.size() + 1);
  s.parent = parent;
  s.name = name;
  s.start_ns = start;
  trace_.spans.push_back(std::move(s));
  return trace_.spans.back().id;
}

void Collector::end(std::uint32_t span) noexcept {
  if (span == 0) return;
  const std::uint64_t now = ns_between(t0_, SteadyClock::now());
  const std::lock_guard<std::mutex> lock(mu_);
  if (span <= trace_.spans.size()) trace_.spans[span - 1].end_ns = now;
}

void Collector::annotate(std::uint32_t span, std::string_view key,
                         std::string_view value) {
  if (span == 0) return;
  const std::lock_guard<std::mutex> lock(mu_);
  if (span > trace_.spans.size()) return;
  std::string& notes = trace_.spans[span - 1].notes;
  if (!notes.empty()) notes += ' ';
  notes.append(key);
  notes += '=';
  notes.append(value);
}

void Collector::annotate(std::uint32_t span, std::string_view key,
                         std::uint64_t value) {
  annotate(span, key, std::to_string(value));
}

std::uint64_t Collector::elapsed_ns() const noexcept {
  return ns_between(t0_, SteadyClock::now());
}

Trace Collector::finish() {
  const std::uint64_t now = ns_between(t0_, SteadyClock::now());
  const std::lock_guard<std::mutex> lock(mu_);
  for (Span& s : trace_.spans) {
    if (s.end_ns == 0) s.end_ns = now;
  }
  trace_.duration_ns = now;
  trace_.dropped_spans = dropped_;
  return std::move(trace_);
}

// ---- thread-local context ------------------------------------------------

Context current() noexcept { return g_context; }

ContextGuard::ContextGuard(Context ctx) noexcept : prev_(g_context) {
  g_context = ctx;
}

ContextGuard::~ContextGuard() { g_context = prev_; }

ScopedSpan::ScopedSpan(std::string_view name) noexcept
    : collector_(g_context.collector), prev_(g_context) {
  if (collector_ == nullptr) return;
  span_ = collector_->begin(name, g_context.parent);
  if (span_ != 0) g_context = Context{collector_, span_};
}

ScopedSpan::~ScopedSpan() {
  if (collector_ == nullptr) return;
  collector_->end(span_);
  g_context = prev_;
}

void ScopedSpan::annotate(std::string_view key, std::string_view value) {
  if (collector_ != nullptr) collector_->annotate(span_, key, value);
}

void ScopedSpan::annotate(std::string_view key, std::uint64_t value) {
  annotate(key, std::to_string(value));
}

void annotate_current(std::string_view key, std::string_view value) {
  if (g_context.collector != nullptr && g_context.parent != 0) {
    g_context.collector->annotate(g_context.parent, key, value);
  }
}

void annotate_current(std::string_view key, std::uint64_t value) {
  annotate_current(key, std::to_string(value));
}

// ---- TraceSink -----------------------------------------------------------

void TraceSink::publish(Trace t) {
  TracePtr p = std::make_shared<const Trace>(std::move(t));
  // Pointers popped under the lock are released after it: the last
  // reference to a trace frees all its spans.
  TracePtr left_recent;
  TracePtr left_slow;
  const std::lock_guard<std::mutex> lock(mu_);
  ++published_;
  recent_.push_front(p);
  if (recent_.size() > kRecentTraces) {
    left_recent = std::move(recent_.back());
    recent_.pop_back();
  }
  std::vector<TracePtr>& table = slow_[p->endpoint];
  // A full table keeps its entries unless this trace is strictly slower
  // than the fastest of them; ties keep the earlier trace.
  if (table.size() >= kSlowestPerEndpoint &&
      p->duration_ns <= table.back()->duration_ns) {
    return;
  }
  const auto at = std::upper_bound(
      table.begin(), table.end(), p->duration_ns,
      [](std::uint64_t d, const TracePtr& e) { return d > e->duration_ns; });
  table.insert(at, std::move(p));
  if (table.size() > kSlowestPerEndpoint) {
    left_slow = std::move(table.back());
    table.pop_back();
  }
}

std::vector<Trace> TraceSink::recent() const {
  std::vector<TracePtr> held;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    held.assign(recent_.begin(), recent_.end());
  }
  return copy_traces(held);
}

std::vector<std::pair<std::string, std::vector<Trace>>> TraceSink::slowest()
    const {
  std::vector<std::pair<std::string, std::vector<TracePtr>>> held;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    held.assign(slow_.begin(), slow_.end());
  }
  std::vector<std::pair<std::string, std::vector<Trace>>> out;
  out.reserve(held.size());
  for (auto& [endpoint, ptrs] : held) {
    out.emplace_back(std::move(endpoint), copy_traces(ptrs));
  }
  return out;
}

std::uint64_t TraceSink::published_total() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return published_;
}

void complete(Collector& c, TraceSink* sink, std::uint32_t slow_ms) {
  Trace t = c.finish();
  if (slow_ms != 0 && t.duration_ns > std::uint64_t{slow_ms} * 1'000'000ull) {
    logx::warn("slow_job",
               {{"trace", t.id},
                {"endpoint", t.endpoint},
                {"duration_ms", static_cast<double>(t.duration_ns) / 1e6},
                {"spans", flatten_spans(t)}});
  }
  if (sink != nullptr) sink->publish(std::move(t));
}

// ---- rendering -----------------------------------------------------------

std::string format_duration_ms(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3fms",
                static_cast<double>(ns) / 1e6);
  return buf;
}

std::string render_trace_tree(const Trace& t) {
  std::string out = "trace " + std::to_string(t.id) +
                    " endpoint=" + t.endpoint +
                    " start=" + iso_utc(t.start_unix_ms) +
                    " duration=" + format_duration_ms(t.duration_ns) +
                    " spans=" + std::to_string(t.spans.size());
  if (t.dropped_spans != 0) {
    out += " dropped=" + std::to_string(t.dropped_spans);
  }
  out += '\n';
  // Children grouped by parent; within a parent, start order (ties by
  // id, which is start order at the collector).
  std::vector<std::vector<std::uint32_t>> children(t.spans.size() + 1);
  for (const Span& s : t.spans) {
    if (s.parent <= t.spans.size()) children[s.parent].push_back(s.id);
  }
  // The longest name per depth would be nicer, but a fixed pad keeps the
  // renderer single-pass; names are short by convention.
  const auto render = [&](auto&& self, std::uint32_t parent,
                          int depth) -> void {
    for (const std::uint32_t id : children[parent]) {
      const Span& s = t.spans[id - 1];
      out.append(static_cast<std::size_t>(2 * (depth + 1)), ' ');
      out += s.name;
      const std::size_t pad = s.name.size() < 16 ? 16 - s.name.size() : 1;
      out.append(pad, ' ');
      out += format_duration_ms(s.duration_ns(t.duration_ns));
      if (s.end_ns == 0) out += " (open)";
      if (!s.notes.empty()) {
        out += ' ';
        out += s.notes;
      }
      out += '\n';
      self(self, id, depth + 1);
    }
  };
  render(render, 0, 0);
  return out;
}

std::string flatten_spans(const Trace& t) {
  std::string out;
  for (const Span& s : t.spans) {
    if (s.parent != 0) continue;  // top level only
    if (!out.empty()) out += ' ';
    out += s.name;
    out += '=';
    out += format_duration_ms(s.duration_ns(t.duration_ns));
  }
  return out;
}

std::string render_tracez(const TraceSink& sink) {
  std::string out = "tracez: per-job span traces (text form)\n";
  out += "published_total " + std::to_string(sink.published_total()) + '\n';
  const std::vector<Trace> recent = sink.recent();
  out += "\n== recent traces (newest first, " +
         std::to_string(recent.size()) + " retained) ==\n";
  for (const Trace& t : recent) {
    out += '\n';
    out += render_trace_tree(t);
  }
  for (const auto& [endpoint, traces] : sink.slowest()) {
    out += "\n== slowest endpoint=" + endpoint + " (" +
           std::to_string(traces.size()) + " retained) ==\n";
    for (const Trace& t : traces) {
      out += '\n';
      out += render_trace_tree(t);
    }
  }
  return out;
}

}  // namespace distapx::trace
