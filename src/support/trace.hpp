// Per-job tracing: where one request's time actually went.
//
// The metrics registry (support/metrics.hpp) answers "how is the server
// doing in aggregate"; this subsystem answers "where did SUBMIT #42's
// 180ms go" — queue wait vs lane execution vs cache misses vs response
// flush. The model is deliberately small:
//
//   Span      one named, monotonic-clock interval inside a trace, with an
//             optional parent (tree structure) and free-form key=value
//             annotations ("algo=luby seed=3 outcome=hit").
//   Trace     all spans of one unit of served work — one SUBMIT on the
//             socket tier (trace id = submit_no), one spool file in the
//             daemon — plus its endpoint name and total duration.
//   Collector the per-job span builder the serving layers thread through
//             themselves (explicitly, or via the thread-local Context so
//             deep layers like ResultCache can annotate the span that is
//             currently open without signature changes).
//   TraceSink the server-wide retention buffer: the last kRecentTraces
//             completed traces plus the kSlowestPerEndpoint slowest per
//             endpoint, held as shared pointers under one mutex. GET
//             /tracez renders both.
//
// Cost model: tracing is always-on. When the runtime kill switch is off
// (DISTAPX_TRACE=off, or set_enabled(false)), the serving layers create
// no Collector and every ScopedSpan/annotate_current call is one
// thread-local load and a null check. When on, opening+closing a span is
// two steady_clock reads and one short uncontended mutex-protected append
// to the job's own Collector; publication into the sink happens once per
// *job* (not per span), moves the finished trace onto the heap, and holds
// the sink's mutex only for a few pointer pushes and pops.
//
// Nothing here participates in the determinism contract: traces carry
// wall-clock timings only and never touch RESULT payload bytes.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace distapx::trace {

// ---- runtime kill switch -------------------------------------------------

/// Global gate the serving layers check before creating a Collector.
/// Initialized once from the environment: DISTAPX_TRACE=off|0|false
/// disables tracing at startup (the bench's baseline); anything else —
/// including the variable being unset — leaves it on.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

// ---- the span/trace model ------------------------------------------------

/// One interval. Times are nanoseconds relative to the trace's start on
/// the same steady clock; end_ns == 0 marks a span that was never closed
/// (rendered with a trailing "(open)"; Collector::finish closes them all).
struct Span {
  std::uint32_t id = 0;      ///< 1-based index into Trace::spans
  std::uint32_t parent = 0;  ///< 1-based parent id; 0 = top level
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::string notes;  ///< preformatted "k=v k2=v2" annotations

  [[nodiscard]] std::uint64_t duration_ns(
      std::uint64_t fallback_end = 0) const noexcept {
    const std::uint64_t end = end_ns != 0 ? end_ns : fallback_end;
    return end > start_ns ? end - start_ns : 0;
  }
};

/// One completed unit of work. Spans are in start order;
/// a child's parent always has a smaller id, so the tree renders in one
/// forward pass.
struct Trace {
  std::uint64_t id = 0;        ///< submit_no / spool sequence
  std::string endpoint;        ///< "submit", "spool", ...
  std::uint64_t start_unix_ms = 0;  ///< wall clock, display only
  std::uint64_t duration_ns = 0;    ///< trace start -> finish
  std::uint32_t dropped_spans = 0;  ///< beyond kMaxSpansPerTrace
  std::vector<Span> spans;
};

/// Hard cap on spans one Collector retains (a 500-seed sweep would
/// otherwise grow a trace without bound); begin() past the cap counts
/// into dropped_spans and returns the no-op span id 0.
inline constexpr std::uint32_t kMaxSpansPerTrace = 512;

/// Builds one job's Trace. Thread-safe: the socket lane and every
/// BatchServer worker it fans out to append to the same Collector (one
/// short mutex hold per operation — span granularity is per algorithm
/// run, so contention is negligible next to the work being measured).
class Collector {
 public:
  Collector(std::uint64_t id, std::string endpoint);

  /// Opens a span; returns its 1-based id (0 when the cap is hit — every
  /// other member treats id 0 as a no-op, so callers never branch).
  std::uint32_t begin(std::string_view name, std::uint32_t parent = 0);
  void end(std::uint32_t span) noexcept;
  /// Appends "key=value" to the span's notes.
  void annotate(std::uint32_t span, std::string_view key,
                std::string_view value);
  void annotate(std::uint32_t span, std::string_view key, std::uint64_t value);

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] const std::string& endpoint() const noexcept {
    return endpoint_;
  }
  /// Nanoseconds since the trace started (the collector's own clock).
  [[nodiscard]] std::uint64_t elapsed_ns() const noexcept;

  /// Closes every open span at now and returns the final trace. The
  /// collector may not be used afterwards.
  Trace finish();

 private:
  const std::uint64_t id_;
  const std::string endpoint_;
  const std::chrono::steady_clock::time_point t0_;
  std::mutex mu_;
  Trace trace_;  ///< guarded by mu_ (id/endpoint/start duplicated at finish)
  std::uint32_t dropped_ = 0;
};

// ---- thread-local context ------------------------------------------------
//
// Deep layers (ResultCache, CacheManager) annotate the span that is
// currently open on this thread without their signatures knowing about
// tracing. The owner of a Collector installs it with a ContextGuard; a
// ScopedSpan then nests beneath whatever span is current.

struct Context {
  Collector* collector = nullptr;
  std::uint32_t parent = 0;
};

[[nodiscard]] Context current() noexcept;

/// RAII: installs `ctx` as this thread's context, restores the previous
/// one on destruction. BatchServer workers install their job's context.
class ContextGuard {
 public:
  explicit ContextGuard(Context ctx) noexcept;
  ~ContextGuard();
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  Context prev_;
};

/// RAII span under the current thread-local context: opens a child of the
/// current parent, becomes the current parent itself, closes and restores
/// on destruction. A no-op (one TLS load) when no context is installed.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void annotate(std::string_view key, std::string_view value);
  void annotate(std::string_view key, std::uint64_t value);

 private:
  Collector* collector_;
  std::uint32_t span_ = 0;
  Context prev_;
};

/// Annotates the span currently open on this thread (the innermost
/// ScopedSpan / the installed parent); no-op without a context. This is
/// how ResultCache reports hit/miss/rejected and CacheManager reports
/// evictions into the span that wrapped the call.
void annotate_current(std::string_view key, std::string_view value);
void annotate_current(std::string_view key, std::uint64_t value);

// ---- the retention sink --------------------------------------------------

inline constexpr std::size_t kRecentTraces = 128;      ///< last-N window
inline constexpr std::size_t kSlowestPerEndpoint = 8;  ///< slowest-K table

/// Server-wide retention: the last kRecentTraces completed traces plus the
/// kSlowestPerEndpoint slowest per endpoint. publish() is called once per
/// completed job; both views point at the same stored trace.
///
/// Concurrency: one mutex guards the pointer containers only. Readers
/// copy the pointers under it and the traces after releasing it, so a
/// /tracez read never holds up a publishing lane.
class TraceSink {
 public:
  TraceSink() = default;
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  void publish(Trace t);

  /// Retained traces, newest first. Size <= kRecentTraces.
  [[nodiscard]] std::vector<Trace> recent() const;
  /// Per endpoint (sorted by name), the retained slowest traces, slowest
  /// first; equal durations keep publish order. Size of each <=
  /// kSlowestPerEndpoint.
  [[nodiscard]] std::vector<std::pair<std::string, std::vector<Trace>>>
  slowest() const;

  [[nodiscard]] std::uint64_t published_total() const;

 private:
  using TracePtr = std::shared_ptr<const Trace>;

  mutable std::mutex mu_;
  std::deque<TracePtr> recent_;                        ///< newest first
  std::map<std::string, std::vector<TracePtr>> slow_;  ///< slowest first
  std::uint64_t published_ = 0;
};

/// Completes one served job's trace: closes its open spans, emits the
/// slow_job warning when it ran longer than `slow_ms` (0 = never), then
/// moves it into `sink` (null = keep nothing). The logger's per-event
/// token bucket rate-limits a storm of slow jobs.
void complete(Collector& c, TraceSink* sink, std::uint32_t slow_ms);

// ---- rendering -----------------------------------------------------------

/// "12.345ms" — fixed sub-ms precision so columns align in /tracez.
std::string format_duration_ms(std::uint64_t ns);

/// The indented text tree of one trace:
///   trace 42 endpoint=submit start=2026-08-09T12:34:56Z duration=18.402ms
///     recv            0.031ms
///     queue-wait      2.114ms
///     lane-execute   15.902ms
///       cache-lookup  0.019ms seed=1 outcome=hit
///     respond         0.287ms
std::string render_trace_tree(const Trace& t);

/// Top-level spans flattened to one logfmt-friendly token:
/// "recv=0.031ms queue-wait=2.114ms lane-execute=15.902ms" — the
/// slow_job log line's span breakdown.
std::string flatten_spans(const Trace& t);

/// The whole GET /tracez page: recent traces (newest first), then the
/// slowest-K reservoir per endpoint.
std::string render_tracez(const TraceSink& sink);

}  // namespace distapx::trace
