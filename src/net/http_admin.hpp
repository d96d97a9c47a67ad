// Minimal HTTP/1.0 admin endpoint for a serving process.
//
// Five routes, all GET, all close-after-response:
//
//   /metrics  -> 200, Prometheus text exposition (version 0.0.4) of the
//                process registry's snapshot at scrape time
//   /healthz  -> 200 "ok" when serving; 503 "draining" once drain has
//                begun; 503 "starting" before the serving loop is up.
//                Health is read from the registry's `ready` / `draining`
//                gauges, which the socket server / daemon maintain — the
//                admin plane holds no state of its own.
//   /statusz  -> 200, human-oriented one-page process summary: build and
//                engine/protocol versions, uptime, the static facts the
//                serving CLI registered (lanes, cache dir/budget,
//                durability mode), live gauges, and process rusage.
//   /tracez   -> 200, the trace sink's retained traces (recent ring +
//                slowest-K per endpoint) as indented text trees; a plain
//                note when no sink is attached.
//   /vars     -> 200, raw "name value" lines of every metric — counters,
//                gauges, float gauges, and histogram count/sum/p50/
//                p95/p99 (cumulative) — for scripts
//                that don't want to parse Prometheus framing.
//
// The server runs one dedicated thread with its own poll(2) loop (the
// same listener/self-pipe primitives as the socket server), so /metrics
// stays scrapeable while every executor lane is busy — that is the point
// of an admin plane. HTTP support is deliberately narrow: GET only,
// request line + headers parsed just enough to route, 8 KiB request cap,
// idle connections reaped. Anything unexpected gets a plain-status
// response and the connection closed; this endpoint is for curl and
// scrapers on a trusted interface, not browsers.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/socket.hpp"
#include "support/metrics.hpp"

namespace distapx::trace {
class TraceSink;
}

namespace distapx::net {

struct AdminOptions {
  std::string endpoint;  ///< "HOST:PORT" (port 0 ok) or a Unix socket path
  metrics::Registry* registry = nullptr;  ///< required; not owned
  std::uint32_t max_request_bytes = 8192;
  std::uint32_t idle_timeout_ms = 10000;
  /// Trace retention to render on /tracez; null renders a placeholder.
  const trace::TraceSink* trace_sink = nullptr;  ///< not owned
  /// Static "key: value" facts for /statusz (lanes, cache dir, ...);
  /// rendered in the order given.
  std::vector<std::pair<std::string, std::string>> status_fields;
};

/// Everything admin_handle_request needs beyond the registry. The server
/// builds one from its options; string-level tests build their own.
struct AdminContext {
  const trace::TraceSink* sink = nullptr;
  const std::vector<std::pair<std::string, std::string>>* status_fields =
      nullptr;
  std::chrono::steady_clock::time_point start_time{};  ///< for uptime
};

class AdminServer {
 public:
  /// Binds the endpoint (throws NetError on failure) but serves nothing
  /// until start().
  explicit AdminServer(AdminOptions opts);
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// The bound endpoint — for TCP port 0 this carries the real port.
  [[nodiscard]] const Endpoint& endpoint() const noexcept;

  /// Spawns the serving thread. Call at most once.
  void start();
  /// Wakes the loop, joins the thread, closes all connections. Idempotent;
  /// also run by the destructor.
  void stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Routing + response formatting, factored out of the socket loop so the
/// tests can drive it with plain strings. `request` is everything up to
/// (not necessarily including) the blank line; returns the full HTTP
/// response bytes.
std::string admin_handle_request(std::string_view request,
                                 const metrics::Registry& registry,
                                 const AdminContext& ctx);

/// Context-free overload (kept for callers that only need /metrics and
/// /healthz): /tracez reports no sink, /statusz shows zero uptime and no
/// static fields.
std::string admin_handle_request(std::string_view request,
                                 const metrics::Registry& registry);

}  // namespace distapx::net
