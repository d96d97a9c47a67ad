// Framed request/response network server in front of the BatchServer.
//
// `distapx_cli batch` is the serve path in process — job file in,
// cache-backed BatchServer, deterministic rows out. This subsystem serves
// the same path over a socket: clients connect to a Unix-domain or
// localhost-TCP endpoint, speak the length-prefixed framed protocol of
// net/frame.hpp + net/protocol.hpp, and get back the exact bytes `batch`
// would have written (summary CSV, runs CSV, report text) in a RESULT
// frame.
//
// Architecture: one I/O thread (the caller of run()) multiplexes the
// listener, a self-pipe, and every client connection through poll(2),
// with a per-connection frame-decoding state machine; N executor lanes
// (`lanes`) pull submitted job files from per-connection FIFO queues and
// run each through a cache-backed BatchServer. With `threads` >= 2 the
// units of every lane's SUBMITs run on one sim::WorkerPool of lanes x
// threads workers, capped at the core count (sim/worker_pool.hpp), while
// the lane sleeps; with one thread each lane runs its SUBMITs inline.
//
// Scheduling is fair, not globally FIFO: lanes pick the next job
// round-robin across connections, so a client pipelining a burst of
// sweeps cannot head-of-line-block everyone else — a small job on
// another connection is picked up by the next free lane. Clients may
// pipeline (multiple SUBMITs in flight on one connection); responses to
// one connection always come back in its submit order (completions that
// finish out of order are buffered and released in sequence), while
// order *across* connections is unconstrained. None of this affects
// bytes: every RunRow depends on (spec, seed, kEngineVersion) alone, so
// rows are bit-identical to `distapx_cli batch` at any thread count,
// lane count, and client concurrency (test_socket_server.cpp and the CI
// socket e2e step assert this).
//
// When a connection dies with work still queued (idle-timeout reap,
// mid-frame hangup, protocol error after pipelined SUBMITs), its queued
// jobs are discarded unexecuted and counted in `jobs_dropped`; a job
// already running completes on its lane and its response is dropped at
// delivery. Nothing is ever routed to a reused connection id.
//
// Robustness contract: a malformed or malicious client — garbage magic,
// an oversized declared length, a mid-frame hangup, a slow-loris partial
// header — gets a classified ERR (best effort) and its connection
// closed; the accept loop and every other connection keep serving. A job
// file that fails to parse or run becomes an ERR payload on that
// client's connection, which stays usable.
//
// Stopping: request_stop() (async-signal-safe: atomic flag + self-pipe
// write), a SHUTDOWN frame from a client (unless disabled), or
// max_requests. All three drain gracefully: stop accepting, finish
// queued jobs, flush responses (bounded by idle_timeout_ms for peers
// that stop reading), then return from run().
//
// Crash recovery: none of its own. A crash loses the queued and running
// SUBMITs; their clients see the connection drop and retry. Every
// per-seed cache entry a lost job already stored survives (entries are
// immutable temp+rename files), so a retry recomputes only what was not
// stored yet.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "net/socket.hpp"
#include "service/result_cache.hpp"
#include "support/fdio.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace distapx::service {

struct SocketServerOptions {
  /// Where to listen; parse with net::parse_endpoint ("HOST:PORT" = TCP,
  /// anything else = Unix path). TCP port 0 binds an ephemeral port —
  /// read the real one back from endpoint().
  net::Endpoint endpoint;
  /// Worker threads per lane (0 = hardware concurrency). With 2 or more,
  /// one pool of lanes x threads workers (shared_pool_workers: at most
  /// the core count), shared by every lane, runs the (job, seed) units of
  /// all SUBMITs, each job's graph build included; with 1, each lane runs
  /// its SUBMITs' units inline.
  unsigned threads = 0;
  /// Executor lanes: SUBMITs that may execute concurrently. 0 = auto
  /// (min(hardware concurrency, 8)); an explicit value is honored as
  /// given (lanes beyond the core count still provide head-of-line
  /// isolation — a long sweep timeshares instead of serializing).
  /// A lane picks, parses, renders and responds, and sleeps while its
  /// units run, so the threads are the I/O thread, the lanes and the
  /// pool's workers. Each pool worker (or inline lane) keeps one
  /// sim::Workspace for its lifetime, so the engine buffers retained are
  /// at most one per pool worker (or lane) x the largest run's working
  /// set — the concurrent peak of the runs themselves.
  unsigned lanes = 0;
  /// Result-cache directory; empty = serve without a cache.
  std::string cache_dir;
  /// Cache byte budget (ResultCache open-with-budget semantics); nonzero
  /// without cache_dir is a JobError.
  std::uint64_t cache_budget = 0;
  /// Cap on one frame's declared payload length; a SUBMIT announcing
  /// more is rejected from its header alone.
  std::size_t max_frame_bytes = 16u << 20;
  /// A connection stalled mid-frame (slow loris) or refusing to read its
  /// responses is reaped after this long. 0 disables reaping (then a
  /// drain can block on a peer that never reads — leave it on outside
  /// tests).
  std::uint32_t idle_timeout_ms = 30'000;
  /// Drain after accepting this many SUBMITs (0 = no limit). Bounds a
  /// server's lifetime for tests and the CI e2e step.
  std::uint64_t max_requests = 0;
  /// Whether a SHUTDOWN frame from a client drains the server. On by
  /// default: the serving tier is a localhost/trusted-LAN tool and
  /// scripted stops beat kill(1). Disable for longer-lived deployments.
  bool allow_remote_shutdown = true;
  /// Metrics destination shared with the cache and batch servers this
  /// server drives; the CLI passes the process registry so the admin
  /// endpoint scrapes everything in one page. Null -> a private registry
  /// (instrumentation is unconditional either way). Not owned; must
  /// outlive the server.
  metrics::Registry* registry = nullptr;
  /// Where completed per-SUBMIT traces are published (the recent ring +
  /// slowest-K retention GET /tracez renders). Null = traces are built
  /// (while trace::enabled()) and discarded after delivery. Not owned;
  /// must outlive run().
  trace::TraceSink* trace_sink = nullptr;
  /// A job whose end-to-end trace exceeds this many milliseconds emits
  /// one rate-limited `event=slow_job` log line carrying the flattened
  /// span breakdown. 0 = disabled (the default).
  std::uint32_t slow_ms = 0;
};

/// Counters over one run(). Everything here is operational telemetry —
/// the determinism contract covers RESULT payload bytes only. This is a
/// *typed view* over the metrics registry (socket_stats_from): the server
/// keeps no shadow counters — the registry's relaxed-atomic series are
/// the single source of truth, and the STATS frame, the run() return
/// value, and GET /metrics all render from the same snapshot, so the
/// surfaces cannot disagree.
struct SocketServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t submits_accepted = 0;
  std::uint64_t results_ok = 0;  ///< completed jobs, delivered or not
  std::uint64_t results_error = 0;  ///< ERR replies to well-framed SUBMITs
  std::uint64_t protocol_errors = 0;  ///< bad frames + mid-frame hangups
  std::uint64_t timeouts = 0;         ///< idle_timeout_ms reaps
  std::uint64_t pings = 0;
  std::uint64_t cache_hits = 0;  ///< summed over served jobs
  std::uint64_t computed = 0;
  /// Jobs whose connection died first: queued jobs discarded unexecuted
  /// plus finished jobs whose response had no live connection to go to.
  std::uint64_t jobs_dropped = 0;
  unsigned lanes = 0;  ///< lanes that started (see SocketServer::run)
};

/// The SocketServerStats a registry snapshot implies. cache_hits and
/// computed come from the shared ResultCache / BatchServer counters
/// (cache_hits_total, runs_computed_total) — the serving tier no longer
/// keeps its own copies of those numbers.
SocketServerStats socket_stats_from(const metrics::Snapshot& snap);

/// Workers of the pool every lane shares at `threads` >= 2: lanes x
/// threads, capped at max(2, hardware_threads) so a large `--threads`
/// cannot start thousands of idle workers. `hardware_threads` is
/// std::thread::hardware_concurrency() (0 = unknown). Rows do not depend
/// on it.
unsigned shared_pool_workers(unsigned lanes, unsigned threads,
                             unsigned hardware_threads);

class SocketServer {
 public:
  /// Opens the listener (and the cache, when configured) immediately, so
  /// a bad endpoint or cache dir fails here, not mid-serve. Throws
  /// net::NetError / JobError.
  explicit SocketServer(SocketServerOptions opts);

  /// Serves until a stop condition, then drains and returns the final
  /// counters. Call at most once. A lane whose thread cannot be spawned
  /// (e.g. the process thread limit) is skipped: the server runs on the
  /// lanes that started, and throws only when none did.
  SocketServerStats run();

  /// Safe from other threads and from signal handlers.
  void request_stop() noexcept {
    stop_.store(true);
    pipe_.poke();
  }

  [[nodiscard]] bool stop_requested() const noexcept { return stop_.load(); }
  /// The bound endpoint (ephemeral TCP port resolved).
  [[nodiscard]] const net::Endpoint& endpoint() const noexcept { return ep_; }
  [[nodiscard]] const SocketServerOptions& options() const noexcept {
    return opts_;
  }
  /// Null when no cache_dir was configured.
  [[nodiscard]] ResultCache* cache() noexcept {
    return cache_ ? &*cache_ : nullptr;
  }
  /// The registry this server instruments (the configured one, or the
  /// private fallback). An admin endpoint scrapes this.
  [[nodiscard]] metrics::Registry& registry() noexcept { return *reg_; }

 private:
  SocketServerOptions opts_;
  /// Fallback when options carried no registry; declared before cache_
  /// so the cache can share it.
  std::unique_ptr<metrics::Registry> own_registry_;
  metrics::Registry* reg_ = nullptr;
  net::Endpoint ep_;
  std::optional<net::Listener> listener_;  ///< reset when draining begins
  std::optional<ResultCache> cache_;       ///< engaged iff cache_dir is set
  fdio::Pipe pipe_;                        ///< wakes poll from stop/executor
  std::atomic<bool> stop_{false};
};

}  // namespace distapx::service
