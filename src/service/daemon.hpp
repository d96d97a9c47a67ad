// Long-lived spool-serving daemon.
//
// The batch server (batch_server.hpp) serves one job file per process
// invocation; the daemon turns that into a service: it watches a spool
// directory for job files, runs each through a BatchServer backed by an
// optional result cache (result_cache.hpp), and publishes per-file results
// next to the spool. Producers submit work with an atomic rename into the
// spool — write "sweep.tmp", rename to "sweep.job" — so the daemon never
// reads a half-written file; only names ending in ".job" are claimed.
//
// Spool layout (all created by the constructor):
//   <spool>/NAME.job              incoming work, claimed in lexicographic
//                                 name order (deterministic)
//   <spool>/done/NAME.job         processed job file (moved, audit trail)
//   <spool>/done/NAME.summary.csv one row per job (aggregates)
//   <spool>/done/NAME.runs.csv    one row per run (determinism witness)
//   <spool>/done/NAME.report.txt  served/computed/hit-rate counters
//   <spool>/failed/NAME.job       quarantined malformed file
//   <spool>/failed/NAME.error     its line-numbered diagnostic
//   <spool>/journal.{log,snap}    claim/publish changelog (crash recovery)
//   <spool>/stop                  sentinel: daemon removes it and exits
//
// Crash safety: results are published with write_file_durable (temp +
// fdatasync + rename + directory fsync), and the publish -> move window is
// journaled in a write-ahead changelog (support/changelog.hpp): `P NAME`
// lands durably after the three done-files exist and before the job file
// moves, `D NAME` after the move. A daemon restarted over a spool whose
// predecessor died inside that window finds the P-without-D record, sees
// the done files already complete, and *resumes*: it finishes the move
// without recomputing and without rewriting a single published byte —
// each result is published exactly once (spool_resumed_total counts
// these). A P-without-D whose job file already left the spool (crash
// after move, before D) is settled at startup. The journal is compacted
// to a snapshot of still-pending claims on every open.
//
// Determinism contract: NAME.summary.csv and NAME.runs.csv are pure
// functions of the job file's content (and kEngineVersion) — independent
// of thread count, of cache warmth, and of what else sits in the spool.
// The report.txt counters (hit rate, wall time) are operational telemetry
// and deliberately live outside that contract.
//
// A malformed job file is quarantined with its JobError and the daemon
// keeps serving; it never wedges the spool. A file that cannot be *moved*
// out of the spool (done/failed unwritable, disk full) is pinned in-memory
// and skipped on later scans instead of being re-served every poll cycle;
// restart the daemon after fixing the filesystem to retry it. run() is
// cleanly stoppable via request_stop() (from another thread or a signal
// handler) or by touching the "stop" sentinel from outside the process.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "service/result_cache.hpp"
#include "support/changelog.hpp"
#include "support/trace.hpp"

namespace distapx::service {

struct DaemonOptions {
  std::string spool_dir;  ///< required; created if absent
  /// Result-cache directory; empty = serve without a cache.
  std::string cache_dir;
  /// Byte budget for the cache (ResultCache open-with-budget semantics:
  /// evict to budget at open, re-enforce on every fill). 0 = unbounded;
  /// nonzero without cache_dir is a JobError.
  std::uint64_t cache_budget = 0;
  /// Worker threads per job file (BatchOptions::threads semantics).
  unsigned threads = 0;
  /// Upper bound on the delay between spool scans in run(), in
  /// milliseconds. run() backs off exponentially while the spool stays
  /// empty — the scan after a served file comes almost immediately, then
  /// 2x per empty scan up to this cap — so a busy spool is drained with
  /// low latency and an idle daemon stops burning a fixed-rate stat loop.
  std::uint32_t poll_ms = 200;
  /// Stop after serving this many job files (0 = no limit). Lets tests and
  /// one-shot CLI invocations bound the daemon's lifetime.
  std::uint64_t max_files = 0;
  /// Metrics destination, shared with the cache and batch servers; the
  /// CLI passes the process registry so --admin scrapes the daemon too.
  /// Null -> a private registry. Not owned; must outlive the daemon.
  metrics::Registry* registry = nullptr;
  /// Where completed per-file traces are published (recent ring +
  /// slowest-K, rendered by GET /tracez). Null = per-file traces are not
  /// built at all. Not owned; must outlive the daemon.
  trace::TraceSink* trace_sink = nullptr;
  /// A job file whose end-to-end trace exceeds this many milliseconds
  /// emits one rate-limited `event=slow_job` log line with the flattened
  /// span breakdown. 0 = disabled (the default).
  std::uint32_t slow_ms = 0;
};

/// Outcome of one job file, as recorded in done/NAME.report.txt.
struct JobFileReport {
  std::string name;   ///< job-file stem ("sweep" for sweep.job)
  bool ok = false;
  /// True when this file's results were already published by a previous
  /// (crashed) daemon and only the spool move was finished here — no
  /// recompute, no rewrite, and the run counters below stay zero (the
  /// published report.txt has the originals).
  bool resumed = false;
  std::string error;  ///< the quarantining diagnostic when !ok
  std::uint64_t runs = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t computed = 0;
  std::uint64_t materialized = 0;  ///< jobs whose graph was built
  double wall_seconds = 0;

  [[nodiscard]] double hit_rate() const {
    return runs == 0 ? 0.0
                     : static_cast<double>(cache_hits) /
                           static_cast<double>(runs);
  }
};

/// The idle-poll backoff schedule run() follows: 1ms after activity,
/// doubling per empty scan, capped at `cap_ms` (a zero cap polls as fast
/// as the scan itself — the old poll_ms=0 busy-drain behavior). Exposed
/// so tests can pin the schedule without timing a sleep loop.
std::uint32_t next_idle_wait_ms(std::uint32_t current_ms,
                                std::uint32_t cap_ms) noexcept;

class Daemon {
 public:
  /// Creates the spool layout (and the cache, when configured). Throws
  /// JobError if a directory cannot be created.
  explicit Daemon(DaemonOptions opts);

  /// Serves one job file already inside the spool: parse, serve, publish
  /// results, move to done/ (or quarantine to failed/). Never throws on a
  /// bad job file — the failure becomes the report.
  JobFileReport process_file(const std::string& path);

  /// One spool scan: claims every *.job file in lexicographic name order.
  std::vector<JobFileReport> drain_once();

  /// Poll loop: drain, sleep poll_ms, repeat — until request_stop(), the
  /// stop sentinel, or max_files. Returns reports in processing order.
  std::vector<JobFileReport> run();

  /// Safe from other threads and from signal handlers.
  void request_stop() noexcept { stop_.store(true); }

  [[nodiscard]] bool stop_requested() const noexcept { return stop_.load(); }
  [[nodiscard]] const DaemonOptions& options() const noexcept { return opts_; }
  /// Null when no cache_dir was configured.
  [[nodiscard]] ResultCache* cache() noexcept {
    return cache_ ? &*cache_ : nullptr;
  }
  /// The registry this daemon instruments (configured or private).
  [[nodiscard]] metrics::Registry& registry() noexcept { return *reg_; }
  /// The claim/publish journal (for tests asserting record counts).
  [[nodiscard]] const Changelog& journal() const noexcept { return *journal_; }

 private:
  DaemonOptions opts_;
  /// Fallback when options carried no registry; before cache_ so the
  /// cache can share it.
  std::unique_ptr<metrics::Registry> own_registry_;
  metrics::Registry* reg_ = nullptr;
  std::optional<ResultCache> cache_;  ///< engaged iff cache_dir is set
  /// Claim/publish changelog at <spool>/journal; always engaged after
  /// construction (optional only for deferred init).
  std::optional<Changelog> journal_;
  /// Job names with a replayed `P` record and no `D`: published by a
  /// crashed predecessor, awaiting resume. Drained by process_file.
  std::unordered_set<std::string> published_;
  std::atomic<bool> stop_{false};
  std::uint64_t served_ = 0;
  /// Trace-id sequence for per-file traces (ids are per-daemon, like the
  /// socket tier's submit numbers are per-server).
  std::uint64_t trace_seq_ = 0;
  /// Job-file names that could not be moved out of the spool: skipped by
  /// drain_once so a broken done/failed directory cannot busy-loop run().
  std::unordered_set<std::string> stuck_;
};

}  // namespace distapx::service
