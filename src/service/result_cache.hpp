// Content-addressed on-disk cache of per-run results.
//
// Every RunRow the batch server produces is a deterministic function of
// (workload description, algorithm, seed, engine version) — the same
// determinism contract test_batch_server.cpp asserts across thread counts.
// That makes each run perfectly memoizable: the cache addresses one RunRow
// by a 128-bit fingerprint of the run's full input description and serves
// repeated experiment sweeps from disk instead of recomputing them.
//
// Key derivation (run_fingerprint): kEngineVersion, the algorithm id, the
// *canonical* generator spec (gen::canonical_spec, so "gnp:0100:0.50" and
// "gnp:100:.5" share entries) or the graph file path, graph_seed, max_w,
// the bandwidth policy, eps, max_rounds, and the run seed. Anything that
// can change a row changes the key; bump kEngineVersion whenever engine
// semantics change so stale caches turn into misses, never wrong answers.
//
// On-disk layout: <dir>/<hh>/<hex28>.rr, two-level fan-out on the first
// two hex digits. Entries are written to a unique temp file and renamed
// into place, so readers never observe a partial entry and concurrent
// fills of the same key are safe (last rename wins; the content is
// identical by construction). Every entry carries magic, format + engine
// versions, the full key, the RunRow, the job's graph facts (n, m, Δ, so a
// fully cached job reports its summary row without building its graph),
// and a trailing checksum; lookup() treats any mismatch — corruption,
// truncation, foreign file, stale version — as a miss, so the worst
// failure mode is recomputation.
//
// Lifecycle (size budgets, LRU eviction, verify/repair) lives in
// service/cache_manager.hpp; opening a ResultCache with a nonzero budget
// attaches a CacheManager and keeps the directory bounded.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "service/batch_server.hpp"
#include "service/job_spec.hpp"
#include "support/fingerprint.hpp"
#include "support/metrics.hpp"

namespace distapx::service {

class CacheManager;  // service/cache_manager.hpp

/// Bump when the engine or any algorithm changes behavior: old entries
/// must stop hitting. (Independent of the file-format version inside
/// result_cache.cpp, which only guards deserialization.)
inline constexpr std::uint32_t kEngineVersion = 8;

/// Accumulator over everything a RunRow depends on *except* the run seed:
/// engine version, algorithm, canonical workload source, gseed, maxw,
/// policy, eps, rounds. Per-job constant — compute it once (submit()
/// stores it on the ResolvedJob) and derive per-seed keys from it. Throws
/// gen::SpecError on an invalid generator spec.
Fingerprinter job_fingerprinter(const JobSpec& spec);

/// job_fingerprinter(spec) + the run seed: the full cache key.
Fingerprint run_fingerprint(const JobSpec& spec, std::uint64_t seed);

/// The same key from a precomputed per-job prefix (the hot-path form:
/// absorbing one seed word instead of re-canonicalizing the spec).
Fingerprint run_fingerprint(Fingerprinter job_prefix, std::uint64_t seed);

/// Counters since construction / reset_stats(). `rejected` counts entries
/// that existed but failed validation (corrupt, truncated, version
/// mismatch) and were treated as misses. A typed view over the metrics
/// registry's cache_* counters (see cache_stats_from) — the registry is
/// the single source of truth; this struct exists so call sites keep a
/// plain-integer API.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t rejected = 0;
};

/// The CacheStats a registry snapshot implies (cache_hits_total and
/// friends). The STATS frame, `cache stats`, and /metrics all derive
/// from the same counters, so the surfaces cannot disagree.
CacheStats cache_stats_from(const metrics::Snapshot& snap);

// ---- entry-file machinery (shared with the cache manager) ----------------

/// One entry's payload: a run's row and its job's graph facts.
struct CachedRun {
  RunRow row;
  GraphFacts facts;
};

/// Classification of one on-disk entry file. lookup() folds every non-kOk
/// outcome into a miss; CacheManager::verify reports the reason and
/// quarantines/deletes the file.
enum class EntryStatus {
  kOk,
  kMissing,      ///< no file at the path
  kIoError,      ///< the file exists but could not be read
  kBadLength,    ///< short (truncated) or long (garbage appended) file
  kBadMagic,     ///< not a cache entry at all
  kBadFormat,    ///< written by an incompatible serializer version
  kBadEngine,    ///< written by an older/newer engine (stale semantics)
  kKeyMismatch,  ///< valid entry filed under the wrong key (fs mixup)
  kBadChecksum,  ///< payload corruption
};

/// Stable lowercase name for reports ("ok", "bad-checksum", ...).
const char* entry_status_name(EntryStatus s) noexcept;

/// Size in bytes of every valid entry file (the format is fixed-width).
std::size_t entry_file_size() noexcept;

/// Reads and fully validates one entry file against `key`: explicit
/// short-read/EOF handling (a file truncated at any byte boundary is
/// kBadLength, an unreadable one kIoError — never misclassified), then
/// magic/format/engine/key-echo/checksum. On kOk the decoded entry is
/// written to `out` when non-null.
EntryStatus check_entry_file(const std::string& path, const Fingerprint& key,
                             CachedRun* out = nullptr);

/// The entry path `key` maps to under `dir`: <dir>/<hh>/<hex30>.rr,
/// two-level fan-out on the first two hex digits. The hex overload is the
/// single source of truth for the layout (the cache manager addresses
/// entries by hex).
std::string cache_entry_path(const std::string& dir, const Fingerprint& key);
std::string cache_entry_path(const std::string& dir,
                             const std::string& key_hex);

/// Inverse of cache_entry_path: recovers the key a well-formed entry path
/// encodes (a ".rr" file whose parent-dir name + stem are the 32 hex key
/// digits); nullopt for anything else. Lets scan/verify walk a cache dir
/// without a separate index.
std::optional<Fingerprint> key_from_entry_path(const std::string& path);

class ResultCache {
 public:
  /// Creates `dir` (and fan-out subdirectories lazily). Throws JobError if
  /// the directory cannot be created.
  ///
  /// `budget_bytes` > 0 opens the cache *with a budget*: a CacheManager is
  /// attached, the directory is evicted down to the budget immediately
  /// (oldest fill first, by mtime), every store records the fill and
  /// re-enforces the budget, and every hit records a touch. 0 keeps the
  /// PR-3 behavior: no manager, zero metadata overhead.
  ///
  /// `registry` is where hit/miss/store/reject counters land (shared with
  /// the serving process's other components so /metrics sees them); null
  /// falls back to a private registry, keeping instrumentation
  /// unconditional. Not owned; must outlive the cache.
  explicit ResultCache(std::string dir, std::uint64_t budget_bytes = 0,
                       metrics::Registry* registry = nullptr);
  ~ResultCache();

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] std::uint64_t budget_bytes() const noexcept {
    return budget_bytes_;
  }
  /// Null when the cache was opened without a budget.
  [[nodiscard]] CacheManager* manager() noexcept { return manager_.get(); }

  /// Returns the cached row and graph facts, or nullopt on miss / invalid
  /// entry. Safe to call concurrently with lookups and stores from other
  /// threads and processes.
  std::optional<CachedRun> lookup(const Fingerprint& key);

  /// Persists a row and its job's graph facts under `key` (atomic
  /// write-then-rename). Concurrent stores of the same key are safe.
  void store(const Fingerprint& key, const RunRow& row,
             const GraphFacts& facts);

  [[nodiscard]] CacheStats stats() const noexcept;
  void reset_stats() noexcept;

  /// The entry path a key maps to (exposed for tests that corrupt it).
  [[nodiscard]] std::string entry_path(const Fingerprint& key) const;

 private:
  /// Evicts to the low watermark (budget - 1/8) when the manager's
  /// accounting exceeds the budget. Called on fills and on hits (hits can
  /// grow the accounting too: the manager adopts entries filled by other
  /// processes sharing the directory).
  void enforce_budget();

  std::string dir_;
  std::uint64_t budget_bytes_ = 0;
  /// Fallback when no shared registry is passed; declared before the
  /// counter references so they can bind to it during construction.
  std::unique_ptr<metrics::Registry> own_registry_;
  metrics::Counter& hits_;
  metrics::Counter& misses_;
  metrics::Counter& stores_;
  metrics::Counter& rejected_;
  /// Registry counters are monotone and possibly shared; reset_stats()
  /// (tests, bench warm-up) subtracts these baselines instead.
  std::atomic<std::uint64_t> base_hits_{0};
  std::atomic<std::uint64_t> base_misses_{0};
  std::atomic<std::uint64_t> base_stores_{0};
  std::atomic<std::uint64_t> base_rejected_{0};
  std::unique_ptr<CacheManager> manager_;  ///< engaged iff budgeted
  std::atomic<std::uint64_t> temp_counter_{0};
};

}  // namespace distapx::service
