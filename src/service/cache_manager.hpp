// Cache lifecycle management: size accounting, LRU eviction under a byte
// budget, and scan/verify/repair for result-cache directories.
//
// PR 3's ResultCache can only grow; this layer makes a cache directory a
// managed resource. A CacheManager tracks per-entry metadata — size, a
// logical last-access sequence, the key fingerprint recovered from the
// entry path — in memory, persisted through a write-ahead changelog
// (support/changelog.hpp) at <dir>/manifest{.snap,.log}: the snapshot
// holds one `F hex size` record per live entry in LRU order, the tail
// accumulates `F` (fill) and `T` (touch) records between compactions.
//
// Opening is O(snapshot + tail), not O(directory): when the changelog
// carries state, replaying it reconstructs the accounting without
// touching a single entry file (cache_open_replays_total). Only a
// directory with no journal state — fresh, populated by an unbudgeted
// writer, or carrying a foreign or corrupt manifest.log, which is
// replaced by an empty changelog — pays a full recursive scan
// (cache_open_scans_total), after which a snapshot is written so the next
// open replays. A scan recovers every entry but no access order.
//
// Safety model — everything here is *advisory* except the deletes:
//   - Entries are immutable, checksummed, recomputable files published by
//     temp + rename. Evicting any entry is always safe: the worst outcome
//     is a future miss and recompute. So approximate accounting (a
//     concurrent process filling or evicting behind our back, a snapshot
//     gone stale against the directory) can never corrupt results, only
//     make eviction less precise; rescan() and verify() re-sync with the
//     directory when precision matters.
//   - Eviction unlinks atomically and tolerates entries already deleted
//     by a concurrent manager (fs::remove on a missing file is a no-op
//     here, not an error).
//   - The changelog absorbs torn tails (crash mid-append) by replaying
//     the valid prefix; entries absent from the journal rank least-recent
//     with a deterministic hex tie-break. Journal write failures are
//     counted (manifest_append_failures_total) and warned, never thrown.
//
// verify() walks the directory (ground truth, not the in-memory map) and
// validates every entry file with the exact machinery lookup() uses
// (check_entry_file: length/magic/format/engine/key-echo/checksum), so
// anything lookup would reject, verify detects — and can quarantine into
// <dir>/quarantine/ or delete. It also adopts valid entries the journal
// did not know about, so a verify doubles as reconciliation.
// distapx_cli's `cache` subcommand fronts all of this for operators.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "service/result_cache.hpp"
#include "support/changelog.hpp"
#include "support/fingerprint.hpp"
#include "support/manifest.hpp"
#include "support/metrics.hpp"

namespace distapx::service {

/// One live entry's metadata, as tracked by the manager.
struct CacheEntryInfo {
  Fingerprint key;
  std::uint64_t size = 0;
  /// Logical last-access sequence: higher = more recently used. 0 for
  /// entries never seen in the journal (they evict first).
  std::uint64_t last_access = 0;
};

/// Directory-level accounting for `cache stats`.
struct CacheDirStats {
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;          ///< sum of live entry sizes
  /// Journal record bytes on disk (snapshot + tail payloads; file-format
  /// framing excluded, so a cleared cache reports 0).
  std::uint64_t manifest_bytes = 0;
  std::uint64_t quarantined = 0;    ///< files under <dir>/quarantine/
};

/// The CacheDirStats a registry snapshot implies (gauges cache_entries,
/// cache_bytes, cache_manifest_bytes, cache_quarantined). stats() refreshes
/// the disk-derived gauges before they are read, so `cache stats` renders
/// from the same snapshot as every other surface.
CacheDirStats cache_dir_stats_from(const metrics::Snapshot& snap);

/// Outcome of one gc() pass.
struct GcReport {
  std::uint64_t evicted_entries = 0;
  std::uint64_t evicted_bytes = 0;
  std::uint64_t live_entries = 0;
  std::uint64_t live_bytes = 0;
};

/// What verify() should do with an invalid entry.
enum class RepairMode {
  kReport,      ///< count and list only
  kQuarantine,  ///< move into <dir>/quarantine/ (default repair)
  kDelete,      ///< unlink
};

/// One invalid entry found by verify().
struct VerifyFinding {
  std::string path;    ///< relative to the cache dir
  EntryStatus status = EntryStatus::kOk;
};

/// Outcome of one verify() walk.
struct VerifyReport {
  std::uint64_t checked = 0;      ///< entry files examined
  std::uint64_t ok = 0;
  std::uint64_t invalid = 0;      ///< failed validation
  std::uint64_t quarantined = 0;  ///< moved to quarantine/
  std::uint64_t deleted = 0;      ///< unlinked
  std::uint64_t foreign = 0;      ///< non-entry files left untouched
  std::vector<VerifyFinding> findings;  ///< the invalid entries
};

class CacheManager {
 public:
  /// Opens `dir`: replays the manifest changelog when it carries state
  /// (O(snapshot + tail), no directory walk), full-scans otherwise. The
  /// directory is created if absent (so `cache stats` on a fresh path
  /// works); throws JobError when it cannot be.
  ///
  /// `registry` receives the cache_entries/cache_bytes gauges and the
  /// eviction counters (null -> a private registry; instrumentation is
  /// unconditional either way). Not owned; must outlive the manager.
  explicit CacheManager(std::string dir,
                        metrics::Registry* registry = nullptr);

  /// Flushes buffered journal appends.
  ~CacheManager();

  CacheManager(const CacheManager&) = delete;
  CacheManager& operator=(const CacheManager&) = delete;

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  /// The changelog base: the on-disk files are manifest_path() + ".log"
  /// and + ".snap".
  [[nodiscard]] std::string manifest_path() const;
  [[nodiscard]] std::string quarantine_dir() const;

  /// Records a fill: updates the in-memory map and buffers an `F` journal
  /// record. Thread-safe; journal writes are batched (flushed every
  /// kJournalFlushBatch records, on compaction, and at destruction) so
  /// the per-record cost under the lock is an in-memory push — one
  /// fdatasync per flushed batch, not per record. The journal snapshots
  /// (compacts) once the tail outgrows the live-entry count, so a warm
  /// long-lived daemon's manifest stays bounded. Append failures are
  /// counted and warned, never thrown (advisory metadata).
  void record_put(const Fingerprint& key, std::uint64_t size);

  /// Records a hit (touch): bumps the entry's access sequence and buffers
  /// a `T` record (same batching as record_put). An entry this manager
  /// has never seen (filled by another process) is adopted by stat-ing
  /// the file.
  void record_get(const Fingerprint& key);

  [[nodiscard]] std::uint64_t live_bytes() const;
  [[nodiscard]] std::uint64_t live_entries() const;

  /// Live entries in eviction order (least recently used first; ties by
  /// key hex, so the order is deterministic).
  [[nodiscard]] std::vector<CacheEntryInfo> entries_lru() const;

  /// Also publishes the manifest/quarantine gauges (the walk happens here
  /// anyway), so a snapshot taken right after carries all four series.
  [[nodiscard]] CacheDirStats stats() const;

  /// The registry this manager instruments (configured or private).
  [[nodiscard]] metrics::Registry& registry() noexcept { return *reg_; }

  /// The journal (for tests asserting tail/snapshot record counts).
  [[nodiscard]] const Changelog* journal() const noexcept {
    return changelog_ ? &*changelog_ : nullptr;
  }

  /// Evicts least-recently-used entries until live_bytes() <= budget.
  /// Unlinks are atomic and tolerant of entries a concurrent process
  /// already deleted; an entry whose unlink genuinely fails (permissions,
  /// read-only fs) stays accounted as live, so the report never claims a
  /// budget the disk does not meet. Compacts the journal (writes a fresh
  /// snapshot) when anything was evicted.
  GcReport gc(std::uint64_t budget_bytes);

  /// Walks the directory and validates every entry file; invalid entries
  /// are reported, quarantined, or deleted per `mode`. Foreign files
  /// (anything that is not a well-formed entry path, e.g. stray temp
  /// droppings) are counted but never touched. Valid entries the journal
  /// missed are adopted, and the journal is re-snapshotted after repairs.
  VerifyReport verify(RepairMode mode);

  /// Deletes every entry, the journal, and the quarantine dir. Returns
  /// the number of entries removed.
  std::uint64_t clear();

  /// Re-syncs the in-memory map with the directory (cross-process
  /// convergence); known entries keep their access order. Writes a fresh
  /// snapshot so the next open replays the converged state.
  void rescan();

  /// Flushes pending journal records and compacts into a fresh snapshot
  /// (one `F` record per live entry in LRU order, empty tail). The next
  /// open replays this state in O(entries) without a directory walk.
  void checkpoint();

 private:
  struct Entry {
    std::uint64_t size = 0;
    std::uint64_t last_access = 0;
  };

  /// Buffered journal records per flush; keeps file I/O off the hot
  /// lookup path (one in-memory push per hit, one append batch — one
  /// fdatasync — per kJournalFlushBatch records).
  static constexpr std::size_t kJournalFlushBatch = 64;

  /// Opens the changelog at manifest_path(), replacing a foreign or
  /// corrupt one with an empty changelog.
  void open_journal();
  /// Rebuilds the map from the replayed changelog (no directory I/O).
  void replay_locked(std::uint64_t* replayed_records);
  /// Rebuilds the map from a recursive directory walk.
  void scan_locked();
  /// Applies one journal record to the map (idempotent: replay may
  /// deliver a record twice after a crash between snapshot and tail
  /// reset).
  void apply_record_locked(const ManifestRecord& rec);
  /// Publishes entries_/live_bytes_ to the cache_entries / cache_bytes
  /// gauges; call after any change to the live accounting.
  void publish_gauges_locked() noexcept;
  void buffer_journal_locked(ManifestRecord record);
  void flush_journal_locked();
  /// Snapshot + tail reset; counts and warns on failure.
  void checkpoint_locked();
  /// Live entries in eviction order (least recent first, hex tie-break).
  [[nodiscard]] std::vector<std::pair<std::string, Entry>> lru_sorted_locked()
      const;

  std::string dir_;
  /// Fallback registry (see constructor); declared before the metric
  /// references that bind to it.
  std::unique_ptr<metrics::Registry> own_registry_;
  metrics::Registry* reg_ = nullptr;
  metrics::Gauge& entries_gauge_;
  metrics::Gauge& bytes_gauge_;
  metrics::Gauge& manifest_bytes_gauge_;
  metrics::Gauge& quarantined_gauge_;
  metrics::Counter& evicted_entries_;
  metrics::Counter& evicted_bytes_;
  metrics::Counter& open_scans_;
  metrics::Counter& open_replays_;
  metrics::Counter& append_failures_;
  mutable std::mutex mu_;
  std::optional<Changelog> changelog_;
  /// key hex -> metadata. std::map keeps deterministic iteration for the
  /// hex tie-break in eviction order.
  std::map<std::string, Entry> entries_;
  std::uint64_t live_bytes_ = 0;
  std::uint64_t next_access_ = 1;
  std::vector<ManifestRecord> pending_journal_;
};

}  // namespace distapx::service
