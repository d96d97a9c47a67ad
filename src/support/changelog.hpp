// Write-ahead changelog: a framed, checksummed, torn-tail-tolerant
// append-only record log with snapshot + compaction.
//
// A line-oriented text journal was the prototype: append cheaply, replay
// on open, tolerate a torn tail. This module is the generalized,
// binary-safe version the serving tier's crash-recovery is built on. A
// changelog at base path P owns two files:
//
//   P.log    the tail: header + framed records, appended in arrival order
//   P.snap   the snapshot: same format, atomically replaced by snapshot()
//
// Record frame (little-endian):
//   u32  payload length                        (<= kMaxRecordBytes)
//   u64  checksum = fingerprint_bytes(payload).lo
//   u8[] payload (opaque bytes; consumers define their own record syntax)
//
// Replay on open = every snapshot record, then every valid tail record.
// The tail is scanned front to back and cut at the first frame that is
// incomplete, oversized, or checksum-mismatched: a crash mid-append (torn
// tail) silently loses only the torn record, and the file is truncated
// back to the valid prefix so later appends extend clean state instead of
// interleaving with garbage. A file that exists but does not carry this
// module's magic is *foreign* and open throws rather than clobbering it.
//
// snapshot(records) compacts: the records are written to a temp file,
// fdatasync'd, renamed over P.snap, the directory is fsync'd (so the
// rename itself survives power loss), and only then is the tail reset to
// empty. A crash between the rename and the reset leaves records present
// in both files; replay then delivers them twice, so consumers MUST apply
// records idempotently (all current consumers do: cache-manifest F/T
// records are upserts/touches, daemon P/D records are set operations).
//
// fsync discipline follows the process-wide fsutil durability knob: at
// kFull every append batch is fdatasync'd before append() returns (a
// record the caller saw accepted survives power loss), at kNone appends
// are buffered-write only. Appends never throw: a failed append returns
// false and is counted, because every current consumer treats the log as
// recovery metadata whose loss degrades to recompute, never to wrong
// results. A record longer than kMaxRecordBytes, which replay would cut as
// a torn tail, is refused the same way before anything is written.
//
// Thread safety: append/append_batch/snapshot/counters may be called from
// any thread (one internal mutex); replayed() is immutable post-open.
// Cross-process appenders interleave at batch granularity (O_APPEND, one
// write per batch) but snapshot() is last-writer-wins — multi-process use
// stays advisory, exactly like the old manifest.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace distapx {

/// Open failure: unopenable path, or an existing file that is not a
/// changelog (foreign magic / unsupported version). Never thrown for a
/// torn tail — that is the expected crash residue and is repaired.
struct ChangelogError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Everything open() recovered, in replay order (snapshot first).
struct ChangelogState {
  std::vector<std::string> snapshot;  ///< records from P.snap
  std::vector<std::string> tail;      ///< valid records from P.log
  /// Bytes cut from the tail at open (torn final record). 0 after a
  /// clean shutdown.
  std::uint64_t torn_bytes = 0;
};

class Changelog {
 public:
  /// Hard ceiling on one record's payload; a length field above it is
  /// treated as tail corruption, so append/append_batch refuse a larger
  /// payload (a batch fails as a whole). Generous enough for a
  /// default-size socket job frame.
  static constexpr std::uint32_t kMaxRecordBytes = 64u << 20;

  /// Opens (creating if absent) the changelog at `base_path` ("...": the
  /// files are base_path + ".log" / ".snap"). Replays both files and
  /// truncates a torn tail. Throws ChangelogError on foreign files or
  /// unopenable paths.
  explicit Changelog(std::string base_path);
  ~Changelog();

  Changelog(const Changelog&) = delete;
  Changelog& operator=(const Changelog&) = delete;

  [[nodiscard]] const std::string& base_path() const noexcept {
    return base_;
  }
  [[nodiscard]] std::string log_path() const { return base_ + ".log"; }
  [[nodiscard]] std::string snapshot_path() const { return base_ + ".snap"; }

  /// What open() replayed. Stable for the changelog's lifetime (appends
  /// after open are NOT reflected here — the caller just made them).
  [[nodiscard]] const ChangelogState& replayed() const noexcept {
    return state_;
  }

  /// Appends one record (or a batch as a single write + single sync) to
  /// the tail; at fsutil::Durability::kFull the data is fdatasync'd
  /// before returning. False on write/sync failure or an oversized
  /// payload (counted, never thrown); a refused batch writes nothing.
  bool append(std::string_view payload);
  bool append_batch(const std::vector<std::string>& payloads);

  /// Atomically replaces the snapshot with exactly `records` and resets
  /// the tail (compaction). Durable against power loss once it returns
  /// true (at kFull): temp + fdatasync + rename + directory fsync.
  bool snapshot(const std::vector<std::string>& records);

  /// Records currently in the on-disk tail (replayed survivors + appends
  /// since open; reset to 0 by snapshot()). Consumers use this for their
  /// compaction trigger.
  [[nodiscard]] std::uint64_t tail_records() const;

  /// Records in the snapshot file (as of the last open() or snapshot()).
  [[nodiscard]] std::uint64_t snapshot_records() const;

  /// append/snapshot calls that returned false.
  [[nodiscard]] std::uint64_t write_failures() const;

  /// Record payload bytes on disk across both files (headers and frame
  /// overhead excluded — an empty changelog reports 0 even though the
  /// files carry headers).
  [[nodiscard]] std::uint64_t payload_bytes() const;

  /// Test seam: while set, every append/append_batch/snapshot in the
  /// process fails (returns false) without touching the disk — the only
  /// portable way to exercise append-failure accounting once a log fd is
  /// open (root ignores permission bits).
  static void set_write_failure_for_testing(bool fail) noexcept;

 private:
  /// Counts a write refused before touching the disk; returns false.
  bool refuse();
  bool append_frames_locked(const std::string& frames, std::uint64_t records,
                            std::uint64_t payload_size);

  std::string base_;
  mutable std::mutex mu_;
  int log_fd_ = -1;
  ChangelogState state_;
  std::uint64_t tail_records_ = 0;
  std::uint64_t snapshot_records_ = 0;
  std::uint64_t tail_payload_bytes_ = 0;
  std::uint64_t snapshot_payload_bytes_ = 0;
  std::uint64_t write_failures_ = 0;
};

}  // namespace distapx
