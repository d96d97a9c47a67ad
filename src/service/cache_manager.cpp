#include "service/cache_manager.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <system_error>
#include <utility>

#include "support/fsutil.hpp"
#include "support/log.hpp"

namespace distapx::service {

namespace fs = std::filesystem;

namespace {

/// Changelog base name: the on-disk files are manifest.log (tail) and
/// manifest.snap (snapshot). "manifest.log" is deliberately the same path
/// the pre-changelog text journal used, so a legacy directory is detected
/// (foreign magic) and replaced rather than shadowed.
constexpr const char* kManifestBase = "manifest";
constexpr const char* kQuarantineName = "quarantine";

/// Tail records tolerated per live entry before a flush compacts the
/// journal into a fresh snapshot instead of appending — bounds the
/// manifest for a warm long-lived daemon whose every run is a touch.
constexpr std::uint64_t kJournalSlack = 8;
constexpr std::uint64_t kJournalSlop = 1024;

/// True for the manager's own metadata paths (manifest.log, manifest.snap,
/// their temp droppings, anything quarantined), which a directory walk
/// must not mistake for (foreign) cache content.
bool is_metadata_path(const fs::path& p, const fs::path& quarantine) {
  for (fs::path q = p; !q.empty() && q != q.root_path(); q = q.parent_path()) {
    if (q == quarantine) return true;
  }
  const std::string name = p.filename().string();
  return name.rfind(std::string(kManifestBase) + ".", 0) == 0;
}

/// The changelog payload for one manifest record (the line syntax minus
/// the trailing newline — framing is the changelog's job).
std::string record_payload(const ManifestRecord& rec) {
  std::string line = format_manifest_line(rec);
  if (!line.empty() && line.back() == '\n') line.pop_back();
  return line;
}

/// The shared registry when one was passed, else a lazily-created private
/// one — instrumentation stays unconditional with no null checks on the
/// hot path. Idempotent so each member initializer can call it.
metrics::Registry& ensure_registry(metrics::Registry* shared,
                                   std::unique_ptr<metrics::Registry>& own) {
  if (shared != nullptr) return *shared;
  if (!own) own = std::make_unique<metrics::Registry>();
  return *own;
}

}  // namespace

CacheManager::CacheManager(std::string dir, metrics::Registry* registry)
    : dir_(std::move(dir)),
      reg_(&ensure_registry(registry, own_registry_)),
      entries_gauge_(reg_->gauge("cache_entries")),
      bytes_gauge_(reg_->gauge("cache_bytes")),
      manifest_bytes_gauge_(reg_->gauge("cache_manifest_bytes")),
      quarantined_gauge_(reg_->gauge("cache_quarantined")),
      evicted_entries_(reg_->counter("cache_evicted_entries_total")),
      evicted_bytes_(reg_->counter("cache_evicted_bytes_total")),
      open_scans_(reg_->counter("cache_open_scans_total")),
      open_replays_(reg_->counter("cache_open_replays_total")),
      append_failures_(reg_->counter("manifest_append_failures_total")) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_)) {
    throw JobError("cannot open cache directory " + dir_ + ": " +
                   ec.message());
  }
  open_journal();

  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t replayed = 0;
  replay_locked(&replayed);
  const bool journal_has_state =
      replayed > 0 || fs::exists(changelog_->snapshot_path(), ec);
  if (journal_has_state) {
    // O(snapshot + tail): the accounting came entirely from the journal;
    // not one entry file was opened or stat'd.
    open_replays_.inc();
  } else {
    // No journal state (fresh dir, filled by unbudgeted writers that keep
    // no journal, or a just-replaced foreign manifest): the directory walk
    // is the only source of truth.
    open_scans_.inc();
    scan_locked();
    // Persist what the scan found so the *next* open replays instead of
    // walking. An empty result writes nothing: a bare directory must stay
    // bare (and must not pin a stale empty snapshot over entries an
    // unbudgeted writer adds later).
    if (!entries_.empty()) checkpoint_locked();
  }
}

CacheManager::~CacheManager() {
  const std::lock_guard<std::mutex> lock(mu_);
  flush_journal_locked();
}

void CacheManager::open_journal() {
  const std::string base = dir_ + "/" + kManifestBase;
  try {
    changelog_.emplace(base);
    return;
  } catch (const ChangelogError&) {
    // A foreign manifest.log (e.g. a pre-changelog text journal) or a
    // corrupted header: replace both files with an empty changelog. The
    // entry files — the ground truth — are untouched, and the constructor's
    // scan recovers every one of them.
  }
  std::error_code ec;
  fs::remove(base + ".log", ec);
  fs::remove(base + ".snap", ec);
  try {
    changelog_.emplace(base);
  } catch (const ChangelogError& e) {
    throw JobError("cannot open cache journal in " + dir_ + ": " + e.what());
  }
  logx::info("cache_manifest_replaced", {{"dir", dir_}});
}

std::string CacheManager::manifest_path() const {
  return dir_ + "/" + kManifestBase;
}

std::string CacheManager::quarantine_dir() const {
  return dir_ + "/" + kQuarantineName;
}

void CacheManager::apply_record_locked(const ManifestRecord& rec) {
  if (rec.fields.empty()) return;
  const std::string& hex = rec.fields[0];
  if (!Fingerprint::from_hex(hex)) return;  // malformed key: skip
  if (rec.tag == "F" && rec.fields.size() >= 2) {
    char* end = nullptr;
    const std::uint64_t size = std::strtoull(rec.fields[1].c_str(), &end, 10);
    if (end == nullptr || *end != '\0') return;
    Entry& e = entries_[hex];
    live_bytes_ += size - e.size;  // idempotent upsert (replay may repeat)
    e.size = size;
    e.last_access = next_access_++;
  } else if (rec.tag == "T") {
    const auto it = entries_.find(hex);
    if (it != entries_.end()) it->second.last_access = next_access_++;
  }
}

void CacheManager::replay_locked(std::uint64_t* replayed_records) {
  entries_.clear();
  live_bytes_ = 0;
  next_access_ = 1;
  std::uint64_t n = 0;
  const ChangelogState& state = changelog_->replayed();
  for (const std::string& payload : state.snapshot) {
    if (const auto rec = parse_manifest_line(payload)) {
      apply_record_locked(*rec);
      ++n;
    }
  }
  for (const std::string& payload : state.tail) {
    if (const auto rec = parse_manifest_line(payload)) {
      apply_record_locked(*rec);
      ++n;
    }
  }
  if (replayed_records != nullptr) *replayed_records = n;
  publish_gauges_locked();
}

void CacheManager::scan_locked() {
  // Disk is ground truth for existence and size; a scan knows no access
  // order, so every entry ranks equal (the hex tie-break orders them).
  entries_.clear();
  live_bytes_ = 0;
  next_access_ = 1;

  const fs::path quarantine(quarantine_dir());
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->path() == quarantine) {
      it.disable_recursion_pending();
      continue;
    }
    if (!it->is_regular_file(ec)) continue;
    const auto key = key_from_entry_path(it->path().string());
    if (!key) continue;
    std::error_code size_ec;
    const std::uint64_t size = it->file_size(size_ec);
    if (size_ec) continue;
    entries_[key->hex()] = Entry{size, 0};
    live_bytes_ += size;
  }

  publish_gauges_locked();
}

void CacheManager::publish_gauges_locked() noexcept {
  entries_gauge_.set(static_cast<std::int64_t>(entries_.size()));
  bytes_gauge_.set(static_cast<std::int64_t>(live_bytes_));
}

void CacheManager::buffer_journal_locked(ManifestRecord record) {
  pending_journal_.push_back(std::move(record));
  if (pending_journal_.size() >= kJournalFlushBatch) flush_journal_locked();
}

void CacheManager::flush_journal_locked() {
  if (pending_journal_.empty()) return;
  // Once the on-disk tail carries far more records than there are live
  // entries, appending is wasted churn: compact into a fresh snapshot
  // instead (the in-memory map already reflects every pending record).
  // This bounds the journal for a warm daemon that only ever touches.
  if (changelog_->tail_records() + pending_journal_.size() >
      kJournalSlack * entries_.size() + kJournalSlop) {
    checkpoint_locked();
    return;
  }
  std::vector<std::string> payloads;
  payloads.reserve(pending_journal_.size());
  for (const ManifestRecord& r : pending_journal_) {
    payloads.push_back(record_payload(r));
  }
  // One write + one fdatasync for the whole batch. Records that could not
  // be persisted are dropped, not accumulated — LRU precision degrades,
  // memory stays bounded, correctness is untouched — but the failure is
  // counted and logged (disk full and read-only mounts must not be
  // silent).
  if (!changelog_->append_batch(payloads)) {
    append_failures_.inc();
    logx::warn("manifest_append_failed",
               {{"dir", dir_}, {"records", payloads.size()}});
  }
  pending_journal_.clear();
}

void CacheManager::checkpoint_locked() {
  // One F record per survivor in access order, so a replay reconstructs
  // the same LRU ranking from a minimal journal. Pending appends are
  // subsumed: the in-memory map already reflects them.
  std::vector<std::string> records;
  records.reserve(entries_.size());
  for (const auto& [hex, e] : lru_sorted_locked()) {
    records.push_back(
        record_payload({"F", {hex, std::to_string(e.size)}}));
  }
  if (!changelog_->snapshot(records)) {
    append_failures_.inc();
    logx::warn("manifest_snapshot_failed",
               {{"dir", dir_}, {"records", records.size()}});
    return;
  }
  pending_journal_.clear();
}

void CacheManager::checkpoint() {
  const std::lock_guard<std::mutex> lock(mu_);
  checkpoint_locked();
}

void CacheManager::record_put(const Fingerprint& key, std::uint64_t size) {
  const std::string hex = key.hex();
  const std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[hex];
  live_bytes_ += size - e.size;  // same-key refill replaces, not adds
  e.size = size;
  e.last_access = next_access_++;
  publish_gauges_locked();
  buffer_journal_locked({"F", {hex, std::to_string(size)}});
}

void CacheManager::record_get(const Fingerprint& key) {
  const std::string hex = key.hex();
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(hex);
  if (it == entries_.end()) {
    // Filled by another process since our open: adopt it so its recency
    // is tracked and its bytes count against the budget.
    std::error_code ec;
    const std::uint64_t size =
        fs::file_size(cache_entry_path(dir_, hex), ec);
    if (ec) return;  // raced with an eviction; nothing to track
    it = entries_.emplace(hex, Entry{size, 0}).first;
    live_bytes_ += size;
    publish_gauges_locked();
  }
  it->second.last_access = next_access_++;
  buffer_journal_locked({"T", {hex}});
}

std::uint64_t CacheManager::live_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return live_bytes_;
}

std::uint64_t CacheManager::live_entries() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::vector<std::pair<std::string, CacheManager::Entry>>
CacheManager::lru_sorted_locked() const {
  std::vector<std::pair<std::string, Entry>> flat(entries_.begin(),
                                                  entries_.end());
  // std::map iteration is hex-ordered, so stable_sort on last_access
  // alone yields (last_access, hex) — deterministic eviction order.
  std::stable_sort(flat.begin(), flat.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.last_access < b.second.last_access;
                   });
  return flat;
}

std::vector<CacheEntryInfo> CacheManager::entries_lru() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<CacheEntryInfo> out;
  out.reserve(entries_.size());
  for (const auto& [hex, e] : lru_sorted_locked()) {
    CacheEntryInfo info;
    if (const auto key = Fingerprint::from_hex(hex)) info.key = *key;
    info.size = e.size;
    info.last_access = e.last_access;
    out.push_back(info);
  }
  return out;
}

CacheDirStats CacheManager::stats() const {
  CacheDirStats s;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    s.entries = entries_.size();
    s.bytes = live_bytes_;
    // Under mu_ so a concurrent clear() cannot re-seat changelog_ between
    // the null-check the optional implies and the call.
    s.manifest_bytes = changelog_->payload_bytes();
  }
  std::error_code ec;
  for (fs::directory_iterator it(quarantine_dir(), ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) ++s.quarantined;
  }
  // The walk-derived series are only as fresh as the last stats() call;
  // entries/bytes stay live via publish_gauges_locked.
  manifest_bytes_gauge_.set(static_cast<std::int64_t>(s.manifest_bytes));
  quarantined_gauge_.set(static_cast<std::int64_t>(s.quarantined));
  return s;
}

CacheDirStats cache_dir_stats_from(const metrics::Snapshot& snap) {
  CacheDirStats s;
  s.entries = static_cast<std::uint64_t>(snap.gauge_or("cache_entries"));
  s.bytes = static_cast<std::uint64_t>(snap.gauge_or("cache_bytes"));
  s.manifest_bytes =
      static_cast<std::uint64_t>(snap.gauge_or("cache_manifest_bytes"));
  s.quarantined =
      static_cast<std::uint64_t>(snap.gauge_or("cache_quarantined"));
  return s;
}

GcReport CacheManager::gc(std::uint64_t budget_bytes) {
  const std::lock_guard<std::mutex> lock(mu_);
  GcReport report;

  for (const auto& [hex, e] : lru_sorted_locked()) {
    if (live_bytes_ <= budget_bytes) break;
    // Atomic unlink. An entry a concurrent process already evicted is
    // simply gone (remove() returns false with no error) — either way it
    // stops counting against the budget. A *failing* unlink (permissions,
    // read-only fs) keeps the entry accounted as live: the report must
    // never claim a budget the disk does not meet.
    std::error_code ec;
    fs::remove(cache_entry_path(dir_, hex), ec);
    if (ec) continue;
    live_bytes_ -= e.size;
    entries_.erase(hex);
    ++report.evicted_entries;
    report.evicted_bytes += e.size;
  }
  if (report.evicted_entries > 0) {
    evicted_entries_.inc(report.evicted_entries);
    evicted_bytes_.inc(report.evicted_bytes);
    checkpoint_locked();
  }
  publish_gauges_locked();
  report.live_entries = entries_.size();
  report.live_bytes = live_bytes_;
  return report;
}

VerifyReport CacheManager::verify(RepairMode mode) {
  const std::lock_guard<std::mutex> lock(mu_);
  VerifyReport report;
  const fs::path root(dir_);
  const fs::path quarantine(quarantine_dir());

  std::vector<fs::path> files;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->path() == quarantine) {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file(ec)) files.push_back(it->path());
  }
  std::sort(files.begin(), files.end());  // deterministic report order

  bool adopted = false;
  for (const fs::path& p : files) {
    if (is_metadata_path(p, quarantine)) continue;
    const auto key = key_from_entry_path(p.string());
    if (!key) {
      // Not an entry (stray temp file, operator droppings): report, never
      // touch — verify must be safe to run on any directory.
      ++report.foreign;
      continue;
    }
    ++report.checked;
    const EntryStatus status = check_entry_file(p.string(), *key, nullptr);
    const std::string hex = key->hex();
    if (status == EntryStatus::kOk) {
      ++report.ok;
      // The walk is ground truth: a valid entry the journal never saw
      // (unbudgeted writer, stale snapshot) joins the accounting here, so
      // a verify doubles as reconciliation.
      if (entries_.count(hex) == 0) {
        std::error_code size_ec;
        const std::uint64_t size = fs::file_size(p, size_ec);
        if (!size_ec) {
          entries_.emplace(hex, Entry{size, 0});
          live_bytes_ += size;
          adopted = true;
        }
      }
      continue;
    }
    ++report.invalid;
    VerifyFinding finding;
    finding.path = fs::relative(p, root, ec).string();
    if (ec) finding.path = p.string();
    finding.status = status;
    report.findings.push_back(std::move(finding));

    if (mode == RepairMode::kDelete) {
      std::error_code rm;
      fs::remove(p, rm);
      if (!rm) {
        ++report.deleted;
        if (const auto it = entries_.find(hex); it != entries_.end()) {
          live_bytes_ -= it->second.size;
          entries_.erase(it);
        }
      }
    } else if (mode == RepairMode::kQuarantine) {
      std::error_code mk;
      fs::create_directories(quarantine, mk);
      try {
        // Flat name inside quarantine/ (fan-out dir + stem) so two bad
        // entries can never collide.
        fsutil::move_file(p, quarantine / (hex + ".rr"));
        ++report.quarantined;
        if (const auto it = entries_.find(hex); it != entries_.end()) {
          live_bytes_ -= it->second.size;
          entries_.erase(it);
        }
      } catch (const fs::filesystem_error&) {
        // Leave it in place; it stays in the findings list either way.
      }
    }
  }
  if (adopted || (mode != RepairMode::kReport && report.invalid > 0)) {
    checkpoint_locked();
  }
  publish_gauges_locked();
  return report;
}

std::uint64_t CacheManager::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t removed = 0;
  for (const auto& [hex, e] : entries_) {
    std::error_code ec;
    if (fs::remove(cache_entry_path(dir_, hex), ec)) ++removed;
  }
  entries_.clear();
  live_bytes_ = 0;
  next_access_ = 1;
  publish_gauges_locked();
  pending_journal_.clear();
  // Drop the journal wholesale: close it, unlink both files, reopen
  // fresh (a cleared cache carries no metadata, not an empty snapshot).
  changelog_.reset();
  std::error_code ec;
  fs::remove(manifest_path() + ".log", ec);
  fs::remove(manifest_path() + ".snap", ec);
  fs::remove_all(quarantine_dir(), ec);
  try {
    changelog_.emplace(manifest_path());
  } catch (const ChangelogError& e) {
    throw JobError("cannot reopen cache journal in " + dir_ + ": " +
                   e.what());
  }
  // Drop now-empty fan-out directories (non-empty ones — e.g. a foreign
  // file — survive; fs::remove refuses non-empty dirs).
  for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code sub;
    if (it->is_directory(sub)) fs::remove(it->path(), sub);
  }
  return removed;
}

void CacheManager::rescan() {
  const std::lock_guard<std::mutex> lock(mu_);
  flush_journal_locked();
  // Walk the directory for ground truth, carrying over the access order
  // this manager already knows (in-memory is at least as fresh as the
  // journal it just flushed). New keys rank least-recent.
  const std::map<std::string, Entry> known = std::move(entries_);
  scan_locked();
  for (auto& [hex, e] : entries_) {
    if (const auto it = known.find(hex); it != known.end()) {
      e.last_access = it->second.last_access;
    }
  }
  publish_gauges_locked();
  checkpoint_locked();
}

}  // namespace distapx::service
