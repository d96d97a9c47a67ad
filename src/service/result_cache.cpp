#include "service/result_cache.hpp"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <vector>

#include "graph/genspec.hpp"
#include "service/cache_manager.hpp"
#include "support/fsutil.hpp"
#include "support/trace.hpp"

namespace distapx::service {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'D', 'X', 'R', 'C'};
/// Guards deserialization only; kEngineVersion guards run semantics.
/// 2 added the graph facts (n, m, Δ) after the row.
constexpr std::uint32_t kFormatVersion = 2;

/// Explicit little-endian packing: entries must be readable across
/// platforms regardless of host endianness or struct layout.
void put_u32(std::vector<unsigned char>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xff);
}

void put_u64(std::vector<unsigned char>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xff);
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

// magic + format + engine + key(16) + row(49) + facts(12) + checksum(16)
constexpr std::size_t kRowBytes = 8 + 4 + 8 + 8 + 4 + 1 + 8 + 8;
constexpr std::size_t kFactsBytes = 4 + 4 + 4;
constexpr std::size_t kEntryBytes =
    4 + 4 + 4 + 16 + kRowBytes + kFactsBytes + 16;

std::vector<unsigned char> encode(const Fingerprint& key, const RunRow& row,
                                  const GraphFacts& facts) {
  std::vector<unsigned char> buf;
  buf.reserve(kEntryBytes);
  buf.insert(buf.end(), kMagic, kMagic + 4);
  put_u32(buf, kFormatVersion);
  put_u32(buf, kEngineVersion);
  put_u64(buf, key.hi);
  put_u64(buf, key.lo);
  put_u64(buf, row.seed);
  put_u32(buf, row.rounds);
  put_u64(buf, row.messages);
  put_u64(buf, row.total_bits);
  put_u32(buf, row.max_edge_bits);
  buf.push_back(row.completed ? 1 : 0);
  put_u64(buf, row.solution_size);
  put_u64(buf, static_cast<std::uint64_t>(row.objective));
  put_u32(buf, facts.n);
  put_u32(buf, facts.m);
  put_u32(buf, facts.max_degree);
  const Fingerprint sum = fingerprint_bytes(buf.data(), buf.size());
  put_u64(buf, sum.hi);
  put_u64(buf, sum.lo);
  return buf;
}

/// Full validation of an in-memory entry image: magic, format version,
/// length, engine version, key echo, checksum — reported as the first
/// failing check. The format is checked before the length because each
/// format has its own length: an entry of another format is kBadFormat.
EntryStatus decode(const std::vector<unsigned char>& buf,
                   const Fingerprint& key, CachedRun* out) {
  const unsigned char* p = buf.data();
  if (buf.size() < 8) return EntryStatus::kBadLength;
  if (std::memcmp(p, kMagic, 4) != 0) return EntryStatus::kBadMagic;
  if (get_u32(p + 4) != kFormatVersion) return EntryStatus::kBadFormat;
  if (buf.size() != kEntryBytes) return EntryStatus::kBadLength;
  if (get_u32(p + 8) != kEngineVersion) return EntryStatus::kBadEngine;
  if (get_u64(p + 12) != key.hi || get_u64(p + 20) != key.lo) {
    return EntryStatus::kKeyMismatch;
  }
  const std::size_t body = kEntryBytes - 16;
  const Fingerprint sum = fingerprint_bytes(p, body);
  if (get_u64(p + body) != sum.hi || get_u64(p + body + 8) != sum.lo) {
    return EntryStatus::kBadChecksum;
  }
  if (out != nullptr) {
    RunRow& row = out->row;
    p += 28;
    row.seed = get_u64(p);
    row.rounds = get_u32(p + 8);
    row.messages = get_u64(p + 12);
    row.total_bits = get_u64(p + 20);
    row.max_edge_bits = get_u32(p + 28);
    row.completed = p[32] != 0;
    row.solution_size = get_u64(p + 33);
    row.objective = static_cast<Weight>(get_u64(p + 41));
    p += kRowBytes;
    out->facts = {get_u32(p), get_u32(p + 4), get_u32(p + 8)};
  }
  return EntryStatus::kOk;
}

bool is_hex_lower(std::string_view s) {
  for (const char c : s) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

}  // namespace

const char* entry_status_name(EntryStatus s) noexcept {
  switch (s) {
    case EntryStatus::kOk: return "ok";
    case EntryStatus::kMissing: return "missing";
    case EntryStatus::kIoError: return "io-error";
    case EntryStatus::kBadLength: return "bad-length";
    case EntryStatus::kBadMagic: return "bad-magic";
    case EntryStatus::kBadFormat: return "bad-format";
    case EntryStatus::kBadEngine: return "stale-engine";
    case EntryStatus::kKeyMismatch: return "key-mismatch";
    case EntryStatus::kBadChecksum: return "bad-checksum";
  }
  return "unknown";
}

std::size_t entry_file_size() noexcept { return kEntryBytes; }

EntryStatus check_entry_file(const std::string& path, const Fingerprint& key,
                             CachedRun* out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    // ifstream reports EACCES exactly like ENOENT; a file that *exists*
    // but cannot be opened is an I/O error (verify must not report a file
    // its own directory walk just listed as "missing", and lookup counts
    // it as a reject, not a plain miss).
    std::error_code ec;
    return fs::exists(path, ec) && !ec ? EntryStatus::kIoError
                                       : EntryStatus::kMissing;
  }
  // Explicit read loop instead of one is.read(): a single read may stop
  // short of EOF (interrupted stream, platform quirks), and iostream
  // reports "asked for N, got fewer" identically for a truncated file and
  // a mid-file short read. Accumulate until EOF or error so a file whose
  // size happens to land on a read boundary is never misclassified: only
  // genuinely-kEntryBytes files reach the decoder as full-length.
  std::vector<unsigned char> buf(kEntryBytes + 1);
  std::size_t got = 0;
  while (got < buf.size()) {
    is.read(reinterpret_cast<char*>(buf.data()) + got,
            static_cast<std::streamsize>(buf.size() - got));
    if (is.bad()) return EntryStatus::kIoError;
    const std::size_t n = static_cast<std::size_t>(is.gcount());
    got += n;
    if (is.eof()) break;
    if (n == 0) return EntryStatus::kIoError;  // no progress, no EOF
  }
  buf.resize(got);
  return decode(buf, key, out);
}

std::string cache_entry_path(const std::string& dir, const Fingerprint& key) {
  return cache_entry_path(dir, key.hex());
}

std::string cache_entry_path(const std::string& dir,
                             const std::string& key_hex) {
  return dir + "/" + key_hex.substr(0, 2) + "/" + key_hex.substr(2) + ".rr";
}

std::optional<Fingerprint> key_from_entry_path(const std::string& path) {
  const fs::path p(path);
  if (p.extension() != ".rr") return std::nullopt;
  const std::string stem = p.stem().string();
  const std::string fan = p.parent_path().filename().string();
  if (fan.size() != 2 || stem.size() != 30) return std::nullopt;
  if (!is_hex_lower(fan) || !is_hex_lower(stem)) return std::nullopt;
  return Fingerprint::from_hex(fan + stem);
}

Fingerprinter job_fingerprinter(const JobSpec& spec) {
  Fingerprinter fp;
  fp.add_string("distapx.run");
  fp.add_u32(kEngineVersion);
  fp.add_string(spec.algorithm);
  if (!spec.gen_spec.empty()) {
    fp.add_string("gen");
    fp.add_string(gen::canonical_spec(spec.gen_spec));
  } else {
    // File-backed workloads key on the path; the cache assumes graph files
    // are immutable (regenerate into a fresh path, or clear the cache).
    fp.add_string("file");
    fp.add_string(spec.graph_file);
  }
  fp.add_u64(spec.graph_seed);
  fp.add_i64(spec.max_w);
  fp.add_bool(spec.policy.bounded);
  fp.add_u32(spec.policy.multiplier);
  fp.add_bool(spec.policy.enforce);
  fp.add_double(spec.eps);
  fp.add_u32(spec.max_rounds);
  return fp;
}

Fingerprint run_fingerprint(const JobSpec& spec, std::uint64_t seed) {
  return run_fingerprint(job_fingerprinter(spec), seed);
}

Fingerprint run_fingerprint(Fingerprinter job_prefix, std::uint64_t seed) {
  job_prefix.add_u64(seed);
  return job_prefix.digest();
}

namespace {

/// Shared registry when passed, lazily-created private one otherwise, so
/// the counter references below always bind and the hot path never null-
/// checks. Idempotent across member initializers.
metrics::Registry& ensure_registry(metrics::Registry* shared,
                                   std::unique_ptr<metrics::Registry>& own) {
  if (shared != nullptr) return *shared;
  if (!own) own = std::make_unique<metrics::Registry>();
  return *own;
}

}  // namespace

CacheStats cache_stats_from(const metrics::Snapshot& snap) {
  CacheStats s;
  s.hits = snap.counter_or("cache_hits_total");
  s.misses = snap.counter_or("cache_misses_total");
  s.stores = snap.counter_or("cache_stores_total");
  s.rejected = snap.counter_or("cache_rejected_total");
  return s;
}

ResultCache::ResultCache(std::string dir, std::uint64_t budget_bytes,
                         metrics::Registry* registry)
    : dir_(std::move(dir)),
      budget_bytes_(budget_bytes),
      hits_(ensure_registry(registry, own_registry_)
                .counter("cache_hits_total")),
      misses_(ensure_registry(registry, own_registry_)
                  .counter("cache_misses_total")),
      stores_(ensure_registry(registry, own_registry_)
                  .counter("cache_stores_total")),
      rejected_(ensure_registry(registry, own_registry_)
                    .counter("cache_rejected_total")) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_)) {
    throw JobError("cannot create cache directory " + dir_ + ": " +
                   ec.message());
  }
  if (budget_bytes_ > 0) {
    manager_ = std::make_unique<CacheManager>(
        dir_, registry != nullptr ? registry : own_registry_.get());
    // Enforce immediately: a cache opened with a budget is within budget
    // before the first lookup, whatever a previous (possibly unbudgeted)
    // writer left behind.
    manager_->gc(budget_bytes_);
  }
}

ResultCache::~ResultCache() = default;

std::string ResultCache::entry_path(const Fingerprint& key) const {
  return cache_entry_path(dir_, key);
}

std::optional<CachedRun> ResultCache::lookup(const Fingerprint& key) {
  CachedRun entry;
  const EntryStatus status = check_entry_file(entry_path(key), key, &entry);
  if (status == EntryStatus::kOk) {
    hits_.inc();
    trace::annotate_current("outcome", "hit");
    if (manager_) {
      manager_->record_get(key);
      // record_get can *grow* the accounting: it adopts entries another
      // (possibly unbudgeted) process filled into the shared directory.
      // A fully-warm daemon never stores, so the budget must be enforced
      // on hits too or adopted bytes would stand over budget for as long
      // as the hit streak lasts.
      enforce_budget();
    }
    return entry;
  }
  if (status != EntryStatus::kMissing) {
    // The entry existed but failed validation: corrupt, truncated, or a
    // stale version. Count it separately — a burst of rejects after an
    // engine bump is expected, a burst during steady state is not.
    rejected_.inc();
    trace::annotate_current("outcome", "rejected");
  } else {
    trace::annotate_current("outcome", "miss");
  }
  misses_.inc();
  return std::nullopt;
}

void ResultCache::store(const Fingerprint& key, const RunRow& row,
                        const GraphFacts& facts) {
  const std::string path = entry_path(key);
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  // Unique temp name per (process, store): concurrent fills never write
  // the same temp file, and rename() makes publication atomic.
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(temp_counter_.fetch_add(1, std::memory_order_relaxed));
  const auto buf = encode(key, row, facts);
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(buf.data()),
             static_cast<std::streamsize>(buf.size()));
    if (!os) {
      os.close();
      fs::remove(tmp, ec);
      throw JobError("cannot write cache entry " + tmp);
    }
  }
  // Entry data must be on stable storage before the rename publishes the
  // name: a power loss after an unsynced rename can surface an empty or
  // torn entry under a valid name (check_entry_file would reject it, but
  // the recompute it forces is exactly what the cache exists to avoid).
  // No-op under --durability none.
  if (!fsutil::sync_file(tmp)) {
    fs::remove(tmp, ec);
    throw JobError("cannot sync cache entry " + tmp);
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw JobError("cannot publish cache entry " + path + ": " +
                   ec.message());
  }
  // And the rename itself (the directory entry) must survive too.
  fsutil::sync_dir(fs::path(path).parent_path());
  stores_.inc();
  if (manager_) {
    manager_->record_put(key, buf.size());
    // Re-enforce on every fill so a long-lived budgeted cache (the spool
    // daemon) stays bounded mid-run, not just at open.
    enforce_budget();
  }
}

void ResultCache::enforce_budget() {
  // The common under-budget case is one in-memory check. When the budget
  // trips, evict to a low watermark (budget - 1/8) rather than the budget
  // itself, so a steady stream of fills amortizes each O(n log n) gc over
  // ~budget/8 bytes of headroom instead of re-triggering per fill.
  if (manager_->live_bytes() > budget_bytes_) {
    const GcReport report = manager_->gc(budget_bytes_ - budget_bytes_ / 8);
    if (report.evicted_entries > 0) {
      trace::annotate_current("evict_cause", "budget");
      trace::annotate_current("evicted_entries", report.evicted_entries);
      trace::annotate_current("evicted_bytes", report.evicted_bytes);
    }
  }
}

CacheStats ResultCache::stats() const noexcept {
  // Registry counters are monotone (and possibly shared with other
  // components in the same process), so "since reset_stats()" is the
  // counter minus the baseline captured at the last reset.
  CacheStats s;
  s.hits = hits_.value() - base_hits_.load(std::memory_order_relaxed);
  s.misses = misses_.value() - base_misses_.load(std::memory_order_relaxed);
  s.stores = stores_.value() - base_stores_.load(std::memory_order_relaxed);
  s.rejected =
      rejected_.value() - base_rejected_.load(std::memory_order_relaxed);
  return s;
}

void ResultCache::reset_stats() noexcept {
  base_hits_.store(hits_.value(), std::memory_order_relaxed);
  base_misses_.store(misses_.value(), std::memory_order_relaxed);
  base_stores_.store(stores_.value(), std::memory_order_relaxed);
  base_rejected_.store(rejected_.value(), std::memory_order_relaxed);
}

}  // namespace distapx::service
