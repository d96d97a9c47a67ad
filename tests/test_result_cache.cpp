// The content-addressed result cache (service/result_cache.hpp).
//
// Correctness here is adversarial: a cache hit must be bit-identical to
// recomputation at any thread count, and every way an entry can be wrong —
// corrupted, truncated, stale engine version, foreign magic, a file
// renamed under a different key — must be detected and served as a miss,
// never as a wrong row.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "graph/genspec.hpp"
#include "service/batch_server.hpp"
#include "service/cache_manager.hpp"
#include "service/job_spec.hpp"
#include "service/result_cache.hpp"
#include "support/fingerprint.hpp"
#include "support/fsutil.hpp"
#include "test_helpers.hpp"

namespace distapx {
namespace {

namespace fs = std::filesystem;
using test::ScopedTempDir;

service::JobSpec luby_spec(std::uint32_t num_seeds = 4) {
  service::JobSpec spec;
  spec.name = "luby";
  spec.gen_spec = "gnp:60:0.08";
  spec.algorithm = "luby";
  spec.num_seeds = num_seeds;
  return spec;
}

/// Small mixed workload exercising leased-network and multi-phase
/// algorithm adapters.
std::vector<service::JobSpec> mixed_jobs() {
  std::istringstream is(
      "gen=gnp:60:0.08   algo=luby       seeds=1:4 name=gnp-luby\n"
      "gen=grid:6:6      algo=mcm-2eps   seeds=1:3 eps=0.3 name=grid-mcm\n"
      "gen=tree:50       algo=mwm-lr     seeds=2:3 maxw=32 name=tree-mwm\n"
      "gen=regular:48:4  algo=maxis-alg2 seeds=1:3 maxw=64 name=reg-maxis\n");
  return service::parse_job_file(is);
}

service::BatchResult serve(const std::vector<service::JobSpec>& jobs,
                           unsigned threads,
                           service::ResultCache* cache = nullptr) {
  service::BatchServer server({threads, cache});
  server.submit_all(jobs);
  return server.serve();
}

// ---- fingerprint stability -------------------------------------------------

TEST(Fingerprint, DeterministicAndOrderSensitive) {
  Fingerprinter a, b;
  a.add_u64(1).add_u64(2);
  b.add_u64(1).add_u64(2);
  EXPECT_EQ(a.digest(), b.digest());

  Fingerprinter swapped;
  swapped.add_u64(2).add_u64(1);
  EXPECT_NE(a.digest(), swapped.digest());

  EXPECT_EQ(a.digest().hex().size(), 32u);
  EXPECT_NE(a.digest().hex(), Fingerprint{}.hex());
}

TEST(Fingerprint, StringFramingPreventsConcatenationCollisions) {
  Fingerprinter ab_c, a_bc;
  ab_c.add_string("ab").add_string("c");
  a_bc.add_string("a").add_string("bc");
  EXPECT_NE(ab_c.digest(), a_bc.digest());

  Fingerprinter empty1, empty2;
  empty1.add_string("").add_string("x");
  empty2.add_string("x").add_string("");
  EXPECT_NE(empty1.digest(), empty2.digest());

  // Strings longer than one 64-bit word keep every byte significant.
  Fingerprinter long_a, long_b;
  long_a.add_string("abcdefghiJ");
  long_b.add_string("abcdefghiK");
  EXPECT_NE(long_a.digest(), long_b.digest());
}

TEST(RunFingerprint, CanonicallyEqualSpecsShareKeys) {
  EXPECT_EQ(gen::canonical_spec("gnp:0060:0.080"), "gnp:60:0.08");
  EXPECT_EQ(gen::canonical_spec("gnp:60:.08"), "gnp:60:0.08");
  EXPECT_EQ(gen::canonical_spec("grid:007:6"), "grid:7:6");

  service::JobSpec a = luby_spec();
  service::JobSpec b = luby_spec();
  b.gen_spec = "gnp:0060:0.080";
  EXPECT_EQ(service::run_fingerprint(a, 1), service::run_fingerprint(b, 1));
  b.name = "different-label";  // the label is reporting-only
  EXPECT_EQ(service::run_fingerprint(a, 1), service::run_fingerprint(b, 1));
}

TEST(RunFingerprint, EveryRunInputPerturbsTheKey) {
  const service::JobSpec base = luby_spec();
  const Fingerprint fp = service::run_fingerprint(base, 1);

  EXPECT_NE(fp, service::run_fingerprint(base, 2));  // seed

  service::JobSpec v = base;
  v.algorithm = "nmis";
  EXPECT_NE(fp, service::run_fingerprint(v, 1));
  v = base;
  v.gen_spec = "gnp:60:0.09";
  EXPECT_NE(fp, service::run_fingerprint(v, 1));
  v = base;
  v.graph_seed = 7;
  EXPECT_NE(fp, service::run_fingerprint(v, 1));
  v = base;
  v.max_w = 101;
  EXPECT_NE(fp, service::run_fingerprint(v, 1));
  v = base;
  v.eps = 0.5;
  EXPECT_NE(fp, service::run_fingerprint(v, 1));
  v = base;
  v.max_rounds = 123;
  EXPECT_NE(fp, service::run_fingerprint(v, 1));
  v = base;
  v.policy = sim::BandwidthPolicy::local();
  EXPECT_NE(fp, service::run_fingerprint(v, 1));
  v = base;
  v.policy = sim::BandwidthPolicy::congest(16);
  EXPECT_NE(fp, service::run_fingerprint(v, 1));

  // gen:X and file:X must not collide.
  v = base;
  v.gen_spec.clear();
  v.graph_file = base.gen_spec;
  EXPECT_NE(fp, service::run_fingerprint(v, 1));
}

// ---- hit / miss / fill round-trips -----------------------------------------

TEST(ResultCache, MissFillHitRoundTrip) {
  const ScopedTempDir dir("distapx-cache-roundtrip");
  service::ResultCache cache(dir.str());
  const Fingerprint key = service::run_fingerprint(luby_spec(), 3);

  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);

  service::RunRow row;
  row.seed = 3;
  row.rounds = 17;
  row.messages = 424242;
  row.total_bits = 999999;
  row.max_edge_bits = 96;
  row.completed = true;
  row.solution_size = 21;
  row.objective = 1234;
  // Every facts field at its full u32 width survives the round trip too.
  const service::GraphFacts facts{60, 0xfffffffeu, 4000000000u};
  cache.store(key, row, facts);
  EXPECT_EQ(cache.stats().stores, 1u);

  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->row, row);  // every field, bit for bit
  EXPECT_EQ(hit->facts, facts);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().rejected, 0u);
  service::CachedRun decoded;
  EXPECT_EQ(service::check_entry_file(cache.entry_path(key), key, &decoded),
            service::EntryStatus::kOk);
  EXPECT_EQ(decoded.row, row);
  EXPECT_EQ(decoded.facts, facts);

  // Negative objectives survive the int64 round-trip.
  row.objective = -77;
  cache.store(key, row, facts);
  ASSERT_TRUE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.lookup(key)->row.objective, -77);
}


TEST(ResultCache, WarmReplayBitIdenticalAcrossThreadCounts) {
  const ScopedTempDir dir("distapx-cache-replay");
  service::ResultCache cache(dir.str());
  const auto jobs = mixed_jobs();

  const auto uncached = serve(jobs, 2);
  const auto cold = serve(jobs, 2, &cache);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.computed, cold.total_runs);

  // The acceptance matrix: warm replay at 1, 2, and 8 threads.
  for (const unsigned threads : {1u, 2u, 8u}) {
    const auto warm = serve(jobs, threads, &cache);
    EXPECT_EQ(warm.cache_hits, warm.total_runs) << threads << " threads";
    EXPECT_EQ(warm.computed, 0u);
    ASSERT_EQ(warm.jobs.size(), uncached.jobs.size());
    for (std::size_t j = 0; j < warm.jobs.size(); ++j) {
      ASSERT_EQ(warm.jobs[j].rows, uncached.jobs[j].rows)
          << warm.jobs[j].name << " at " << threads << " threads";
      EXPECT_EQ(warm.jobs[j].rows, cold.jobs[j].rows);
    }
    // The emitted CSV (the cross-process determinism witness) matches too.
    std::ostringstream a, b;
    service::runs_table(uncached).write_csv(a);
    service::runs_table(warm).write_csv(b);
    EXPECT_EQ(a.str(), b.str());
  }
}

TEST(ResultCache, StoreFailureDegradesToUncachedServing) {
  const ScopedTempDir dir("distapx-cache-storefail");
  service::ResultCache cache(dir.str());

  // Block one key's entry path with a directory: rename-into-place fails,
  // so store() throws for exactly that unit.
  service::JobSpec spec = luby_spec(2);
  const Fingerprint blocked = service::run_fingerprint(spec, spec.seed_at(0));
  fs::create_directories(cache.entry_path(blocked));
  EXPECT_THROW(cache.store(blocked, service::RunRow{}, {}),
               service::JobError);

  // The batch must still complete with correct rows — the fill failure
  // degrades that unit to uncached serving instead of aborting the batch.
  const auto uncached = serve({spec}, 2);
  const auto through_cache = serve({spec}, 2, &cache);
  EXPECT_EQ(through_cache.jobs[0].rows, uncached.jobs[0].rows);
  EXPECT_EQ(through_cache.cache_hits, 0u);

  // The unblocked seed was filled; the blocked one misses again warm.
  const auto warm = serve({spec}, 2, &cache);
  EXPECT_EQ(warm.jobs[0].rows, uncached.jobs[0].rows);
  EXPECT_EQ(warm.cache_hits, 1u);
  EXPECT_EQ(warm.computed, 1u);
}

// ---- publication durability -------------------------------------------------

TEST(ResultCache, StoreFsyncsPerTheDurabilityKnob) {
  const ScopedTempDir dir("distapx-cache-fsync");
  service::ResultCache cache(dir.str());
  const fsutil::Durability saved = fsutil::durability();

  fsutil::set_durability(fsutil::Durability::kFull);
  const std::uint64_t before_full = fsutil::fsync_total();
  service::RunRow row;
  row.seed = 1;
  row.completed = true;
  cache.store(service::run_fingerprint(luby_spec(), 1), row, {});
  // Data blocks before the rename, the directory entry after it: at least
  // two syncs per publication.
  EXPECT_GE(fsutil::fsync_total(), before_full + 2);

  fsutil::set_durability(fsutil::Durability::kNone);
  const std::uint64_t before_none = fsutil::fsync_total();
  cache.store(service::run_fingerprint(luby_spec(), 2), row, {});
  EXPECT_EQ(fsutil::fsync_total(), before_none);
  fsutil::set_durability(saved);

  // The knob trades crash-durability for speed; it never changes bytes.
  EXPECT_TRUE(
      cache.lookup(service::run_fingerprint(luby_spec(), 1)).has_value());
  EXPECT_TRUE(
      cache.lookup(service::run_fingerprint(luby_spec(), 2)).has_value());
  EXPECT_EQ(cache.stats().rejected, 0u);
}

// ---- corruption / truncation / version skew --------------------------------

class CacheRejection : public ::testing::Test {
 protected:
  void fill() {
    cache_.emplace(dir_.str());
    key_ = service::run_fingerprint(luby_spec(), 1);
    row_.seed = 1;
    row_.rounds = 5;
    row_.messages = 100;
    row_.completed = true;
    cache_->store(key_, row_, facts_);
    path_ = cache_->entry_path(key_);
    ASSERT_TRUE(cache_->lookup(key_).has_value());
    cache_->reset_stats();
  }

  std::vector<char> read_entry() {
    std::ifstream is(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
  }

  void write_entry(const std::vector<char>& bytes) {
    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// The entry must be rejected (miss + rejected counter), and a fresh
  /// store must transparently repair it.
  void expect_rejected_then_recomputed() {
    EXPECT_FALSE(cache_->lookup(key_).has_value());
    EXPECT_EQ(cache_->stats().rejected, 1u);
    EXPECT_EQ(cache_->stats().misses, 1u);
    EXPECT_EQ(cache_->stats().hits, 0u);
    cache_->store(key_, row_, facts_);  // "recompute" and refill
    const auto repaired = cache_->lookup(key_);
    ASSERT_TRUE(repaired.has_value());
    EXPECT_EQ(repaired->row, row_);
    EXPECT_EQ(repaired->facts, facts_);
  }

  ScopedTempDir dir_{"distapx-cache-reject"};
  std::optional<service::ResultCache> cache_;
  Fingerprint key_;
  service::RunRow row_;
  service::GraphFacts facts_{60, 140, 11};
  std::string path_;
};

TEST_F(CacheRejection, FlippedPayloadByteFailsChecksum) {
  fill();
  auto bytes = read_entry();
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  write_entry(bytes);
  expect_rejected_then_recomputed();
}

TEST_F(CacheRejection, TruncatedEntryRejected) {
  fill();
  auto bytes = read_entry();
  bytes.resize(bytes.size() - 9);
  write_entry(bytes);
  expect_rejected_then_recomputed();
}

TEST_F(CacheRejection, EmptyEntryRejected) {
  fill();
  write_entry({});
  expect_rejected_then_recomputed();
}

TEST_F(CacheRejection, StaleEngineVersionRejected) {
  fill();
  auto bytes = read_entry();
  // The engine version lives at offset 8 (after magic + format version);
  // recompute the trailing checksum so *only* the version differs — this
  // is exactly what a cache written by an older engine looks like.
  bytes[8] = static_cast<char>(bytes[8] + 1);
  const Fingerprint sum = fingerprint_bytes(bytes.data(), bytes.size() - 16);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 16 + i] =
        static_cast<char>((sum.hi >> (8 * i)) & 0xff);
    bytes[bytes.size() - 8 + i] =
        static_cast<char>((sum.lo >> (8 * i)) & 0xff);
  }
  write_entry(bytes);
  expect_rejected_then_recomputed();
}

TEST_F(CacheRejection, ForeignMagicRejected) {
  fill();
  auto bytes = read_entry();
  bytes[0] = 'X';
  write_entry(bytes);
  expect_rejected_then_recomputed();
}

TEST_F(CacheRejection, EveryTruncationBoundaryRejectedByteByByte) {
  fill();
  const auto good = read_entry();
  ASSERT_EQ(good.size(), service::entry_file_size());
  // Format 2: magic, format, engine, key(16), row(49), facts n/m/Δ (12),
  // checksum(16).
  EXPECT_EQ(good.size(), 105u);
  // A file truncated at *any* byte boundary — including exactly at the
  // header/key/checksum field edges a lazy length check could misread —
  // must reject. Generated byte by byte: every prefix length from 0 to
  // full-1.
  for (std::size_t len = 0; len < good.size(); ++len) {
    write_entry({good.begin(), good.begin() + static_cast<std::ptrdiff_t>(len)});
    service::CachedRun entry;
    EXPECT_EQ(service::check_entry_file(path_, key_, &entry),
              service::EntryStatus::kBadLength)
        << "prefix of " << len << " bytes";
    EXPECT_FALSE(cache_->lookup(key_).has_value()) << len << " bytes";
  }
  EXPECT_EQ(cache_->stats().rejected, good.size());
  EXPECT_EQ(cache_->stats().hits, 0u);

  // One byte too long is equally rejected (a concatenated/garbage file).
  auto extended = good;
  extended.push_back('\0');
  write_entry(extended);
  EXPECT_EQ(service::check_entry_file(path_, key_, nullptr),
            service::EntryStatus::kBadLength);
  EXPECT_FALSE(cache_->lookup(key_).has_value());

  // And the exact full-length image still round-trips afterwards.
  write_entry(good);
  const auto hit = cache_->lookup(key_);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->row, row_);
  EXPECT_EQ(hit->facts, facts_);
}

TEST_F(CacheRejection, CheckEntryFileReportsTheFirstFailingCheck) {
  fill();
  EXPECT_EQ(service::check_entry_file(path_, key_, nullptr),
            service::EntryStatus::kOk);
  EXPECT_EQ(service::check_entry_file(path_ + ".nope", key_, nullptr),
            service::EntryStatus::kMissing);

  // An entry path that exists but cannot be read as a file (here: a
  // directory squatting on it) is an I/O error, not "missing" — verify
  // must never call a file its own directory walk listed "missing".
  const std::string blocked = path_ + ".blocked";
  fs::create_directories(blocked);
  EXPECT_EQ(service::check_entry_file(blocked, key_, nullptr),
            service::EntryStatus::kIoError);

  // Wrong key against a valid file: key mismatch, not checksum.
  const Fingerprint other = service::run_fingerprint(luby_spec(), 555);
  EXPECT_EQ(service::check_entry_file(path_, other, nullptr),
            service::EntryStatus::kKeyMismatch);

  auto bytes = read_entry();
  bytes[0] = 'X';
  write_entry(bytes);
  EXPECT_EQ(service::check_entry_file(path_, key_, nullptr),
            service::EntryStatus::kBadMagic);

  bytes = read_entry();
  bytes[0] = 'D';  // restore magic, break the format version instead
  bytes[4] = static_cast<char>(bytes[4] + 1);
  write_entry(bytes);
  EXPECT_EQ(service::check_entry_file(path_, key_, nullptr),
            service::EntryStatus::kBadFormat);

  bytes[4] = static_cast<char>(bytes[4] - 1);
  bytes[bytes.size() / 2] ^= 0x40;
  write_entry(bytes);
  EXPECT_EQ(service::check_entry_file(path_, key_, nullptr),
            service::EntryStatus::kBadChecksum);
}

TEST_F(CacheRejection, EntryRenamedUnderWrongKeyRejected) {
  fill();
  // A filesystem-level mixup (entry copied to another key's path) must be
  // caught by the embedded key echo even though the checksum is valid.
  const Fingerprint other = service::run_fingerprint(luby_spec(), 99);
  const std::string other_path = cache_->entry_path(other);
  fs::create_directories(fs::path(other_path).parent_path());
  fs::copy_file(path_, other_path);
  EXPECT_FALSE(cache_->lookup(other).has_value());
  EXPECT_EQ(cache_->stats().rejected, 1u);
  EXPECT_TRUE(cache_->lookup(key_).has_value());  // original still fine
}

/// A format-1 entry as the previous serializer wrote it: 97 bytes, the row
/// followed by a reserved zero word and no graph facts.
std::vector<char> format_one_entry(const Fingerprint& key,
                                   const service::RunRow& row) {
  std::vector<char> out = {'D', 'X', 'R', 'C'};
  const auto put = [&out](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  put(1, 4);
  put(service::kEngineVersion, 4);
  put(key.hi, 8);
  put(key.lo, 8);
  put(row.seed, 8);
  put(row.rounds, 4);
  put(row.messages, 8);
  put(row.total_bits, 8);
  put(row.max_edge_bits, 4);
  put(row.completed ? 1 : 0, 1);
  put(row.solution_size, 8);
  put(static_cast<std::uint64_t>(row.objective), 8);
  put(0, 4);  // reserved
  const Fingerprint sum = fingerprint_bytes(out.data(), out.size());
  put(sum.hi, 8);
  put(sum.lo, 8);
  return out;
}

TEST_F(CacheRejection, FormatOneEntryIsBadFormatAndOverwritten) {
  fill();
  const auto v1 = format_one_entry(key_, row_);
  ASSERT_EQ(v1.size(), 97u);
  write_entry(v1);
  // A well-formed entry of the old format is classified by its version,
  // not by its (old) length.
  EXPECT_EQ(service::check_entry_file(path_, key_, nullptr),
            service::EntryStatus::kBadFormat);
  {
    service::CacheManager manager(dir_.str());
    const auto report = manager.verify(service::RepairMode::kReport);
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_STREQ(service::entry_status_name(report.findings[0].status),
                 "bad-format");
  }
  expect_rejected_then_recomputed();
  EXPECT_EQ(read_entry().size(), service::entry_file_size());
}

TEST(ResultCache, FormatOneEntryIsRecomputedWhileServing) {
  const ScopedTempDir dir("distapx-cache-v1");
  service::ResultCache cache(dir.str());
  const auto jobs = mixed_jobs();
  const auto uncached = serve(jobs, 2);
  (void)serve(jobs, 2, &cache);  // cold fill

  // Downgrade one entry of the maxis job to the previous format.
  const service::JobSpec& spec = jobs[3];
  const Fingerprint key = service::run_fingerprint(spec, spec.seed_at(1));
  const auto filled = cache.lookup(key);
  ASSERT_TRUE(filled.has_value());
  {
    const auto v1 = format_one_entry(key, filled->row);
    std::ofstream os(cache.entry_path(key), std::ios::binary | std::ios::trunc);
    os.write(v1.data(), static_cast<std::streamsize>(v1.size()));
  }

  cache.reset_stats();
  const auto warm = serve(jobs, 2, &cache);
  EXPECT_EQ(cache.stats().rejected, 1u);
  EXPECT_EQ(warm.computed, 1u);
  EXPECT_EQ(warm.materialized, 1u);  // only the job whose seed missed
  std::ostringstream a, b, c, d;
  service::runs_table(uncached).write_csv(a);
  service::runs_table(warm).write_csv(b);
  EXPECT_EQ(a.str(), b.str());
  service::summary_table(uncached).write_csv(c);
  service::summary_table(warm).write_csv(d);
  EXPECT_EQ(c.str(), d.str());
  // The recompute overwrote the stale entry with a current one.
  service::CachedRun refilled;
  EXPECT_EQ(service::check_entry_file(cache.entry_path(key), key, &refilled),
            service::EntryStatus::kOk);
  EXPECT_EQ(refilled.row, filled->row);
  EXPECT_EQ(refilled.facts, filled->facts);
}

// ---- concurrency -----------------------------------------------------------

TEST(ResultCache, ConcurrentFillOfTheSameKeysIsSafe) {
  const ScopedTempDir dir("distapx-cache-concurrent");
  service::ResultCache cache(dir.str());

  // 8 threads race to fill and read the same 16 keys. Every lookup must
  // return either a miss or the exact row for that key — never a torn or
  // mixed-up entry.
  constexpr int kKeys = 16;
  std::vector<Fingerprint> keys;
  std::vector<service::RunRow> rows;
  for (int k = 0; k < kKeys; ++k) {
    keys.push_back(service::run_fingerprint(luby_spec(), 1000 + k));
    service::RunRow row;
    row.seed = 1000 + k;
    row.rounds = 10 + k;
    row.messages = 100000ull + static_cast<std::uint64_t>(k);
    row.completed = true;
    row.objective = k * 7;
    rows.push_back(row);
  }

  std::atomic<int> bad{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([&, t] {
      for (int rep = 0; rep < 50; ++rep) {
        const int k = (t + rep) % kKeys;
        cache.store(keys[k], rows[k], {});
        const auto got = cache.lookup(keys[k]);
        if (!got.has_value() || !(got->row == rows[k])) bad.fetch_add(1);
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(bad.load(), 0);
  for (int k = 0; k < kKeys; ++k) {
    const auto got = cache.lookup(keys[k]);
    ASSERT_TRUE(got.has_value()) << k;
    EXPECT_EQ(got->row, rows[k]) << k;
  }
  EXPECT_EQ(cache.stats().rejected, 0u);
  // No temp droppings left behind by the rename protocol.
  for (const auto& entry : fs::recursive_directory_iterator(dir.path)) {
    EXPECT_TRUE(entry.is_directory() || entry.path().extension() == ".rr")
        << entry.path();
  }
}

}  // namespace
}  // namespace distapx
