// Cache lifecycle management (service/cache_manager.hpp).
//
// Contracts under test: the manager's accounting matches the directory;
// gc evicts least-recently-used entries (journal order, deterministic
// tie-break) down to the byte budget with atomic unlinks that tolerate a
// concurrent evictor; open-with-budget enforces at open and on every
// fill; verify detects every corruption mode the rejection tests cover
// and quarantines or deletes it; and a reader racing an evictor never
// crashes or serves a wrong row — evicted entries recompute bit-identical.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "service/batch_server.hpp"
#include "service/cache_manager.hpp"
#include "service/job_spec.hpp"
#include "service/result_cache.hpp"
#include "support/changelog.hpp"
#include "support/fingerprint.hpp"
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

/// Fills `cache` with `count` distinct single-row entries and returns the
/// keys in fill order.
std::vector<Fingerprint> fill_entries(service::ResultCache& cache,
                                      int count, std::uint64_t seed0 = 100) {
  std::vector<Fingerprint> keys;
  for (int i = 0; i < count; ++i) {
    const Fingerprint key =
        service::run_fingerprint(luby_spec(), seed0 + static_cast<std::uint64_t>(i));
    service::RunRow row;
    row.seed = seed0 + static_cast<std::uint64_t>(i);
    row.rounds = 5;
    row.completed = true;
    cache.store(key, row, {60, 150, 9});
    keys.push_back(key);
  }
  return keys;
}

const std::uint64_t kEntry = service::entry_file_size();

// ---- key recovery from entry paths -----------------------------------------

TEST(CacheManager, KeyFromEntryPathRoundTrips) {
  const ScopedTempDir dir("distapx-mgr-keypath");
  const Fingerprint key = service::run_fingerprint(luby_spec(), 7);
  const std::string path = service::cache_entry_path(dir.str(), key);
  const auto recovered = service::key_from_entry_path(path);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, key);

  EXPECT_FALSE(service::key_from_entry_path("ab/short.rr").has_value());
  EXPECT_FALSE(
      service::key_from_entry_path(path + ".tmp.123.0").has_value());
  EXPECT_FALSE(service::key_from_entry_path(
                   dir.str() + "/xy/zz3aeceb185f56d0308288684966fc.rr")
                   .has_value());
}

// ---- accounting ------------------------------------------------------------

TEST(CacheManager, ScanMatchesDirectoryContents) {
  const ScopedTempDir dir("distapx-mgr-scan");
  service::ResultCache cache(dir.str());
  fill_entries(cache, 10);

  service::CacheManager manager(dir.str());
  EXPECT_EQ(manager.live_entries(), 10u);
  EXPECT_EQ(manager.live_bytes(), 10 * kEntry);
  const auto s = manager.stats();
  EXPECT_EQ(s.entries, 10u);
  EXPECT_EQ(s.bytes, 10 * kEntry);
  EXPECT_EQ(s.quarantined, 0u);
}

TEST(CacheManager, RecordPutAndGetDriveLruOrder) {
  const ScopedTempDir dir("distapx-mgr-lru");
  service::ResultCache cache(dir.str(), /*budget_bytes=*/100 * kEntry);
  const auto keys = fill_entries(cache, 4);
  // Touch key 0 so it becomes most recent; key 1 is now the LRU victim.
  ASSERT_TRUE(cache.lookup(keys[0]).has_value());

  const auto lru = cache.manager()->entries_lru();
  ASSERT_EQ(lru.size(), 4u);
  EXPECT_EQ(lru.front().key, keys[1]);  // oldest untouched fill
  EXPECT_EQ(lru.back().key, keys[0]);   // just touched
  for (const auto& e : lru) EXPECT_EQ(e.size, kEntry);
}

TEST(CacheManager, JournalPersistsLruOrderAcrossReopen) {
  const ScopedTempDir dir("distapx-mgr-journal");
  std::vector<Fingerprint> keys;
  {
    service::ResultCache cache(dir.str(), /*budget_bytes=*/100 * kEntry);
    keys = fill_entries(cache, 4);
    ASSERT_TRUE(cache.lookup(keys[0]).has_value());  // MRU = keys[0]
  }
  // A fresh manager replays the journal: same order as before.
  service::CacheManager manager(dir.str());
  const auto lru = manager.entries_lru();
  ASSERT_EQ(lru.size(), 4u);
  EXPECT_EQ(lru.front().key, keys[1]);
  EXPECT_EQ(lru.back().key, keys[0]);

  // gc to two entries must keep exactly the two most recent: 3 and 0.
  const auto report = manager.gc(2 * kEntry);
  EXPECT_EQ(report.evicted_entries, 2u);
  EXPECT_EQ(report.live_entries, 2u);
  service::ResultCache reopened(dir.str());
  EXPECT_FALSE(reopened.lookup(keys[1]).has_value());
  EXPECT_FALSE(reopened.lookup(keys[2]).has_value());
  EXPECT_TRUE(reopened.lookup(keys[3]).has_value());
  EXPECT_TRUE(reopened.lookup(keys[0]).has_value());
}

// ---- gc --------------------------------------------------------------------

TEST(CacheManager, GcEvictsToBudgetAndCompactsManifest) {
  const ScopedTempDir dir("distapx-mgr-gc");
  service::ResultCache cache(dir.str());
  fill_entries(cache, 20);

  service::CacheManager manager(dir.str());
  const auto report = manager.gc(7 * kEntry + 3);
  EXPECT_EQ(report.live_entries, 7u);
  EXPECT_LE(report.live_bytes, 7 * kEntry + 3);
  EXPECT_EQ(report.evicted_entries, 13u);
  EXPECT_EQ(report.evicted_bytes, 13 * kEntry);

  // Disk agrees with the report.
  std::uint64_t on_disk = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir.path)) {
    if (e.is_regular_file() && e.path().extension() == ".rr") ++on_disk;
  }
  EXPECT_EQ(on_disk, 7u);

  // The compacted manifest alone reconstructs the accounting.
  service::CacheManager fresh(dir.str());
  EXPECT_EQ(fresh.live_entries(), 7u);
  EXPECT_EQ(fresh.live_bytes(), report.live_bytes);

  // gc with room to spare is a no-op.
  const auto idle = fresh.gc(100 * kEntry);
  EXPECT_EQ(idle.evicted_entries, 0u);
  EXPECT_EQ(idle.live_entries, 7u);

  // gc to zero empties the cache.
  const auto zero = fresh.gc(0);
  EXPECT_EQ(zero.live_entries, 0u);
  EXPECT_EQ(zero.live_bytes, 0u);
}

TEST(CacheManager, GcToleratesEntriesDeletedByAConcurrentProcess) {
  const ScopedTempDir dir("distapx-mgr-gc-race");
  service::ResultCache cache(dir.str());
  const auto keys = fill_entries(cache, 6);

  service::CacheManager manager(dir.str());
  // Simulate a concurrent evictor: delete three entries behind the
  // manager's back.
  for (int i = 0; i < 3; ++i) {
    fs::remove(service::cache_entry_path(dir.str(), keys[static_cast<std::size_t>(i)]));
  }
  const auto report = manager.gc(0);  // must not throw on missing files
  EXPECT_EQ(report.evicted_entries, 6u);
  EXPECT_EQ(report.live_entries, 0u);
  EXPECT_EQ(manager.live_bytes(), 0u);
}

TEST(CacheManager, RescanConvergesWithExternalWriters) {
  const ScopedTempDir dir("distapx-mgr-rescan");
  service::CacheManager manager(dir.str());
  EXPECT_EQ(manager.live_entries(), 0u);

  service::ResultCache writer(dir.str());  // a "foreign process"
  fill_entries(writer, 5);
  manager.rescan();
  EXPECT_EQ(manager.live_entries(), 5u);
  EXPECT_EQ(manager.live_bytes(), 5 * kEntry);
}

// ---- open-with-budget ------------------------------------------------------

TEST(ResultCacheBudget, OpenEnforcesBudgetImmediately) {
  const ScopedTempDir dir("distapx-budget-open");
  std::vector<Fingerprint> keys;
  {
    service::ResultCache unbudgeted(dir.str());
    keys = fill_entries(unbudgeted, 20);
  }
  service::ResultCache cache(dir.str(), 5 * kEntry);
  ASSERT_NE(cache.manager(), nullptr);
  EXPECT_EQ(cache.budget_bytes(), 5 * kEntry);
  EXPECT_LE(cache.manager()->live_bytes(), 5 * kEntry);
  EXPECT_EQ(cache.manager()->live_entries(), 5u);

  // Hits on survivors, misses on evictees — never a wrong row.
  int hits = 0;
  for (const auto& key : keys) hits += cache.lookup(key).has_value() ? 1 : 0;
  EXPECT_EQ(hits, 5);
  EXPECT_EQ(cache.stats().rejected, 0u);
}

TEST(ResultCacheBudget, FillsBeyondBudgetEvictAutomatically) {
  const ScopedTempDir dir("distapx-budget-fill");
  service::ResultCache cache(dir.str(), 8 * kEntry);
  fill_entries(cache, 50);
  EXPECT_LE(cache.manager()->live_bytes(), 8 * kEntry);

  std::uint64_t on_disk_bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir.path)) {
    if (e.is_regular_file() && e.path().extension() == ".rr") {
      on_disk_bytes += e.file_size();
    }
  }
  EXPECT_LE(on_disk_bytes, 8 * kEntry);
  EXPECT_GT(on_disk_bytes, 0u);
}

TEST(ResultCacheBudget, BudgetedServingStaysBitIdentical) {
  const ScopedTempDir dir("distapx-budget-serve");
  std::istringstream is(
      "gen=gnp:60:0.08   algo=luby       seeds=1:6 name=gnp-luby\n"
      "gen=grid:6:6      algo=mcm-2eps   seeds=1:3 eps=0.3 name=grid-mcm\n"
      "gen=tree:50       algo=mwm-lr     seeds=2:3 maxw=32 name=tree-mwm\n");
  const auto jobs = service::parse_job_file(is);

  service::BatchServer plain({2, nullptr});
  plain.submit_all(jobs);
  const auto reference = plain.serve();

  // A budget of ~half the working set: every serve mixes hits, misses,
  // fills, and evictions — rows must still match the uncached reference.
  service::ResultCache cache(dir.str(), 6 * kEntry);
  for (const unsigned threads : {1u, 4u}) {
    service::BatchServer server({threads, &cache});
    server.submit_all(jobs);
    const auto got = server.serve();
    ASSERT_EQ(got.jobs.size(), reference.jobs.size());
    for (std::size_t j = 0; j < got.jobs.size(); ++j) {
      EXPECT_EQ(got.jobs[j].rows, reference.jobs[j].rows)
          << got.jobs[j].name << " at " << threads << " threads";
    }
    EXPECT_LE(cache.manager()->live_bytes(), 6 * kEntry);
  }
}

// ---- verify ----------------------------------------------------------------

class ManagerVerify : public ::testing::Test {
 protected:
  void SetUp() override {
    cache_.emplace(dir_.str());
    keys_ = fill_entries(*cache_, 8);
  }

  std::string path_of(int i) {
    return cache_->entry_path(keys_[static_cast<std::size_t>(i)]);
  }

  std::vector<char> read_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
  }

  void write_file(const std::string& path, const std::vector<char>& bytes) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Plants one instance of every corruption mode the rejection tests
  /// cover: checksum flip, truncation, empty file, stale engine version,
  /// foreign magic, and an entry copied under the wrong key.
  void corrupt_entries() {
    auto flipped = read_file(path_of(0));
    flipped[flipped.size() / 2] ^= 0x40;
    write_file(path_of(0), flipped);

    auto truncated = read_file(path_of(1));
    truncated.resize(truncated.size() - 9);
    write_file(path_of(1), truncated);

    write_file(path_of(2), {});

    auto stale = read_file(path_of(3));
    stale[8] = static_cast<char>(stale[8] + 1);
    const Fingerprint sum =
        fingerprint_bytes(stale.data(), stale.size() - 16);
    for (int i = 0; i < 8; ++i) {
      stale[stale.size() - 16 + static_cast<std::size_t>(i)] =
          static_cast<char>((sum.hi >> (8 * i)) & 0xff);
      stale[stale.size() - 8 + static_cast<std::size_t>(i)] =
          static_cast<char>((sum.lo >> (8 * i)) & 0xff);
    }
    write_file(path_of(3), stale);

    auto foreign = read_file(path_of(4));
    foreign[0] = 'X';
    write_file(path_of(4), foreign);

    // A valid entry copied to another key's path (checksum fine, key echo
    // wrong): overwrite entry 5 with entry 6's bytes.
    write_file(path_of(5), read_file(path_of(6)));
  }

  ScopedTempDir dir_{"distapx-mgr-verify"};
  std::optional<service::ResultCache> cache_;
  std::vector<Fingerprint> keys_;
};

TEST_F(ManagerVerify, ReportOnlyDetectsEveryRejectionMode) {
  corrupt_entries();
  service::CacheManager manager(dir_.str());
  const auto report = manager.verify(service::RepairMode::kReport);
  EXPECT_EQ(report.checked, 8u);
  EXPECT_EQ(report.ok, 2u);  // entries 6 and 7 untouched
  EXPECT_EQ(report.invalid, 6u);
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_EQ(report.deleted, 0u);
  ASSERT_EQ(report.findings.size(), 6u);

  // Every distinct failure mode shows up with its name.
  std::set<service::EntryStatus> seen;
  for (const auto& f : report.findings) seen.insert(f.status);
  EXPECT_TRUE(seen.count(service::EntryStatus::kBadChecksum));
  EXPECT_TRUE(seen.count(service::EntryStatus::kBadLength));
  EXPECT_TRUE(seen.count(service::EntryStatus::kBadEngine));
  EXPECT_TRUE(seen.count(service::EntryStatus::kBadMagic));
  EXPECT_TRUE(seen.count(service::EntryStatus::kKeyMismatch));

  // Report-only touched nothing.
  EXPECT_TRUE(fs::exists(path_of(0)));
  EXPECT_EQ(manager.verify(service::RepairMode::kReport).invalid, 6u);
}

TEST_F(ManagerVerify, QuarantineMovesInvalidEntriesAndHealsTheCache) {
  corrupt_entries();
  service::CacheManager manager(dir_.str());
  const auto report = manager.verify(service::RepairMode::kQuarantine);
  EXPECT_EQ(report.invalid, 6u);
  EXPECT_EQ(report.quarantined, 6u);
  EXPECT_EQ(report.deleted, 0u);

  // Quarantined files moved out of the entry tree, nothing deleted.
  EXPECT_FALSE(fs::exists(path_of(0)));
  EXPECT_EQ(manager.stats().quarantined, 6u);
  EXPECT_EQ(manager.live_entries(), 2u);

  // A second verify is clean, and the healthy entries still serve.
  const auto again = manager.verify(service::RepairMode::kReport);
  EXPECT_EQ(again.invalid, 0u);
  EXPECT_EQ(again.ok, 2u);
  service::ResultCache reopened(dir_.str());
  EXPECT_TRUE(reopened.lookup(keys_[6]).has_value());
  EXPECT_TRUE(reopened.lookup(keys_[7]).has_value());
  EXPECT_EQ(reopened.stats().rejected, 0u);
}

TEST_F(ManagerVerify, DeleteUnlinksInvalidEntries) {
  corrupt_entries();
  service::CacheManager manager(dir_.str());
  const auto report = manager.verify(service::RepairMode::kDelete);
  EXPECT_EQ(report.deleted, 6u);
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_EQ(manager.live_entries(), 2u);
  EXPECT_EQ(manager.stats().quarantined, 0u);
  EXPECT_FALSE(fs::exists(path_of(0)));
}

TEST_F(ManagerVerify, StrayTempFilesAreForeignAndUntouched) {
  const std::string stray =
      path_of(0) + ".tmp.123.0";  // a crashed store()'s dropping
  write_file(stray, {'j', 'u', 'n', 'k'});
  service::CacheManager manager(dir_.str());
  const auto report = manager.verify(service::RepairMode::kDelete);
  EXPECT_EQ(report.foreign, 1u);
  EXPECT_EQ(report.invalid, 0u);
  EXPECT_TRUE(fs::exists(stray));  // verify never touches foreign files
}

TEST(CacheManager, ClearRemovesEntriesManifestAndQuarantine) {
  const ScopedTempDir dir("distapx-mgr-clear");
  service::ResultCache cache(dir.str(), 100 * kEntry);
  const auto keys = fill_entries(cache, 5);
  // Corrupt one + quarantine it so clear() has all three kinds of state.
  {
    std::ofstream os(cache.entry_path(keys[0]),
                     std::ios::binary | std::ios::trunc);
    os << "garbage";
  }
  service::CacheManager manager(dir.str());
  ASSERT_EQ(manager.verify(service::RepairMode::kQuarantine).quarantined, 1u);

  EXPECT_EQ(manager.clear(), 4u);
  EXPECT_EQ(manager.live_entries(), 0u);
  const auto s = manager.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.manifest_bytes, 0u);
  EXPECT_EQ(s.quarantined, 0u);
  // The directory itself survives (it may be a mount point).
  EXPECT_TRUE(fs::is_directory(dir.path));
}

// ---- changelog-backed manifest: open path, migration, failure counters -----

TEST(CacheManager, CheckpointedDirectoryOpensByReplayNotScan) {
  const ScopedTempDir dir("distapx-mgr-replay-open");
  {
    service::ResultCache cache(dir.str(), 100 * kEntry);
    fill_entries(cache, 12);
  }  // manager destruction flushes the buffered journal tail

  service::CacheManager manager(dir.str());
  EXPECT_EQ(manager.registry().counter("cache_open_replays_total").value(),
            1u);
  EXPECT_EQ(manager.registry().counter("cache_open_scans_total").value(), 0u);
  EXPECT_EQ(manager.live_entries(), 12u);
  EXPECT_EQ(manager.live_bytes(), 12 * kEntry);

  // checkpoint() compacts: all state in the snapshot, empty tail, and the
  // next open replays exactly that.
  manager.checkpoint();
  ASSERT_NE(manager.journal(), nullptr);
  EXPECT_EQ(manager.journal()->snapshot_records(), 12u);
  EXPECT_EQ(manager.journal()->tail_records(), 0u);

  service::CacheManager again(dir.str());
  EXPECT_EQ(again.registry().counter("cache_open_replays_total").value(), 1u);
  EXPECT_EQ(again.live_entries(), 12u);
}

TEST(CacheManager, FreshDirectoryScansOnceThenNextOpenReplays) {
  // Populated by an unbudgeted writer (no manager, no journal): the first
  // open pays the one-time directory scan and leaves a snapshot behind;
  // every later open replays.
  const ScopedTempDir dir("distapx-mgr-scan-once");
  service::ResultCache cache(dir.str());
  fill_entries(cache, 5);
  {
    service::CacheManager first(dir.str());
    EXPECT_EQ(first.registry().counter("cache_open_scans_total").value(), 1u);
    EXPECT_EQ(first.registry().counter("cache_open_replays_total").value(),
              0u);
    EXPECT_EQ(first.live_entries(), 5u);
  }
  service::CacheManager second(dir.str());
  EXPECT_EQ(second.registry().counter("cache_open_scans_total").value(), 0u);
  EXPECT_EQ(second.registry().counter("cache_open_replays_total").value(), 1u);
  EXPECT_EQ(second.live_entries(), 5u);
  EXPECT_EQ(second.live_bytes(), 5 * kEntry);
}

TEST(CacheManager, ForeignManifestIsReplacedAndOpenScansEveryEntry) {
  const ScopedTempDir dir("distapx-mgr-foreign");
  std::vector<Fingerprint> keys;
  {
    service::ResultCache cache(dir.str());  // unbudgeted: writes no journal
    keys = fill_entries(cache, 3);
  }
  // A manifest.log without the changelog magic: a pre-changelog text
  // journal, or plain garbage.
  {
    std::ofstream os(dir.path / "manifest.log");
    os << "F " << keys[0].hex() << " " << kEntry << "\nT " << keys[0].hex()
       << "\n";
  }

  // The foreign file is replaced, not parsed; the scan finds every entry.
  service::CacheManager manager(dir.str());
  EXPECT_EQ(manager.registry().counter("cache_open_scans_total").value(), 1u);
  EXPECT_EQ(manager.live_entries(), 3u);
  EXPECT_EQ(manager.live_bytes(), 3 * kEntry);
  std::set<std::string> found, expected;
  for (const auto& e : manager.entries_lru()) found.insert(e.key.hex());
  for (const auto& key : keys) expected.insert(key.hex());
  EXPECT_EQ(found, expected);

  // The manifest is a changelog now: the next open replays it.
  service::CacheManager again(dir.str());
  EXPECT_EQ(again.registry().counter("cache_open_replays_total").value(), 1u);
  EXPECT_EQ(again.live_entries(), 3u);
}

TEST(CacheManager, JournalAppendFailuresAreCountedNotThrown) {
  const ScopedTempDir dir("distapx-mgr-append-fail");
  service::ResultCache cache(dir.str(), 100 * kEntry);
  const auto keys = fill_entries(cache, 2);
  service::CacheManager& manager = *cache.manager();

  Changelog::set_write_failure_for_testing(true);
  manager.record_get(keys[0]);
  manager.checkpoint();  // flush + snapshot both fail; neither may throw
  Changelog::set_write_failure_for_testing(false);
  EXPECT_GE(
      manager.registry().counter("manifest_append_failures_total").value(),
      1u);

  // The in-memory accounting is unharmed and later writes recover fully.
  EXPECT_EQ(manager.live_entries(), 2u);
  manager.checkpoint();
  ASSERT_NE(manager.journal(), nullptr);
  EXPECT_EQ(manager.journal()->snapshot_records(), 2u);
}

// ---- concurrent eviction (the satellite contract) --------------------------

TEST(CacheManager, ConcurrentEvictionWithFillsAndReadsIsSafe) {
  const ScopedTempDir dir("distapx-mgr-concurrent");
  std::istringstream is(
      "gen=gnp:60:0.08 algo=luby   seeds=1:8 name=gnp-luby\n"
      "gen=grid:6:6    algo=mcm-2eps seeds=1:4 eps=0.3 name=grid-mcm\n");
  const auto jobs = service::parse_job_file(is);

  service::BatchServer plain({2, nullptr});
  plain.submit_all(jobs);
  const auto reference = plain.serve();

  // Two ResultCache instances on one directory: one serves (fills +
  // reads), the other evicts aggressively the whole time. Readers must
  // fall back to recompute on every eviction, rows must stay
  // bit-identical, and nothing may crash or tear.
  service::ResultCache serving(dir.str());
  service::ResultCache evicting(dir.str(), /*budget_bytes=*/3 * kEntry);
  std::atomic<bool> done{false};
  std::thread evictor([&] {
    while (!done.load()) {
      evicting.manager()->rescan();
      evicting.manager()->gc(3 * kEntry);
    }
  });

  for (int rep = 0; rep < 6; ++rep) {
    service::BatchServer server({4, &serving});
    server.submit_all(jobs);
    const auto got = server.serve();
    ASSERT_EQ(got.jobs.size(), reference.jobs.size());
    for (std::size_t j = 0; j < got.jobs.size(); ++j) {
      ASSERT_EQ(got.jobs[j].rows, reference.jobs[j].rows)
          << "rep " << rep << " job " << got.jobs[j].name;
    }
  }
  done.store(true);
  evictor.join();
  // Rejections may legitimately be zero; the hard requirement is that no
  // lookup ever returned a wrong row, which the row comparison enforced.
  EXPECT_GE(serving.stats().hits + serving.stats().misses, 6u * 12u);
}

}  // namespace
}  // namespace distapx
