// Write-ahead changelog (support/changelog.hpp) and failpoints
// (support/failpoint.hpp).
//
// Contracts under test: append -> reopen replays exactly what was
// appended, in order, binary payloads included; a tail truncated at ANY
// byte boundary (crash mid-append) replays exactly the longest valid
// record prefix and is repaired so later appends extend clean state;
// snapshot() compacts atomically and resets the tail; foreign files are
// refused, never clobbered; the fsync discipline follows the fsutil
// durability knob; and the write-failure seam feeds the failure counters
// the cache manager's manifest_append_failures_total is built on.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "support/changelog.hpp"
#include "support/failpoint.hpp"
#include "support/fsutil.hpp"
#include "test_helpers.hpp"

namespace distapx {
namespace {

namespace fs = std::filesystem;
using test::ScopedTempDir;

/// File-format constants mirrored from changelog.cpp — the torn-tail
/// sweep needs frame geometry to predict the valid prefix per cut.
constexpr std::uint64_t kHeaderBytes = 16;
constexpr std::uint64_t kFrameBytes = 12;

std::string base_in(const ScopedTempDir& dir) {
  fs::create_directories(dir.path);
  return (dir.path / "wal").string();
}

std::string read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good());
}

/// Restores the process-wide durability level on scope exit (the knob is
/// global; a test must not leak kNone into its neighbors).
struct DurabilityGuard {
  fsutil::Durability saved = fsutil::durability();
  ~DurabilityGuard() { fsutil::set_durability(saved); }
};

TEST(Changelog, AppendReopenReplaysInOrder) {
  const ScopedTempDir dir("distapx-wal-roundtrip");
  const std::string base = base_in(dir);
  // Binary-safe: payloads with NUL, newline, and frame-magic-ish bytes.
  const std::vector<std::string> payloads = {
      "F abc 97", std::string("bin\0ary\n", 8), "DXLG not a header", ""};
  {
    Changelog log(base);
    EXPECT_TRUE(log.replayed().snapshot.empty());
    EXPECT_TRUE(log.replayed().tail.empty());
    EXPECT_EQ(log.replayed().torn_bytes, 0u);
    for (const auto& p : payloads) EXPECT_TRUE(log.append(p));
    EXPECT_EQ(log.tail_records(), payloads.size());
  }
  Changelog log(base);
  EXPECT_TRUE(log.replayed().snapshot.empty());
  EXPECT_EQ(log.replayed().tail, payloads);
  EXPECT_EQ(log.replayed().torn_bytes, 0u);
  EXPECT_EQ(log.tail_records(), payloads.size());
}

TEST(Changelog, AppendBatchIsOneContiguousWrite) {
  const ScopedTempDir dir("distapx-wal-batch");
  const std::string base = base_in(dir);
  Changelog log(base);
  EXPECT_TRUE(log.append_batch({"one", "two", "three"}));
  EXPECT_TRUE(log.append_batch({}));  // empty batch is a no-op success
  EXPECT_EQ(log.tail_records(), 3u);
  EXPECT_EQ(log.payload_bytes(), 3u + 3u + 5u);
  Changelog reopened(base);
  EXPECT_EQ(reopened.replayed().tail,
            (std::vector<std::string>{"one", "two", "three"}));
}

TEST(Changelog, SnapshotCompactsAndResetsTail) {
  const ScopedTempDir dir("distapx-wal-snap");
  const std::string base = base_in(dir);
  {
    Changelog log(base);
    EXPECT_TRUE(log.append("old-1"));
    EXPECT_TRUE(log.append("old-2"));
    EXPECT_TRUE(log.snapshot({"merged"}));
    EXPECT_EQ(log.tail_records(), 0u);
    EXPECT_EQ(log.snapshot_records(), 1u);
    EXPECT_TRUE(log.append("new-after-snap"));
  }
  // Replay order: snapshot first, then the post-compaction tail. The old
  // records are gone for good.
  Changelog log(base);
  EXPECT_EQ(log.replayed().snapshot, std::vector<std::string>{"merged"});
  EXPECT_EQ(log.replayed().tail, std::vector<std::string>{"new-after-snap"});
  // The tail file itself was cut back to its header.
  EXPECT_EQ(fs::file_size(log.log_path()),
            kHeaderBytes + kFrameBytes + std::string("new-after-snap").size());
}

TEST(Changelog, EmptySnapshotReportsZeroPayloadBytes) {
  const ScopedTempDir dir("distapx-wal-empty");
  const std::string base = base_in(dir);
  Changelog log(base);
  EXPECT_TRUE(log.append("soon gone"));
  EXPECT_GT(log.payload_bytes(), 0u);
  EXPECT_TRUE(log.snapshot({}));
  // Headers and framing are excluded by contract: a cleared changelog
  // reports 0 even though both files still carry 16-byte headers.
  EXPECT_EQ(log.payload_bytes(), 0u);
}

// The satellite-4 regression: cut the log at EVERY byte boundary and
// assert replay yields exactly the longest valid record prefix — no torn
// record ever surfaces, no valid record is ever lost, and the repaired
// log accepts appends again.
TEST(Changelog, TornTailAtEveryByteReplaysExactPrefix) {
  const ScopedTempDir dir("distapx-wal-torn");
  const std::string base = base_in(dir);
  const std::vector<std::string> payloads = {"alpha", "bravo!", "charlie-3"};
  {
    Changelog log(base);
    for (const auto& p : payloads) ASSERT_TRUE(log.append(p));
  }
  const std::string image = read_bytes(base + ".log");
  // Frame end offsets, from the mirrored geometry.
  std::vector<std::uint64_t> ends;
  std::uint64_t off = kHeaderBytes;
  for (const auto& p : payloads) {
    off += kFrameBytes + p.size();
    ends.push_back(off);
  }
  ASSERT_EQ(image.size(), ends.back());

  for (std::uint64_t cut = 0; cut <= image.size(); ++cut) {
    const ScopedTempDir scratch("distapx-wal-torn-cut");
    fs::create_directories(scratch.path);
    const std::string cut_base = (scratch.path / "wal").string();
    write_bytes(cut_base + ".log", image.substr(0, cut));

    Changelog log(cut_base);
    std::vector<std::string> expect;
    std::uint64_t valid_end = kHeaderBytes;
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      if (ends[i] <= cut) {
        expect.push_back(payloads[i]);
        valid_end = ends[i];
      }
    }
    EXPECT_EQ(log.replayed().tail, expect) << "cut at byte " << cut;
    if (cut >= kHeaderBytes) {
      EXPECT_EQ(log.replayed().torn_bytes, cut - valid_end)
          << "cut at byte " << cut;
      // The torn residue was truncated away, not left to interleave with
      // future appends.
      EXPECT_EQ(fs::file_size(cut_base + ".log"), valid_end)
          << "cut at byte " << cut;
    } else {
      // A sub-header fragment is reinitialized to a clean empty log.
      EXPECT_EQ(fs::file_size(cut_base + ".log"), kHeaderBytes)
          << "cut at byte " << cut;
    }
    // The repaired log must be appendable, and the append must survive a
    // reopen alongside the surviving prefix.
    EXPECT_TRUE(log.append("post-repair")) << "cut at byte " << cut;
    Changelog reopened(cut_base);
    expect.push_back("post-repair");
    EXPECT_EQ(reopened.replayed().tail, expect) << "cut at byte " << cut;
  }
}

TEST(Changelog, CorruptedMidRecordStopsReplayAtPrefix) {
  const ScopedTempDir dir("distapx-wal-corrupt");
  const std::string base = base_in(dir);
  {
    Changelog log(base);
    ASSERT_TRUE(log.append("keep-me"));
    ASSERT_TRUE(log.append("flip-me"));
    ASSERT_TRUE(log.append("unreachable"));
  }
  std::string image = read_bytes(base + ".log");
  // Flip one payload byte of the middle record: its checksum fails, and
  // the scan must stop there — record 3 is unreachable even though its
  // own frame is intact (an offset after corruption cannot be trusted).
  const std::uint64_t flip_at =
      kHeaderBytes + kFrameBytes + 7 + kFrameBytes + 2;
  image[flip_at] = static_cast<char>(image[flip_at] ^ 0x5a);
  write_bytes(base + ".log", image);

  Changelog log(base);
  EXPECT_EQ(log.replayed().tail, std::vector<std::string>{"keep-me"});
  EXPECT_GT(log.replayed().torn_bytes, 0u);
}

TEST(Changelog, ForeignFilesAreRefusedNotClobbered) {
  const ScopedTempDir dir("distapx-wal-foreign");
  const std::string base = base_in(dir);
  const std::string legacy = "F abcdef 97\nT abcdef\n";
  write_bytes(base + ".log", legacy);
  EXPECT_THROW(Changelog log(base), ChangelogError);
  // The foreign bytes must be exactly as we left them.
  EXPECT_EQ(read_bytes(base + ".log"), legacy);

  fs::remove(base + ".log");
  write_bytes(base + ".snap", "not a changelog snapshot either");
  EXPECT_THROW(Changelog log(base), ChangelogError);
  EXPECT_EQ(read_bytes(base + ".snap"), "not a changelog snapshot either");
}

TEST(Changelog, FsyncCountFollowsDurabilityKnob) {
  const ScopedTempDir dir("distapx-wal-fsync");
  const std::string base = base_in(dir);
  const DurabilityGuard guard;

  fsutil::set_durability(fsutil::Durability::kNone);
  const std::uint64_t before_none = fsutil::fsync_total();
  {
    Changelog log(base);
    EXPECT_TRUE(log.append("unsynced"));
    EXPECT_TRUE(log.snapshot({"unsynced"}));
  }
  EXPECT_EQ(fsutil::fsync_total(), before_none);

  fsutil::set_durability(fsutil::Durability::kFull);
  const std::uint64_t before_full = fsutil::fsync_total();
  {
    Changelog log(base);
    EXPECT_TRUE(log.append("synced"));
  }
  EXPECT_GT(fsutil::fsync_total(), before_full);
}

TEST(Changelog, WriteFailureSeamCountsAndDegrades) {
  const ScopedTempDir dir("distapx-wal-fail");
  const std::string base = base_in(dir);
  Changelog log(base);
  ASSERT_TRUE(log.append("before"));

  Changelog::set_write_failure_for_testing(true);
  EXPECT_FALSE(log.append("dropped"));
  EXPECT_FALSE(log.append_batch({"also", "dropped"}));
  EXPECT_FALSE(log.snapshot({"dropped"}));
  Changelog::set_write_failure_for_testing(false);
  EXPECT_EQ(log.write_failures(), 3u);

  // Failures leave the on-disk state consistent: the pre-failure record
  // is intact and the log accepts appends again.
  EXPECT_TRUE(log.append("after"));
  Changelog reopened(base);
  EXPECT_EQ(reopened.replayed().tail,
            (std::vector<std::string>{"before", "after"}));
}

TEST(Changelog, AppendRejectsRecordReplayWouldCut) {
  // Replay treats a length above kMaxRecordBytes as a torn tail, so an
  // append of such a record must fail up front — otherwise it and every
  // record after it vanish at the next open.
  const ScopedTempDir dir("distapx-wal-oversized");
  const std::string base = base_in(dir);
  {
    Changelog log(base);
    const std::string huge(std::size_t{Changelog::kMaxRecordBytes} + 1, 'x');
    EXPECT_TRUE(log.append("S 1 small"));
    EXPECT_FALSE(log.append(huge));
    EXPECT_FALSE(log.append_batch({"S 2 dropped", huge}));
    EXPECT_TRUE(log.append("R 1"));
    EXPECT_EQ(log.write_failures(), 2u);
    EXPECT_EQ(log.tail_records(), 2u);
  }
  Changelog reopened(base);
  EXPECT_EQ(reopened.replayed().tail,
            (std::vector<std::string>{"S 1 small", "R 1"}));
  EXPECT_EQ(reopened.replayed().torn_bytes, 0u);
}

TEST(Changelog, ConcurrentAppendersLoseNothing) {
  const ScopedTempDir dir("distapx-wal-mt");
  const std::string base = base_in(dir);
  const DurabilityGuard guard;
  fsutil::set_durability(fsutil::Durability::kNone);  // keep the test fast
  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  {
    Changelog log(base);
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&log, t] {
        for (int i = 0; i < kPerThread; ++i) {
          log.append("t" + std::to_string(t) + "-" + std::to_string(i));
        }
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(log.tail_records(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
  }
  Changelog log(base);
  EXPECT_EQ(log.replayed().tail.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

// ---- failpoints -------------------------------------------------------------

TEST(Changelog, FailpointThrowsOnceThenDisarms) {
  failpoint::disarm_all();
  const std::uint64_t hits_before = failpoint::hits_total();

  failpoint::hit("changelog_test_point");  // unarmed: no-op
  failpoint::arm("changelog_test_point");
  EXPECT_TRUE(failpoint::armed("changelog_test_point"));
  EXPECT_THROW(failpoint::hit("changelog_test_point"), failpoint::Failure);
  // One-shot: the same name passes clean on the recovery path.
  EXPECT_FALSE(failpoint::armed("changelog_test_point"));
  failpoint::hit("changelog_test_point");
  EXPECT_EQ(failpoint::hits_total(), hits_before + 1);

  failpoint::arm("changelog_other_point");
  failpoint::disarm_all();
  EXPECT_FALSE(failpoint::armed("changelog_other_point"));
}

}  // namespace
}  // namespace distapx
