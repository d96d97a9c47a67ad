#include "support/changelog.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "support/fingerprint.hpp"
#include "support/fsutil.hpp"

namespace distapx {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'D', 'X', 'L', 'G'};
constexpr std::uint32_t kFormatVersion = 1;
/// magic + format version + reserved u64.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8;
/// u32 length + u64 checksum.
constexpr std::size_t kFrameBytes = 4 + 8;

std::atomic<bool> g_fail_writes{false};

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
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

std::string header_bytes() {
  std::string h(kMagic, 4);
  put_u32(h, kFormatVersion);
  put_u64(h, 0);  // reserved
  return h;
}

void encode_frame(std::string& out, std::string_view payload) {
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u64(out, fingerprint_bytes(payload.data(), payload.size()).lo);
  out.append(payload);
}

bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads the whole file behind `fd`. False only on a read error.
bool read_all(int fd, std::string& out) {
  out.clear();
  char buf[1 << 16];
  std::uint64_t off = 0;
  for (;;) {
    const ssize_t n = ::pread(fd, buf, sizeof buf, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return true;
    out.append(buf, static_cast<std::size_t>(n));
    off += static_cast<std::uint64_t>(n);
  }
}

struct ParsedFile {
  std::vector<std::string> records;
  std::uint64_t payload_bytes = 0;
  /// File offset just past the last valid record: everything beyond is a
  /// torn/corrupt tail.
  std::uint64_t valid_end = 0;
};

/// Walks the framed records after the header and stops at the first frame
/// that is incomplete, oversized, or checksum-mismatched. Never throws:
/// the caller decides whether the cut bytes are crash residue (tail:
/// truncate) or corruption to report (snapshot: keep replay prefix).
ParsedFile parse_records(const std::string& image) {
  ParsedFile out;
  out.valid_end = kHeaderBytes;
  const auto* base = reinterpret_cast<const unsigned char*>(image.data());
  std::uint64_t pos = kHeaderBytes;
  while (pos + kFrameBytes <= image.size()) {
    const std::uint32_t len = get_u32(base + pos);
    if (len > Changelog::kMaxRecordBytes) break;  // insane length: torn
    if (pos + kFrameBytes + len > image.size()) break;  // incomplete
    const std::uint64_t want = get_u64(base + pos + 4);
    const char* payload = image.data() + pos + kFrameBytes;
    if (fingerprint_bytes(payload, len).lo != want) break;  // torn/corrupt
    out.records.emplace_back(payload, len);
    out.payload_bytes += len;
    pos += kFrameBytes + len;
    out.valid_end = pos;
  }
  return out;
}

/// True iff the image carries this module's header. `why` distinguishes
/// foreign magic from an unsupported version for the error message.
bool header_ok(const std::string& image, std::string* why) {
  if (std::memcmp(image.data(), kMagic, 4) != 0) {
    *why = "not a changelog (foreign magic)";
    return false;
  }
  const auto* p = reinterpret_cast<const unsigned char*>(image.data());
  if (get_u32(p + 4) != kFormatVersion) {
    *why = "unsupported changelog format version";
    return false;
  }
  return true;
}

}  // namespace

void Changelog::set_write_failure_for_testing(bool fail) noexcept {
  g_fail_writes.store(fail, std::memory_order_relaxed);
}

Changelog::Changelog(std::string base_path) : base_(std::move(base_path)) {
  // ---- snapshot (read-only; absent is fine) ----
  const std::string snap = snapshot_path();
  const int sfd = ::open(snap.c_str(), O_RDONLY | O_CLOEXEC);
  if (sfd >= 0) {
    std::string image;
    const bool read_ok = read_all(sfd, image);
    ::close(sfd);
    if (!read_ok) throw ChangelogError("cannot read " + snap);
    if (image.size() >= kHeaderBytes) {
      std::string why;
      if (!header_ok(image, &why)) {
        throw ChangelogError(snap + ": " + why);
      }
      ParsedFile parsed = parse_records(image);
      // A snapshot is written atomically, so a short tail here is external
      // corruption, not crash residue: replay the valid prefix, leave the
      // file for the operator, and account the cut.
      state_.torn_bytes += image.size() - parsed.valid_end;
      snapshot_records_ = parsed.records.size();
      snapshot_payload_bytes_ = parsed.payload_bytes;
      state_.snapshot = std::move(parsed.records);
    } else if (!image.empty()) {
      throw ChangelogError(snap + ": not a changelog (short header)");
    }
  }

  // ---- tail (read-write; created if absent) ----
  const std::string log = log_path();
  log_fd_ = ::open(log.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC,
                   0644);
  if (log_fd_ < 0) {
    throw ChangelogError("cannot open " + log + ": " + std::strerror(errno));
  }
  std::string image;
  if (!read_all(log_fd_, image)) {
    ::close(log_fd_);
    log_fd_ = -1;
    throw ChangelogError("cannot read " + log);
  }
  if (image.size() < kHeaderBytes) {
    // Empty (fresh) or torn mid-header-write: both become a clean header.
    // A nonempty prefix shorter than the header cannot be foreign data we
    // should preserve — foreign detection needs the magic, which needs 4+
    // bytes, checked below for full-size files; for sub-header files the
    // worst case is discarding < 16 junk bytes.
    if (::ftruncate(log_fd_, 0) != 0) {
      ::close(log_fd_);
      log_fd_ = -1;
      throw ChangelogError("cannot initialize " + log);
    }
    const std::string header = header_bytes();
    if (!write_all(log_fd_, header.data(), header.size())) {
      ::close(log_fd_);
      log_fd_ = -1;
      throw ChangelogError("cannot initialize " + log);
    }
    fsutil::sync_fd(log_fd_);
    return;
  }
  std::string why;
  if (!header_ok(image, &why)) {
    ::close(log_fd_);
    log_fd_ = -1;
    throw ChangelogError(log + ": " + why);
  }
  ParsedFile parsed = parse_records(image);
  if (parsed.valid_end < image.size()) {
    // Torn tail: cut back to the valid prefix so future appends extend
    // clean state. This is the expected residue of a crash mid-append.
    state_.torn_bytes += image.size() - parsed.valid_end;
    if (::ftruncate(log_fd_, static_cast<off_t>(parsed.valid_end)) != 0) {
      ::close(log_fd_);
      log_fd_ = -1;
      throw ChangelogError("cannot repair torn tail of " + log);
    }
  }
  tail_records_ = parsed.records.size();
  tail_payload_bytes_ = parsed.payload_bytes;
  state_.tail = std::move(parsed.records);
}

Changelog::~Changelog() {
  if (log_fd_ >= 0) ::close(log_fd_);
}

bool Changelog::append_frames_locked(const std::string& frames,
                                     std::uint64_t records,
                                     std::uint64_t payload_size) {
  if (g_fail_writes.load(std::memory_order_relaxed) ||
      !write_all(log_fd_, frames.data(), frames.size()) ||
      !fsutil::sync_fd(log_fd_)) {
    // A partial write leaves a torn frame; the next open truncates it.
    ++write_failures_;
    return false;
  }
  tail_records_ += records;
  tail_payload_bytes_ += payload_size;
  return true;
}

bool Changelog::refuse() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++write_failures_;
  return false;
}

bool Changelog::append(std::string_view payload) {
  // Replay cuts a longer frame as a torn tail, taking every later record
  // with it, so such a record is never written.
  if (payload.size() > kMaxRecordBytes) return refuse();
  std::string frames;
  frames.reserve(kFrameBytes + payload.size());
  encode_frame(frames, payload);
  const std::lock_guard<std::mutex> lock(mu_);
  return append_frames_locked(frames, 1, payload.size());
}

bool Changelog::append_batch(const std::vector<std::string>& payloads) {
  if (payloads.empty()) return true;
  for (const std::string& p : payloads) {
    if (p.size() > kMaxRecordBytes) return refuse();
  }
  // One write + one fdatasync for the whole batch: the per-record
  // durability cost amortizes, and O_APPEND keeps the batch contiguous
  // even with appenders in other processes.
  std::string frames;
  std::uint64_t payload_size = 0;
  for (const std::string& p : payloads) {
    encode_frame(frames, p);
    payload_size += p.size();
  }
  const std::lock_guard<std::mutex> lock(mu_);
  return append_frames_locked(frames, payloads.size(), payload_size);
}

bool Changelog::snapshot(const std::vector<std::string>& records) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (g_fail_writes.load(std::memory_order_relaxed)) {
    ++write_failures_;
    return false;
  }
  const std::string tmp =
      base_ + ".snap.tmp." + std::to_string(::getpid());
  std::string image = header_bytes();
  std::uint64_t payload_size = 0;
  for (const std::string& r : records) {
    encode_frame(image, r);
    payload_size += r.size();
  }
  const auto fail = [&] {
    std::error_code ignore;
    fs::remove(tmp, ignore);
    ++write_failures_;
    return false;
  };
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return fail();
  if (!write_all(fd, image.data(), image.size()) || !fsutil::sync_fd(fd)) {
    ::close(fd);
    return fail();
  }
  ::close(fd);
  std::error_code ec;
  fs::rename(tmp, snapshot_path(), ec);
  if (ec) return fail();
  // The rename itself must survive power loss before the tail may be
  // reset — otherwise a crash could surface the *old* snapshot with a
  // *new* (already-emptied) tail and silently lose records.
  fs::path dir = fs::path(base_).parent_path();
  if (dir.empty()) dir = ".";
  if (!fsutil::sync_dir(dir)) return fail();
  // A crash exactly here leaves the old tail alongside the new snapshot:
  // replay duplicates those records, which consumers absorb idempotently.
  if (::ftruncate(log_fd_, static_cast<off_t>(kHeaderBytes)) != 0) {
    ++write_failures_;
    return false;
  }
  fsutil::sync_fd(log_fd_);
  snapshot_records_ = records.size();
  snapshot_payload_bytes_ = payload_size;
  tail_records_ = 0;
  tail_payload_bytes_ = 0;
  return true;
}

std::uint64_t Changelog::tail_records() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return tail_records_;
}

std::uint64_t Changelog::snapshot_records() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return snapshot_records_;
}

std::uint64_t Changelog::write_failures() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return write_failures_;
}

std::uint64_t Changelog::payload_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return tail_payload_bytes_ + snapshot_payload_bytes_;
}

}  // namespace distapx
