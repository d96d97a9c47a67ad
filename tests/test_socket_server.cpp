// The socket serving tier (service/socket_server.hpp + net/client.hpp).
//
// Contracts under test, mirroring the ISSUE's acceptance criteria:
//   - rows returned over the socket are byte-identical to a direct
//     BatchServer run of the same job file, at 1/4/8 server threads and
//     under >= 4 concurrent clients sharing one server and one cache;
//   - a malformed or malicious client (garbage magic, oversized declared
//     length, mid-frame hangup, slow-loris partial header) is rejected
//     with a classified error and never crashes or wedges the accept
//     loop — remaining clients keep being served;
//   - lifecycle: HELLO exchange, PING/STATS, SHUTDOWN-over-the-wire,
//     max_requests, request_stop from another thread, TCP on an
//     ephemeral localhost port.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "service/batch_server.hpp"
#include "service/job_spec.hpp"
#include "service/report_sink.hpp"
#include "service/result_cache.hpp"
#include "service/socket_server.hpp"
#include "support/fdio.hpp"
#include "support/trace.hpp"
#include "test_helpers.hpp"

namespace distapx {
namespace {

using test::ScopedTempDir;

const char* kJobs =
    "gen=path:30      algo=luby     seeds=1:3 name=path-luby\n"
    "gen=grid:5:5     algo=mcm-2eps seeds=1:2 eps=0.3 name=grid-mcm\n"
    "gen=tree:24      algo=mwm-lr   seeds=2:2 maxw=16 name=tree-mwm\n";

/// What `distapx_cli batch` would emit for the same specs (the reference
/// bytes for every transport), served at an unrelated thread count.
net::ResultPayload direct_reference(const std::string& jobs,
                                    unsigned threads = 3) {
  std::istringstream is(jobs);
  service::BatchServer server({threads});
  server.submit_all(service::parse_job_file(is));
  const service::BatchResult result = server.serve();
  const service::RenderedResult rendered =
      service::render_result("direct", result);
  net::ResultPayload payload;
  payload.summary_csv = rendered.summary_csv;
  payload.runs_csv = rendered.runs_csv;
  payload.report_txt = rendered.report_txt;
  return payload;
}

/// A SocketServer on a fresh Unix socket, run()ning on its own thread.
class ServerFixture {
 public:
  explicit ServerFixture(
      const std::function<void(service::SocketServerOptions&)>& tweak = {})
      : dir_("distapx-socket") {
    std::filesystem::create_directories(dir_.path);
    service::SocketServerOptions opts;
    opts.endpoint = net::parse_endpoint((dir_.path / "dx.sock").string());
    opts.threads = 2;
    opts.idle_timeout_ms = 10'000;  // tests override for the loris cases
    if (tweak) tweak(opts);
    server_.emplace(std::move(opts));
    thread_ = std::thread([this] { final_stats_ = server_->run(); });
  }

  ~ServerFixture() {
    if (thread_.joinable()) {
      server_->request_stop();
      thread_.join();
    }
  }

  [[nodiscard]] const net::Endpoint& endpoint() const {
    return server_->endpoint();
  }
  service::SocketServer& server() { return *server_; }

  /// Stops the server and returns the final counters.
  service::SocketServerStats finish() {
    server_->request_stop();
    thread_.join();
    return final_stats_;
  }

  /// True once run() returned on its own (drain via shutdown/max_requests).
  bool wait_done(int timeout_ms = 5000) {
    for (int waited = 0; waited < timeout_ms; waited += 10) {
      if (done()) {
        thread_.join();
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

 private:
  bool done() {
    // The listener socket disappears when run() drains (Unix listeners
    // unlink their path); probing the fs races less than joining with a
    // timeout, which std::thread does not offer.
    return !std::filesystem::exists(
        std::filesystem::path(server_->endpoint().path));
  }

  ScopedTempDir dir_;
  std::optional<service::SocketServer> server_;
  std::thread thread_;
  service::SocketServerStats final_stats_;
};

/// Reads one frame from a raw socket (for the malformed-client tests,
/// which bypass net::Client on purpose). nullopt on EOF/undecodable.
std::optional<net::Frame> read_raw_frame(int fd) {
  net::FrameReader reader(1 << 20);
  char buf[4096];
  for (;;) {
    net::Frame frame;
    switch (reader.next(frame)) {
      case net::FrameStatus::kFrame:
        return frame;
      case net::FrameStatus::kNeedMore:
        break;
      default:
        return std::nullopt;
    }
    const ssize_t r = fdio::read_some(fd, buf, sizeof buf);
    if (r <= 0) return std::nullopt;
    reader.feed(buf, static_cast<std::size_t>(r));
  }
}

bool write_raw(int fd, const std::string& bytes) {
  return fdio::write_fully(fd, bytes.data(), bytes.size());
}

/// Polls the server's STATS lines until `line` appears (counters update
/// asynchronously with respect to raw-client teardown). The window is
/// generous because some counters only advance once a lane finishes its
/// current job — an eyeblink in Release, whole seconds under TSan.
bool stats_line_appears(const net::Endpoint& ep, const std::string& line,
                        int timeout_ms = 30'000) {
  for (int waited = 0; waited < timeout_ms; waited += 20) {
    net::Client client = net::Client::connect(ep);
    if (client.stats().find(line) != std::string::npos) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

TEST(SocketServer, SubmitMatchesDirectBatchByteForByteAtEveryThreadCount) {
  const net::ResultPayload reference = direct_reference(kJobs);
  for (const unsigned threads : {1u, 4u, 8u}) {
    ServerFixture fixture(
        [&](service::SocketServerOptions& o) { o.threads = threads; });
    net::Client client = net::Client::connect(fixture.endpoint());
    const net::SubmitOutcome outcome = client.submit(kJobs);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(outcome.result.runs_csv, reference.runs_csv)
        << "threads=" << threads;
    EXPECT_EQ(outcome.result.summary_csv, reference.summary_csv)
        << "threads=" << threads;
    // The report is telemetry, not contract — but its shape must hold.
    EXPECT_NE(outcome.result.report_txt.find("runs 7"), std::string::npos)
        << outcome.result.report_txt;
  }
}

TEST(WorkspaceServing, OneSocketLaneServesManyJobFilesLikeFreshServers) {
  // One lane serves every file, so its workspaces see all of them,
  // including a run that throws mid-round.
  ServerFixture fixture([](service::SocketServerOptions& o) {
    o.threads = 2;
    o.lanes = 1;
  });
  net::Client client = net::Client::connect(fixture.endpoint());
  const std::vector<std::string> files = test::workspace_job_files();
  for (std::size_t f = 0; f < files.size(); ++f) {
    SCOPED_TRACE("file " + std::to_string(f));
    const net::SubmitOutcome outcome = client.submit(files[f]);
    if (f == test::kThrowingJobFile) {
      EXPECT_FALSE(outcome.ok);
      EXPECT_NE(outcome.error.find("CONGEST violation"), std::string::npos)
          << outcome.error;
      continue;
    }
    ASSERT_TRUE(outcome.ok) << outcome.error;
    const net::ResultPayload fresh = direct_reference(files[f], 1);
    EXPECT_EQ(outcome.result.runs_csv, fresh.runs_csv);
    EXPECT_EQ(outcome.result.summary_csv, fresh.summary_csv);
  }
}

TEST(WorkerPoolServing, TwoLanesShareOnePoolAcrossConcurrentConnections) {
  // 2 lanes x 2 threads: one pool of 4 workers runs the units of both
  // lanes' SUBMITs, job builds included. Four connections submit the job
  // files interleaved; the violating one gets its ERR, and every other
  // file's rows are a fresh single-thread server's.
  ServerFixture fixture([](service::SocketServerOptions& o) {
    o.threads = 2;
    o.lanes = 2;
  });
  const std::vector<std::string> files = test::workspace_job_files();
  ASSERT_GE(files.size(), 20u);
  std::vector<net::ResultPayload> want(files.size());
  for (std::size_t f = 0; f < files.size(); ++f) {
    if (f != test::kThrowingJobFile) want[f] = direct_reference(files[f], 1);
  }
  constexpr std::size_t kClients = 4;
  std::vector<std::string> failures(files.size());
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        net::Client client = net::Client::connect(fixture.endpoint());
        for (std::size_t f = c; f < files.size(); f += kClients) {
          const net::SubmitOutcome outcome = client.submit(files[f]);
          if (f == test::kThrowingJobFile) {
            if (outcome.ok ||
                outcome.error.find("CONGEST violation") == std::string::npos) {
              failures[f] = "expected a CONGEST violation, got: " +
                            (outcome.ok ? "rows" : outcome.error);
            }
          } else if (!outcome.ok) {
            failures[f] = outcome.error;
          } else if (outcome.result.runs_csv != want[f].runs_csv ||
                     outcome.result.summary_csv != want[f].summary_csv) {
            failures[f] = "rows differ from a fresh server's";
          }
        }
      } catch (const std::exception& e) {
        failures[c] = std::string("client: ") + e.what();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (std::size_t f = 0; f < files.size(); ++f) {
    EXPECT_TRUE(failures[f].empty()) << "file " << f << ": " << failures[f];
  }
  const auto stats = fixture.finish();
  EXPECT_EQ(stats.results_ok, files.size() - 1);
  EXPECT_EQ(stats.results_error, 1u);
}

TEST(SocketServer, ConcurrentClientsSharingOneCacheGetIdenticalRows) {
  const ScopedTempDir cache_dir("distapx-socket-cache");
  ServerFixture fixture([&](service::SocketServerOptions& o) {
    o.threads = 4;
    o.lanes = 1;  // serial execution: exact hit accounting below needs it
    o.cache_dir = cache_dir.str();
  });
  const net::ResultPayload reference = direct_reference(kJobs);

  constexpr int kClients = 6;
  constexpr int kRepeats = 3;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        net::Client client = net::Client::connect(fixture.endpoint());
        for (int r = 0; r < kRepeats; ++r) {
          const net::SubmitOutcome outcome = client.submit(kJobs);
          if (!outcome.ok) {
            failures[c] = outcome.error;
            return;
          }
          if (outcome.result.runs_csv != reference.runs_csv) {
            failures[c] = "rows diverged on repeat " + std::to_string(r);
            return;
          }
        }
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
  }

  const auto stats = fixture.finish();
  EXPECT_EQ(stats.results_ok,
            static_cast<std::uint64_t>(kClients * kRepeats));
  EXPECT_EQ(stats.results_error, 0u);
  // 7 runs per submission; only the first submission computes, the rest
  // hit the shared cache (whatever interleaving the clients produced).
  EXPECT_EQ(stats.cache_hits + stats.computed,
            static_cast<std::uint64_t>(kClients * kRepeats * 7));
  EXPECT_GE(stats.cache_hits, static_cast<std::uint64_t>(
                                  (kClients * kRepeats - 1) * 7));
}

TEST(SocketServer, RestartOnTheSameCacheAnswersFromStoredEntries) {
  // What a restarted server needs from its predecessor is in the cache:
  // every per-seed entry a finished job stored is a hit for the next
  // server process, with the same bytes and no recompute.
  const ScopedTempDir cache_dir("distapx-socket-restart");
  const net::ResultPayload reference = direct_reference(kJobs);
  for (const bool restarted : {false, true}) {
    ServerFixture fixture([&](service::SocketServerOptions& o) {
      o.lanes = 1;
      o.cache_dir = cache_dir.str();
    });
    net::Client client = net::Client::connect(fixture.endpoint());
    const net::SubmitOutcome outcome = client.submit(kJobs);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(outcome.result.runs_csv, reference.runs_csv)
        << "restarted=" << restarted;
    EXPECT_EQ(outcome.result.summary_csv, reference.summary_csv)
        << "restarted=" << restarted;
    const auto stats = fixture.finish();
    EXPECT_EQ(stats.results_ok, 1u);
    EXPECT_EQ(stats.cache_hits, restarted ? 7u : 0u);
    EXPECT_EQ(stats.computed, restarted ? 0u : 7u);
  }
}

TEST(SocketServer, RepeatedSubmitIsServedFromTheCacheWithoutRecomputing) {
  const ScopedTempDir cache_dir("distapx-socket-warm");
  const net::ResultPayload reference = direct_reference(kJobs);
  ServerFixture fixture([&](service::SocketServerOptions& o) {
    o.lanes = 1;
    o.cache_dir = cache_dir.str();
  });
  net::Client client = net::Client::connect(fixture.endpoint());
  for (int k = 1; k <= 2; ++k) {
    const net::SubmitOutcome outcome = client.submit(kJobs);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(outcome.result.runs_csv, reference.runs_csv) << "submit " << k;
    EXPECT_EQ(outcome.result.summary_csv, reference.summary_csv)
        << "submit " << k;
    const std::string& report = outcome.result.report_txt;
    const bool warm = k == 2;
    for (const std::string& line :
         {"job_file submit-" + std::to_string(k), std::string("runs 7"),
          std::string(warm ? "served_from_cache 7" : "served_from_cache 0"),
          std::string(warm ? "computed 0" : "computed 7"),
          std::string(warm ? "hit_rate 1.0000" : "hit_rate 0.0000")}) {
      EXPECT_NE(report.find(line + "\n"), std::string::npos)
          << "submit " << k << " lacks \"" << line << "\":\n" << report;
    }
  }
  const auto stats = fixture.finish();
  EXPECT_EQ(stats.cache_hits, 7u);
  EXPECT_EQ(stats.computed, 7u);
}

TEST(SocketServer, CacheBudgetWithoutCacheDirIsRejectedBeforeListening) {
  const ScopedTempDir dir("distapx-socket-budget-nodir");
  std::filesystem::create_directories(dir.path);
  service::SocketServerOptions opts;
  opts.endpoint = net::parse_endpoint((dir.path / "dx.sock").string());
  opts.cache_budget = 1 << 20;
  EXPECT_THROW({ service::SocketServer server(std::move(opts)); },
               service::JobError);
  EXPECT_FALSE(std::filesystem::exists(dir.path / "dx.sock"));
}

TEST(SocketServer, CacheBudgetKeepsTheDirectoryBoundedAcrossSubmits) {
  const ScopedTempDir cache_dir("distapx-socket-budget");
  const std::uint64_t budget = 5 * service::entry_file_size();
  const char* other_jobs =
      "gen=path:30      algo=luby     seeds=4:3 name=path-luby\n"
      "gen=cycle:20     algo=mcm-2eps seeds=1:3 eps=0.3 name=cycle-mcm\n";
  const net::ResultPayload reference = direct_reference(kJobs);
  const net::ResultPayload other_reference = direct_reference(other_jobs);
  ServerFixture fixture([&](service::SocketServerOptions& o) {
    o.lanes = 1;
    o.cache_dir = cache_dir.str();
    o.cache_budget = budget;
  });
  net::Client client = net::Client::connect(fixture.endpoint());
  for (int round = 0; round < 2; ++round) {
    for (const bool other : {false, true}) {
      const net::SubmitOutcome outcome =
          client.submit(other ? other_jobs : kJobs);
      ASSERT_TRUE(outcome.ok) << outcome.error;
      EXPECT_EQ(outcome.result.runs_csv,
                other ? other_reference.runs_csv : reference.runs_csv)
          << "round " << round << " other=" << other;
      std::uint64_t on_disk = 0;
      for (const auto& e :
           std::filesystem::recursive_directory_iterator(cache_dir.path)) {
        if (e.is_regular_file() && e.path().extension() == ".rr") {
          on_disk += e.file_size();
        }
      }
      EXPECT_LE(on_disk, budget) << "round " << round << " other=" << other;
      EXPECT_GT(on_disk, 0u);
    }
  }
  const auto stats = fixture.finish();
  EXPECT_EQ(stats.results_ok, 4u);
  EXPECT_EQ(stats.cache_hits + stats.computed, 2u * (7u + 6u));
}

TEST(SocketServer, RowsAreByteIdenticalAtEveryLaneCount) {
  const net::ResultPayload reference = direct_reference(kJobs);
  for (const unsigned lanes : {1u, 2u, 5u}) {
    ServerFixture fixture(
        [&](service::SocketServerOptions& o) { o.lanes = lanes; });
    net::Client client = net::Client::connect(fixture.endpoint());
    // Pipelined: all three in flight at once, so with lanes > 1 they
    // really do execute concurrently — and the bytes must not care.
    for (int k = 0; k < 3; ++k) client.send_submit(kJobs);
    for (int k = 0; k < 3; ++k) {
      const net::SubmitOutcome outcome = client.recv_submit();
      ASSERT_TRUE(outcome.ok) << outcome.error;
      EXPECT_EQ(outcome.result.runs_csv, reference.runs_csv)
          << "lanes=" << lanes << " k=" << k;
      EXPECT_EQ(outcome.result.summary_csv, reference.summary_csv)
          << "lanes=" << lanes << " k=" << k;
    }
    const auto stats = fixture.finish();
    EXPECT_EQ(stats.lanes, lanes);
    EXPECT_EQ(stats.results_ok, 3u);
  }
}

TEST(SocketServer, SharedPoolWorkersAreCappedAtTheCoreCount) {
  // Pure arithmetic: no thread starts here, whatever the inputs.
  EXPECT_EQ(service::shared_pool_workers(2, 2, 4), 4u);  // 2 lanes x 2
  EXPECT_EQ(service::shared_pool_workers(1, 2, 64), 2u);
  EXPECT_EQ(service::shared_pool_workers(2, 8, 4), 4u);
  EXPECT_EQ(service::shared_pool_workers(8, 65536, 16), 16u);
  EXPECT_EQ(service::shared_pool_workers(65536, 65536, 96), 96u);
  // At least two workers, also on one core or an unknown core count.
  EXPECT_EQ(service::shared_pool_workers(4, 4, 1), 2u);
  EXPECT_EQ(service::shared_pool_workers(3, 65536, 0), 2u);
}

TEST(SocketServer, PipelinedSubmitsComeBackInSubmitOrderWithTheRightBytes) {
  // The first job is the slowest by far; on 4 lanes the small ones
  // finish first, so any ordering bug would surface as a swapped
  // response. The per-connection FIFO contract must reorder them back.
  const std::vector<std::string> jobs = {
      "gen=grid:40:40 algo=mcm-2eps seeds=1:4 eps=0.2 name=slow\n",
      "gen=path:11 algo=luby seeds=1:2 name=s1\n",
      "gen=path:12 algo=luby seeds=1:2 name=s2\n",
      "gen=path:13 algo=luby seeds=1:2 name=s3\n",
      "gen=path:14 algo=luby seeds=1:2 name=s4\n",
  };
  std::vector<net::ResultPayload> references;
  references.reserve(jobs.size());
  for (const auto& job : jobs) references.push_back(direct_reference(job));

  ServerFixture fixture([](service::SocketServerOptions& o) {
    o.lanes = 4;
    o.threads = 1;
  });
  net::Client client = net::Client::connect(fixture.endpoint());
  for (const auto& job : jobs) client.send_submit(job);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const net::SubmitOutcome outcome = client.recv_submit();
    ASSERT_TRUE(outcome.ok) << "submit " << i << ": " << outcome.error;
    EXPECT_EQ(outcome.result.runs_csv, references[i].runs_csv)
        << "response " << i << " does not match submit " << i;
    EXPECT_EQ(outcome.result.summary_csv, references[i].summary_csv)
        << "response " << i;
  }
  const auto stats = fixture.finish();
  EXPECT_EQ(stats.results_ok, jobs.size());
  EXPECT_EQ(stats.jobs_dropped, 0u);
}

TEST(SocketServer, SmallJobIsNotHeadOfLineBlockedBehindALongSweep) {
  // The PR-5 single-executor design ran SUBMITs strictly in arrival
  // order, so this exact scenario used to cost the small job the whole
  // sweep's latency. With >= 2 lanes the small job must complete while
  // the sweep is still running.
  const char* kLong = "gen=gnp:3000:0.01 algo=luby seeds=1:15 name=sweep\n";
  const net::ResultPayload small_reference = direct_reference(kJobs);
  ServerFixture fixture([](service::SocketServerOptions& o) {
    o.lanes = 2;
    o.threads = 1;
  });

  double long_ms = 0;
  std::string long_error;
  std::thread sweeper([&] {
    try {
      net::Client client = net::Client::connect(fixture.endpoint());
      const auto t0 = std::chrono::steady_clock::now();
      const net::SubmitOutcome outcome = client.submit(kLong);
      long_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
      if (!outcome.ok) long_error = outcome.error;
    } catch (const std::exception& e) {
      long_error = e.what();
    }
  });
  // Only start the clock on the small job once the sweep is actually
  // occupying a lane.
  ASSERT_TRUE(stats_line_appears(fixture.endpoint(), "executing 1"));

  net::Client client = net::Client::connect(fixture.endpoint());
  const auto t0 = std::chrono::steady_clock::now();
  const net::SubmitOutcome outcome = client.submit(kJobs);
  const double small_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  sweeper.join();
  ASSERT_TRUE(outcome.ok) << outcome.error;
  ASSERT_TRUE(long_error.empty()) << long_error;
  EXPECT_EQ(outcome.result.runs_csv, small_reference.runs_csv);
  // Generous: the small job is a few ms of work, the sweep hundreds.
  // Even timesharing one core it must come back well before the sweep.
  EXPECT_LT(small_ms, long_ms * 0.5)
      << "small job waited for the sweep (small " << small_ms << "ms, sweep "
      << long_ms << "ms) — head-of-line blocking is back";
}

TEST(SocketServer, MultiLaneClientsShareTheCacheAndConserveRuns) {
  const ScopedTempDir cache_dir("distapx-socket-mlcache");
  ServerFixture fixture([&](service::SocketServerOptions& o) {
    o.lanes = 4;
    o.threads = 2;
    o.cache_dir = cache_dir.str();
  });
  const net::ResultPayload reference = direct_reference(kJobs);

  constexpr int kClients = 4;
  constexpr int kRepeats = 2;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        net::Client client = net::Client::connect(fixture.endpoint());
        for (int r = 0; r < kRepeats; ++r) {
          const net::SubmitOutcome outcome = client.submit(kJobs);
          if (!outcome.ok) {
            failures[c] = outcome.error;
            return;
          }
          if (outcome.result.runs_csv != reference.runs_csv) {
            failures[c] = "rows diverged on repeat " + std::to_string(r);
            return;
          }
        }
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
  }
  const auto stats = fixture.finish();
  EXPECT_EQ(stats.results_ok,
            static_cast<std::uint64_t>(kClients * kRepeats));
  // Concurrent lanes may each compute a unit the cache does not hold
  // yet (both then fill the same entry — publication is atomic), so
  // exact hit counts depend on interleaving. Conservation does not:
  // every run was either a hit or computed.
  EXPECT_EQ(stats.cache_hits + stats.computed,
            static_cast<std::uint64_t>(kClients * kRepeats * 7));
}

TEST(SocketServer, HangupWithQueuedJobsDropsThemAndOthersKeepBeingServed) {
  // One lane, so the raw client's second SUBMIT is still queued when the
  // connection dies mid-frame: the queued job must be discarded without
  // executing, the running one's response dropped at delivery, and a
  // healthy client served as if nothing happened.
  ServerFixture fixture([](service::SocketServerOptions& o) {
    o.lanes = 1;
    o.threads = 1;
  });
  {
    fdio::Fd raw = net::connect_endpoint(fixture.endpoint());
    std::string burst;
    burst += net::encode_frame(
        net::FrameType::kSubmit,
        "gen=grid:60:60 algo=mcm-2eps seeds=1:4 eps=0.2 name=busy\n");
    burst += net::encode_frame(net::FrameType::kSubmit,
                               "gen=path:20 algo=luby seeds=1:2 name=queued\n");
    // ...and half a header, so the hangup is classified mid-frame.
    burst += net::encode_frame(net::FrameType::kSubmit, "x").substr(0, 6);
    ASSERT_TRUE(write_raw(raw.get(), burst));
  }  // hangup

  // Both of the dead client's jobs end up dropped: the queued one purged
  // unexecuted, the running one at delivery time.
  EXPECT_TRUE(stats_line_appears(fixture.endpoint(), "jobs_dropped 2"));
  net::Client client = net::Client::connect(fixture.endpoint());
  const net::SubmitOutcome outcome = client.submit(kJobs);
  EXPECT_TRUE(outcome.ok) << outcome.error;
  const auto stats = fixture.finish();
  EXPECT_EQ(stats.jobs_dropped, 2u);
  EXPECT_EQ(stats.protocol_errors, 1u);
}

TEST(SocketServer, ConnectRetryWaitsOutAServerThatIsStillStarting) {
  const ScopedTempDir dir("distapx-socket-retry");
  std::filesystem::create_directories(dir.path);
  const net::Endpoint ep =
      net::parse_endpoint((dir.path / "late.sock").string());

  std::string client_error;
  std::atomic<bool> pinged{false};
  std::thread early_client([&] {
    try {
      // Dialing a path that does not exist yet: ENOENT, retried.
      net::Client client = net::Client::connect_retry(ep, 10'000);
      client.ping();
      pinged.store(true);
    } catch (const std::exception& e) {
      client_error = e.what();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ServerFixture fixture(
      [&](service::SocketServerOptions& o) { o.endpoint = ep; });
  early_client.join();
  EXPECT_TRUE(client_error.empty()) << client_error;
  EXPECT_TRUE(pinged.load());
}

TEST(SocketServer, ConnectRetryStillFailsWhenNobodyEverListens) {
  const ScopedTempDir dir("distapx-socket-noretry");
  std::filesystem::create_directories(dir.path);
  const net::Endpoint never =
      net::parse_endpoint((dir.path / "never.sock").string());
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(net::Client::connect_retry(never, 120), net::NetError);
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  // It kept trying for about the budget instead of giving up instantly.
  EXPECT_GE(waited_ms, 100.0);
}

TEST(SocketServer, ConnectRetryGivesUpOnARefusedTcpPort) {
  net::Endpoint ep;
  {
    // Grab an ephemeral port, then free it: dialing it refuses (with a
    // tiny chance another process grabs it — then the HELLO fails, which
    // is still a NetError).
    net::Listener probe = net::Listener::open(net::parse_endpoint("127.0.0.1:0"));
    ep = probe.endpoint();
  }
  EXPECT_THROW(net::Client::connect_retry(ep, 100), net::NetError);
}

TEST(SocketServer, MalformedJobFileGetsLineNumberedErrAndSessionSurvives) {
  ServerFixture fixture;
  net::Client client = net::Client::connect(fixture.endpoint());
  const net::SubmitOutcome bad =
      client.submit("gen=path:10 algo=luby\n# fine\ngen=path:10 algo=nope\n");
  ASSERT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("line 3"), std::string::npos) << bad.error;
  EXPECT_NE(bad.error.find("unknown algorithm"), std::string::npos)
      << bad.error;
  // The connection stays usable: a bad job file is the client's problem,
  // not the session's.
  const net::SubmitOutcome good = client.submit(kJobs);
  EXPECT_TRUE(good.ok) << good.error;

  const net::SubmitOutcome empty = client.submit("# nothing here\n");
  ASSERT_FALSE(empty.ok);
  EXPECT_NE(empty.error.find("no jobs"), std::string::npos) << empty.error;

  const auto stats = fixture.finish();
  EXPECT_EQ(stats.results_ok, 1u);
  EXPECT_EQ(stats.results_error, 2u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(SocketServer, GarbageMagicIsClassifiedAndOtherClientsKeepBeingServed) {
  ServerFixture fixture;
  // A well-behaved client connects first and stays connected throughout.
  net::Client survivor = net::Client::connect(fixture.endpoint());

  fdio::Fd raw = net::connect_endpoint(fixture.endpoint());
  ASSERT_TRUE(write_raw(raw.get(), "GET / HTTP/1.1\r\n\r\n"));
  const auto reply = read_raw_frame(raw.get());
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, net::FrameType::kError);
  EXPECT_NE(reply->payload.find("bad-magic"), std::string::npos)
      << reply->payload;
  // After the ERR the server hangs up on the unsynchronizable stream.
  char byte;
  EXPECT_EQ(fdio::read_some(raw.get(), &byte, 1), 0);

  const net::SubmitOutcome outcome = survivor.submit(kJobs);
  EXPECT_TRUE(outcome.ok) << outcome.error;
  const auto stats = fixture.finish();
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.results_ok, 1u);
}

TEST(SocketServer, OversizedDeclaredLengthIsRejectedFromTheHeader) {
  ServerFixture fixture(
      [](service::SocketServerOptions& o) { o.max_frame_bytes = 1024; });
  fdio::Fd raw = net::connect_endpoint(fixture.endpoint());
  // A valid header announcing 1 GiB; no payload bytes follow.
  std::string header = net::encode_frame(net::FrameType::kSubmit, "");
  header[8] = 0;
  header[9] = 0;
  header[10] = 0;
  header[11] = 0x40;
  ASSERT_TRUE(write_raw(raw.get(), header));
  const auto reply = read_raw_frame(raw.get());
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, net::FrameType::kError);
  EXPECT_NE(reply->payload.find("oversized"), std::string::npos)
      << reply->payload;
  EXPECT_EQ(fixture.finish().protocol_errors, 1u);
}

TEST(SocketServer, MidFrameDisconnectIsCountedAndTheServerKeepsServing) {
  ServerFixture fixture;
  {
    fdio::Fd raw = net::connect_endpoint(fixture.endpoint());
    const std::string frame = net::encode_frame(net::FrameType::kSubmit,
                                                std::string(1000, 'j'));
    // Half a frame, then hangup: a truncated SUBMIT must never reach the
    // executor or wedge the loop.
    ASSERT_TRUE(write_raw(raw.get(), frame.substr(0, frame.size() / 2)));
  }
  EXPECT_TRUE(stats_line_appears(fixture.endpoint(), "protocol_errors 1"));
  net::Client client = net::Client::connect(fixture.endpoint());
  EXPECT_TRUE(client.submit(kJobs).ok);
}

TEST(SocketServer, SlowLorisPartialHeaderIsReapedWithAClassifiedTimeout) {
  ServerFixture fixture(
      [](service::SocketServerOptions& o) { o.idle_timeout_ms = 100; });
  fdio::Fd loris = net::connect_endpoint(fixture.endpoint());
  // 6 valid header bytes, then silence: mid-frame, unclassifiable as
  // garbage, exactly the stall the idle clock exists for.
  ASSERT_TRUE(write_raw(
      loris.get(), net::encode_frame(net::FrameType::kSubmit, "").substr(0, 6)));
  const auto t0 = std::chrono::steady_clock::now();
  const auto reply = read_raw_frame(loris.get());
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_TRUE(reply.has_value()) << "reaped without the classified ERR";
  EXPECT_EQ(reply->type, net::FrameType::kError);
  EXPECT_NE(reply->payload.find("timeout"), std::string::npos)
      << reply->payload;
  EXPECT_LT(waited, 5.0);  // reaped by the clock, not by test teardown
  char byte;
  EXPECT_EQ(fdio::read_some(loris.get(), &byte, 1), 0);  // and hung up on

  // The loris never blocked anyone: a healthy client is served fine.
  net::Client client = net::Client::connect(fixture.endpoint());
  EXPECT_TRUE(client.submit(kJobs).ok);
  const auto stats = fixture.finish();
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_GE(stats.protocol_errors, 1u);
}

TEST(SocketServer, ClientThatNeverReadsItsResponsesIsReaped) {
  ServerFixture fixture(
      [](service::SocketServerOptions& o) { o.idle_timeout_ms = 150; });
  fdio::Fd raw = net::connect_endpoint(fixture.endpoint());
  // Dozens of well-formed SUBMITs, zero reads: responses pile up past the
  // kernel socket buffer into the server-side outbuf. The reap clock must
  // fire rather than let that buffer (and the connection) grow forever.
  const std::string submit = net::encode_frame(
      net::FrameType::kSubmit, "gen=path:60 algo=luby seeds=1:200\n");
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(write_raw(raw.get(), submit));
  }
  EXPECT_TRUE(stats_line_appears(fixture.endpoint(), "timeouts 1"));
  // The server is not wedged: a healthy client still gets served.
  net::Client client = net::Client::connect(fixture.endpoint());
  EXPECT_TRUE(client.submit(kJobs).ok);
}

TEST(SocketServer, PingStatsAndHello) {
  ServerFixture fixture;
  net::Client client = net::Client::connect(fixture.endpoint());
  EXPECT_NE(client.server_software().find("distapx"), std::string::npos);
  client.ping();
  client.ping();
  const std::string stats = client.stats();
  EXPECT_NE(stats.find("pings 2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("connections_accepted 1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("draining 0"), std::string::npos) << stats;
  EXPECT_NE(stats.find("lanes "), std::string::npos) << stats;
  EXPECT_NE(stats.find("jobs_dropped 0"), std::string::npos) << stats;
}

TEST(SocketServer, ShutdownFrameDrainsTheServer) {
  ServerFixture fixture;
  net::Client client = net::Client::connect(fixture.endpoint());
  const net::SubmitOutcome ack = client.shutdown();
  EXPECT_TRUE(ack.ok) << ack.error;
  EXPECT_TRUE(fixture.wait_done()) << "run() did not return after SHUTDOWN";
}

TEST(SocketServer, ShutdownCanBeDisabled) {
  ServerFixture fixture(
      [](service::SocketServerOptions& o) { o.allow_remote_shutdown = false; });
  net::Client client = net::Client::connect(fixture.endpoint());
  const net::SubmitOutcome ack = client.shutdown();
  ASSERT_FALSE(ack.ok);
  EXPECT_NE(ack.error.find("disabled"), std::string::npos) << ack.error;
  // Still serving (the refusal really was a refusal).
  EXPECT_TRUE(client.submit(kJobs).ok);
}

TEST(SocketServer, MaxRequestsBoundsTheRunAndStillAnswersTheLastSubmit) {
  ServerFixture fixture(
      [](service::SocketServerOptions& o) { o.max_requests = 2; });
  net::Client client = net::Client::connect(fixture.endpoint());
  EXPECT_TRUE(client.submit(kJobs).ok);
  EXPECT_TRUE(client.submit(kJobs).ok);  // the drain-triggering request
  EXPECT_TRUE(fixture.wait_done()) << "run() did not return at max_requests";
}

TEST(SocketServer, CompletedSubmitsArePublishedIntoTheTraceSink) {
  trace::TraceSink sink;
  ServerFixture fixture(
      [&](service::SocketServerOptions& o) { o.trace_sink = &sink; });
  net::Client client = net::Client::connect(fixture.endpoint());
  ASSERT_TRUE(client.submit(kJobs).ok);
  ASSERT_TRUE(client.submit(kJobs).ok);
  // Publication happens when the respond bytes flush; the client holding
  // both responses means the flush already ran, but give the server a
  // beat under sanitizer schedulers.
  for (int waited = 0; sink.published_total() < 2 && waited < 5000;
       waited += 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(sink.published_total(), 2u);
  const std::vector<trace::Trace> recent = sink.recent();
  ASSERT_EQ(recent.size(), 2u);
  // Newest first: submit #2, then #1 — both carry the full span set,
  // from the arrival through the lane to the closed respond span.
  EXPECT_EQ(recent[0].id, 2u);
  EXPECT_EQ(recent[1].id, 1u);
  for (const trace::Trace& t : recent) {
    EXPECT_EQ(t.endpoint, "submit");
    for (const char* name : {"recv", "queue-wait", "lane-execute", "compute"}) {
      bool saw = false;
      for (const trace::Span& s : t.spans) saw = saw || s.name == name;
      EXPECT_TRUE(saw) << "missing span " << name << " in:\n"
                       << trace::render_trace_tree(t);
    }
    bool saw_respond_closed = false;
    for (const trace::Span& s : t.spans) {
      if (s.name == "respond" && s.end_ns != 0) saw_respond_closed = true;
    }
    EXPECT_TRUE(saw_respond_closed) << trace::render_trace_tree(t);
  }
}

TEST(SocketServer, TracingDisabledAnswersIdenticalBytesAndPublishesNothing) {
  // The kill switch stops collection outright: no Collector is built, so
  // nothing reaches the sink, and the RESULT bytes are the same ones a
  // traced server sends.
  const net::ResultPayload reference = direct_reference(kJobs);
  trace::set_enabled(false);
  trace::TraceSink sink;
  net::SubmitOutcome outcome;
  service::SocketServerStats stats;
  {
    ServerFixture fixture(
        [&](service::SocketServerOptions& o) { o.trace_sink = &sink; });
    net::Client client = net::Client::connect(fixture.endpoint());
    outcome = client.submit(kJobs);
    // finish() drains: every flush watcher that could publish has run.
    stats = fixture.finish();
  }
  trace::set_enabled(true);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.result.runs_csv, reference.runs_csv);
  EXPECT_EQ(outcome.result.summary_csv, reference.summary_csv);
  EXPECT_EQ(stats.results_ok, 1u);
  EXPECT_EQ(sink.published_total(), 0u);
}

TEST(SocketServer, RetiredTraceEchoFrameTypesGetAClassifiedErr) {
  ServerFixture fixture;
  // A well-behaved client connects first and stays connected throughout.
  net::Client survivor = net::Client::connect(fixture.endpoint());

  for (const int type : {10, 11}) {
    fdio::Fd raw = net::connect_endpoint(fixture.endpoint());
    std::string frame = net::encode_frame(net::FrameType::kSubmit, kJobs);
    frame[5] = static_cast<char>(type);  // retired SUBMITTRACE/RESULTTRACE
    ASSERT_TRUE(write_raw(raw.get(), frame));
    const auto reply = read_raw_frame(raw.get());
    ASSERT_TRUE(reply.has_value()) << type;
    EXPECT_EQ(reply->type, net::FrameType::kError);
    EXPECT_NE(reply->payload.find("bad-type"), std::string::npos)
        << reply->payload;
    char byte;
    EXPECT_EQ(fdio::read_some(raw.get(), &byte, 1), 0);  // and hung up on
  }

  const net::SubmitOutcome outcome = survivor.submit(kJobs);
  EXPECT_TRUE(outcome.ok) << outcome.error;
  const auto stats = fixture.finish();
  EXPECT_EQ(stats.protocol_errors, 2u);
  EXPECT_EQ(stats.submits_accepted, 1u);
  EXPECT_EQ(stats.results_ok, 1u);
}

TEST(SocketServer, LaneSpawnFailureServesOnTheLanesThatStarted) {
  // run() asks for 4 lanes with one free thread slot left: one lane
  // starts, the next spawn throws. The server must serve on that lane,
  // with the same rows, instead of aborting.
  if (!test::OneFreeThreadSlot::possible()) {
    GTEST_SKIP() << "cannot lower the thread limit in a child process";
  }
  const net::ResultPayload reference = direct_reference(kJobs);
  service::SocketServerOptions opts;
  // TCP, not a Unix path: the squeeze drops root, and the client thread
  // may dial after that, when a root-owned socket file would refuse it.
  opts.endpoint = net::parse_endpoint("127.0.0.1:0");
  opts.threads = 1;  // the lane is the only worker: no further spawns
  opts.lanes = 4;
  opts.max_requests = 1;
  EXPECT_EXIT(
      {
        bool ok = false;
        {
          service::SocketServer server(opts);
          net::SubmitOutcome outcome;
          // The client's thread must exist before the squeeze.
          std::thread client([&] {
            try {
              outcome = net::Client::connect(server.endpoint()).submit(kJobs);
            } catch (const std::exception&) {
            }
          });
          service::SocketServerStats stats;
          {
            const test::OneFreeThreadSlot one_slot;
            stats = server.run();
          }
          client.join();
          // stats.lanes is not pinned: other processes of this uid may
          // free or take thread slots while the lanes spawn.
          ok = outcome.ok && outcome.result.runs_csv == reference.runs_csv &&
               outcome.result.summary_csv == reference.summary_csv &&
               stats.lanes >= 1 && stats.results_ok == 1;
        }
        std::_Exit(ok ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(SocketServer, TcpEphemeralPortOnLocalhostServes) {
  ServerFixture fixture([](service::SocketServerOptions& o) {
    o.endpoint = net::parse_endpoint("127.0.0.1:0");
  });
  ASSERT_EQ(fixture.endpoint().kind, net::Endpoint::Kind::kTcp);
  ASSERT_NE(fixture.endpoint().port, 0)  // resolved at bind time
      << fixture.endpoint().to_string();
  net::Client client = net::Client::connect(fixture.endpoint());
  const net::SubmitOutcome outcome = client.submit(kJobs);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.result.runs_csv, direct_reference(kJobs).runs_csv);
}

TEST(SocketServer, RequestStopUnblocksRunFromAnotherThread) {
  ServerFixture fixture;
  const auto stats = fixture.finish();  // request_stop + join
  EXPECT_EQ(stats.submits_accepted, 0u);
  EXPECT_TRUE(fixture.server().stop_requested());
}

TEST(SocketServer, StaleSocketPathIsReclaimedALiveOneIsNot) {
  const ScopedTempDir dir("distapx-socket-stale");
  std::filesystem::create_directories(dir.path);
  const std::string path = (dir.path / "dx.sock").string();
  service::SocketServerOptions opts;
  opts.endpoint = net::parse_endpoint(path);
  {
    // A crashed server leaves a bound-but-dead socket file behind (the
    // RAII unlink never ran). Fabricate one with raw syscalls: bind,
    // close the fd, leave the file.
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr),
              0);
    ::close(fd);
  }
  ASSERT_TRUE(std::filesystem::exists(path));
  {
    // The stale path is probed, found dead, reclaimed — the new server
    // binds and serves.
    ServerFixture over_stale([&](service::SocketServerOptions& o) {
      o.endpoint = net::parse_endpoint(path);
    });
    net::Client client = net::Client::connect(over_stale.endpoint());
    client.ping();
    // The path is occupied by a *live* server now: a second bind must
    // refuse rather than steal it.
    EXPECT_THROW(service::SocketServer{opts}, net::NetError);
  }

  // A plain file squatting on the path is never unlinked.
  {
    std::ofstream squatter(path);
  }
  EXPECT_THROW(service::SocketServer{opts}, net::NetError);
}

}  // namespace
}  // namespace distapx
