// Serving benchmark: load generator, checker and result printer.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --cli PATH
//   perfbench --probe
//
// --trace 0 starts `distapx_cli serve --listen` as a child process, sets
// it up several times (start -> PING, plus the cache fill pass where the
// workload has one), then drives it closed-loop for S seconds over a Unix
// socket and reports the end-to-end metrics. --trace 1 runs the traced
// per-layer pass in-process instead (harness.hpp). Either way every
// response is checked against reference rows, and the last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "net/client.hpp"
#include "service/result_cache.hpp"
#include "stream.hpp"

namespace {

namespace net = distapx::net;
namespace fs = std::filesystem;
using perfbench::Metric;
using perfbench::Metrics;
using Clock = std::chrono::steady_clock;

extern "C" char** environ;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 7;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool probe = false;
  std::string cli = ".bench_build/distapx/distapx_cli";
};

/// Thrown for anything that stops a run; main() reports it and exits 2
/// after unwinding, so a running server child is always stopped first.
struct Fatal : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void die(const std::string& what) { throw Fatal(what); }

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--probe") {
      a.probe = true;
      continue;
    }
    if (i + 1 >= argc) die("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = v != "0";
      } else if (k == "--cli") {
        a.cli = v;
      } else {
        die("unknown flag " + k);
      }
    } catch (const std::logic_error&) {
      die("bad value for " + k + ": " + v);
    }
  }
  return a;
}

std::string json_number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// `git rev-parse HEAD` when run from a git checkout, else "unknown".
std::string git_commit() {
  if (!fs::exists(".git")) return "unknown";
  FILE* p = ::popen("git rev-parse HEAD 2>/dev/null", "r");
  if (p == nullptr) return "unknown";
  char buf[128] = {};
  const bool got = std::fgets(buf, sizeof buf, p) != nullptr;
  ::pclose(p);
  std::string s = got ? buf : "unknown";
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
  return s;
}

// ---- the server under test -------------------------------------------------

/// `distapx_cli serve --listen ...` as a child process; stopped (SIGTERM,
/// a graceful drain, then SIGKILL after 10 s) and reaped on destruction.
class ServerProcess {
 public:
  ServerProcess(const std::vector<std::string>& argv, const std::string& log) {
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, STDOUT_FILENO, STDERR_FILENO);
    std::vector<char*> args;
    for (const std::string& s : argv) args.push_back(const_cast<char*>(s.c_str()));
    args.push_back(nullptr);
    const int rc =
        posix_spawn(&pid_, args[0], &fa, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) die("cannot start " + argv[0] + ": " + std::strerror(rc));
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  [[nodiscard]] bool alive() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }

  void stop() {
    if (!alive()) return;
    ::kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (alive() && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (alive()) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
  }

 private:
  pid_t pid_ = -1;
};

/// Polls until the server answers PING (every 0.2 ms, so the poll period
/// barely adds to setup_s).
void wait_ready(ServerProcess& server, const net::Endpoint& ep) {
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  for (;;) {
    try {
      net::Client c = net::Client::connect(ep);
      c.ping();
      return;
    } catch (const std::exception& e) {
      if (!server.alive()) die("server exited during start-up");
      if (Clock::now() > deadline) die(std::string("server not ready: ") + e.what());
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// User + system CPU seconds of `pid` (/proc/PID/stat fields 14 and 15).
double proc_cpu_s(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(f, line);
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) die("cannot read server CPU time");
  std::istringstream rest(line.substr(close + 2));
  std::vector<std::string> fields;
  for (std::string tok; rest >> tok;) fields.push_back(tok);
  if (fields.size() < 13) die("short /proc stat line");
  const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  return (std::stod(fields[11]) + std::stod(fields[12])) / ticks;
}

/// Peak resident set of `pid` in MiB (/proc/PID/status VmHWM).
double proc_peak_rss_mb(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(f, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  die("cannot read server peak RSS");
}

std::map<std::string, std::uint64_t> server_stats(const net::Endpoint& ep) {
  net::Client c = net::Client::connect(ep);
  std::istringstream is(c.stats());
  std::map<std::string, std::uint64_t> out;
  std::string key, value;
  while (is >> key >> value) {
    if (!value.empty() && std::isdigit(static_cast<unsigned char>(value[0]))) {
      out[key] = std::stoull(value);
    }
  }
  return out;
}

/// Phase timestamps on stderr, so a slow run shows where its time went.
void log_phase(const char* what) {
  static const auto t0 = Clock::now();
  std::cerr << "perfbench: " << what << " at "
            << std::chrono::duration<double>(Clock::now() - t0).count()
            << " s\n";
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  std::vector<std::pair<std::string, std::string>> meta;  ///< key, JSON value
};

// ---- end-to-end run ----------------------------------------------------------

Outcome run_end_to_end(const Args& args, const perfbench::RequestStream& stream,
                       const std::string& work, perfbench::Reference& ref) {
  const perfbench::Shape shape = stream.shape();
  const std::string sock = work + "/server.sock";
  const net::Endpoint ep = net::parse_endpoint(sock);
  const std::string cache_dir = work + "/cache";
  std::vector<std::string> argv = {
      args.cli, "serve", "--listen", sock, "--lanes",
      std::to_string(shape.lanes), "--threads", std::to_string(shape.threads),
      "--log-level", "warn"};
  if (shape.cache) {
    argv.insert(argv.end(), {"--cache-dir", cache_dir});
    if (shape.cache_budget_bytes != 0) {
      argv.insert(argv.end(),
                  {"--cache-budget", std::to_string(shape.cache_budget_bytes)});
    }
  }
  log_phase("start");
  ref.prepare(stream.fill_set());
  log_phase("reference rows of the fill set ready");

  Outcome out;
  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server;
  for (int rep = 0; rep < kSetups; ++rep) {
    if (server) server->stop();
    fs::remove_all(cache_dir);
    const auto t0 = Clock::now();
    server = std::make_unique<ServerProcess>(argv, work + "/server.log");
    wait_ready(*server, ep);
    std::atomic<std::uint64_t> next{0};
    perfbench::LoadResult fill = perfbench::run_closed_loop(
        ep, stream, &stream.fill_set(), next, stream.fill_set().size(),
        perfbench::kConnections, 0, ref);
    setups.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    for (const perfbench::Sample& s : fill.samples) {
      if (!s.ok) out.correct = false;  // fill rows are checked inline
    }
  }

  log_phase("set-ups done");
  const auto stats0 = server_stats(ep);
  const double cpu0 = proc_cpu_s(server->pid());
  std::atomic<std::uint64_t> next{0};
  perfbench::LoadResult load = perfbench::run_closed_loop(
      ep, stream, nullptr, next, 0, perfbench::kConnections, args.seconds, ref);
  const double cpu1 = proc_cpu_s(server->pid());
  const double rss_mb = proc_peak_rss_mb(server->pid());
  const auto stats1 = server_stats(ep);
  server->stop();
  log_phase("measured phase done");
  // Replies per second of the measured phase: how steady the host was.
  std::vector<int> per_second(static_cast<std::size_t>(load.wall_s) + 1, 0);
  for (const perfbench::Sample& s : load.samples) {
    ++per_second[static_cast<std::size_t>(s.done_s)];
  }
  std::cerr << "perfbench: replies per second:";
  for (const int c : per_second) std::cerr << ' ' << c;
  std::cerr << "\n";

  perfbench::check_samples(stream, nullptr, load.samples, ref);
  log_phase("responses checked");
  std::vector<double> latencies;
  std::uint64_t runs = 0;
  for (const perfbench::Sample& s : load.samples) {
    latencies.push_back(s.latency_ms);
    runs += stream.at(s.index).runs();
    ++out.attempted;
    if (!s.ok) ++out.failed;
  }
  std::sort(latencies.begin(), latencies.end());
  const auto p50 = perfbench::supported_percentile(latencies, 0.50);
  const auto p95 = perfbench::supported_percentile(latencies, 0.95);
  if (!p50 || !p95) {
    die("only " + std::to_string(latencies.size()) +
        " samples: too few for a p95 with 10 beyond it");
  }
  // Every run the server served was either a cache hit or computed.
  const auto delta = [&](const char* k) {
    return stats1.at(k) - stats0.at(k);
  };
  const std::uint64_t served = delta("cache_hits") + delta("computed");
  if (served != runs) out.correct = false;
  if (out.failed != 0) out.correct = false;

  const double n = static_cast<double>(load.samples.size());
  out.metrics = {
      {"setup_s", median(setups), "s"},
      {"req_per_s", n / load.wall_s, "1/s"},
      {"latency_p50_ms", *p50, "ms"},
      {"latency_p95_ms", *p95, "ms"},
      {"server_cpu_ms_per_req", (cpu1 - cpu0) * 1000 / n, "ms"},
      {"server_max_rss_mb", rss_mb, "MiB"},
  };
  std::string setup_list = "[";
  for (const double s : setups) {
    setup_list += (setup_list.size() > 1 ? "," : "") + json_number(s);
  }
  out.meta = {
      {"latency_samples", std::to_string(latencies.size())},
      {"failed_frac", json_number(static_cast<double>(out.failed) / n)},
      {"runs_served", std::to_string(runs)},
      {"server_cache_hits", std::to_string(delta("cache_hits"))},
      {"server_computed", std::to_string(delta("computed"))},
      {"setup_s_each", setup_list + "]"},
  };
  return out;
}

}  // namespace

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.probe) {
    perfbench::print_probe();
    return 0;
  }
  const auto workload = perfbench::parse_workload(args.workload);
  if (!workload) die("unknown workload \"" + args.workload + "\"");
  if (args.seconds <= 0) die("--seconds must be positive");
  if (!fs::exists(args.cli)) die("no server binary at " + args.cli);

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::cerr << "perfbench: WARNING: " << build_type
              << " build; timings are not comparable to Release\n";
  }
  const perfbench::RequestStream stream(*workload, args.seed);
  const perfbench::Shape shape = stream.shape();
  const std::string work = ".bench_run/" + args.workload;
  fs::remove_all(work);
  fs::create_directories(work);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  perfbench::Reference ref(nproc);

  Outcome out;
  if (args.trace) {
    ref.prepare(stream.fill_set());
    perfbench::TracedResult t =
        perfbench::traced_pass(stream, args.seconds, work, ref);
    out.attempted = t.attempted;
    out.failed = t.failed;
    out.correct = t.failed == 0;
    out.metrics = std::move(t.metrics);
  } else {
    out = run_end_to_end(args, stream, work, ref);
  }

  std::string meta = "{\"workload\":" + json_string(args.workload) +
                     ",\"seed\":" + std::to_string(args.seed) +
                     ",\"seconds\":" + json_number(args.seconds) +
                     ",\"trace\":" + (args.trace ? "1" : "0") +
                     ",\"git_commit\":" + json_string(git_commit()) +
                     ",\"compiler\":" + json_string(PERFBENCH_COMPILER) +
                     ",\"build_type\":" + json_string(build_type) +
                     ",\"release_build\":" +
                     (build_type == "Release" ? "true" : "false") +
                     ",\"nproc\":" + std::to_string(nproc) +
                     ",\"engine_version\":" +
                     std::to_string(distapx::service::kEngineVersion) +
                     ",\"connections\":" + std::to_string(perfbench::kConnections) +
                     ",\"lanes\":" + std::to_string(shape.lanes) +
                     ",\"threads\":" + std::to_string(shape.threads) +
                     ",\"cache_budget_bytes\":" +
                     std::to_string(shape.cache_budget_bytes);
  for (const auto& [k, v] : out.meta) meta += ",\"" + k + "\":" + v;
  std::cout << "meta " << meta << "}\n";
  for (const Metric& m : out.metrics) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }

  std::string result = std::string("{\"correct\": ") +
                       (out.correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(out.attempted) +
                       ", \"failed\": " + std::to_string(out.failed) +
                       ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    result += (i ? ", " : "") + json_string(m.name) +
              ": {\"value\": " + json_number(m.value) +
              ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::cout << result << "}}\n" << std::flush;
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
