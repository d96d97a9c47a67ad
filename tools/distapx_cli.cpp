// distapx_cli — run any of the paper's algorithms on a generated or
// file-loaded graph, printing the solution and the CONGEST accounting;
// or serve a whole mixed-workload job file through the batch server.
//
// Usage:
//   distapx_cli <algorithm> [options]
//   distapx_cli batch <jobfile> [--threads N] [--cache DIR]
//                     [--cache-budget SIZE] [--csv F] [--json F] [--runs F]
//                     [--quiet]
//   distapx_cli serve --listen <path|host:port> [--cache-dir DIR]
//                     [--cache-budget SIZE] [--threads N] [--lanes N]
//                     [--max-requests K] [--idle-timeout-ms M]
//                     [--max-frame SIZE] [--no-remote-shutdown]
//                     [--admin ADDR] [--log-level LEVEL] [--slow-ms M]
//   distapx_cli submit <path|host:port> <jobfile> [--summary F] [--runs F]
//                     [--report F] [--connect-timeout-ms M] [--quiet]
//   distapx_cli submit <path|host:port> {--ping | --stats | --shutdown}
//   distapx_cli cache <dir> {stats | ls | verify [--quarantine|--delete] |
//                     gc --budget SIZE | clear}
//
// Algorithms: the registry in service/algorithms.cpp (names and paper
// references); the usage text lists the names.
//
// Single-run options (the run is a one-job batch; see run_single):
//   --graph FILE       load edge list (see graph/io.hpp)
//   --gen SPEC         generator spec (full list: graph/genspec.hpp)
//   --seed S           run seed and graph/weight seed (default 1)
//   --eps E            epsilon for the (2+ε)/(1+ε) algorithms
//   --maxw W           random integer weights in [1, W] (default 100)
//   --out FILE         write the solution (ids, one per line)
#include <atomic>
#include <csignal>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "graph/genspec.hpp"
#include "net/client.hpp"
#include "net/http_admin.hpp"
#include "net/socket.hpp"
#include "service/algorithms.hpp"
#include "service/batch_server.hpp"
#include "service/cache_manager.hpp"
#include "service/job_spec.hpp"
#include "service/result_cache.hpp"
#include "service/socket_server.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/parse.hpp"
#include "support/procstat.hpp"
#include "support/trace.hpp"

using namespace distapx;

namespace {

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "error: " << msg << "\nrun with no arguments for usage\n";
  std::exit(2);
}

std::uint64_t flag_uint(const std::string& flag, const std::string& tok,
                        std::uint64_t max_value = UINT64_MAX) {
  const auto v = parse_uint_strict(tok, max_value);
  if (!v) usage_error(flag + " " + tok + " is not a non-negative integer");
  return *v;
}

double flag_double(const std::string& flag, const std::string& tok) {
  const auto v = parse_double_strict(tok);
  if (!v) usage_error(flag + " " + tok + " is not a finite number");
  return *v;
}

std::uint64_t flag_size(const std::string& flag, const std::string& tok) {
  const auto v = parse_size_bytes(tok);
  if (!v) {
    usage_error(flag + " " + tok +
                " is not a byte size (integer with optional k/m/g suffix)");
  }
  return *v;
}

/// Declarative option table: each subcommand registers its flags once —
/// typed target, value placeholder, range — and shares one parse loop,
/// uniform unknown-flag / missing-value / out-of-range diagnostics, and a
/// usage line generated from the same table parse() accepts, so the two
/// can never drift. Positional arguments stay with the subcommand; the
/// table covers everything that starts with "--".
class FlagSet {
 public:
  /// `cmd` names the subcommand in diagnostics ("unknown serve flag");
  /// `positionals` is the head of the generated usage line.
  FlagSet(std::string cmd, std::string positionals)
      : cmd_(std::move(cmd)), positionals_(std::move(positionals)) {}

  /// String-valued flag (paths, addresses, generator specs).
  FlagSet& str(const char* name, const char* arg, std::string* out) {
    return add(name, arg, [out](const std::string&, const std::string& tok) {
      *out = tok;
    });
  }

  /// Non-negative integer flag with an inclusive cap; `min_value` lets a
  /// flag reject 0 without a bespoke check.
  template <typename T>
  FlagSet& uint(const char* name, const char* arg, T* out,
                std::uint64_t max_value = UINT64_MAX,
                std::uint64_t min_value = 0) {
    return add(name, arg,
               [out, max_value, min_value](const std::string& flag,
                                           const std::string& tok) {
                 const std::uint64_t v = flag_uint(flag, tok, max_value);
                 if (v < min_value) usage_error(flag + " must be positive");
                 *out = static_cast<T>(v);
               });
  }

  /// Byte-size flag (integer with optional k/m/g suffix). `seen` reports
  /// that the flag appeared, for subcommands where it is mandatory.
  template <typename T>
  FlagSet& size(const char* name, const char* arg, T* out,
                bool* seen = nullptr) {
    return add(name, arg,
               [out, seen](const std::string& flag, const std::string& tok) {
                 *out = static_cast<T>(flag_size(flag, tok));
                 if (seen != nullptr) *seen = true;
               });
  }

  FlagSet& real(const char* name, const char* arg, double* out) {
    return add(name, arg,
               [out](const std::string& flag, const std::string& tok) {
                 *out = flag_double(flag, tok);
               });
  }

  /// Valueless flag; writes `value` (so --no-X can clear a default-on
  /// option).
  FlagSet& toggle(const char* name, bool* out, bool value = true) {
    return add(name, "", [out, value](const std::string&, const std::string&) {
      *out = value;
    });
  }

  /// Parses the remaining argv tokens: every token must be a registered
  /// flag (plus its value). Unknown flags die with the generated usage
  /// line so the operator sees what this subcommand does accept.
  void parse(const std::vector<std::string>& args) const {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& flag = args[i];
      const Spec* spec = find(flag);
      if (spec == nullptr) {
        usage_error("unknown " + (cmd_.empty() ? "" : cmd_ + " ") + "flag " +
                    flag + "\nusage: " + usage_line());
      }
      std::string value;
      if (!spec->arg.empty()) {
        if (i + 1 >= args.size()) usage_error("missing value for " + flag);
        value = args[++i];
      }
      spec->apply(flag, value);
    }
  }

  /// "distapx_cli <positionals> [--flag ARG]..." — derived from the table.
  [[nodiscard]] std::string usage_line() const {
    std::string line = "distapx_cli " + positionals_;
    for (const auto& s : specs_) {
      line += " [" + s.name + (s.arg.empty() ? "" : " " + s.arg) + "]";
    }
    return line;
  }

 private:
  struct Spec {
    std::string name;
    std::string arg;  ///< value placeholder; empty = toggle
    std::function<void(const std::string&, const std::string&)> apply;
  };

  FlagSet& add(const char* name, const char* arg,
               std::function<void(const std::string&, const std::string&)> fn) {
    specs_.push_back({name, arg, std::move(fn)});
    return *this;
  }

  [[nodiscard]] const Spec* find(const std::string& flag) const {
    for (const auto& s : specs_) {
      if (s.name == flag) return &s;
    }
    return nullptr;
  }

  std::string cmd_;
  std::string positionals_;
  std::vector<Spec> specs_;
};

/// argv[first..argc) as strings, for FlagSet::parse.
std::vector<std::string> arg_rest(int argc, char** argv, int first) {
  std::vector<std::string> rest;
  for (int i = first; i < argc; ++i) rest.emplace_back(argv[i]);
  return rest;
}

/// --log-level for the serving subcommands; empty = keep the default.
void apply_log_level(const std::string& spec) {
  if (spec.empty()) return;
  const auto level = logx::parse_level(spec);
  if (!level) {
    usage_error("--log-level " + spec +
                " is not one of debug|info|warn|error|off");
  }
  logx::set_level(*level);
}

/// --admin for the serving subcommands: binds and starts the HTTP admin
/// endpoint on `registry` and prints the bound address ("admin on ...",
/// the line CI scrapes for the ephemeral port). `admin` must be declared
/// after the registry and server it observes, so it stops first.
void start_admin(
    const std::string& addr, metrics::Registry& registry,
    std::optional<net::AdminServer>& admin,
    const trace::TraceSink* trace_sink = nullptr,
    std::vector<std::pair<std::string, std::string>> status_fields = {}) {
  if (addr.empty()) return;
  try {
    net::AdminOptions aopts;
    aopts.endpoint = addr;
    aopts.registry = &registry;
    aopts.trace_sink = trace_sink;
    aopts.status_fields = std::move(status_fields);
    admin.emplace(std::move(aopts));
    admin->start();
  } catch (const std::exception& e) {
    usage_error(e.what());
  }
  std::cout << "admin on " << admin->endpoint().to_string() << "\n"
            << std::flush;
}

void write_table(const std::string& path, const Table& table, bool json) {
  if (path.empty()) return;
  std::ofstream os(path);
  if (!os) usage_error("cannot write " + path);
  if (json) {
    table.write_json(os);
  } else {
    table.write_csv(os);
  }
  std::cout << "wrote " << path << "\n";
}

/// `distapx_cli batch <jobfile>`: serve a mixed workload through the batch
/// server and emit the per-job summary (and optionally per-run rows).
int run_batch(int argc, char** argv) {
  if (argc < 3) {
    usage_error("batch needs a job file (one key=value job per line)");
  }
  const std::string job_file = argv[2];
  service::BatchOptions batch_opts;
  std::string csv_file, json_file, runs_file, cache_dir;
  std::uint64_t cache_budget = 0;
  bool quiet = false;
  FlagSet flags("batch", "batch <jobfile>");
  flags.uint("--threads", "N", &batch_opts.threads, 1u << 16)
      .str("--cache", "DIR", &cache_dir)
      .size("--cache-budget", "SIZE", &cache_budget)
      .str("--csv", "F", &csv_file)
      .str("--json", "F", &json_file)
      .str("--runs", "F", &runs_file)
      .toggle("--quiet", &quiet);
  flags.parse(arg_rest(argc, argv, 3));

  if (cache_budget != 0 && cache_dir.empty()) {
    usage_error("--cache-budget needs --cache DIR");
  }
  std::optional<service::ResultCache> cache;
  if (!cache_dir.empty()) {
    try {
      cache.emplace(cache_dir, cache_budget);
    } catch (const std::exception& e) {
      usage_error(e.what());
    }
    batch_opts.cache = &*cache;
  }

  service::BatchServer server(batch_opts);
  try {
    server.submit_all(service::load_job_file(job_file));
  } catch (const std::exception& e) {
    std::cerr << "error: " << job_file << ": " << e.what() << "\n";
    return 2;
  }
  if (server.num_jobs() == 0) {
    std::cerr << "error: " << job_file << " contains no jobs\n";
    return 2;
  }

  service::BatchResult result;
  try {
    result = server.serve();
  } catch (const std::exception& e) {
    // e.g. a CONGEST violation under an enforcing policy mid-batch.
    std::cerr << "error: batch failed: " << e.what() << "\n";
    return 1;
  }
  const Table summary = service::summary_table(result);
  const Table runs = service::runs_table(result);
  if (!quiet) {
    summary.print(std::cout);
    std::cout << result.total_runs << " runs over " << result.jobs.size()
              << " jobs on " << result.threads_used << " threads in "
              << Table::fmt(result.wall_seconds, 3) << "s\n";
    if (cache) {
      std::cout << "cache: " << result.cache_hits << " hits, "
                << result.computed << " computed, " << result.materialized
                << " graphs built (hit rate "
                << Table::fmt(result.total_runs == 0
                                  ? 0.0
                                  : static_cast<double>(result.cache_hits) /
                                        static_cast<double>(result.total_runs),
                              3)
                << ") in " << cache_dir << "\n";
    }
  }
  write_table(csv_file, summary, /*json=*/false);
  write_table(json_file, summary, /*json=*/true);
  write_table(runs_file, runs, /*json=*/false);
  return 0;
}

std::atomic<service::SocketServer*> g_socket_server{nullptr};

extern "C" void handle_stop_signal(int) {
  // request_stop is async-signal-safe (atomic store + one pipe write).
  service::SocketServer* server = g_socket_server.load();
  if (server != nullptr) server->request_stop();
}

/// `distapx_cli serve --listen <addr>`: the framed socket server. Same
/// serve path as `batch` (cache-backed BatchServer), but job files arrive
/// in SUBMIT frames and results return in RESULT frames. Stop with
/// SIGINT/SIGTERM (graceful drain), `--max-requests`, or a client's
/// SHUTDOWN frame.
int run_serve(int argc, char** argv) {
  service::SocketServerOptions opts;
  std::string listen_addr, admin_addr, log_level;
  // --listen is the mode selector, not an option of the mode: pull it
  // (and its value) out first, then hand the rest to the table.
  std::vector<std::string> rest;
  for (int i = 2; i < argc; ++i) {
    if (std::string(argv[i]) == "--listen") {
      if (i + 1 >= argc) usage_error("missing value for --listen");
      listen_addr = argv[++i];
    } else {
      rest.emplace_back(argv[i]);
    }
  }
  // `serve <spool-dir>` was the retired spool daemon; say what replaced
  // it instead of reading the directory as a flag.
  if (listen_addr.empty()) {
    usage_error("serve needs --listen <path|host:port> (the spool daemon "
                "is retired)");
  }
  FlagSet flags("serve --listen", "serve --listen <path|host:port>");
  flags.str("--cache-dir", "DIR", &opts.cache_dir)
      .size("--cache-budget", "SIZE", &opts.cache_budget)
      .uint("--threads", "N", &opts.threads, 1u << 16)
      .uint("--lanes", "N", &opts.lanes, 1u << 10)
      .uint("--max-requests", "K", &opts.max_requests)
      .uint("--idle-timeout-ms", "M", &opts.idle_timeout_ms, 1u << 30)
      .size("--max-frame", "SIZE", &opts.max_frame_bytes)
      .toggle("--no-remote-shutdown", &opts.allow_remote_shutdown, false)
      .str("--admin", "ADDR", &admin_addr)
      .str("--log-level", "LEVEL", &log_level)
      .uint("--slow-ms", "M", &opts.slow_ms, 1u << 30);
  flags.parse(rest);
  apply_log_level(log_level);

  // One process registry shared by the server, its cache, and its batch
  // servers; the admin endpoint scrapes all of it from one page.
  metrics::Registry registry;
  procstat::install_process_metrics(registry);
  opts.registry = &registry;
  // Per-SUBMIT traces land here; /tracez renders them. Declared before
  // the server so it outlives run().
  trace::TraceSink trace_sink;
  opts.trace_sink = &trace_sink;
  std::optional<service::SocketServer> server;
  try {
    opts.endpoint = net::parse_endpoint(listen_addr);
    server.emplace(std::move(opts));
  } catch (const std::exception& e) {
    usage_error(e.what());
  }
  std::optional<net::AdminServer> admin;
  const service::SocketServerOptions& sopts = server->options();
  start_admin(admin_addr, registry, admin, &trace_sink,
              {{"mode", "socket"},
               {"endpoint", server->endpoint().to_string()},
               {"lanes", std::to_string(sopts.lanes)},
               {"cache_dir",
                sopts.cache_dir.empty() ? "(none)" : sopts.cache_dir}});
  g_socket_server.store(&*server);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  std::cout << "listening on " << server->endpoint().to_string()
            << (server->options().cache_dir.empty()
                    ? std::string(" (no cache)")
                    : " (cache " + server->options().cache_dir + ")")
            << "\n"
            << std::flush;
  const service::SocketServerStats stats = server->run();
  // Restore default dispositions before the server object dies; a signal
  // between these lines still sees a live pointer (run() has returned,
  // so request_stop on it is a harmless no-op).
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_socket_server.store(nullptr);
  std::cout << "connections_accepted " << stats.connections_accepted << "\n"
            << "submits_accepted " << stats.submits_accepted << "\n"
            << "results_ok " << stats.results_ok << "\n"
            << "results_error " << stats.results_error << "\n"
            << "protocol_errors " << stats.protocol_errors << "\n"
            << "timeouts " << stats.timeouts << "\n"
            << "cache_hits " << stats.cache_hits << "\n"
            << "computed " << stats.computed << "\n"
            << "jobs_dropped " << stats.jobs_dropped << "\n"
            << "jobs_materialized "
            << registry.snapshot().counter_or("jobs_materialized_total")
            << "\n";
  return 0;
}

void write_text_or_die(const std::string& path, const std::string& text) {
  if (path.empty()) return;
  std::ofstream os(path);
  os << text;
  os.flush();
  if (!os) usage_error("cannot write " + path);
}

/// `distapx_cli submit <addr> <jobfile>`: one request over the socket.
/// Also the protocol's swiss-army probe: --ping / --stats / --shutdown.
int run_submit(int argc, char** argv) {
  if (argc < 4) {
    usage_error(
        "submit needs an address and a job file (or --ping / --stats / "
        "--shutdown)");
  }
  const std::string addr = argv[2];
  const std::string job_arg = argv[3];
  std::string summary_file, runs_file, report_file;
  // A freshly exec'd server needs a beat to bind; retrying transient
  // connect failures here removes the "sleep until the socket file
  // appears" dance from every script that starts a server.
  std::uint32_t connect_timeout_ms = 5000;
  bool quiet = false;
  FlagSet flags("submit", "submit <path|host:port> <jobfile>");
  flags.str("--summary", "F", &summary_file)
      .str("--runs", "F", &runs_file)
      .str("--report", "F", &report_file)
      .uint("--connect-timeout-ms", "M", &connect_timeout_ms, 1u << 30)
      .toggle("--quiet", &quiet);
  flags.parse(arg_rest(argc, argv, 4));

  try {
    net::Client client = net::Client::connect_retry(net::parse_endpoint(addr),
                                                    connect_timeout_ms);
    if (job_arg == "--ping") {
      client.ping();
      if (!quiet) std::cout << "pong from " << addr << "\n";
      return 0;
    }
    if (job_arg == "--stats") {
      std::cout << client.stats();
      return 0;
    }
    if (job_arg == "--shutdown") {
      const auto outcome = client.shutdown();
      if (!outcome.ok) {
        std::cerr << "error: " << outcome.error << "\n";
        return 1;
      }
      if (!quiet) std::cout << "server draining\n";
      return 0;
    }

    std::ifstream is(job_arg);
    if (!is) usage_error("cannot read job file " + job_arg);
    std::ostringstream job_text;
    job_text << is.rdbuf();
    const auto outcome = client.submit(job_text.str());
    if (!outcome.ok) {
      std::cerr << "error: " << job_arg << ": " << outcome.error << "\n";
      return 1;
    }
    if (!quiet) std::cout << outcome.result.report_txt;
    write_text_or_die(summary_file, outcome.result.summary_csv);
    write_text_or_die(runs_file, outcome.result.runs_csv);
    write_text_or_die(report_file, outcome.result.report_txt);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << addr << ": " << e.what() << "\n";
    return 1;
  }
}

/// `distapx_cli cache <dir> <command>`: inspect and repair a result-cache
/// directory. Output is stable `key value` lines (stats/gc) or a table
/// (ls), so CI and scripts can assert on it.
int run_cache(int argc, char** argv) {
  if (argc < 4) {
    usage_error(
        "cache needs a directory and a command: "
        "stats | ls | verify [--quarantine|--delete] | gc --budget SIZE | "
        "clear");
  }
  const std::string dir = argv[2];
  const std::string command = argv[3];

  std::optional<service::CacheManager> manager;
  try {
    manager.emplace(dir);
  } catch (const std::exception& e) {
    usage_error(e.what());
  }

  if (command == "stats") {
    if (argc > 4) usage_error("cache stats takes no flags");
    // stats() refreshes the walk-derived gauges; the printed numbers then
    // come from the registry snapshot — the same source /metrics reads.
    static_cast<void>(manager->stats());
    const auto s =
        service::cache_dir_stats_from(manager->registry().snapshot());
    std::cout << "entries " << s.entries << "\n"
              << "bytes " << s.bytes << "\n"
              << "quarantined " << s.quarantined << "\n";
    return 0;
  }

  if (command == "ls") {
    std::uint64_t limit = 0;
    FlagSet flags("cache ls", "cache <dir> ls");
    flags.uint("--limit", "N", &limit);
    flags.parse(arg_rest(argc, argv, 4));
    // LRU first: the top of the listing is what gc would evict next.
    const auto entries = manager->entries_lru();
    Table t({"key", "bytes", "last_access"});
    std::uint64_t shown = 0;
    for (const auto& e : entries) {
      if (limit != 0 && shown++ >= limit) break;
      t.add_row({e.key.hex(), Table::fmt(e.size), Table::fmt(e.last_access)});
    }
    t.print(std::cout);
    std::cout << entries.size() << " entries (least recently used first)\n";
    return 0;
  }

  if (command == "verify") {
    bool quarantine = false;
    bool unlink = false;
    FlagSet flags("cache verify", "cache <dir> verify");
    flags.toggle("--quarantine", &quarantine).toggle("--delete", &unlink);
    flags.parse(arg_rest(argc, argv, 4));
    const service::RepairMode mode =
        unlink ? service::RepairMode::kDelete
               : quarantine ? service::RepairMode::kQuarantine
                            : service::RepairMode::kReport;
    const auto report = manager->verify(mode);
    for (const auto& f : report.findings) {
      std::cout << "invalid " << f.path << " ("
                << service::entry_status_name(f.status) << ")\n";
    }
    std::cout << "checked " << report.checked << "\n"
              << "ok " << report.ok << "\n"
              << "invalid " << report.invalid << "\n"
              << "quarantined " << report.quarantined << "\n"
              << "deleted " << report.deleted << "\n"
              << "foreign " << report.foreign << "\n";
    return report.invalid == report.quarantined + report.deleted ? 0 : 1;
  }

  if (command == "gc") {
    std::uint64_t budget = 0;
    bool have_budget = false;
    FlagSet flags("cache gc", "cache <dir> gc");
    flags.size("--budget", "SIZE", &budget, &have_budget);
    flags.parse(arg_rest(argc, argv, 4));
    if (!have_budget) usage_error("cache gc needs --budget SIZE");
    const auto report = manager->gc(budget);
    std::cout << "evicted_entries " << report.evicted_entries << "\n"
              << "evicted_bytes " << report.evicted_bytes << "\n"
              << "live_entries " << report.live_entries << "\n"
              << "live_bytes " << report.live_bytes << "\n";
    return 0;
  }

  if (command == "clear") {
    if (argc > 4) usage_error("cache clear takes no flags");
    std::cout << "removed " << manager->clear() << "\n";
    return 0;
  }

  usage_error("unknown cache command " + command);
}

/// `distapx_cli <algorithm>`: one run, served as a one-job batch so it is
/// validated, derived and computed exactly like the `batch` job
/// `algo=<algorithm> seeds=S:1 gseed=S`. Prints that job's runs-CSV row,
/// then what only a single run reports: the algorithm-specific facts and,
/// with --out, the solution.
int run_single(int argc, char** argv) {
  // Name the word before reading flags: a mistyped or retired subcommand
  // followed by arguments is not a bad flag.
  if (service::find_algorithm(argv[1]) == nullptr) {
    usage_error("unknown algorithm or command \"" + std::string(argv[1]) +
                "\"");
  }
  service::JobSpec spec;
  spec.algorithm = argv[1];
  spec.gen_spec = "gnp:200:0.04";
  std::string out_file;
  FlagSet flags("", "<algorithm>");
  flags.str("--graph", "FILE", &spec.graph_file)
      .str("--gen", "SPEC", &spec.gen_spec)
      .uint("--seed", "S", &spec.first_seed)
      .real("--eps", "E", &spec.eps)
      .uint("--maxw", "W", &spec.max_w, 1u << 30)
      .str("--out", "FILE", &out_file);
  flags.parse(arg_rest(argc, argv, 2));
  if (!spec.graph_file.empty()) spec.gen_spec.clear();  // --graph wins
  spec.graph_seed = spec.first_seed;

  service::RunDetail detail;
  service::BatchOptions opts;
  opts.threads = 1;
  opts.detail = &detail;
  service::BatchServer server(opts);
  try {
    server.submit(spec);  // validates before any graph is built
  } catch (const std::exception& e) {
    usage_error(e.what());
  }
  const service::Algorithm& algorithm = *server.job(0).algorithm;
  service::BatchResult result;
  try {
    result = server.serve();  // builds the graph, then runs
  } catch (const std::exception& e) {
    // A violated invariant (e.g. a CONGEST cap breach) is a diagnostic,
    // not a crash.
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  const service::JobResult& job = result.jobs.at(0);
  std::cout << algorithm.name << ": " << algorithm.paper_ref
            << "\ngraph: n=" << job.n << " m=" << job.m
            << " Δ=" << job.max_degree << "\n";
  service::runs_table(result).write_csv(std::cout);
  if (!detail.facts.empty()) {
    std::cout << "detail:";
    for (const auto& [fact, value] : detail.facts) {
      std::cout << " " << fact << "=" << value;
    }
    std::cout << "\n";
  }
  if (!out_file.empty()) {
    std::string ids;
    for (const std::uint32_t id : detail.solution) {
      ids += std::to_string(id) + "\n";
    }
    write_text_or_die(out_file, ids);
    std::cout << "solution written to " << out_file << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cout
        << "usage: distapx_cli <algorithm> [--graph FILE | --gen SPEC] "
           "[--seed S] [--eps E] [--maxw W] [--out FILE]\n"
           "       distapx_cli batch <jobfile> [--threads N] [--cache DIR] "
           "[--cache-budget SIZE] [--csv F] [--json F] [--runs F] "
           "[--quiet]\n"
           "       distapx_cli serve --listen <path|host:port> "
           "[--cache-dir DIR] [--cache-budget SIZE] "
           "[--threads N] [--lanes N] [--max-requests K] "
           "[--idle-timeout-ms M] [--max-frame SIZE] "
           "[--no-remote-shutdown] [--admin ADDR] [--log-level LEVEL] "
           "[--slow-ms M]\n"
           "       distapx_cli submit <path|host:port> <jobfile> "
           "[--summary F] [--runs F] [--report F] "
           "[--connect-timeout-ms M] [--quiet]\n"
           "       distapx_cli submit <path|host:port> "
           "{--ping | --stats | --shutdown}\n"
           "       distapx_cli cache <dir> {stats | ls [--limit N] | verify "
           "[--quarantine|--delete] | gc --budget SIZE | clear}\n"
           "algorithms:";
    for (const service::Algorithm& a : service::algorithms()) {
      std::cout << " " << a.name;
    }
    std::cout << "\ngen specs: " << gen::spec_usage() << "\n";
    return 0;
  }
  if (std::string(argv[1]) == "batch") return run_batch(argc, argv);
  if (std::string(argv[1]) == "serve") return run_serve(argc, argv);
  if (std::string(argv[1]) == "submit") return run_submit(argc, argv);
  if (std::string(argv[1]) == "cache") return run_cache(argc, argv);
  return run_single(argc, argv);
}
