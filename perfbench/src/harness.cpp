#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "net/client.hpp"
#include "net/protocol.hpp"
#include "service/batch_server.hpp"
#include "service/job_spec.hpp"
#include "service/report_sink.hpp"
#include "service/result_cache.hpp"
#include "service/socket_server.hpp"
#include "sim/run_many.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/procstat.hpp"
#include "support/trace.hpp"

namespace perfbench {

namespace svc = distapx::service;
namespace net = distapx::net;
namespace trace = distapx::trace;
namespace metrics = distapx::metrics;
using Clock = std::chrono::steady_clock;

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Request request_at(const RequestStream& stream,
                   const std::vector<Request>* fixed, std::uint64_t i) {
  return fixed != nullptr ? (*fixed)[i] : stream.at(i);
}

std::string runs_csv_of(const svc::BatchResult& r) {
  std::ostringstream os;
  svc::runs_table(r).write_csv(os);
  return os.str();
}

double div_or_zero(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

// ---- reference -------------------------------------------------------------

Reference::Reference(unsigned threads)
    : threads_(threads), header_(runs_csv_of(svc::BatchResult{})) {}

void Reference::prepare(const std::vector<Request>& reqs) {
  std::vector<const JobLine*> todo;
  std::unordered_set<std::string> queued;
  for (const Request& r : reqs) {
    for (const JobLine& j : r.jobs) {
      if (rows_.count(j.text) == 0 && queued.insert(j.text).second) {
        todo.push_back(&j);
      }
    }
  }
  // One single-job, single-thread BatchServer per job; run_many_tasks
  // spreads them over the threads (its seed argument is unused here).
  const std::vector<std::uint64_t> slots(todo.size());
  std::vector<std::string> rows = distapx::sim::run_many_tasks(
      slots, threads_, [&](std::uint64_t, std::size_t i) {
        svc::BatchOptions opts;
        opts.threads = 1;
        svc::BatchServer server(opts);
        std::istringstream is(todo[i]->text);
        server.submit_all(svc::parse_job_file(is));
        const std::string csv = runs_csv_of(server.serve());
        if (csv.compare(0, header_.size(), header_) != 0) {
          throw std::runtime_error("reference runs CSV lacks the header");
        }
        return csv.substr(header_.size());
      });
  for (std::size_t i = 0; i < todo.size(); ++i) {
    rows_.emplace(todo[i]->text, std::move(rows[i]));
  }
}

bool Reference::covers(const Request& r) const {
  return std::all_of(r.jobs.begin(), r.jobs.end(), [&](const JobLine& j) {
    return rows_.count(j.text) != 0;
  });
}

std::string Reference::runs_csv(const Request& r) const {
  std::string out = header_;
  for (const JobLine& j : r.jobs) out += rows_.at(j.text);
  return out;
}

// ---- closed-loop load ------------------------------------------------------

LoadResult run_closed_loop(const net::Endpoint& ep, const RequestStream& stream,
                           const std::vector<Request>* fixed,
                           std::atomic<std::uint64_t>& next,
                           std::uint64_t limit, unsigned connections,
                           double seconds, const Reference& ref) {
  std::vector<std::vector<Sample>> per_conn(connections);
  std::mutex mu;
  std::condition_variable cv;
  unsigned connected = 0;  // guarded by mu
  bool go = false;         // guarded by mu
  Clock::time_point start;
  Clock::time_point deadline;

  auto worker = [&](unsigned c) {
    std::optional<net::Client> client;
    try {
      client.emplace(net::Client::connect_retry(ep, 2000));
    } catch (const std::exception&) {
      // Counted below: every SUBMIT on a dead connection fails.
    }
    {
      std::unique_lock lock(mu);
      ++connected;
      cv.notify_all();
      cv.wait(lock, [&] { return go; });
    }
    for (;;) {
      if (seconds > 0 && Clock::now() >= deadline) return;
      const std::uint64_t i = next.fetch_add(1);
      if (seconds <= 0 && i >= limit) return;
      const Request req = request_at(stream, fixed, i);
      const std::string text = req.text();
      Sample s;
      s.index = i;
      const auto t0 = Clock::now();
      try {
        if (!client) client.emplace(net::Client::connect(ep));
        net::SubmitOutcome out = client->submit(text);
        s.latency_ms = ms_between(t0, Clock::now());
        s.ok = out.ok;
        s.checked = !out.ok;
        if (out.ok && ref.covers(req)) {
          s.ok = out.result.runs_csv == ref.runs_csv(req);
          s.checked = true;
        } else if (out.ok) {
          s.runs_csv = std::move(out.result.runs_csv);
        }
      } catch (const std::exception&) {
        s.latency_ms = ms_between(t0, Clock::now());
        s.ok = false;
        s.checked = true;
        client.reset();
      }
      s.done_s = ms_between(start, Clock::now()) / 1000;
      per_conn[c].push_back(std::move(s));
    }
  };

  std::vector<std::thread> pool;
  for (unsigned c = 0; c < connections; ++c) pool.emplace_back(worker, c);
  {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return connected == connections; });
    start = Clock::now();
    deadline = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    go = true;
  }
  cv.notify_all();
  for (auto& th : pool) th.join();

  LoadResult out;
  out.wall_s = ms_between(start, Clock::now()) / 1000;
  for (auto& v : per_conn) {
    for (Sample& s : v) out.samples.push_back(std::move(s));
  }
  return out;
}

void check_samples(const RequestStream& stream,
                   const std::vector<Request>* fixed,
                   std::vector<Sample>& samples, Reference& ref) {
  std::vector<Request> pending;
  for (const Sample& s : samples) {
    if (!s.checked) pending.push_back(request_at(stream, fixed, s.index));
  }
  ref.prepare(pending);
  for (Sample& s : samples) {
    if (s.checked) continue;
    s.ok = s.runs_csv == ref.runs_csv(request_at(stream, fixed, s.index));
    s.checked = true;
    s.runs_csv.clear();
  }
}

// ---- traced pass -----------------------------------------------------------

namespace {

/// Per-algorithm compute totals from the traced `compute` spans.
struct AlgoTotals {
  double compute_ns = 0;
  double runs = 0;
  double messages = 0;
  double node_rounds = 0;
  // Exact counts over the runs computed for the witness prefix.
  double witness_runs = 0;
  double witness_rounds = 0;
  double witness_messages = 0;
};

/// Requests at the head of the stream whose rounds and messages are
/// reported as exact per-run means; the traced pass always serves them,
/// whatever its time budget, so the counts repeat for a given seed.
constexpr std::uint64_t kWitnessRequests = 16;

std::string note_value(const std::string& notes, const std::string& key) {
  const std::string tag = key + "=";
  std::size_t pos = 0;
  while ((pos = notes.find(tag, pos)) != std::string::npos) {
    if (pos == 0 || notes[pos - 1] == ' ') {
      const std::size_t end = notes.find(' ', pos);
      return notes.substr(pos + tag.size(), end == std::string::npos
                                                ? std::string::npos
                                                : end - pos - tag.size());
    }
    pos += tag.size();
  }
  return {};
}

/// Runs a SocketServer's serve loop on its own thread; stops and joins it
/// on every exit path.
class ServerThread {
 public:
  explicit ServerThread(svc::SocketServer& server)
      : server_(server), thread_([this] {
          try {
            server_.run();
          } catch (...) {
            error_ = std::current_exception();
          }
        }) {}
  ~ServerThread() {
    if (thread_.joinable()) {
      server_.request_stop();
      thread_.join();
    }
  }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  /// Drains the server and rethrows a failure of its serve loop.
  void stop() {
    server_.request_stop();
    thread_.join();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  svc::SocketServer& server_;
  std::exception_ptr error_;
  std::thread thread_;  ///< last: starts after the members it uses
};

struct SocketTotals {
  double requests = 0;
  double cpu_s = 0;
  double client_ms = 0;
  double job_latency_ms = 0;
  double lane_busy_ms = 0;
  double wall_s = 0;
};

}  // namespace

TracedResult traced_pass(const RequestStream& stream, double seconds,
                         const std::string& work_dir, Reference& ref) {
  const Shape shape = stream.shape();
  const std::string cache_dir = work_dir + "/trace-cache";
  trace::set_enabled(true);
  distapx::logx::set_level(distapx::logx::Level::kWarn);
  TracedResult out;

  // ---- phase A: each layer's public functions, one request at a time.
  std::vector<trace::Trace> traces;
  std::vector<std::pair<std::uint64_t, std::string>> served;  // index, CSV
  std::map<std::string, AlgoTotals> algos;
  double jobs = 0, lookups_ns = 0, lookups = 0, stores_ns = 0, stores = 0;
  double runs = 0, hits = 0, response_bytes = 0, evicted = 0;
  std::uint64_t phase_a_requests = 0;
  {
    metrics::Registry reg;
    std::optional<svc::ResultCache> cache;
    if (shape.cache) {
      cache.emplace(cache_dir, shape.cache_budget_bytes, &reg);
      svc::BatchOptions fill_opts;
      fill_opts.threads = shape.threads;
      fill_opts.cache = &*cache;
      for (const Request& r : stream.fill_set()) {
        svc::BatchServer server(fill_opts);
        std::istringstream is(r.text());
        server.submit_all(svc::parse_job_file(is));
        server.serve();
      }
    }
    const std::uint64_t evicted0 =
        reg.snapshot().counter_or("cache_evicted_entries_total");
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds * 0.5));
    for (std::uint64_t i = 0;
         i < kWitnessRequests || Clock::now() < deadline; ++i) {
      const Request req = stream.at(i);
      const std::string text = req.text();
      trace::Collector tr(i, "bench");
      // Span ids are 1-based in begin() order, so "serve" will be id 3:
      // the BatchServer needs its parent id before resolve runs.
      const std::uint32_t parse_span = tr.begin("parse");
      std::istringstream is(text);
      const std::vector<svc::JobSpec> specs = svc::parse_job_file(is);
      tr.end(parse_span);
      constexpr std::uint32_t kServeSpan = 3;
      svc::BatchOptions opts;
      opts.threads = 1;
      opts.cache = cache ? &*cache : nullptr;
      opts.trace = &tr;
      opts.trace_parent = kServeSpan;
      svc::BatchServer server(opts);
      const std::uint32_t resolve_span = tr.begin("resolve");
      server.submit_all(specs);
      tr.end(resolve_span);
      const std::uint32_t serve_span = tr.begin("serve");
      if (serve_span != kServeSpan) {
        throw std::logic_error("traced pass: unexpected serve span id");
      }
      const svc::BatchResult result = server.serve();
      tr.end(serve_span);
      const std::uint32_t render_span = tr.begin("render");
      const svc::RenderedResult rendered =
          svc::render_result("bench-" + std::to_string(i), result);
      tr.end(render_span);
      const net::ResultPayload payload{rendered.summary_csv, rendered.runs_csv,
                                       rendered.report_txt};
      const std::uint32_t encode_span = tr.begin("encode");
      const std::string wire = net::encode_result(payload);
      tr.end(encode_span);
      net::ResultPayload decoded;
      const std::uint32_t decode_span = tr.begin("decode");
      const bool decoded_ok = net::decode_result(wire, decoded);
      tr.end(decode_span);
      traces.push_back(tr.finish());

      served.emplace_back(i, decoded_ok ? decoded.runs_csv : std::string());
      jobs += static_cast<double>(result.jobs.size());
      runs += static_cast<double>(result.total_runs);
      hits += static_cast<double>(result.cache_hits);
      response_bytes += static_cast<double>(wire.size());

      // (algo, seed) -> the run's row and graph size, to pair with its
      // compute span.
      std::map<std::pair<std::string, std::uint64_t>,
               std::pair<const svc::RunRow*, double>>
          rows;
      for (const svc::JobResult& jr : result.jobs) {
        for (const svc::RunRow& row : jr.rows) {
          rows[{jr.algorithm, row.seed}] = {&row, static_cast<double>(jr.n)};
        }
      }
      for (const trace::Span& s : traces.back().spans) {
        const double ns = static_cast<double>(s.duration_ns());
        if (s.name == "cache-lookup") {
          lookups_ns += ns;
          lookups += 1;
        } else if (s.name == "cache-store") {
          stores_ns += ns;
          stores += 1;
        } else if (s.name == "compute") {
          const std::string algo = note_value(s.notes, "algo");
          const auto it =
              rows.find({algo, std::stoull(note_value(s.notes, "seed"))});
          if (it == rows.end()) continue;
          const svc::RunRow& row = *it->second.first;
          AlgoTotals& a = algos[algo];
          a.compute_ns += ns;
          a.runs += 1;
          a.messages += static_cast<double>(row.messages);
          a.node_rounds += it->second.second * row.rounds;
          if (i < kWitnessRequests) {
            a.witness_runs += 1;
            a.witness_rounds += row.rounds;
            a.witness_messages += static_cast<double>(row.messages);
          }
        }
      }
      phase_a_requests = i + 1;
    }
    evicted = static_cast<double>(
        reg.snapshot().counter_or("cache_evicted_entries_total") - evicted0);
  }

  // Self time per top-level span name: duration minus its children's.
  std::map<std::string, double> self_ns;
  double request_ns = 0;
  for (const trace::Trace& t : traces) {
    std::vector<double> child_ns(t.spans.size() + 1, 0);
    for (const trace::Span& s : t.spans) {
      if (s.parent != 0) child_ns[s.parent] += s.duration_ns();
    }
    for (const trace::Span& s : t.spans) {
      if (s.parent != 0) continue;
      self_ns[s.name] += static_cast<double>(s.duration_ns()) - child_ns[s.id];
      request_ns += static_cast<double>(s.duration_ns());
    }
  }
  {
    std::ofstream os(work_dir + "/spans.txt");
    for (const trace::Trace& t : traces) os << trace::render_trace_tree(t);
  }

  // ---- phase B: the same stream through an in-process SocketServer,
  // blocks alternating the program's own tracing on/off (on, off, off, on).
  SocketTotals on, off;
  std::vector<Sample> socket_samples;
  {
    metrics::Registry reg;
    trace::TraceSink sink;
    svc::SocketServerOptions so;
    so.endpoint = net::parse_endpoint(work_dir + "/traced.sock");
    so.threads = shape.threads;
    so.lanes = shape.lanes;
    if (shape.cache) {
      so.cache_dir = cache_dir;
      so.cache_budget = shape.cache_budget_bytes;
    }
    so.registry = &reg;
    so.trace_sink = &sink;
    svc::SocketServer server(so);
    ServerThread runner(server);
    std::atomic<std::uint64_t> next{phase_a_requests};
    const bool modes[] = {true, false, false, true};
    for (const bool tracing : modes) {
      trace::set_enabled(tracing);
      const metrics::Snapshot s0 = reg.snapshot();
      const double cpu0 = distapx::procstat::sample_process_usage().cpu_seconds;
      LoadResult load =
          run_closed_loop(server.endpoint(), stream, nullptr, next, 0,
                          kConnections, seconds * 0.125, ref);
      const double cpu1 = distapx::procstat::sample_process_usage().cpu_seconds;
      const metrics::Snapshot s1 = reg.snapshot();
      SocketTotals& t = tracing ? on : off;
      t.requests += static_cast<double>(load.samples.size());
      t.cpu_s += cpu1 - cpu0;
      t.wall_s += load.wall_s;
      for (const Sample& s : load.samples) t.client_ms += s.latency_ms;
      const auto* h0 = s0.histogram("job_latency_ms");
      const auto* h1 = s1.histogram("job_latency_ms");
      t.job_latency_ms += (h1 ? h1->sum : 0) - (h0 ? h0->sum : 0);
      t.lane_busy_ms += static_cast<double>(
                            s1.counter_or("lane_busy_us_total") -
                            s0.counter_or("lane_busy_us_total")) /
                        1000;
      for (Sample& s : load.samples) socket_samples.push_back(std::move(s));
    }
    trace::set_enabled(true);
    runner.stop();
  }

  // ---- correctness: every in-process and socket response vs reference.
  std::vector<Request> pending;
  for (const auto& [i, csv] : served) pending.push_back(stream.at(i));
  ref.prepare(pending);
  for (const auto& [i, csv] : served) {
    out.attempted += 1;
    if (csv != ref.runs_csv(stream.at(i))) out.failed += 1;
  }
  check_samples(stream, nullptr, socket_samples, ref);
  for (const Sample& s : socket_samples) {
    out.attempted += 1;
    if (!s.ok) out.failed += 1;
  }

  // ---- metrics.
  const double reqs = static_cast<double>(phase_a_requests);
  Metrics& m = out.metrics;
  m.push_back({"batch_server.resolve_ms_per_job",
               div_or_zero(self_ns["resolve"] / 1e6, jobs), "ms"});
  m.push_back({"batch_server.resolve_share",
               div_or_zero(self_ns["resolve"], request_ns), "ratio"});
  m.push_back({"batch_server.serve_self_us_per_req",
               self_ns["serve"] / 1e3 / reqs, "us"});
  m.push_back({"job_spec.parse_us_per_req", self_ns["parse"] / 1e3 / reqs,
               "us"});
  m.push_back({"result_cache.lookup_us", div_or_zero(lookups_ns / 1e3, lookups),
               "us"});
  m.push_back({"result_cache.hit_ratio", div_or_zero(hits, runs), "ratio"});
  m.push_back({"result_cache.store_us", div_or_zero(stores_ns / 1e3, stores),
               "us"});
  m.push_back({"cache_manager.evicted_per_req", evicted / reqs, "count"});
  for (const CatalogueRow& row : table1_catalogue()) {
    const AlgoTotals& a = algos[row.algo];
    const std::string algo = row.algo;
    m.push_back({"sim.compute_ms_per_run." + algo,
                 div_or_zero(a.compute_ns / 1e6, a.runs), "ms"});
    m.push_back({"sim.ns_per_message." + algo,
                 div_or_zero(a.compute_ns, a.messages), "ns"});
    m.push_back({"sim.ns_per_node_round." + algo,
                 div_or_zero(a.compute_ns, a.node_rounds), "ns"});
    m.push_back({"sim.rounds_per_run." + algo,
                 div_or_zero(a.witness_rounds, a.witness_runs), "count"});
    m.push_back({"sim.messages_per_run." + algo,
                 div_or_zero(a.witness_messages, a.witness_runs), "count"});
  }
  m.push_back({"report_sink.render_us_per_req", self_ns["render"] / 1e3 / reqs,
               "us"});
  m.push_back({"net.encode_result_us", self_ns["encode"] / 1e3 / reqs, "us"});
  m.push_back({"net.decode_result_us", self_ns["decode"] / 1e3 / reqs, "us"});
  m.push_back({"net.response_bytes", response_bytes / reqs, "bytes"});
  m.push_back({"socket_server.queue_wait_ms_per_req",
               div_or_zero(on.job_latency_ms - on.lane_busy_ms, on.requests),
               "ms"});
  m.push_back({"socket_server.lane_busy_share",
               div_or_zero(on.lane_busy_ms / 1e3, shape.lanes * on.wall_s),
               "ratio"});
  m.push_back({"socket_server.transport_ms_per_req",
               div_or_zero(on.client_ms - on.job_latency_ms, on.requests),
               "ms"});
  m.push_back({"trace.overhead_pct",
               100 * (div_or_zero(div_or_zero(on.cpu_s, on.requests),
                                  div_or_zero(off.cpu_s, off.requests)) -
                      1),
               "%"});
  return out;
}

// ---- probe -----------------------------------------------------------------

void print_probe() {
  constexpr std::uint64_t kSeeds = 9;
  std::cout << "| algo | gen | resolve ms | run ms mean | run ms CV | "
               "run ms max | rounds | messages |\n"
               "|---|---|---|---|---|---|---|---|\n";
  for (const CatalogueRow& row : table1_catalogue()) {
    double resolve_ms = 0, sum = 0, sum_sq = 0, max_ms = 0;
    double rounds = 0, messages = 0;
    for (std::uint64_t s = 1; s <= kSeeds; ++s) {
      const std::string line = std::string("gen=") + row.gen + " algo=" +
                               row.algo + " seeds=" + std::to_string(s) +
                               ":1 gseed=" + std::to_string(s) + " " +
                               row.extra;
      svc::BatchOptions opts;
      opts.threads = 1;
      svc::BatchServer server(opts);
      const auto t0 = Clock::now();
      server.submit(svc::parse_job_line(line));
      const auto t1 = Clock::now();
      const svc::BatchResult r = server.serve();
      const double ms = ms_between(t1, Clock::now());
      resolve_ms += ms_between(t0, t1);
      sum += ms;
      sum_sq += ms * ms;
      max_ms = std::max(max_ms, ms);
      rounds += r.jobs.at(0).rows.at(0).rounds;
      messages += static_cast<double>(r.jobs.at(0).rows.at(0).messages);
    }
    const double n = kSeeds;
    const double mean = sum / n;
    const double cv = std::sqrt(std::max(0.0, sum_sq / n - mean * mean)) / mean;
    std::cout << std::fixed << std::setprecision(1) << "| " << row.algo
              << " | " << row.gen << " | " << resolve_ms / n << " | " << mean
              << " | " << std::setprecision(2) << cv << " | "
              << std::setprecision(1) << max_ms << " | " << rounds / n
              << " | " << messages / n << " |\n";
  }
}

}  // namespace perfbench
