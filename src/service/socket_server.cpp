#include "service/socket_server.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <tuple>
#include <vector>

#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "service/batch_server.hpp"
#include "service/job_spec.hpp"
#include "service/report_sink.hpp"
#include "support/log.hpp"

namespace distapx::service {

namespace {

using Clock = std::chrono::steady_clock;

/// A SUBMIT waiting for (or on) a lane.
struct PendingJob {
  std::uint64_t conn_id = 0;
  std::uint64_t conn_seq = 0;   ///< 1-based per-connection submit number
  std::uint64_t submit_no = 0;  ///< 1-based global arrival number (label)
  std::string payload;          ///< raw job-file bytes
  Clock::time_point enqueued;   ///< arrival, for the job_latency_ms series
  /// Span collector for this SUBMIT (trace id = submit_no); null when
  /// tracing is off. Shared with the lane and the flush watcher that
  /// closes the respond span.
  std::shared_ptr<trace::Collector> tracer;
  std::uint32_t queue_span = 0;  ///< open queue-wait span, ended by the lane
};

/// What a lane hands back to the I/O thread.
struct Completion {
  std::uint64_t conn_id = 0;
  std::uint64_t conn_seq = 0;
  bool ok = false;
  net::ResultPayload result;  ///< when ok
  std::string error;          ///< when !ok
  std::shared_ptr<trace::Collector> tracer;  ///< carried through from the job
};

/// One client connection's state machine.
struct Conn {
  fdio::Fd fd;
  net::FrameReader reader;
  std::string outbuf;  ///< encoded response frames awaiting the peer
  std::size_t outoff = 0;
  bool closing = false;   ///< flush outbuf, then close
  bool read_eof = false;  ///< peer half-closed; responses may still flow
  std::uint32_t inflight = 0;  ///< SUBMITs not yet answered on this conn
  std::uint64_t next_submit_seq = 1;   ///< conn_seq for the next SUBMIT
  std::uint64_t next_deliver_seq = 1;  ///< conn_seq owed to the peer next
  /// Completions that finished ahead of their turn (lanes race); drained
  /// into outbuf strictly in conn_seq order.
  std::map<std::uint64_t, Completion> ready;
  /// Reap deadline while mid-frame or flushing against a dead-weight
  /// peer; Clock::time_point::max() = no deadline.
  Clock::time_point deadline = Clock::time_point::max();
  /// Cumulative bytes flushed to the peer over the conn's lifetime;
  /// against it, each traced response records the flushed_total at which
  /// its bytes are fully out — that is when its respond span closes and
  /// its trace publishes. FIFO (responses leave in enqueue order).
  std::uint64_t flushed_total = 0;
  struct PendingFlush {
    std::uint64_t target = 0;  ///< flushed_total at which the reply is out
    std::shared_ptr<trace::Collector> tracer;
    std::uint32_t respond_span = 0;
  };
  std::deque<PendingFlush> flush_watch;

  explicit Conn(fdio::Fd f, std::size_t max_frame)
      : fd(std::move(f)), reader(max_frame) {}

  [[nodiscard]] bool has_output() const noexcept {
    return outoff < outbuf.size();
  }
};

/// The server's metric handles, resolved once from the registry at run()
/// entry so the hot paths touch relaxed atomics only — never the
/// registry's registration mutex. Shared between the I/O thread and the
/// lanes; every series is independent and monotone (or a gauge), never
/// used to synchronize anything.
struct Meters {
  metrics::Counter& connections_accepted;
  metrics::Counter& submits_accepted;
  metrics::Counter& results_ok;
  metrics::Counter& results_error;
  metrics::Counter& protocol_errors;
  metrics::Counter& frame_errors;  ///< decode-level subset of the above
  metrics::Counter& timeouts;
  metrics::Counter& pings;
  metrics::Counter& jobs_dropped;
  metrics::Counter& bytes_read;
  metrics::Counter& bytes_written;
  metrics::Counter& lane_busy_us;
  metrics::Gauge& queue_depth;
  metrics::Gauge& executing;
  metrics::Gauge& lanes;
  metrics::Gauge& connections_open;
  metrics::Gauge& draining;
  metrics::Gauge& ready;
  metrics::Histogram& job_latency_ms;        ///< submit arrival -> done
  metrics::Histogram& queue_depth_at_submit;

  explicit Meters(metrics::Registry& reg)
      : connections_accepted(reg.counter("connections_accepted_total")),
        submits_accepted(reg.counter("submits_accepted_total")),
        results_ok(reg.counter("results_ok_total")),
        results_error(reg.counter("results_error_total")),
        protocol_errors(reg.counter("protocol_errors_total")),
        frame_errors(reg.counter("frame_errors_total")),
        timeouts(reg.counter("timeouts_total")),
        pings(reg.counter("pings_total")),
        jobs_dropped(reg.counter("jobs_dropped_total")),
        bytes_read(reg.counter("conn_bytes_read_total")),
        bytes_written(reg.counter("conn_bytes_written_total")),
        lane_busy_us(reg.counter("lane_busy_us_total")),
        queue_depth(reg.gauge("queue_depth")),
        executing(reg.gauge("executing")),
        lanes(reg.gauge("lanes")),
        connections_open(reg.gauge("connections_open")),
        draining(reg.gauge("draining")),
        ready(reg.gauge("ready")),
        job_latency_ms(reg.histogram("job_latency_ms",
                                     metrics::default_latency_buckets_ms())),
        queue_depth_at_submit(reg.histogram(
            "queue_depth_at_submit",
            {0, 1, 2, 4, 8, 16, 32, 64, 128, 256})) {}
};

/// Nonblocking send; returns bytes written (0 on EAGAIN), -1 on a dead
/// peer. MSG_NOSIGNAL: a hung-up client must never SIGPIPE the server.
ssize_t send_some(int fd, const char* data, std::size_t n) noexcept {
  for (;;) {
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w >= 0) return w;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    return -1;
  }
}

unsigned effective_lanes(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1u, std::min(hw, 8u));
}

}  // namespace

SocketServerStats socket_stats_from(const metrics::Snapshot& snap) {
  SocketServerStats s;
  s.connections_accepted = snap.counter_or("connections_accepted_total");
  s.submits_accepted = snap.counter_or("submits_accepted_total");
  s.results_ok = snap.counter_or("results_ok_total");
  s.results_error = snap.counter_or("results_error_total");
  s.protocol_errors = snap.counter_or("protocol_errors_total");
  s.timeouts = snap.counter_or("timeouts_total");
  s.pings = snap.counter_or("pings_total");
  s.cache_hits = snap.counter_or("cache_hits_total");
  s.computed = snap.counter_or("runs_computed_total");
  s.jobs_dropped = snap.counter_or("jobs_dropped_total");
  s.lanes = static_cast<unsigned>(snap.gauge_or("lanes"));
  return s;
}

SocketServer::SocketServer(SocketServerOptions opts)
    : opts_(std::move(opts)) {
  if (opts_.registry != nullptr) {
    reg_ = opts_.registry;
  } else {
    own_registry_ = std::make_unique<metrics::Registry>();
    reg_ = own_registry_.get();
  }
  if (!opts_.cache_dir.empty()) {
    cache_.emplace(opts_.cache_dir, opts_.cache_budget, reg_);
  } else if (opts_.cache_budget != 0) {
    throw JobError("cache_budget needs a cache_dir");
  }
  listener_ = net::Listener::open(opts_.endpoint);
  ep_ = listener_->endpoint();
}

SocketServerStats SocketServer::run() {
  const unsigned lane_count = effective_lanes(opts_.lanes);
  Meters counters(*reg_);

  std::map<std::uint64_t, Conn> conns;
  std::uint64_t next_conn_id = 1;
  std::uint64_t inflight_total = 0;  ///< jobs enqueued, completion pending
  bool draining = false;

  // ---- lane scheduler ----------------------------------------------------
  //
  // Per-connection FIFO queues plus a round-robin ring of connection ids
  // with pending work: a lane takes the front job of the front
  // connection, then rotates that connection to the back of the ring if
  // it still has work. One connection's jobs run in submit order *start*
  // order (FIFO within the queue); across connections, a burst from one
  // client costs everyone else at most one job's wait per lane.
  std::mutex mu;
  std::condition_variable cv;
  std::map<std::uint64_t, std::deque<PendingJob>> pending;  // guarded by mu
  std::deque<std::uint64_t> rr_ring;  // conn ids with pending work, each once
  std::size_t queued = 0;             // guarded by mu
  std::size_t executing = 0;          // guarded by mu
  std::vector<Completion> completions;  // guarded by mu
  bool lanes_exit = false;              // guarded by mu

  const auto execute = [this](PendingJob& job, std::uint32_t exec_span) {
    Completion done;
    done.conn_id = job.conn_id;
    done.conn_seq = job.conn_seq;
    try {
      std::istringstream is(job.payload);
      BatchOptions batch_opts;
      batch_opts.threads = opts_.threads;
      batch_opts.cache = cache();
      batch_opts.registry = reg_;
      // Per-seed child spans (cache-lookup / compute / cache-store) hang
      // off this lane's execute span.
      batch_opts.trace = job.tracer.get();
      batch_opts.trace_parent = exec_span;
      BatchServer server(batch_opts);
      server.submit_all(parse_job_file(is));
      if (server.num_jobs() == 0) throw JobError("job file contains no jobs");
      const BatchResult result = server.serve();
      if (job.tracer) {
        job.tracer->annotate(exec_span, "runs", result.total_runs);
        job.tracer->annotate(exec_span, "cache_hits", result.cache_hits);
      }
      const RenderedResult rendered =
          render_result("submit-" + std::to_string(job.submit_no), result);
      done.result.summary_csv = rendered.summary_csv;
      done.result.runs_csv = rendered.runs_csv;
      done.result.report_txt = rendered.report_txt;
      if (net::result_wire_size(done.result) > net::kMaxWirePayload) {
        // Degrade to ERR rather than let encode_frame throw on the I/O
        // thread: the rows exist, they just cannot ride a u32-framed
        // RESULT (split the job file instead).
        throw JobError("result of " +
                       std::to_string(net::result_wire_size(done.result)) +
                       " bytes exceeds the wire format's u32 frame limit; "
                       "split the job file");
      }
      done.ok = true;
    } catch (const std::exception& e) {
      // Parse errors (line-numbered JobError), spec errors, and run-time
      // failures (e.g. a CONGEST violation) all become this client's ERR
      // payload; the server keeps serving.
      done.ok = false;
      done.error = e.what();
    }
    done.tracer = std::move(job.tracer);
    return done;
  };

  const auto lane_loop = [&] {
    for (;;) {
      PendingJob job;
      {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return !rr_ring.empty() || lanes_exit; });
        if (rr_ring.empty()) return;  // lanes_exit and nothing left
        const std::uint64_t id = rr_ring.front();
        rr_ring.pop_front();
        const auto it = pending.find(id);
        job = std::move(it->second.front());
        it->second.pop_front();
        --queued;
        counters.queue_depth.set(static_cast<std::int64_t>(queued));
        if (it->second.empty()) {
          pending.erase(it);
        } else {
          rr_ring.push_back(id);  // round-robin: back of the ring
        }
        ++executing;
        counters.executing.set(static_cast<std::int64_t>(executing));
      }
      trace::Collector* const tr = job.tracer.get();
      std::uint32_t exec_span = 0;
      if (tr != nullptr) {
        tr->end(job.queue_span);
        exec_span = tr->begin("lane-execute");
      }
      const auto exec_start = Clock::now();
      Completion done = execute(job, exec_span);
      const auto exec_end = Clock::now();
      if (tr != nullptr) {
        if (!done.ok) tr->annotate(exec_span, "outcome", "error");
        tr->end(exec_span);
      }
      counters.lane_busy_us.inc(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              exec_end - exec_start)
              .count()));
      // Arrival-to-done, queue wait included: the latency a pipelining
      // client actually experiences per submit.
      counters.job_latency_ms.observe(
          std::chrono::duration<double, std::milli>(exec_end - job.enqueued)
              .count());
      // Counted at completion, delivered or not — matching the
      // pre-lane semantics where a reaped client's finished job still
      // counted. The drop itself shows up in jobs_dropped.
      (done.ok ? counters.results_ok : counters.results_error).inc();
      {
        std::lock_guard lock(mu);
        --executing;
        counters.executing.set(static_cast<std::int64_t>(executing));
        completions.push_back(std::move(done));
      }
      pipe_.poke();
    }
  };

  // Join the lanes on every exit path — a failed spawn, a poll() throw —
  // so an exception can propagate without std::thread::~thread
  // terminating. Constructed before the first spawn for that reason.
  std::vector<std::thread> lanes;
  struct LaneJoiner {
    std::mutex& mu;
    std::condition_variable& cv;
    bool& lanes_exit;
    std::vector<std::thread>& lanes;
    void join() {
      {
        std::lock_guard lock(mu);
        lanes_exit = true;
      }
      cv.notify_all();
      for (auto& t : lanes) t.join();
      lanes.clear();
    }
    ~LaneJoiner() { join(); }
  } lane_joiner{mu, cv, lanes_exit, lanes};
  lanes.reserve(lane_count);
  for (unsigned lane = 0; lane < lane_count; ++lane) {
    try {
      lanes.emplace_back(lane_loop);
    } catch (const std::exception& e) {
      // Out of threads (e.g. the process thread limit): serve on the
      // lanes that started. Rows do not depend on the lane count.
      if (lanes.empty()) throw;
      logx::warn("lane_spawn_failed", {{"started", lanes.size()},
                                       {"requested", lane_count},
                                       {"err", e.what()}});
      break;
    }
  }
  counters.lanes.set(static_cast<std::int64_t>(lanes.size()));
  logx::info("server_listening", {{"endpoint", ep_.to_string()},
                                  {"lanes", lanes.size()}});

  // ---- I/O-thread helpers ------------------------------------------------

  const auto enqueue_response = [&](Conn& conn, net::FrameType type,
                                    std::string_view payload) {
    conn.outbuf.append(net::encode_frame(type, payload));
  };

  // Close-after-flush, with a reap deadline so a peer that never reads
  // cannot pin the connection (or wedge a drain) forever.
  const auto begin_close = [&](Conn& conn) {
    conn.closing = true;
    if (conn.has_output() && opts_.idle_timeout_ms != 0) {
      conn.deadline = Clock::now() +
                      std::chrono::milliseconds(opts_.idle_timeout_ms);
    }
  };

  // Tears down a connection that may still own queued/running/buffered
  // work: queued jobs are discarded unexecuted (a dead conn_id must
  // never cost lane time), buffered completions die with the conn, and a
  // job already on a lane gets dropped at delivery instead. Every
  // erase of `conns` goes through here.
  const auto erase_conn = [&](std::map<std::uint64_t, Conn>::iterator it) {
    const std::uint64_t id = it->first;
    std::size_t purged = 0;
    std::vector<std::shared_ptr<trace::Collector>> orphaned;
    {
      std::lock_guard lock(mu);
      const auto pit = pending.find(id);
      if (pit != pending.end()) {
        purged = pit->second.size();
        queued -= purged;
        counters.queue_depth.set(static_cast<std::int64_t>(queued));
        for (PendingJob& pj : pit->second) {
          if (pj.tracer) {
            pj.tracer->annotate(pj.queue_span, "outcome", "conn-lost");
            orphaned.push_back(std::move(pj.tracer));
          }
        }
        pending.erase(pit);
        rr_ring.erase(std::remove(rr_ring.begin(), rr_ring.end(), id),
                      rr_ring.end());
      }
    }
    // Publish outside the scheduler lock: the sink's mutex and the
    // slow_job log line have no business under mu.
    for (const auto& tracer : orphaned) {
      trace::complete(*tracer, opts_.trace_sink, opts_.slow_ms);
    }
    for (Conn::PendingFlush& fw : it->second.flush_watch) {
      if (fw.tracer) {
        fw.tracer->annotate(fw.respond_span, "outcome", "conn-lost");
        fw.tracer->end(fw.respond_span);
        trace::complete(*fw.tracer, opts_.trace_sink, opts_.slow_ms);
      }
    }
    for (auto& [seq, done] : it->second.ready) {
      if (done.tracer) {
        trace::complete(*done.tracer, opts_.trace_sink, opts_.slow_ms);
      }
    }
    const std::uint64_t dropped = purged + it->second.ready.size();
    if (dropped > 0) {
      counters.jobs_dropped.inc(dropped);
      logx::warn("jobs_dropped", {{"conn", id}, {"count", dropped}});
    }
    inflight_total -= purged;
    logx::debug("conn_closed", {{"conn", id}});
    const auto next = conns.erase(it);
    counters.connections_open.set(static_cast<std::int64_t>(conns.size()));
    return next;
  };

  const auto begin_drain = [&] {
    if (draining) return;
    draining = true;
    counters.draining.set(1);
    logx::info("drain_begin", {});
    listener_.reset();  // new connects are refused from here on
    for (auto& [id, conn] : conns) {
      if (conn.inflight == 0) begin_close(conn);
    }
  };

  // One snapshot renders the whole STATS frame — the exact same registry
  // state GET /metrics exposes, so the two surfaces cannot disagree.
  const auto stats_text = [&] {
    const metrics::Snapshot snap = reg_->snapshot();
    const SocketServerStats s = socket_stats_from(snap);
    std::ostringstream os;
    os << "endpoint " << ep_.to_string() << "\n"
       << "draining " << snap.gauge_or("draining") << "\n"
       << "lanes " << s.lanes << "\n"
       << "connections_open " << snap.gauge_or("connections_open") << "\n"
       << "connections_accepted " << s.connections_accepted << "\n"
       << "submits_accepted " << s.submits_accepted << "\n"
       << "results_ok " << s.results_ok << "\n"
       << "results_error " << s.results_error << "\n"
       << "protocol_errors " << s.protocol_errors << "\n"
       << "timeouts " << s.timeouts << "\n"
       << "pings " << s.pings << "\n"
       << "cache_hits " << s.cache_hits << "\n"
       << "computed " << s.computed << "\n"
       << "jobs_dropped " << s.jobs_dropped << "\n"
       << "queue_depth " << snap.gauge_or("queue_depth") << "\n"
       << "executing " << snap.gauge_or("executing") << "\n";
    return os.str();
  };

  const auto protocol_error = [&](Conn& conn, const std::string& what) {
    counters.protocol_errors.inc();
    logx::warn("protocol_error", {{"err", what}});
    enqueue_response(conn, net::FrameType::kError, "protocol error: " + what);
    begin_close(conn);
  };

  const auto handle_frame = [&](std::uint64_t conn_id, Conn& conn,
                                net::Frame& frame) {
    switch (frame.type) {
      case net::FrameType::kHello: {
        std::uint32_t version = 0;
        std::string software;
        if (!net::decode_hello(frame.payload, version, software)) {
          protocol_error(conn, "malformed HELLO payload");
          return;
        }
        if (version != net::kProtocolVersion) {
          enqueue_response(conn, net::FrameType::kError,
                           "unsupported protocol version " +
                               std::to_string(version) + " (server speaks " +
                               std::to_string(net::kProtocolVersion) + ")");
          begin_close(conn);
          return;
        }
        enqueue_response(conn, net::FrameType::kHello, net::encode_hello());
        return;
      }
      case net::FrameType::kPing:
        counters.pings.inc();
        enqueue_response(conn, net::FrameType::kPong, {});
        return;
      case net::FrameType::kStatsReq:
        enqueue_response(conn, net::FrameType::kStats, stats_text());
        return;
      case net::FrameType::kSubmit: {
        if (draining) {
          enqueue_response(conn, net::FrameType::kError,
                           "server is draining; submit rejected");
          return;
        }
        // inc() returns the post-increment value: the counter itself is
        // the submit-number sequence, no shadow variable.
        const std::uint64_t submit_no = counters.submits_accepted.inc();
        std::shared_ptr<trace::Collector> tracer;
        std::uint32_t recv_span = 0;
        if (trace::enabled()) {
          tracer = std::make_shared<trace::Collector>(submit_no, "submit");
          recv_span = tracer->begin("recv");
          tracer->annotate(recv_span, "conn", conn_id);
          tracer->annotate(recv_span, "bytes", frame.payload.size());
        }
        ++conn.inflight;
        ++inflight_total;
        const std::uint64_t conn_seq = conn.next_submit_seq++;
        std::uint32_t queue_span = 0;
        if (tracer) {
          tracer->end(recv_span);
          queue_span = tracer->begin("queue-wait");
        }
        {
          std::lock_guard lock(mu);
          auto& q = pending[conn_id];
          if (q.empty()) rr_ring.push_back(conn_id);
          q.push_back(PendingJob{conn_id, conn_seq, submit_no,
                                 std::move(frame.payload), Clock::now(),
                                 std::move(tracer), queue_span});
          ++queued;
          counters.queue_depth.set(static_cast<std::int64_t>(queued));
          counters.queue_depth_at_submit.observe(
              static_cast<double>(queued));
        }
        logx::debug("submit", {{"conn", conn_id},
                               {"no", submit_no},
                               {"trace", submit_no}});
        cv.notify_one();
        if (opts_.max_requests != 0 && submit_no >= opts_.max_requests) {
          begin_drain();
        }
        return;
      }
      case net::FrameType::kShutdown:
        if (!opts_.allow_remote_shutdown) {
          enqueue_response(conn, net::FrameType::kError,
                           "shutdown over the wire is disabled");
          return;
        }
        enqueue_response(conn, net::FrameType::kShutdown, {});
        begin_drain();
        // begin_drain skipped this conn if it has inflight work; without
        // any it must still flush the ack before closing.
        if (conn.inflight == 0) begin_close(conn);
        return;
      case net::FrameType::kResult:
      case net::FrameType::kError:
      case net::FrameType::kPong:
      case net::FrameType::kStats:
        protocol_error(conn, "server-to-client frame type from a client");
        return;
    }
    protocol_error(conn, "unknown frame type");
  };

  const auto read_from = [&](std::uint64_t conn_id, Conn& conn) {
    // Returns false when the conn was torn down and must be erased.
    char buf[64 * 1024];
    for (;;) {
      const ssize_t r = fdio::read_some(conn.fd.get(), buf, sizeof buf);
      if (r < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (conn.reader.mid_frame()) {
          counters.protocol_errors.inc();
          counters.frame_errors.inc();
        }
        return false;  // reset underneath us
      }
      if (r == 0) {
        conn.read_eof = true;
        if (conn.reader.mid_frame()) {
          // Truncated frame: the peer hung up with a frame half-sent.
          counters.protocol_errors.inc();
          counters.frame_errors.inc();
          return false;
        }
        // Clean half-close: finish in-flight work and flush responses
        // (deliver_completions closes once inflight hits zero), then
        // close.
        if (conn.inflight == 0) {
          if (!conn.has_output()) return false;
          begin_close(conn);
        }
        break;
      }
      counters.bytes_read.inc(static_cast<std::uint64_t>(r));
      conn.reader.feed(buf, static_cast<std::size_t>(r));
      for (;;) {
        net::Frame frame;
        const net::FrameStatus status = conn.reader.next(frame);
        if (status == net::FrameStatus::kFrame) {
          handle_frame(conn_id, conn, frame);
          if (conn.closing) break;
          continue;
        }
        if (status == net::FrameStatus::kNeedMore) break;
        counters.frame_errors.inc();  // decode-level: bad magic, oversize
        protocol_error(conn, net::frame_status_name(status));
        break;
      }
      if (conn.closing) break;
      if (r < static_cast<ssize_t>(sizeof buf)) break;  // drained the socket
    }
    // Arm / disarm the slow-loris deadline: a partially received frame
    // puts the peer on the clock.
    if (!conn.closing && opts_.idle_timeout_ms != 0) {
      conn.deadline = conn.reader.mid_frame()
                          ? Clock::now() + std::chrono::milliseconds(
                                               opts_.idle_timeout_ms)
                          : Clock::time_point::max();
    }
    return true;
  };

  const auto write_to = [&](Conn& conn) {
    // Returns false when the conn must be erased (peer gone, or flushed
    // and closing).
    while (conn.has_output()) {
      const ssize_t w = send_some(conn.fd.get(), conn.outbuf.data() + conn.outoff,
                                  conn.outbuf.size() - conn.outoff);
      if (w < 0) return false;
      if (w > 0) {
        counters.bytes_written.inc(static_cast<std::uint64_t>(w));
        conn.flushed_total += static_cast<std::uint64_t>(w);
        // A respond span ends when its response bytes have actually left
        // for the kernel, not when they were enqueued — so queue-behind
        // time under pipelining is visible in the trace.
        while (!conn.flush_watch.empty() &&
               conn.flush_watch.front().target <= conn.flushed_total) {
          Conn::PendingFlush fw = std::move(conn.flush_watch.front());
          conn.flush_watch.pop_front();
          if (fw.tracer) {
            fw.tracer->end(fw.respond_span);
            trace::complete(*fw.tracer, opts_.trace_sink, opts_.slow_ms);
          }
        }
      }
      if (w > 0 && opts_.idle_timeout_ms != 0) {
        // Progress resets the reap clock: only a peer *refusing* to read
        // its responses runs it out, not a slow one.
        conn.deadline =
            Clock::now() + std::chrono::milliseconds(opts_.idle_timeout_ms);
      }
      if (w == 0) return true;  // kernel buffer full; poll for POLLOUT
      conn.outoff += static_cast<std::size_t>(w);
    }
    conn.outbuf.clear();
    conn.outoff = 0;
    if (conn.closing) return false;
    if (opts_.idle_timeout_ms != 0 && !conn.reader.mid_frame()) {
      conn.deadline = Clock::time_point::max();
    }
    return true;
  };

  const auto deliver_completions = [&] {
    std::vector<Completion> batch;
    {
      std::lock_guard lock(mu);
      batch.swap(completions);
    }
    for (Completion& done : batch) {
      --inflight_total;
      const auto it = conns.find(done.conn_id);
      if (it == conns.end()) {
        // Client left while the job ran; nowhere to send the response.
        counters.jobs_dropped.inc();
        if (done.tracer) {
          trace::complete(*done.tracer, opts_.trace_sink, opts_.slow_ms);
        }
        continue;
      }
      Conn& conn = it->second;
      // Per-connection FIFO: park the completion, then release the head
      // run — everything whose turn has come goes out in submit order,
      // however the lanes raced.
      conn.ready.emplace(done.conn_seq, std::move(done));
      while (!conn.ready.empty() &&
             conn.ready.begin()->first == conn.next_deliver_seq) {
        Completion& head = conn.ready.begin()->second;
        std::shared_ptr<trace::Collector> tracer = std::move(head.tracer);
        const std::uint32_t respond_span =
            tracer ? tracer->begin("respond") : 0;
        if (head.ok) {
          enqueue_response(conn, net::FrameType::kResult,
                           net::encode_result(head.result));
        } else {
          enqueue_response(conn, net::FrameType::kError, head.error);
        }
        if (tracer) {
          conn.flush_watch.push_back(Conn::PendingFlush{
              conn.flushed_total + (conn.outbuf.size() - conn.outoff),
              std::move(tracer), respond_span});
        }
        conn.ready.erase(conn.ready.begin());
        ++conn.next_deliver_seq;
        --conn.inflight;
      }
      if ((draining || conn.read_eof) && conn.inflight == 0) {
        begin_close(conn);
      }
    }
  };

  // ---- the poll loop -----------------------------------------------------

  std::vector<pollfd> pfds;
  std::vector<std::uint64_t> pfd_conn;  // conn id per pollfd (0 = not a conn)
  counters.ready.set(1);  // /healthz flips to "ok" here
  for (;;) {
    if (stop_.load()) begin_drain();
    // Closing connections with nothing left to flush are done; sweeping
    // here (not just in the event handlers) catches the ones begin_drain
    // marked, so a drain with idle clients cannot park in poll forever.
    for (auto it = conns.begin(); it != conns.end();) {
      if (it->second.closing && !it->second.has_output()) {
        it = erase_conn(it);
      } else {
        ++it;
      }
    }
    if (draining && inflight_total == 0 && conns.empty()) break;

    pfds.clear();
    pfd_conn.clear();
    pfds.push_back({pipe_.read_fd(), POLLIN, 0});
    pfd_conn.push_back(0);
    if (listener_) {
      pfds.push_back({listener_->fd(), POLLIN, 0});
      pfd_conn.push_back(0);
    }
    const std::size_t first_conn_pfd = pfds.size();
    Clock::time_point nearest = Clock::time_point::max();
    for (auto& [id, conn] : conns) {
      short events = 0;
      if (!conn.closing && !conn.read_eof) events |= POLLIN;
      if (conn.has_output()) {
        events |= POLLOUT;
        // Undelivered responses put the peer on the reap clock too (not
        // just mid-frame stalls): a client that submits but never reads
        // must not pin the connection — or its ever-growing outbuf —
        // forever. write_to pushes the deadline on every flush progress.
        if (opts_.idle_timeout_ms != 0 &&
            conn.deadline == Clock::time_point::max()) {
          conn.deadline = Clock::now() +
                          std::chrono::milliseconds(opts_.idle_timeout_ms);
        }
      }
      pfds.push_back({conn.fd.get(), events, 0});
      pfd_conn.push_back(id);
      if (conn.deadline < nearest) nearest = conn.deadline;
    }

    int timeout_ms = -1;
    if (nearest != Clock::time_point::max()) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            nearest - Clock::now())
                            .count();
      timeout_ms = left < 0 ? 0 : static_cast<int>(left) + 1;
    }
    const int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) {
      throw net::NetError(std::string("poll: ") + std::strerror(errno));
    }

    if (pfds[0].revents & POLLIN) pipe_.drain();
    deliver_completions();
    if (stop_.load()) begin_drain();

    if (listener_ && !draining) {
      // The listener pollfd position is fixed (index 1) while listening.
      if (pfds.size() > 1 && pfd_conn[1] == 0 && pfds[1].fd == listener_->fd() &&
          (pfds[1].revents & POLLIN)) {
        for (;;) {
          fdio::Fd accepted = listener_->accept_connection();
          if (!accepted) break;
          counters.connections_accepted.inc();
          logx::debug("conn_accepted", {{"conn", next_conn_id}});
          conns.emplace(next_conn_id++,
                        Conn(std::move(accepted), opts_.max_frame_bytes));
          counters.connections_open.set(
              static_cast<std::int64_t>(conns.size()));
        }
      }
    }

    for (std::size_t i = first_conn_pfd; i < pfds.size(); ++i) {
      const std::uint64_t id = pfd_conn[i];
      const auto it = conns.find(id);
      if (it == conns.end()) continue;
      Conn& conn = it->second;
      bool alive = true;
      if (alive && (pfds[i].revents & POLLIN) && !conn.closing) {
        alive = read_from(id, conn);
      }
      if (alive && (pfds[i].revents & POLLOUT)) {
        alive = write_to(conn);
      }
      // A response enqueued by this very iteration (e.g. PONG) often fits
      // the socket buffer; write eagerly instead of waiting a poll cycle.
      if (alive && conn.has_output() && !(pfds[i].revents & POLLOUT)) {
        alive = write_to(conn);
      }
      if (alive &&
          (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) &&
          !(pfds[i].revents & POLLIN)) {
        if (conn.reader.mid_frame()) {
          counters.protocol_errors.inc();
          counters.frame_errors.inc();
        }
        alive = false;
      }
      if (alive && conn.deadline != Clock::time_point::max() &&
          Clock::now() >= conn.deadline) {
        // Slow loris (stalled mid-frame) or a closing peer that never
        // drains its responses: classified, counted, reaped.
        counters.timeouts.inc();
        logx::warn("conn_timeout", {{"conn", id}});
        if (conn.reader.mid_frame() && !conn.closing) {
          counters.protocol_errors.inc();
          counters.frame_errors.inc();
          // Courtesy diagnostic — but only onto an empty output buffer:
          // injecting it after a partially flushed frame would corrupt
          // the peer's byte stream.
          if (!conn.has_output()) {
            const std::string err = net::encode_frame(
                net::FrameType::kError,
                "protocol error: timeout waiting for the rest of a frame");
            (void)send_some(conn.fd.get(), err.data(), err.size());
          }
        }
        alive = false;
      }
      if (!alive) erase_conn(it);
    }
  }

  lane_joiner.join();
  deliver_completions();  // completions raced with the drain; drop-count them
  counters.ready.set(0);
  logx::info("server_stopped", {});
  return socket_stats_from(reg_->snapshot());
}

}  // namespace distapx::service
