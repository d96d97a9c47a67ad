#include "net/http_admin.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <list>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "service/result_cache.hpp"
#include "support/assert.hpp"
#include "support/log.hpp"
#include "support/trace.hpp"

namespace distapx::net {

namespace {

std::string http_response(int status, const char* reason,
                          std::string_view content_type,
                          std::string_view body) {
  std::string out = "HTTP/1.0 " + std::to_string(status) + ' ' + reason +
                    "\r\nContent-Type: " + std::string(content_type) +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

std::string plain(int status, const char* reason, std::string_view body) {
  return http_response(status, reason, "text/plain; charset=utf-8", body);
}

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// The /statusz page: identity and configuration a human reaches for
/// first during an incident, ahead of any metric math.
std::string render_statusz(const metrics::Snapshot& snap,
                           const AdminContext& ctx) {
  std::string out = "distapx server status\n\n";
  out += "build: " __VERSION__ "\n";
  out += "engine_version: " + std::to_string(service::kEngineVersion) + '\n';
  out += "protocol_version: " + std::to_string(kProtocolVersion) + '\n';
  out += "wire_version: " + std::to_string(kWireVersion) + '\n';
  const auto uptime = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - ctx.start_time);
  out += "uptime_seconds: " +
         std::to_string(uptime.count() > 0 ? uptime.count() : 0) + '\n';
  if (ctx.status_fields != nullptr) {
    for (const auto& [key, value] : *ctx.status_fields) {
      out += key + ": " + value + '\n';
    }
  }
  out += '\n';
  const auto gauge_line = [&](const char* name) {
    out += std::string(name) + ": " +
           std::to_string(snap.gauge_or(name)) + '\n';
  };
  gauge_line("ready");
  gauge_line("draining");
  gauge_line("connections_open");
  gauge_line("queue_depth");
  out += '\n';
  out += "process_cpu_seconds_total: " +
         format_double(snap.float_or("process_cpu_seconds_total")) + '\n';
  gauge_line("process_max_rss_bytes");
  gauge_line("process_minor_faults_total");
  gauge_line("process_major_faults_total");
  gauge_line("process_open_fds");
  if (ctx.sink != nullptr) {
    out += "\ntraces_published: " +
           std::to_string(ctx.sink->published_total()) + '\n';
  }
  return out;
}

/// The /vars page: every metric as one "name value" line — counters and
/// gauges verbatim, histograms expanded into cumulative count/sum and
/// quantiles.
std::string render_vars(const metrics::Snapshot& snap) {
  std::string out;
  for (const auto& c : snap.counters) {
    out += c.name + ' ' + std::to_string(c.value) + '\n';
  }
  for (const auto& g : snap.gauges) {
    out += g.name + ' ' + std::to_string(g.value) + '\n';
  }
  for (const auto& f : snap.floats) {
    out += f.name + ' ' + format_double(f.value) + '\n';
  }
  for (const auto& h : snap.histograms) {
    out += h.name + "_count " + std::to_string(h.hist.count) + '\n';
    out += h.name + "_sum " + format_double(h.hist.sum) + '\n';
    out += h.name + "_p50 " + format_double(h.hist.quantile(0.50)) + '\n';
    out += h.name + "_p95 " + format_double(h.hist.quantile(0.95)) + '\n';
    out += h.name + "_p99 " + format_double(h.hist.quantile(0.99)) + '\n';
  }
  return out;
}

}  // namespace

std::string admin_handle_request(std::string_view request,
                                 const metrics::Registry& registry) {
  AdminContext ctx;
  ctx.start_time = std::chrono::steady_clock::now();
  return admin_handle_request(request, registry, ctx);
}

std::string admin_handle_request(std::string_view request,
                                 const metrics::Registry& registry,
                                 const AdminContext& ctx) {
  // Request line: METHOD SP TARGET SP VERSION. Only the first line
  // matters; headers are accepted and ignored.
  const std::size_t eol = request.find("\r\n");
  const std::string_view line =
      eol == std::string_view::npos ? request : request.substr(0, eol);
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) {
    return plain(400, "Bad Request", "bad request\n");
  }
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  const std::string_view method = line.substr(0, sp1);
  std::string_view target =
      sp2 == std::string_view::npos
          ? line.substr(sp1 + 1)
          : line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET") {
    return plain(405, "Method Not Allowed", "method not allowed\n");
  }
  // Strip any query string; the endpoints take no parameters.
  const std::size_t qmark = target.find('?');
  if (qmark != std::string_view::npos) target = target.substr(0, qmark);

  if (target == "/metrics") {
    return http_response(200, "OK",
                         "text/plain; version=0.0.4; charset=utf-8",
                         metrics::render_prometheus(registry.snapshot()));
  }
  if (target == "/healthz") {
    const metrics::Snapshot snap = registry.snapshot();
    if (snap.gauge_or("draining") != 0) {
      return plain(503, "Service Unavailable", "draining\n");
    }
    if (snap.gauge_or("ready") == 0) {
      return plain(503, "Service Unavailable", "starting\n");
    }
    return plain(200, "OK", "ok\n");
  }
  if (target == "/statusz") {
    return plain(200, "OK", render_statusz(registry.snapshot(), ctx));
  }
  if (target == "/vars") {
    return plain(200, "OK", render_vars(registry.snapshot()));
  }
  if (target == "/tracez") {
    if (ctx.sink == nullptr) {
      return plain(200, "OK", "tracing sink not attached\n");
    }
    return plain(200, "OK", trace::render_tracez(*ctx.sink));
  }
  return plain(404, "Not Found", "not found\n");
}

struct AdminServer::Impl {
  AdminOptions opts;
  Listener listener;
  fdio::Pipe wake;
  std::thread thread;
  std::atomic<bool> stopping{false};
  bool started = false;

  struct Conn {
    fdio::Fd fd;
    std::string in;       ///< request bytes until the blank line
    std::string out;      ///< response bytes not yet written
    std::size_t sent = 0;
    bool responding = false;
    std::uint64_t last_activity_ms = 0;
  };
  std::list<Conn> conns;
  std::chrono::steady_clock::time_point start_time =
      std::chrono::steady_clock::now();

  explicit Impl(AdminOptions o)
      : opts(std::move(o)),
        listener(Listener::open(parse_endpoint(opts.endpoint))) {
    DISTAPX_ENSURE_MSG(opts.registry != nullptr,
                       "AdminServer requires a registry");
  }

  [[nodiscard]] AdminContext context() const {
    AdminContext ctx;
    ctx.sink = opts.trace_sink;
    ctx.status_fields = &opts.status_fields;
    ctx.start_time = start_time;
    return ctx;
  }

  void run() {
    while (!stopping.load(std::memory_order_acquire)) {
      std::vector<pollfd> pfds;
      pfds.push_back({wake.read_fd(), POLLIN, 0});
      pfds.push_back({listener.fd(), POLLIN, 0});
      for (const Conn& c : conns) {
        pfds.push_back({c.fd.get(),
                        static_cast<short>(c.responding ? POLLOUT : POLLIN),
                        0});
      }
      // Cap the wait so idle-connection reaping runs even with no events.
      const int timeout =
          conns.empty() ? -1 : static_cast<int>(opts.idle_timeout_ms);
      if (::poll(pfds.data(), pfds.size(), timeout) < 0) {
        if (errno == EINTR) continue;
        logx::error("admin_poll_failed", {{"errno", errno}});
        return;
      }
      if (pfds[0].revents != 0) wake.drain();
      if (pfds[1].revents & POLLIN) accept_new();

      const std::uint64_t now = now_ms();
      // Connections accept_new() just appended have no pollfd yet; they
      // are polled from the next iteration on.
      std::size_t i = 2;
      for (auto it = conns.begin(); it != conns.end() && i < pfds.size();
           ++i) {
        const short re = pfds[i].revents;
        bool close = false;
        if (re & (POLLERR | POLLHUP | POLLNVAL)) {
          close = true;
        } else if (re & POLLIN) {
          close = !read_request(*it);
          it->last_activity_ms = now;
        } else if (re & POLLOUT) {
          close = !write_response(*it);
          it->last_activity_ms = now;
        } else if (now - it->last_activity_ms > opts.idle_timeout_ms) {
          close = true;
        }
        it = close ? conns.erase(it) : std::next(it);
      }
    }
  }

  void accept_new() {
    for (;;) {
      fdio::Fd fd = listener.accept_connection();
      if (!fd.valid()) break;
      Conn c;
      c.fd = std::move(fd);
      c.last_activity_ms = now_ms();
      conns.push_back(std::move(c));
    }
  }

  /// False when the connection should close. A complete request (blank
  /// line seen) flips the conn to response mode.
  bool read_request(Conn& c) {
    char buf[2048];
    for (;;) {
      const ssize_t n = fdio::read_some(c.fd.get(), buf, sizeof buf);
      if (n < 0) {
        return errno == EAGAIN || errno == EWOULDBLOCK;
      }
      if (n == 0) return false;  // EOF before a full request
      c.in.append(buf, static_cast<std::size_t>(n));
      if (c.in.size() > opts.max_request_bytes) {
        c.out = plain(400, "Bad Request", "request too large\n");
        c.responding = true;
        return true;
      }
      if (c.in.find("\r\n\r\n") != std::string::npos ||
          c.in.find("\n\n") != std::string::npos) {
        c.out = admin_handle_request(c.in, *opts.registry, context());
        c.responding = true;
        return true;
      }
    }
  }

  /// False when the connection should close (done or error). Nonblocking
  /// fd, so loop until EAGAIN or completion.
  bool write_response(Conn& c) {
    while (c.sent < c.out.size()) {
      const ssize_t n = ::send(c.fd.get(), c.out.data() + c.sent,
                               c.out.size() - c.sent, MSG_NOSIGNAL);
      if (n < 0) {
        return errno == EAGAIN || errno == EWOULDBLOCK;
      }
      c.sent += static_cast<std::size_t>(n);
    }
    return false;  // fully written -> close (HTTP/1.0 semantics)
  }
};

AdminServer::AdminServer(AdminOptions opts)
    : impl_(std::make_unique<Impl>(std::move(opts))) {}

AdminServer::~AdminServer() { stop(); }

const Endpoint& AdminServer::endpoint() const noexcept {
  return impl_->listener.endpoint();
}

void AdminServer::start() {
  DISTAPX_ENSURE_MSG(!impl_->started, "AdminServer::start called twice");
  impl_->started = true;
  impl_->thread = std::thread([this] { impl_->run(); });
  logx::info("admin_listening",
             {{"endpoint", impl_->listener.endpoint().to_string()}});
}

void AdminServer::stop() {
  if (!impl_->started) return;
  if (!impl_->stopping.exchange(true, std::memory_order_acq_rel)) {
    impl_->wake.poke();
  }
  if (impl_->thread.joinable()) impl_->thread.join();
}

}  // namespace distapx::net
