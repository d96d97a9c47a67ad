// HTTP admin endpoint: request routing/status at the string level, and a
// live AdminServer scraped over a real TCP socket while writer threads
// hammer the registry — the scrape-while-serving property the admin plane
// exists for.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <string>
#include <thread>
#include <vector>

#include "net/http_admin.hpp"
#include "net/socket.hpp"
#include "support/fdio.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace distapx::net {
namespace {

std::string status_line(const std::string& response) {
  return response.substr(0, response.find("\r\n"));
}

std::string body_of(const std::string& response) {
  const std::size_t blank = response.find("\r\n\r\n");
  return blank == std::string::npos ? std::string()
                                    : response.substr(blank + 4);
}

TEST(AdminHttp, MetricsRouteRendersTheRegistry) {
  metrics::Registry reg;
  reg.counter("results_ok_total").inc(12);
  const std::string resp =
      admin_handle_request("GET /metrics HTTP/1.0\r\n\r\n", reg);
  EXPECT_EQ(status_line(resp), "HTTP/1.0 200 OK");
  EXPECT_NE(resp.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(body_of(resp).find("distapx_results_ok_total 12\n"),
            std::string::npos);
}

TEST(AdminHttp, MetricsRouteIgnoresQueryString) {
  metrics::Registry reg;
  const std::string resp =
      admin_handle_request("GET /metrics?debug=1 HTTP/1.0\r\n\r\n", reg);
  EXPECT_EQ(status_line(resp), "HTTP/1.0 200 OK");
}

TEST(AdminHttp, HealthzReflectsReadyAndDrainingGauges) {
  metrics::Registry reg;
  // No gauges yet: the serving loop has not come up.
  std::string resp = admin_handle_request("GET /healthz HTTP/1.0\r\n\r\n", reg);
  EXPECT_EQ(status_line(resp), "HTTP/1.0 503 Service Unavailable");
  EXPECT_EQ(body_of(resp), "starting\n");

  reg.gauge("ready").set(1);
  resp = admin_handle_request("GET /healthz HTTP/1.0\r\n\r\n", reg);
  EXPECT_EQ(status_line(resp), "HTTP/1.0 200 OK");
  EXPECT_EQ(body_of(resp), "ok\n");

  // Draining wins over ready: a draining server must fail its health
  // check even though its loop is still up flushing responses.
  reg.gauge("draining").set(1);
  resp = admin_handle_request("GET /healthz HTTP/1.0\r\n\r\n", reg);
  EXPECT_EQ(status_line(resp), "HTTP/1.0 503 Service Unavailable");
  EXPECT_EQ(body_of(resp), "draining\n");
}

TEST(AdminHttp, UnknownRouteBadMethodAndGarbageGetClassified) {
  metrics::Registry reg;
  EXPECT_EQ(status_line(admin_handle_request("GET /nope HTTP/1.0\r\n\r\n",
                                             reg)),
            "HTTP/1.0 404 Not Found");
  EXPECT_EQ(status_line(admin_handle_request("POST /metrics HTTP/1.0\r\n\r\n",
                                             reg)),
            "HTTP/1.0 405 Method Not Allowed");
  EXPECT_EQ(status_line(admin_handle_request("garbage\r\n\r\n", reg)),
            "HTTP/1.0 400 Bad Request");
}

TEST(AdminHttp, StatuszRendersBuildStatusFieldsAndProcessGauges) {
  metrics::Registry reg;
  reg.gauge("ready").set(1);
  reg.gauge("connections_open").set(3);
  reg.float_gauge("process_cpu_seconds_total").set(1.25);
  reg.gauge("process_max_rss_bytes").set(123456);

  std::vector<std::pair<std::string, std::string>> fields = {
      {"mode", "socket"}, {"cache_dir", "(none)"}};
  AdminContext ctx;
  ctx.status_fields = &fields;
  ctx.start_time = std::chrono::steady_clock::now();
  const std::string resp =
      admin_handle_request("GET /statusz HTTP/1.0\r\n\r\n", reg, ctx);
  EXPECT_EQ(status_line(resp), "HTTP/1.0 200 OK");
  const std::string body = body_of(resp);
  EXPECT_NE(body.find("uptime_seconds"), std::string::npos);
  EXPECT_NE(body.find("mode: socket"), std::string::npos);
  EXPECT_NE(body.find("cache_dir: (none)"), std::string::npos);
  EXPECT_NE(body.find("ready: 1"), std::string::npos);
  EXPECT_NE(body.find("connections_open: 3"), std::string::npos);
  EXPECT_NE(body.find("process_cpu_seconds_total"), std::string::npos);
  EXPECT_NE(body.find("process_max_rss_bytes: 123456"), std::string::npos);
}

TEST(AdminHttp, VarsRendersCountersFloatsAndQuantiles) {
  metrics::Registry reg;
  reg.counter("results_ok_total").inc(7);
  reg.float_gauge("process_cpu_seconds_total").set(0.5);
  metrics::Histogram& lat =
      reg.histogram("job_latency_ms", metrics::default_latency_buckets_ms());
  for (int i = 0; i < 100; ++i) lat.observe(10.0);

  const std::string resp =
      admin_handle_request("GET /vars HTTP/1.0\r\n\r\n", reg, AdminContext{});
  EXPECT_EQ(status_line(resp), "HTTP/1.0 200 OK");
  const std::string body = body_of(resp);
  EXPECT_NE(body.find("results_ok_total 7"), std::string::npos);
  EXPECT_NE(body.find("process_cpu_seconds_total"), std::string::npos);
  EXPECT_NE(body.find("job_latency_ms_count 100"), std::string::npos);
  EXPECT_NE(body.find("job_latency_ms_p95"), std::string::npos);
  EXPECT_NE(body.find("job_latency_ms_p99"), std::string::npos);
}

TEST(AdminHttp, TracezRendersSinkOrExplainsItsAbsence) {
  metrics::Registry reg;
  // No sink attached: the page says so instead of 404ing, so operators
  // can tell "no traces yet" from "wrong URL".
  std::string resp =
      admin_handle_request("GET /tracez HTTP/1.0\r\n\r\n", reg, AdminContext{});
  EXPECT_EQ(status_line(resp), "HTTP/1.0 200 OK");
  EXPECT_NE(body_of(resp).find("not attached"), std::string::npos);

  trace::TraceSink sink;
  trace::Collector c(42, "submit");
  const std::uint32_t s = c.begin("lane-execute");
  c.end(s);
  sink.publish(c.finish());
  AdminContext ctx;
  ctx.sink = &sink;
  resp = admin_handle_request("GET /tracez HTTP/1.0\r\n\r\n", reg, ctx);
  EXPECT_EQ(status_line(resp), "HTTP/1.0 200 OK");
  const std::string body = body_of(resp);
  EXPECT_NE(body.find("trace 42"), std::string::npos);
  EXPECT_NE(body.find("lane-execute"), std::string::npos);
}

TEST(AdminHttp, LegacyTwoArgOverloadStillRoutes) {
  metrics::Registry reg;
  reg.counter("x_total").inc(1);
  EXPECT_EQ(status_line(admin_handle_request("GET /statusz HTTP/1.0\r\n\r\n",
                                             reg)),
            "HTTP/1.0 200 OK");
  EXPECT_EQ(status_line(admin_handle_request("GET /vars HTTP/1.0\r\n\r\n",
                                             reg)),
            "HTTP/1.0 200 OK");
  EXPECT_EQ(status_line(admin_handle_request("GET /tracez HTTP/1.0\r\n\r\n",
                                             reg)),
            "HTTP/1.0 200 OK");
}

/// One blocking HTTP/1.0 exchange against a live admin endpoint.
std::string http_get(const Endpoint& ep, const std::string& target) {
  fdio::Fd fd = connect_endpoint_retry(ep, 5000);
  const std::string req = "GET " + target + " HTTP/1.0\r\n\r\n";
  EXPECT_TRUE(fdio::write_fully(fd.get(), req.data(), req.size()));
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t r = fdio::read_some(fd.get(), buf, sizeof buf);
    if (r > 0) {
      resp.append(buf, static_cast<std::size_t>(r));
      continue;
    }
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    break;  // EOF (server closes after the response) or hard error
  }
  return resp;
}

TEST(AdminHttp, ScrapesWhileWritersHammerTheRegistry) {
  metrics::Registry reg;
  reg.gauge("ready").set(1);
  // Register up front so the first scrape already sees the series (the
  // serving tier resolves its handles before accepting work, too).
  reg.counter("results_ok_total");
  reg.histogram("job_latency_ms", metrics::default_latency_buckets_ms());

  AdminOptions opts;
  opts.endpoint = "127.0.0.1:0";
  opts.registry = &reg;
  AdminServer admin(std::move(opts));
  admin.start();

  // Writers play the serving tier: counters, a gauge, and a histogram
  // updated continuously while scrapes land.
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&reg, &stop] {
      metrics::Counter& ok = reg.counter("results_ok_total");
      metrics::Histogram& lat =
          reg.histogram("job_latency_ms", metrics::default_latency_buckets_ms());
      while (!stop.load(std::memory_order_relaxed)) {
        ok.inc();
        lat.observe(1.5);
        reg.gauge("queue_depth").add(1);
        reg.gauge("queue_depth").add(-1);
      }
    });
  }

  for (int i = 0; i < 20; ++i) {
    const std::string resp = http_get(admin.endpoint(), "/metrics");
    ASSERT_EQ(status_line(resp), "HTTP/1.0 200 OK") << resp;
    const std::string body = body_of(resp);
    EXPECT_NE(body.find("# TYPE distapx_results_ok_total counter"),
              std::string::npos);
    EXPECT_NE(body.find("distapx_job_latency_ms_count"), std::string::npos);
    const std::string health = http_get(admin.endpoint(), "/healthz");
    EXPECT_EQ(status_line(health), "HTTP/1.0 200 OK");
  }

  stop.store(true);
  for (auto& w : writers) w.join();
  admin.stop();

  // After the writers stop, one more scrape sees a settled, parseable
  // count equal to the counter's final value.
  const std::uint64_t final_ok = reg.counter("results_ok_total").value();
  const std::string rendered = metrics::render_prometheus(reg.snapshot());
  EXPECT_NE(rendered.find("distapx_results_ok_total " +
                          std::to_string(final_ok) + "\n"),
            std::string::npos);
}

TEST(AdminHttp, OversizedRequestIsRejected) {
  metrics::Registry reg;
  reg.gauge("ready").set(1);
  AdminOptions opts;
  opts.endpoint = "127.0.0.1:0";
  opts.registry = &reg;
  opts.max_request_bytes = 128;
  AdminServer admin(std::move(opts));
  admin.start();

  fdio::Fd fd = connect_endpoint_retry(admin.endpoint(), 5000);
  const std::string junk(1024, 'x');  // no blank line, over the cap
  ASSERT_TRUE(fdio::write_fully(fd.get(), junk.data(), junk.size()));
  std::string resp;
  char buf[1024];
  for (;;) {
    const ssize_t r = fdio::read_some(fd.get(), buf, sizeof buf);
    if (r > 0) {
      resp.append(buf, static_cast<std::size_t>(r));
      continue;
    }
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    break;
  }
  EXPECT_EQ(status_line(resp), "HTTP/1.0 400 Bad Request");
  admin.stop();
}

TEST(AdminHttp, UnixSocketEndpointServes) {
  metrics::Registry reg;
  reg.counter("spool_files_served_total").inc(2);
  const std::string path =
      ::testing::TempDir() + "/admin-" + std::to_string(::getpid()) + ".sock";
  AdminOptions opts;
  opts.endpoint = path;
  opts.registry = &reg;
  AdminServer admin(std::move(opts));
  admin.start();
  const std::string resp = http_get(admin.endpoint(), "/metrics");
  EXPECT_EQ(status_line(resp), "HTTP/1.0 200 OK");
  EXPECT_NE(body_of(resp).find("distapx_spool_files_served_total 2"),
            std::string::npos);
  admin.stop();
}

}  // namespace
}  // namespace distapx::net
