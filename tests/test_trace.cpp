// Per-job tracing plane: collector span trees, last-N retention,
// slowest-K table semantics, whole-trace retention, rendering, and —
// under the TSan CI lane (TraceConcurrency) — the sink's locking:
// concurrent publishers and readers must never observe a torn trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "support/log.hpp"
#include "support/trace.hpp"

namespace distapx::trace {
namespace {

/// Builds a finished trace with `n` top-level spans named s1..sn.
Trace make_trace(std::uint64_t id, const std::string& endpoint,
                 std::uint32_t n) {
  Collector c(id, endpoint);
  for (std::uint32_t i = 1; i <= n; ++i) {
    const std::uint32_t s = c.begin("s" + std::to_string(i));
    c.annotate(s, "i", static_cast<std::uint64_t>(i));
    c.end(s);
  }
  return c.finish();
}

TEST(Trace, CollectorBuildsParentedSpansInOrder) {
  Collector c(7, "submit");
  const std::uint32_t recv = c.begin("recv");
  c.annotate(recv, "conn", std::uint64_t{3});
  c.end(recv);
  const std::uint32_t exec = c.begin("lane-execute");
  const std::uint32_t child = c.begin("cache-lookup", exec);
  c.annotate(child, "outcome", "hit");
  c.end(child);
  c.end(exec);
  const Trace t = c.finish();

  EXPECT_EQ(t.id, 7u);
  EXPECT_EQ(t.endpoint, "submit");
  ASSERT_EQ(t.spans.size(), 3u);
  EXPECT_EQ(t.spans[0].name, "recv");
  EXPECT_EQ(t.spans[0].parent, 0u);
  EXPECT_EQ(t.spans[0].notes, "conn=3");
  EXPECT_EQ(t.spans[1].name, "lane-execute");
  EXPECT_EQ(t.spans[2].name, "cache-lookup");
  EXPECT_EQ(t.spans[2].parent, exec);
  EXPECT_EQ(t.spans[2].notes, "outcome=hit");
  // Child ids are 1-based and ordered: parent id < child id.
  EXPECT_LT(t.spans[2].parent, t.spans[2].id);
  EXPECT_EQ(t.dropped_spans, 0u);
}

TEST(Trace, FinishClosesOpenSpans) {
  Collector c(1, "submit");
  const std::uint32_t s = c.begin("respond");
  const Trace fin = c.finish();
  ASSERT_EQ(fin.spans.size(), 1u);
  EXPECT_NE(fin.spans[0].end_ns, 0u) << "finish must close open spans";
  EXPECT_GE(fin.duration_ns, fin.spans[0].duration_ns());
  (void)s;
}

TEST(Trace, SpanCapCountsDroppedAndIdZeroIsNoOp) {
  Collector c(1, "submit");
  for (std::uint32_t i = 0; i < kMaxSpansPerTrace; ++i) {
    EXPECT_NE(c.begin("s"), 0u);
  }
  const std::uint32_t overflow = c.begin("overflow");
  EXPECT_EQ(overflow, 0u);
  // All operations on the no-op id must be harmless.
  c.annotate(overflow, "k", "v");
  c.end(overflow);
  const Trace t = c.finish();
  EXPECT_EQ(t.spans.size(), kMaxSpansPerTrace);
  EXPECT_EQ(t.dropped_spans, 1u);
}

TEST(Trace, ContextGuardRoutesScopedSpansAndAnnotations) {
  Collector c(9, "spool");
  const std::uint32_t root = c.begin("serve-file");
  {
    const ContextGuard guard(Context{&c, root});
    ScopedSpan span("cache-lookup");
    span.annotate("seed", std::uint64_t{5});
    annotate_current("outcome", "miss");
  }
  annotate_current("ignored", "no-context");  // no-op outside the guard
  c.end(root);
  const Trace t = c.finish();
  ASSERT_EQ(t.spans.size(), 2u);
  EXPECT_EQ(t.spans[1].name, "cache-lookup");
  EXPECT_EQ(t.spans[1].parent, root);
  EXPECT_EQ(t.spans[1].notes, "seed=5 outcome=miss");
}

TEST(Trace, RingRetainsLastNNewestFirst) {
  TraceSink sink;
  const std::uint64_t total = kRecentTraces + 6;
  for (std::uint64_t i = 1; i <= total; ++i) {
    sink.publish(make_trace(i, "submit", 1));
  }
  EXPECT_EQ(sink.published_total(), total);
  const std::vector<Trace> got = sink.recent();
  ASSERT_EQ(got.size(), kRecentTraces);
  // Newest first: ids total, total-1, ..., 7.
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, total - i);
  }
}

TEST(Trace, SlowestTableKeepsTheKSlowestPerEndpoint) {
  TraceSink sink;
  std::uint64_t next_id = 0;
  const auto publish_ms = [&](std::uint64_t ms) {
    Trace t = make_trace(++next_id, "submit", 1);
    t.duration_ns = ms * 1'000'000;
    sink.publish(std::move(t));
    return next_id;
  };
  // K+4 durations 10, 20, ..., (K+4)*10 ms, alternating from both ends
  // (10, (K+4)*10, 20, ...) so inserts land at the front, the back and in
  // between, and full-table rejects happen too.
  const std::uint64_t n = kSlowestPerEndpoint + 4;
  for (std::uint64_t lo = 1, hi = n; lo <= hi; ++lo, --hi) {
    publish_ms(lo * 10);
    if (lo != hi) publish_ms(hi * 10);
  }
  // A late trace tying the K-th slowest (50 ms) must not displace it.
  const std::uint64_t tie_id = publish_ms((n - kSlowestPerEndpoint + 1) * 10);
  Trace other = make_trace(999, "spool", 1);
  other.duration_ns = 1;
  sink.publish(std::move(other));

  const auto tables = sink.slowest();
  ASSERT_EQ(tables.size(), 2u);  // sorted by endpoint name
  EXPECT_EQ(tables[0].first, "spool");
  ASSERT_EQ(tables[0].second.size(), 1u);
  EXPECT_EQ(tables[0].second[0].id, 999u);
  EXPECT_EQ(tables[1].first, "submit");
  const std::vector<Trace>& slow = tables[1].second;
  ASSERT_EQ(slow.size(), kSlowestPerEndpoint);
  // Slowest first: (K+4)*10, ..., 50 ms; the tie lost to the earlier 50.
  for (std::size_t i = 0; i < slow.size(); ++i) {
    EXPECT_EQ(slow[i].duration_ns, (n - i) * 10 * 1'000'000) << "entry " << i;
    EXPECT_NE(slow[i].id, tie_id) << "a tie displaced an earlier trace";
  }
}

TEST(Trace, SinkRetainsAFullSizeTraceWhole) {
  // A trace at the Collector's span cap, every span annotated, comes back
  // from both views with nothing cut.
  Collector c(1, "submit");
  for (std::uint32_t i = 0; i < kMaxSpansPerTrace; ++i) {
    const std::uint32_t s = c.begin("cache-lookup");
    c.annotate(s, "seed", static_cast<std::uint64_t>(i));
    c.annotate(s, "outcome", "hit");
    c.end(s);
  }
  TraceSink sink;
  sink.publish(c.finish());
  const std::vector<Trace> rec = sink.recent();
  ASSERT_EQ(rec.size(), 1u);
  EXPECT_EQ(rec[0].spans.size(), kMaxSpansPerTrace);
  EXPECT_EQ(rec[0].dropped_spans, 0u);
  EXPECT_EQ(rec[0].spans.back().notes,
            "seed=" + std::to_string(kMaxSpansPerTrace - 1) + " outcome=hit");
  const auto tables = sink.slowest();
  ASSERT_EQ(tables.size(), 1u);
  ASSERT_EQ(tables[0].second.size(), 1u);
  EXPECT_EQ(tables[0].second[0].spans.size(), kMaxSpansPerTrace);
}

TEST(Trace, EachViewKeepsItsTracesWhenTheOtherDropsThem) {
  // Both views hold the same stored trace: a slow trace must outlive its
  // fall out of the recent window, and a trace pushed out of the slowest
  // table must stay in the recent window.
  TraceSink sink;
  Trace slow = make_trace(1, "submit", 3);
  slow.duration_ns = 1'000'000'000;
  sink.publish(std::move(slow));
  // kRecentTraces + K faster traces follow, each slower than the one
  // before, so each displaces the fastest fast trace from the table.
  std::uint64_t id = 1;
  for (std::size_t i = 0; i < kRecentTraces + kSlowestPerEndpoint; ++i) {
    Trace t = make_trace(++id, "submit", 1);
    t.duration_ns = 1'000 + id;  // later is slower, all below `slow`
    sink.publish(std::move(t));
  }

  const std::vector<Trace> rec = sink.recent();
  ASSERT_EQ(rec.size(), kRecentTraces);
  EXPECT_EQ(rec.front().id, id);
  EXPECT_EQ(rec.back().id, id - kRecentTraces + 1);
  for (const Trace& t : rec) EXPECT_NE(t.id, 1u) << "slow trace still recent";
  // The displaced fast traces that are still in the window read back whole.
  const Trace& oldest = rec.back();
  ASSERT_EQ(oldest.spans.size(), 1u);
  EXPECT_EQ(oldest.spans[0].notes, "i=1");

  const auto tables = sink.slowest();
  ASSERT_EQ(tables.size(), 1u);
  const std::vector<Trace>& table = tables[0].second;
  ASSERT_EQ(table.size(), kSlowestPerEndpoint);
  // `slow` left the recent window long ago but is still retained, whole.
  EXPECT_EQ(table[0].id, 1u);
  ASSERT_EQ(table[0].spans.size(), 3u);
  EXPECT_EQ(table[0].spans[2].name, "s3");
  EXPECT_EQ(table[0].spans[2].notes, "i=3");
  // The rest are the newest (slowest) fast traces, slowest first.
  for (std::size_t i = 1; i < table.size(); ++i) {
    EXPECT_EQ(table[i].id, id - (i - 1)) << "entry " << i;
  }
}

TEST(Trace, CompleteWarnsPastSlowMsThenPublishes) {
  std::vector<std::string> lines;
  logx::set_sink_for_testing(
      [&](const std::string& line) { lines.push_back(line); });
  TraceSink sink;
  Collector fast(1, "spool");
  fast.begin("serve-file");
  complete(fast, &sink, /*slow_ms=*/60'000);  // within budget: no line
  Collector slow(2, "submit");
  slow.begin("queue-wait");  // left open: complete() closes it
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  complete(slow, &sink, /*slow_ms=*/1);
  Collector unbudgeted(3, "submit");
  complete(unbudgeted, nullptr, /*slow_ms=*/0);  // neither logs nor keeps
  logx::set_sink_for_testing(nullptr);

  ASSERT_EQ(lines.size(), 1u);
  for (const char* field : {"event=slow_job", "trace=2", "endpoint=submit",
                            "duration_ms=", "queue-wait="}) {
    EXPECT_NE(lines[0].find(field), std::string::npos) << lines[0];
  }
  EXPECT_EQ(sink.published_total(), 2u);
  const std::vector<Trace> rec = sink.recent();
  ASSERT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec[0].id, 2u);
  ASSERT_EQ(rec[0].spans.size(), 1u);
  EXPECT_NE(rec[0].spans[0].end_ns, 0u);
  EXPECT_EQ(rec[1].id, 1u);
}

TEST(Trace, RenderTraceTreeShowsHierarchyAndNotes) {
  Collector c(42, "submit");
  const std::uint32_t exec = c.begin("lane-execute");
  const std::uint32_t child = c.begin("cache-lookup", exec);
  c.annotate(child, "outcome", "hit");
  c.end(child);
  c.end(exec);
  const std::string txt = render_trace_tree(c.finish());
  EXPECT_NE(txt.find("trace 42"), std::string::npos);
  EXPECT_NE(txt.find("endpoint=submit"), std::string::npos);
  EXPECT_NE(txt.find("lane-execute"), std::string::npos);
  EXPECT_NE(txt.find("cache-lookup"), std::string::npos);
  EXPECT_NE(txt.find("outcome=hit"), std::string::npos);
  // The child is indented deeper than its parent.
  EXPECT_LT(txt.find("lane-execute"), txt.find("cache-lookup"));
}

TEST(Trace, FlattenSpansEmitsTopLevelTokens) {
  Collector c(1, "submit");
  const std::uint32_t a = c.begin("queue-wait");
  c.end(a);
  const std::uint32_t b = c.begin("lane-execute");
  const std::uint32_t child = c.begin("compute", b);
  c.end(child);
  c.end(b);
  const std::string flat = flatten_spans(c.finish());
  EXPECT_NE(flat.find("queue-wait="), std::string::npos);
  EXPECT_NE(flat.find("lane-execute="), std::string::npos);
  EXPECT_EQ(flat.find("compute="), std::string::npos)
      << "children stay out of the flat breakdown: " << flat;
}

TEST(Trace, RenderTracezListsRecentAndSlowest) {
  TraceSink sink;
  sink.publish(make_trace(5, "submit", 2));
  const std::string page = render_tracez(sink);
  EXPECT_NE(page.find("tracez"), std::string::npos);
  EXPECT_NE(page.find("trace 5"), std::string::npos);
  EXPECT_NE(page.find("slowest"), std::string::npos);
}

TEST(Trace, KillSwitchFlipsAndRestores) {
  const bool was = enabled();
  set_enabled(false);
  EXPECT_FALSE(enabled());
  set_enabled(true);
  EXPECT_TRUE(enabled());
  set_enabled(was);
}

// ---- the sink contention suite (runs under TSan in CI) -------------------

TEST(TraceConcurrency, ConcurrentPublishersAndReaderSeeNoTornTraces) {
  TraceSink sink;  // 3200 publishes lap the kRecentTraces window 25 times

  constexpr int kWriters = 8;
  constexpr std::uint64_t kPerWriter = 400;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};

  // The reader hammers recent()/slowest() while writers publish. Every
  // trace it copies must be internally consistent: the id matches the
  // span payload published with it.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const Trace& t : sink.recent()) {
        ASSERT_EQ(t.endpoint, "submit");
        ASSERT_EQ(t.spans.size(), 2u);
        ASSERT_EQ(t.spans[0].notes, "id=" + std::to_string(t.id));
      }
      for (const auto& [endpoint, traces] : sink.slowest()) {
        ASSERT_EQ(endpoint, "submit");
        for (const Trace& t : traces) {
          ASSERT_EQ(t.spans.size(), 2u);
          ASSERT_EQ(t.spans[0].notes, "id=" + std::to_string(t.id));
        }
      }
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        const std::uint64_t id = static_cast<std::uint64_t>(w) * kPerWriter + i;
        Collector c(id, "submit");
        const std::uint32_t a = c.begin("recv");
        c.annotate(a, "id", id);
        c.end(a);
        const std::uint32_t b = c.begin("lane-execute");
        c.end(b);
        Trace t = c.finish();
        t.duration_ns = id;  // deterministic, distinct durations
        sink.publish(std::move(t));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(sink.published_total(), kWriters * kPerWriter);
  EXPECT_GT(reads.load(), 0u);

  // Quiescent invariants. Retention: exactly kRecentTraces traces
  // (strictly decreasing ids are not guaranteed across writers, but
  // distinctness is).
  const std::vector<Trace> rec = sink.recent();
  ASSERT_EQ(rec.size(), kRecentTraces);
  std::set<std::uint64_t> ids;
  for (const Trace& t : rec) ids.insert(t.id);
  EXPECT_EQ(ids.size(), rec.size()) << "duplicate trace in the ring";

  // Slowest-K: the table holds exactly the K largest durations published
  // (durations == ids here, so the global maxima are known).
  const auto tables = sink.slowest();
  ASSERT_EQ(tables.size(), 1u);
  const std::vector<Trace>& slow = tables[0].second;
  ASSERT_EQ(slow.size(), kSlowestPerEndpoint);
  const std::uint64_t total = kWriters * kPerWriter;
  for (std::size_t i = 0; i < slow.size(); ++i) {
    EXPECT_EQ(slow[i].id, total - 1 - i)
        << "entry " << i << " is not the " << i << "-th slowest";
  }
}

TEST(TraceConcurrency, SharedCollectorAcceptsConcurrentWorkers) {
  Collector c(1, "submit");
  const std::uint32_t root = c.begin("lane-execute");
  constexpr int kThreads = 8;
  constexpr int kSpansEach = 50;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      const ContextGuard guard(Context{&c, root});
      for (int i = 0; i < kSpansEach; ++i) {
        ScopedSpan span("compute");
        span.annotate("seed", static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& t : workers) t.join();
  c.end(root);
  const Trace t = c.finish();
  ASSERT_EQ(t.spans.size(), 1u + kThreads * kSpansEach);
  for (std::size_t i = 1; i < t.spans.size(); ++i) {
    EXPECT_EQ(t.spans[i].parent, root);
    EXPECT_EQ(t.spans[i].name, "compute");
  }
}

}  // namespace
}  // namespace distapx::trace
