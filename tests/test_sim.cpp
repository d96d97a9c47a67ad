#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <type_traits>
#include <vector>

#include "graph/generators.hpp"
#include "graph/line_graph.hpp"
#include "sim/aggregation.hpp"
#include "sim/message.hpp"
#include "sim/network.hpp"
#include "support/assert.hpp"

namespace distapx {
namespace {

TEST(Message, BitAccounting) {
  sim::Message m(3);
  m.push(5, 4).push(1, 1);
  EXPECT_EQ(m.type(), 3u);
  EXPECT_EQ(m.num_fields(), 2u);
  EXPECT_EQ(m.field(0), 5u);
  EXPECT_EQ(m.field(1), 1u);
  EXPECT_EQ(m.total_bits(), sim::Message::kTypeBits + 5);
}

TEST(Message, RejectsOverflowingField) {
  sim::Message m(0);
  EXPECT_THROW(m.push(16, 4), EnsureError);
  EXPECT_THROW(m.push(1, 0), EnsureError);
  m.push(~std::uint64_t{0}, 64);  // full width is fine
}

TEST(Message, RealFields) {
  sim::Message m(1);
  m.push_real(0.375, 32);
  EXPECT_DOUBLE_EQ(m.field_real(0), 0.375);
  EXPECT_EQ(m.total_bits(), sim::Message::kTypeBits + 32);
}

TEST(BandwidthPolicy, Caps) {
  EXPECT_EQ(sim::BandwidthPolicy::local().cap_bits(1000), 0u);
  EXPECT_EQ(sim::BandwidthPolicy::congest(8).cap_bits(1024), 80u);
  EXPECT_EQ(sim::BandwidthPolicy::congest(8).cap_bits(1025), 88u);
}

/// Flood: node 0 starts a wave; every node halts with the round it first
/// heard the wave, i.e. its BFS distance.
class FloodProgram final : public sim::NodeProgram {
 public:
  void init(sim::Ctx& ctx) override {
    if (ctx.id() == 0) {
      ctx.broadcast(sim::Message(1));
      ctx.halt(0);
    }
  }
  void round(sim::Ctx& ctx) override {
    if (!ctx.inbox().empty()) {
      ctx.broadcast(sim::Message(1));
      ctx.halt(ctx.round());
    }
  }
};

TEST(Network, FloodComputesBfsDepth) {
  const Graph g = gen::path(6);
  sim::Network net(g);
  sim::RunOptions opts;
  const auto res = net.run(
      [](NodeId) { return std::make_unique<FloodProgram>(); }, opts);
  EXPECT_TRUE(res.metrics.completed);
  for (NodeId v = 0; v < 6; ++v) {
    EXPECT_EQ(res.outputs[v], static_cast<std::int64_t>(v));
  }
  EXPECT_EQ(res.metrics.rounds, 5u);
}

TEST(Network, RoundCapStopsRun) {
  // A program that never halts.
  class Stubborn final : public sim::NodeProgram {
    void round(sim::Ctx&) override {}
  };
  const Graph g = gen::path(3);
  sim::Network net(g);
  sim::RunOptions opts;
  opts.max_rounds = 10;
  const auto res = net.run(
      [](NodeId) { return std::make_unique<Stubborn>(); }, opts);
  EXPECT_FALSE(res.metrics.completed);
  EXPECT_EQ(res.metrics.rounds, 10u);
}

TEST(Network, DeterministicAcrossRuns) {
  // Nodes output a few random bits; same seed must reproduce exactly.
  class RandOut final : public sim::NodeProgram {
    void round(sim::Ctx& ctx) override {
      ctx.halt(static_cast<std::int64_t>(ctx.rng().next() & 0xffff));
    }
  };
  const Graph g = gen::cycle(8);
  sim::RunOptions opts;
  opts.seed = 77;
  sim::Network net(g);
  const auto r1 = net.run(
      [](NodeId) { return std::make_unique<RandOut>(); }, opts);
  const auto r2 = net.run(
      [](NodeId) { return std::make_unique<RandOut>(); }, opts);
  EXPECT_EQ(r1.outputs, r2.outputs);
  opts.seed = 78;
  const auto r3 = net.run(
      [](NodeId) { return std::make_unique<RandOut>(); }, opts);
  EXPECT_NE(r1.outputs, r3.outputs);
}

TEST(Network, BandwidthEnforcement) {
  // A program that sends way more than O(log n) bits on one edge.
  class Chatty final : public sim::NodeProgram {
    void round(sim::Ctx& ctx) override {
      sim::Message m(1);
      for (int i = 0; i < 64; ++i) m.push(0, 64);
      if (ctx.degree() > 0) ctx.send(0, m);
      ctx.halt(0);
    }
  };
  const Graph g = gen::path(4);
  sim::Network net(g);
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::congest(8, true);
  EXPECT_THROW(net.run([](NodeId) { return std::make_unique<Chatty>(); },
                       opts),
               EnsureError);
  // Unenforced: records the violation instead.
  opts.policy = sim::BandwidthPolicy::congest(8, false);
  const auto res = net.run(
      [](NodeId) { return std::make_unique<Chatty>(); }, opts);
  EXPECT_GT(res.metrics.max_edge_bits, res.metrics.bandwidth_cap);
}

/// Sends exactly `bits` declared bits on port 0 in round 1, then halts.
class FixedSender final : public sim::NodeProgram {
 public:
  explicit FixedSender(int bits) : bits_(bits) {}
  void round(sim::Ctx& ctx) override {
    if (ctx.degree() > 0) {
      sim::Message m(1);
      int remaining = bits_ - sim::Message::kTypeBits;
      while (remaining > 0) {
        const int field = std::min(remaining, 64);
        m.push(0, field);
        remaining -= field;
      }
      ctx.send(0, m);
    }
    ctx.halt(0);
  }

 private:
  int bits_;
};

TEST(BandwidthEnforcement, OverSendThrowsWhenEnforcing) {
  const Graph g = gen::path(3);
  sim::Network net(g);
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::congest(8, /*enforce=*/true);
  const std::uint32_t cap = opts.policy.cap_bits(g.num_nodes());
  // One bit over the cap is already a violation.
  EXPECT_THROW(net.run(
                   [&](NodeId) {
                     return std::make_unique<FixedSender>(
                         static_cast<int>(cap) + 1);
                   },
                   opts),
               EnsureError);
}

TEST(BandwidthEnforcement, ExactlyAtCapIsLegal) {
  const Graph g = gen::path(3);
  sim::Network net(g);
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::congest(8, /*enforce=*/true);
  const std::uint32_t cap = opts.policy.cap_bits(g.num_nodes());
  const auto res = net.run(
      [&](NodeId) {
        return std::make_unique<FixedSender>(static_cast<int>(cap));
      },
      opts);
  EXPECT_TRUE(res.metrics.completed);
  EXPECT_EQ(res.metrics.max_edge_bits, cap);
  EXPECT_EQ(res.metrics.bandwidth_cap, cap);
}

TEST(BandwidthEnforcement, UnenforcedOnlyRecordsTheViolation) {
  const Graph g = gen::path(3);
  sim::Network net(g);
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::congest(8, /*enforce=*/false);
  const std::uint32_t cap = opts.policy.cap_bits(g.num_nodes());
  const int sent = static_cast<int>(cap) * 3;
  const auto res = net.run(
      [&](NodeId) { return std::make_unique<FixedSender>(sent); }, opts);
  EXPECT_TRUE(res.metrics.completed);
  // The violation is visible in the metrics, precisely.
  EXPECT_EQ(res.metrics.max_edge_bits, static_cast<std::uint32_t>(sent));
  EXPECT_EQ(res.metrics.bandwidth_cap, cap);
  EXPECT_GT(res.metrics.max_edge_bits, res.metrics.bandwidth_cap);
}

TEST(BandwidthEnforcement, LocalPolicyNeverTrips) {
  const Graph g = gen::path(3);
  sim::Network net(g);
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::local();
  const auto res = net.run(
      [&](NodeId) { return std::make_unique<FixedSender>(100000); }, opts);
  EXPECT_TRUE(res.metrics.completed);
  EXPECT_EQ(res.metrics.bandwidth_cap, 0u);
  EXPECT_EQ(res.metrics.max_edge_bits, 100000u);
}

TEST(BandwidthEnforcement, NetworkIsReusableAfterViolation) {
  // An enforcing run that throws must not poison the instance: the next
  // run on the same Network starts from clean transport state.
  const Graph g = gen::path(3);
  sim::Network net(g);
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::congest(8, /*enforce=*/true);
  const std::uint32_t cap = opts.policy.cap_bits(g.num_nodes());
  EXPECT_THROW(net.run(
                   [&](NodeId) {
                     return std::make_unique<FixedSender>(
                         static_cast<int>(cap) * 2);
                   },
                   opts),
               EnsureError);
  const auto res = net.run(
      [&](NodeId) {
        return std::make_unique<FixedSender>(static_cast<int>(cap));
      },
      opts);
  EXPECT_TRUE(res.metrics.completed);
  EXPECT_EQ(res.metrics.max_edge_bits, cap);
}

TEST(Network, MessagesToHaltedNodesAreDropped) {
  // Node 0 halts immediately; node 1 keeps sending to it; run ends when
  // node 1 halts too. No crash, no delivery to a halted node.
  class Quick final : public sim::NodeProgram {
   public:
    void init(sim::Ctx& ctx) override {
      if (ctx.id() == 0) ctx.halt(0);
    }
    void round(sim::Ctx& ctx) override {
      EXPECT_NE(ctx.id(), 0u);
      ctx.broadcast(sim::Message(1));
      if (ctx.round() == 3) ctx.halt(1);
    }
  };
  const Graph g = gen::path(2);
  sim::Network net(g);
  sim::RunOptions opts;
  const auto res = net.run(
      [](NodeId) { return std::make_unique<Quick>(); }, opts);
  EXPECT_TRUE(res.metrics.completed);
}

TEST(Network, PortsAndNeighborsConsistent) {
  class PortCheck final : public sim::NodeProgram {
    void round(sim::Ctx& ctx) override {
      for (std::uint32_t p = 0; p < ctx.degree(); ++p) {
        const NodeId nbr = ctx.neighbor(p);
        EXPECT_EQ(ctx.port_of(nbr), p);
        EXPECT_NE(ctx.edge_of(p), kInvalidEdge);
      }
      EXPECT_EQ(ctx.port_of(ctx.id()), UINT32_MAX);
      ctx.halt(0);
    }
  };
  Rng rng(5);
  const Graph g = gen::gnp(20, 0.3, rng);
  sim::Network net(g);
  sim::RunOptions opts;
  const auto res = net.run(
      [](NodeId) { return std::make_unique<PortCheck>(); }, opts);
  EXPECT_TRUE(res.metrics.completed);
}

// The wire record is copied once per message per round; keep it flat.
static_assert(std::is_trivially_copyable_v<sim::Delivery>);
static_assert(sizeof(sim::Delivery) <= 48);

/// Field i of the wide message node `v` sends in round `r`.
std::uint64_t wide_field(NodeId v, std::uint32_t r, std::size_t i) {
  return (std::uint64_t{v} << 16) ^ (std::uint64_t{r} << 8) ^ i;
}
double wide_real(NodeId v, std::uint32_t r, std::size_t i) {
  return v + 0.25 * r + 0.0625 * static_cast<double>(i);
}

/// Sends a 9-field message (mixed push / push_real) on every port from
/// init and rounds 1..2; checks every delivery field by field in rounds
/// 1..3, then halts.
class WideSender final : public sim::NodeProgram {
 public:
  static constexpr std::size_t kFields = 9;
  explicit WideSender(std::uint64_t* checked) : checked_(checked) {}

  void init(sim::Ctx& ctx) override { send_wide(ctx); }
  void round(sim::Ctx& ctx) override {
    EXPECT_EQ(ctx.inbox().size(), ctx.degree()) << "node " << ctx.id();
    for (const sim::Delivery& d : ctx.inbox()) {
      const NodeId from = ctx.neighbor(d.port);
      const std::uint32_t sent = ctx.round() - 1;
      EXPECT_EQ(d.msg.type(), sent + 1);
      ASSERT_EQ(d.msg.num_fields(), kFields);
      EXPECT_EQ(d.msg.total_bits(), sim::Message::kTypeBits + 6 * 32 + 3 * 64);
      for (std::size_t i = 0; i < kFields; ++i) {
        if (i % 3 == 2) {
          EXPECT_EQ(d.msg.field_real(i), wide_real(from, sent, i));
        } else {
          EXPECT_EQ(d.msg.field(i), wide_field(from, sent, i));
        }
      }
      ++*checked_;
    }
    if (ctx.round() < 3) {
      send_wide(ctx);
    } else {
      ctx.halt(0);
    }
  }

 private:
  static void send_wide(sim::Ctx& ctx) {
    sim::Message m(ctx.round() + 1);
    for (std::size_t i = 0; i < kFields; ++i) {
      if (i % 3 == 2) {
        m.push_real(wide_real(ctx.id(), ctx.round(), i), 64);
      } else {
        m.push(wide_field(ctx.id(), ctx.round(), i), 32);
      }
    }
    ctx.broadcast(m);
  }
  std::uint64_t* checked_;
};

TEST(Network, WideMessagesArriveFieldExact) {
  // The star's center gets one wide message from every leaf per round.
  const Graph g = gen::star(5);
  for (const auto& policy : {sim::BandwidthPolicy::local(),
                             sim::BandwidthPolicy::congest(8, false)}) {
    sim::Network net(g);
    sim::RunOptions opts;
    opts.policy = policy;
    std::uint64_t checked = 0;
    const auto res = net.run(
        [&](NodeId) { return std::make_unique<WideSender>(&checked); },
        opts);
    EXPECT_TRUE(res.metrics.completed);
    EXPECT_EQ(res.metrics.rounds, 3u);
    EXPECT_EQ(checked, 3u * 2 * g.num_edges());
    EXPECT_EQ(res.metrics.messages, checked);
  }
}

TEST(Network, ArrivalPortMatchesPortOf) {
  // Every node announces its id on each port; the receiver checks the
  // arrival port against its own port_of() view.
  class Announce final : public sim::NodeProgram {
   public:
    explicit Announce(std::uint64_t* checked) : checked_(checked) {}
    void init(sim::Ctx& ctx) override {
      for (std::uint32_t p = 0; p < ctx.degree(); ++p) {
        ctx.send(p, sim::Message(1).push(ctx.id(), 32));
      }
    }
    void round(sim::Ctx& ctx) override {
      EXPECT_EQ(ctx.inbox().size(), ctx.degree());
      for (const sim::Delivery& d : ctx.inbox()) {
        const auto from = static_cast<NodeId>(d.msg.field(0));
        EXPECT_EQ(d.port, ctx.port_of(from)) << "node " << ctx.id();
        EXPECT_EQ(ctx.neighbor(d.port), from);
        ++*checked_;
      }
      ctx.halt(0);
    }

   private:
    std::uint64_t* checked_;
  };
  Rng rng(11);
  const Graph big = gen::gnp(120, 0.08, rng);
  const Graph regular = gen::random_regular(60, 5, rng);
  const Graph tree = gen::random_tree(40, rng);
  sim::Network net;
  // Rebind down to smaller graphs and back up to the largest.
  for (const Graph* g : {&big, &regular, &tree, &regular, &big}) {
    net.rebind(*g);
    std::uint64_t checked = 0;
    const auto res = net.run(
        [&](NodeId) { return std::make_unique<Announce>(&checked); },
        sim::RunOptions{});
    EXPECT_TRUE(res.metrics.completed);
    EXPECT_EQ(checked, 2u * g->num_edges());
  }
}

TEST(Network, HaltingNodeStillDeliversItsLastRound) {
  // Node 0 sends and halts in round 1: its message reaches node 1 in
  // round 2. Node 1's round-1 message to the now-halted node 0 is dropped.
  class LastWords final : public sim::NodeProgram {
   public:
    void round(sim::Ctx& ctx) override {
      if (ctx.round() == 1) {
        ctx.broadcast(sim::Message(2).push(ctx.id() + 1, 8));
        if (ctx.id() == 0) ctx.halt(-1);
        return;
      }
      EXPECT_EQ(ctx.id(), 1u);
      ASSERT_EQ(ctx.inbox().size(), 1u);
      ctx.halt(static_cast<std::int64_t>(ctx.inbox()[0].msg.field(0)));
    }
  };
  const Graph g = gen::path(2);
  sim::Network net(g);
  sim::RunOptions opts;
  std::vector<NodeId> halted_per_round;
  opts.observer = [&](const sim::RoundSample& s) {
    halted_per_round.push_back(s.nodes_halted);
  };
  const auto res = net.run(
      [](NodeId) { return std::make_unique<LastWords>(); }, opts);
  EXPECT_TRUE(res.metrics.completed);
  EXPECT_EQ(res.outputs[0], -1);
  EXPECT_EQ(res.outputs[1], 1);  // node 0's id + 1
  EXPECT_EQ(res.metrics.messages, 1u);
  EXPECT_EQ(halted_per_round, (std::vector<NodeId>{0, 1, 2}));
}

// ---- aggregation engine ---------------------------------------------------

/// One-round program whose output is its first aggregate (sum of neighbor
/// ids) — used to validate the fold machinery in both agent topologies.
class SumIdsProgram final : public sim::AggProgram {
 public:
  std::vector<int> state_bits() const override { return {32}; }
  std::vector<sim::Aggregator> aggregators() const override {
    return {sim::agg_sum(
        [](std::span<const std::uint64_t> s) { return s[0]; }, 40)};
  }
  void init(sim::AggCtx& ctx) override { ctx.state()[0] = ctx.agent(); }
  void round(sim::AggCtx& ctx) override {
    ctx.halt(static_cast<std::int64_t>(ctx.aggregates()[0]));
  }
};

TEST(Aggregation, NodeModeSumsNeighborIds) {
  const Graph g = gen::cycle(5);
  SumIdsProgram prog;
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::local();
  const auto res = sim::run_on_nodes(g, prog, opts);
  EXPECT_TRUE(res.metrics.completed);
  for (NodeId v = 0; v < 5; ++v) {
    std::uint64_t expect = 0;
    for (const HalfEdge& he : g.neighbors(v)) expect += he.to;
    EXPECT_EQ(res.outputs[v], static_cast<std::int64_t>(expect));
  }
}

TEST(Aggregation, LineModeMatchesExplicitLineGraph) {
  Rng rng(6);
  const Graph g = gen::gnp(18, 0.25, rng);
  const LineGraph lg(g);

  SumIdsProgram prog;
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::local();
  const auto on_line = sim::run_on_line_graph(g, prog, opts);
  // Reference: fold neighbor ids on the explicit line graph.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    std::uint64_t expect = 0;
    for (const HalfEdge& he : lg.graph().neighbors(lg.line_node(e))) {
      expect += he.to;
    }
    EXPECT_EQ(on_line.outputs[e], static_cast<std::int64_t>(expect))
        << "line node " << e;
  }
}

TEST(Aggregation, LineModeDegrees) {
  Rng rng(7);
  const Graph g = gen::gnp(15, 0.3, rng);
  class DegreeOut final : public sim::AggProgram {
   public:
    std::vector<int> state_bits() const override { return {8}; }
    std::vector<sim::Aggregator> aggregators() const override {
      return {sim::agg_or(
          [](std::span<const std::uint64_t>) { return std::uint64_t{0}; })};
    }
    void init(sim::AggCtx& ctx) override { ctx.state()[0] = 0; }
    void round(sim::AggCtx& ctx) override { ctx.halt(ctx.degree()); }
  };
  DegreeOut prog;
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::local();
  const auto res = sim::run_on_line_graph(g, prog, opts);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    EXPECT_EQ(res.outputs[e], g.degree(u) + g.degree(v) - 2);
  }
}

TEST(Aggregation, MinMaxAndBooleanAggregators) {
  const Graph g = gen::star(5);  // center 0
  class MultiAgg final : public sim::AggProgram {
   public:
    std::vector<int> state_bits() const override { return {16}; }
    std::vector<sim::Aggregator> aggregators() const override {
      auto id = [](std::span<const std::uint64_t> s) { return s[0]; };
      return {sim::agg_min(id, 16), sim::agg_max(id, 16),
              sim::agg_and([](std::span<const std::uint64_t> s) {
                return static_cast<std::uint64_t>(s[0] > 0);
              }),
              sim::agg_or([](std::span<const std::uint64_t> s) {
                return static_cast<std::uint64_t>(s[0] == 3);
              })};
    }
    void init(sim::AggCtx& ctx) override {
      ctx.state()[0] = ctx.agent() + 1;  // 1..5
    }
    void round(sim::AggCtx& ctx) override {
      if (ctx.agent() != 0) {
        ctx.halt(0);
        return;
      }
      const auto a = ctx.aggregates();
      EXPECT_EQ(a[0], 2u);  // min neighbor value
      EXPECT_EQ(a[1], 5u);  // max
      EXPECT_EQ(a[2], 1u);  // all > 0
      EXPECT_EQ(a[3], 1u);  // some == 3
      ctx.halt(1);
    }
  };
  MultiAgg prog;
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::local();
  const auto res = sim::run_on_nodes(g, prog, opts);
  EXPECT_EQ(res.outputs[0], 1);
}

/// Saturating-add reference for the SUM fold.
std::uint64_t sat_add(std::uint64_t x, std::uint64_t y) {
  return x + y < x ? ~std::uint64_t{0} : x + y;
}

/// Naive reference fold of `values` under `f`.
std::uint64_t reference_fold(sim::Fold f,
                             const std::vector<std::uint64_t>& values) {
  std::uint64_t acc = sim::fold_identity(f);
  for (const std::uint64_t x : values) {
    switch (f) {
      case sim::Fold::kOr: acc = (acc != 0 || x != 0) ? 1 : 0; break;
      case sim::Fold::kAnd: acc = (acc != 0 && x != 0) ? 1 : 0; break;
      case sim::Fold::kSum: acc = sat_add(acc, x); break;
      case sim::Fold::kMax: acc = std::max(acc, x); break;
      case sim::Fold::kMin: acc = std::min(acc, x); break;
    }
  }
  return acc;
}

/// Publishes a random wide value (field 0) and a random 16-bit value
/// (field 1) and records the round-1 aggregates of every agent. SUM over
/// field 0 saturates on any agent with a few neighbors.
class AllFoldsProgram final : public sim::AggProgram {
 public:
  struct Spec {
    sim::Fold fold;
    std::size_t field;
    std::uint64_t mask;  // extract = state[field] & mask
  };
  static const std::vector<Spec>& specs() {
    static const std::vector<Spec> s = {
        {sim::Fold::kOr, 1, 3},          {sim::Fold::kAnd, 1, 7},
        {sim::Fold::kSum, 0, ~0ull},     {sim::Fold::kSum, 1, 0xffff},
        {sim::Fold::kMax, 0, ~0ull},     {sim::Fold::kMin, 1, 0xffff}};
    return s;
  }

  std::vector<int> state_bits() const override { return {64, 16}; }
  std::vector<sim::Aggregator> aggregators() const override {
    std::vector<sim::Aggregator> out;
    for (const Spec& sp : specs()) {
      auto ex = [sp](std::span<const std::uint64_t> st) {
        return st[sp.field] & sp.mask;
      };
      switch (sp.fold) {
        case sim::Fold::kOr: out.push_back(sim::agg_or(ex)); break;
        case sim::Fold::kAnd: out.push_back(sim::agg_and(ex)); break;
        case sim::Fold::kSum: out.push_back(sim::agg_sum(ex, 64)); break;
        case sim::Fold::kMax: out.push_back(sim::agg_max(ex, 64)); break;
        case sim::Fold::kMin: out.push_back(sim::agg_min(ex, 64)); break;
      }
      EXPECT_EQ(out.back().fold, sp.fold);
    }
    return out;
  }
  void init(sim::AggCtx& ctx) override {
    ctx.state()[0] = ctx.rng().next() | (std::uint64_t{1} << 63);
    ctx.state()[1] = ctx.rng().next() & 0xffff;
    states.resize(std::max<std::size_t>(states.size(), ctx.agent() + 1));
    states[ctx.agent()] = {ctx.state()[0], ctx.state()[1]};
  }
  void round(sim::AggCtx& ctx) override {
    aggregates.resize(std::max<std::size_t>(aggregates.size(),
                                            ctx.agent() + 1));
    const auto a = ctx.aggregates();
    aggregates[ctx.agent()].assign(a.begin(), a.end());
    ctx.halt(0);
  }

  /// Extracted value of agent `a` for aggregator `k`.
  std::uint64_t extracted(std::size_t a, std::size_t k) const {
    return states[a][specs()[k].field] & specs()[k].mask;
  }

  std::vector<std::array<std::uint64_t, 2>> states;
  std::vector<std::vector<std::uint64_t>> aggregates;
};

TEST(Aggregation, EveryFoldMatchesNaiveReference) {
  Rng rng(12);
  const Graph g = gen::gnp(40, 0.15, rng);
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::local();
  const auto& specs = AllFoldsProgram::specs();
  bool saturated = false;

  AllFoldsProgram nodes;
  ASSERT_TRUE(sim::run_on_nodes(g, nodes, opts).metrics.completed);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (std::size_t k = 0; k < specs.size(); ++k) {
      std::vector<std::uint64_t> values;
      for (const HalfEdge& he : g.neighbors(v)) {
        values.push_back(nodes.extracted(he.to, k));
      }
      const std::uint64_t expect = reference_fold(specs[k].fold, values);
      EXPECT_EQ(nodes.aggregates[v][k], expect) << "node " << v << " k " << k;
      if (specs[k].fold == sim::Fold::kSum && expect == ~0ull) {
        saturated = true;
      }
    }
  }

  AllFoldsProgram line;
  ASSERT_TRUE(sim::run_on_line_graph(g, line, opts).metrics.completed);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    for (std::size_t k = 0; k < specs.size(); ++k) {
      std::vector<std::uint64_t> values;
      for (const NodeId end : {u, v}) {
        for (const HalfEdge& he : g.neighbors(end)) {
          if (he.edge != e) values.push_back(line.extracted(he.edge, k));
        }
      }
      EXPECT_EQ(line.aggregates[e][k], reference_fold(specs[k].fold, values))
          << "edge " << e << " k " << k;
    }
  }
  EXPECT_TRUE(saturated);
}

TEST(Aggregation, StateWidthValidation) {
  const Graph g = gen::path(3);
  class TooWide final : public sim::AggProgram {
   public:
    std::vector<int> state_bits() const override { return {4}; }
    std::vector<sim::Aggregator> aggregators() const override {
      return {sim::agg_or(
          [](std::span<const std::uint64_t>) { return std::uint64_t{0}; })};
    }
    void init(sim::AggCtx& ctx) override { ctx.state()[0] = 999; }
    void round(sim::AggCtx& ctx) override { ctx.halt(0); }
  };
  TooWide prog;
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::local();
  EXPECT_THROW(sim::run_on_nodes(g, prog, opts), EnsureError);
}

TEST(Aggregation, NaiveCongestionFormula) {
  const Graph s = gen::star(9);  // center degree 8
  EXPECT_EQ(sim::naive_line_congestion_bits(s, 10), 70u);  // (8-1)*10
  const Graph p = gen::path(3);
  EXPECT_EQ(sim::naive_line_congestion_bits(p, 10), 10u);  // (2-1)*10
}

TEST(Aggregation, CongestionStaysBoundedOnLineGraph) {
  // The Theorem 2.8 claim: line-graph execution under aggregation keeps
  // per-edge bits independent of Δ.
  Rng rng(8);
  const Graph g = gen::star(60);  // Δ = 59, line graph is K_59
  SumIdsProgram prog;
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::congest(32);
  const auto res = sim::run_on_line_graph(g, prog, opts);
  EXPECT_LE(res.metrics.max_edge_bits, res.metrics.bandwidth_cap);
  EXPECT_GT(sim::naive_line_congestion_bits(g, 32),
            res.metrics.bandwidth_cap);
}


TEST(Aggregation, NaiveLineModeSameOutputsHigherCost) {
  // The naive transport runs the identical algorithm (same per-agent RNG
  // streams), so outputs match the Thm 2.8 execution exactly; only the
  // congestion accounting differs.
  Rng rng(9);
  const Graph g = gen::gnp(30, 0.2, rng);
  SumIdsProgram prog_a, prog_b;
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::local();
  const auto agg = sim::run_on_line_graph(g, prog_a, opts);
  const auto naive = sim::run_on_line_graph_naive(g, prog_b, opts);
  EXPECT_EQ(agg.outputs, naive.outputs);
  EXPECT_EQ(agg.super_rounds, naive.super_rounds);
  EXPECT_GT(naive.metrics.max_edge_bits, agg.metrics.max_edge_bits);
}

TEST(Aggregation, NaiveCostGrowsWithDegree) {
  SumIdsProgram prog_small, prog_big;
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::local();
  const auto small = sim::run_on_line_graph_naive(gen::star(9), prog_small,
                                                  opts);
  const auto big = sim::run_on_line_graph_naive(gen::star(65), prog_big,
                                                opts);
  EXPECT_GE(big.metrics.max_edge_bits, 7 * small.metrics.max_edge_bits);
}

}  // namespace
}  // namespace distapx
