// Tests for the library extensions: structured generator families with
// known optima, matching completion, vertex-cover extraction, and
// simulator hardening (adversarial/degenerate usage).
#include <gtest/gtest.h>

#include <memory>

#include "graph/algos.hpp"
#include "graph/generators.hpp"
#include "matching/blossom.hpp"
#include "matching/matching.hpp"
#include "matching/nmm_2eps.hpp"
#include "maxis/exact.hpp"
#include "mis/luby.hpp"
#include "sim/network.hpp"
#include "support/assert.hpp"
#include "test_helpers.hpp"

namespace distapx {
namespace {

// ---- structured generators with known optima --------------------------------

TEST(Barbell, StructureAndMaxIs) {
  const Graph g = gen::barbell(5, 3);  // 2 K5s + 3 bridge nodes
  EXPECT_EQ(g.num_nodes(), 13u);
  EXPECT_EQ(g.num_edges(), 2u * 10 + 4);
  // MaxIS: one node per clique + every other bridge node.
  const auto res = exact_maxis(g, NodeWeights(g.num_nodes(), 1));
  EXPECT_EQ(res.independent_set.size(), 4u);
  EXPECT_TRUE(is_independent_set(g, res.independent_set));
}

TEST(CompleteMultipartite, MaxIsIsLargestPart) {
  const Graph g = gen::complete_multipartite({3, 5, 2});
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_EQ(g.num_edges(), 3u * 5 + 3 * 2 + 5 * 2);
  const auto res = exact_maxis(g, NodeWeights(10, 1));
  EXPECT_EQ(res.independent_set.size(), 5u);
  // Distributed algorithms keep the Δ bound on it too.
  const auto mis = run_luby_mis(g, test::run_opts(3));
  EXPECT_TRUE(is_maximal_independent_set(g, mis.independent_set));
}

TEST(BalancedBinaryTree, StructureAndMatching) {
  const Graph g = gen::balanced_binary_tree(4);  // 15 nodes
  EXPECT_EQ(g.num_nodes(), 15u);
  EXPECT_EQ(g.num_edges(), 14u);
  EXPECT_EQ(g.max_degree(), 3u);
  // König on the 15-node balanced tree: MaxIS = 8 leaves + 2 level-1
  // nodes = 10, so MCM = 15 - 10 = 5.
  EXPECT_EQ(blossom_mcm(g).matching.size(), 5u);
  EXPECT_EQ(exact_maxis(g, NodeWeights(15, 1)).independent_set.size(), 10u);
}

TEST(Lollipop, Structure) {
  const Graph g = gen::lollipop(4, 3);
  EXPECT_EQ(g.num_nodes(), 7u);
  EXPECT_EQ(g.num_edges(), 6u + 3);
  // MaxIS: 1 from the clique (the far end of the tail path alternates).
  const auto res = exact_maxis(g, NodeWeights(7, 1));
  EXPECT_EQ(res.independent_set.size(), 3u);
}

// ---- matching completion ----------------------------------------------------

TEST(CompleteMatching, UpgradesNearlyMaximal) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const Graph g = gen::gnp(120, 0.05, rng);
    const auto nmm = run_nmm_2eps_matching(g, test::run_opts(seed));
    const auto completed = complete_matching_greedily(g, nmm.matching);
    EXPECT_TRUE(is_maximal_matching(g, completed)) << "seed " << seed;
    EXPECT_GE(completed.size(), nmm.matching.size());
    // Maximal ⇒ clean 2-approximation floor.
    const auto opt = blossom_mcm(g).matching.size();
    EXPECT_GE(completed.size() * 2, opt);
  }
}

TEST(CompleteMatching, RejectsNonMatchingInput) {
  const Graph p = gen::path(4);
  EXPECT_THROW(complete_matching_greedily(p, {0, 1}), EnsureError);
}

TEST(CompleteMatching, NoOpOnMaximal) {
  const Graph p = gen::path(5);
  const auto m = complete_matching_greedily(p, {0, 2});
  EXPECT_EQ(m.size(), 2u);
}

// ---- vertex cover extraction -------------------------------------------------

TEST(VertexCover, ComplementOfMaximalIsCovers) {
  for (const auto& fc : test::small_families(5)) {
    const auto mis = run_luby_mis(fc.graph, test::run_opts(5));
    const auto cover = complement_nodes(fc.graph, mis.independent_set);
    EXPECT_TRUE(is_vertex_cover(fc.graph, cover)) << fc.name;
    EXPECT_EQ(cover.size() + mis.independent_set.size(),
              fc.graph.num_nodes());
  }
}

TEST(VertexCover, CheckerCatchesGaps) {
  const Graph p = gen::path(4);
  EXPECT_TRUE(is_vertex_cover(p, {1, 2}));
  EXPECT_FALSE(is_vertex_cover(p, {0, 3}));  // edge (1,2) uncovered
  EXPECT_FALSE(is_vertex_cover(p, {9}));
}

// ---- simulator hardening ------------------------------------------------------

TEST(SimHardening, SendOnInvalidPortThrows) {
  class BadSender final : public sim::NodeProgram {
    void round(sim::Ctx& ctx) override {
      ctx.send(ctx.degree(), sim::Message(1));  // out of range
    }
  };
  const Graph g = gen::path(2);
  sim::Network net(g);
  sim::RunOptions opts;
  EXPECT_THROW(
      net.run([](NodeId) { return std::make_unique<BadSender>(); }, opts),
      EnsureError);
}

TEST(SimHardening, ZeroNodeNetwork) {
  const Graph g = GraphBuilder(0).build();
  sim::Network net(g);
  sim::RunOptions opts;
  const auto res = net.run(
      [](NodeId) -> std::unique_ptr<sim::NodeProgram> {
        ADD_FAILURE() << "factory must not be called";
        return nullptr;
      },
      opts);
  EXPECT_TRUE(res.metrics.completed);
  EXPECT_EQ(res.metrics.rounds, 0u);
}

TEST(SimHardening, AllHaltAtInit) {
  class InstaHalt final : public sim::NodeProgram {
    void init(sim::Ctx& ctx) override { ctx.halt(42); }
    void round(sim::Ctx&) override { FAIL() << "round after halt"; }
  };
  const Graph g = gen::cycle(5);
  sim::Network net(g);
  sim::RunOptions opts;
  const auto res = net.run(
      [](NodeId) { return std::make_unique<InstaHalt>(); }, opts);
  EXPECT_TRUE(res.metrics.completed);
  EXPECT_EQ(res.metrics.rounds, 0u);
  for (auto o : res.outputs) EXPECT_EQ(o, 42);
}

TEST(SimHardening, SendAfterHaltStillDelivered) {
  // halt() takes effect at the end of the callback; the farewell message
  // sent in the same callback must be delivered.
  class Farewell final : public sim::NodeProgram {
   public:
    void init(sim::Ctx& ctx) override {
      if (ctx.id() == 0) {
        ctx.broadcast(sim::Message(7));
        ctx.halt(0);
      }
    }
    void round(sim::Ctx& ctx) override {
      ASSERT_EQ(ctx.inbox().size(), 1u);
      EXPECT_EQ(ctx.inbox()[0].msg.type(), 7u);
      ctx.halt(1);
    }
  };
  const Graph g = gen::path(2);
  sim::Network net(g);
  sim::RunOptions opts;
  const auto res = net.run(
      [](NodeId) { return std::make_unique<Farewell>(); }, opts);
  EXPECT_TRUE(res.metrics.completed);
}

TEST(SimHardening, MetricsAccumulateHelper) {
  sim::RunMetrics a;
  a.completed = true;
  a.rounds = 5;
  a.max_edge_bits = 10;
  sim::RunMetrics b;
  b.completed = true;
  b.rounds = 7;
  b.max_edge_bits = 30;
  b.messages = 4;
  sim::accumulate(a, b);
  EXPECT_EQ(a.rounds, 12u);
  EXPECT_EQ(a.max_edge_bits, 30u);
  EXPECT_EQ(a.messages, 4u);
  EXPECT_TRUE(a.completed);
}

}  // namespace
}  // namespace distapx
