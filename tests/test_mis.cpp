#include <gtest/gtest.h>

#include "graph/algos.hpp"
#include "graph/generators.hpp"
#include "mis/ghaffari_nmis.hpp"
#include "mis/greedy.hpp"
#include "mis/luby.hpp"
#include "mis/nmis_agg.hpp"
#include "support/bits.hpp"
#include "test_helpers.hpp"

namespace distapx {
namespace {

class LubyFamilies : public ::testing::TestWithParam<int> {};

TEST_P(LubyFamilies, ProducesMaximalIndependentSet) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const auto& fc : test::small_families(seed)) {
    const auto res = run_luby_mis(fc.graph, test::run_opts(seed));
    EXPECT_TRUE(is_maximal_independent_set(fc.graph, res.independent_set))
        << fc.name;
    EXPECT_TRUE(res.undecided.empty()) << fc.name;
  }
  for (const auto& fc : test::medium_families(seed)) {
    const auto res = run_luby_mis(fc.graph, test::run_opts(seed));
    EXPECT_TRUE(is_maximal_independent_set(fc.graph, res.independent_set))
        << fc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LubyFamilies, ::testing::Range(1, 6));

TEST(Luby, RoundsScaleLogarithmically) {
  // O(log n) w.h.p.: on G(n, 8/n) graphs, rounds should stay within a
  // small multiple of log2(n).
  for (NodeId n : {128u, 512u, 2048u}) {
    Rng rng(n);
    const Graph g = gen::gnp(n, 8.0 / n, rng);
    const auto res = run_luby_mis(g, test::run_opts(7));
    EXPECT_LE(res.metrics.rounds, 12 * ceil_log2(n)) << n;
  }
}

TEST(Luby, DeterministicForSeed) {
  Rng rng(3);
  const Graph g = gen::gnp(60, 0.1, rng);
  const auto a = run_luby_mis(g, test::run_opts(11));
  const auto b = run_luby_mis(g, test::run_opts(11));
  EXPECT_EQ(a.independent_set, b.independent_set);
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds);
}

TEST(Luby, IsolatedNodesJoin) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  const Graph g = b.build();
  const auto res = run_luby_mis(g, test::run_opts());
  // Nodes 2 and 3 are isolated: always in the MIS.
  EXPECT_TRUE(std::count(res.independent_set.begin(),
                         res.independent_set.end(), 2));
  EXPECT_TRUE(std::count(res.independent_set.begin(),
                         res.independent_set.end(), 3));
}

TEST(Luby, RespectsCongestCap) {
  Rng rng(4);
  const Graph g = gen::gnp(100, 0.1, rng);
  sim::Network net(g);
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::congest(8);
  const auto res = net.run(make_luby_program(g), opts);
  EXPECT_TRUE(res.metrics.completed);
  EXPECT_LE(res.metrics.max_edge_bits, res.metrics.bandwidth_cap);
}

TEST(NmisBudget, MatchesTheoremFormula) {
  NmisParams p;
  p.K = 2;
  p.delta = 1.0 / 64.0;
  p.beta = 1.5;
  const auto t = nmis_iteration_budget(64, p);
  // beta * (log2(64)/log2(2) + 4*ln(64)) + 1 = 1.5*(6+16.6)+1 ~ 35
  EXPECT_GE(t, 30u);
  EXPECT_LE(t, 40u);
  p.iterations = 123;
  EXPECT_EQ(nmis_iteration_budget(64, p), 123u);
}

class NmisFamilies : public ::testing::TestWithParam<int> {};

TEST_P(NmisFamilies, IndependenceAndCoverage) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const auto& fc : test::medium_families(seed)) {
    const auto res = run_nmis(fc.graph, test::run_opts(seed));
    EXPECT_TRUE(is_independent_set(fc.graph, res.independent_set))
        << fc.name;
    // Near-maximality: every node not undecided is in the IS or covered.
    std::vector<bool> in_is(fc.graph.num_nodes(), false);
    for (NodeId v : res.independent_set) in_is[v] = true;
    std::vector<bool> undecided(fc.graph.num_nodes(), false);
    for (NodeId v : res.undecided) undecided[v] = true;
    for (NodeId v = 0; v < fc.graph.num_nodes(); ++v) {
      if (in_is[v] || undecided[v]) continue;
      bool covered = false;
      for (const HalfEdge& he : fc.graph.neighbors(v)) {
        covered = covered || in_is[he.to];
      }
      EXPECT_TRUE(covered) << fc.name << " node " << v;
    }
    // Undecided nodes must not be adjacent to the IS (they could have
    // joined otherwise) and should be a small fraction (Thm 3.1).
    for (NodeId v : res.undecided) {
      for (const HalfEdge& he : fc.graph.neighbors(v)) {
        EXPECT_FALSE(in_is[he.to]) << fc.name;
      }
    }
    EXPECT_LE(res.undecided.size(),
              std::max<std::size_t>(4, fc.graph.num_nodes() / 10))
        << fc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NmisFamilies, ::testing::Range(1, 5));

TEST(Nmis, ThenLubyIsMaximal) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const Graph g = gen::gnp(150, 0.05, rng);
    const auto res = run_nmis_then_luby(g, test::run_opts(seed));
    EXPECT_TRUE(is_maximal_independent_set(g, res.independent_set));
    EXPECT_TRUE(res.undecided.empty());
  }
}

TEST(Nmis, LargerKTradesRounds) {
  // Theorem 3.1: rounds ~ log Δ / log K + K² log 1/δ. When the K² log 1/δ
  // term is negligible (δ close to 1), doubling K halves the budget; when
  // δ is tiny, small K wins. Both directions of the tradeoff:
  NmisParams p2{.K = 2, .delta = 0.9, .beta = 1.0, .iterations = 0};
  NmisParams p4{.K = 4, .delta = 0.9, .beta = 1.0, .iterations = 0};
  EXPECT_LT(nmis_iteration_budget(1u << 20, p4),
            nmis_iteration_budget(1u << 20, p2));
  p2.delta = p4.delta = 1e-6;
  EXPECT_LT(nmis_iteration_budget(1u << 20, p2),
            nmis_iteration_budget(1u << 20, p4));
}

TEST(GreedyMis, MaximalOnFamilies) {
  for (const auto& fc : test::small_families(2)) {
    EXPECT_TRUE(
        is_maximal_independent_set(fc.graph, greedy_mis(fc.graph)))
        << fc.name;
  }
  Rng rng(3);
  const Graph g = gen::gnp(80, 0.08, rng);
  EXPECT_TRUE(is_maximal_independent_set(g, greedy_mis_random(g, rng)));
}

TEST(GreedyMis, RespectsOrder) {
  const Graph p = gen::path(4);
  const auto mis = greedy_mis(p, {1, 3, 0, 2});
  EXPECT_EQ(mis, (std::vector<NodeId>{1, 3}));
}

TEST(NmisAgg, MatchesMessagePassingGuarantees) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const Graph g = gen::gnp(120, 0.06, rng);
    const auto res = run_nmis_agg_on_nodes(g, test::run_opts(seed));
    EXPECT_TRUE(is_independent_set(g, res.independent_set));
    std::vector<bool> in_is(g.num_nodes(), false);
    for (NodeId v : res.independent_set) in_is[v] = true;
    for (NodeId v : res.undecided) {
      for (const HalfEdge& he : g.neighbors(v)) {
        EXPECT_FALSE(in_is[he.to]);
      }
    }
    EXPECT_LE(res.undecided.size(), g.num_nodes() / 10u);
  }
}

TEST(NearlyMaximalMatching, ValidAndNearMaximal) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const Graph g = gen::gnp(80, 0.08, rng);
    const auto res = run_nearly_maximal_matching(g, test::run_opts(seed));
    EXPECT_TRUE(is_matching(g, res.matching));
    // Every edge not undecided is matched or touches a matched node.
    std::vector<bool> used(g.num_nodes(), false);
    for (EdgeId e : res.matching) {
      const auto [u, v] = g.endpoints(e);
      used[u] = used[v] = true;
    }
    std::vector<bool> undecided(g.num_edges(), false);
    for (EdgeId e : res.undecided) undecided[e] = true;
    std::size_t uncovered = 0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto [u, v] = g.endpoints(e);
      if (!used[u] && !used[v]) {
        ++uncovered;
        EXPECT_TRUE(undecided[e]) << "edge " << e;
      }
    }
    EXPECT_LE(uncovered, std::max<std::size_t>(3, g.num_edges() / 10));
  }
}

TEST(NearlyMaximalMatching, CongestionIndependentOfDegree) {
  // The headline Theorem 2.8/3.2 systems claim: running NMIS on the line
  // graph of a high-degree star stays within the CONGEST cap.
  const Graph g = gen::star(128);
  const auto res = run_nearly_maximal_matching(g, test::run_opts(5));
  EXPECT_LE(res.metrics.max_edge_bits, res.metrics.bandwidth_cap);
  EXPECT_TRUE(is_matching(g, res.matching));
  // A star's matching has exactly one edge; near-maximality should find it
  // (any undecided edge would be uncovered otherwise).
  EXPECT_LE(res.matching.size(), 1u);
}

TEST(Nmis, RoundsGrowSlowlyWithDegree) {
  // O(log Δ)-type growth: quadrupling Δ should far less than quadruple
  // the rounds.
  std::uint32_t rounds_small = 0, rounds_large = 0;
  {
    Rng rng(9);
    const Graph g = gen::random_regular(256, 4, rng);
    rounds_small = run_nmis(g, test::run_opts(3)).metrics.rounds;
  }
  {
    Rng rng(10);
    const Graph g = gen::random_regular(256, 16, rng);
    rounds_large = run_nmis(g, test::run_opts(3)).metrics.rounds;
  }
  EXPECT_LT(rounds_large, rounds_small * 3);
}


TEST(Nmis, Theorem31CoverageGuaranteeStatistically) {
  // Thm 3.1: after the budgeted iterations, each node fails to be covered
  // with probability at most δ. Aggregating over many seeded runs, the
  // uncovered fraction must stay below δ with comfortable margin.
  NmisParams params;
  params.delta = 1.0 / 16.0;
  std::size_t uncovered = 0, total = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(hash_combine(seed, 0x31));
    const Graph g = gen::random_regular(256, 8, rng);
    const auto res = run_nmis(g, test::run_opts(seed), params);
    uncovered += res.undecided.size();
    total += g.num_nodes();
  }
  EXPECT_LT(static_cast<double>(uncovered) / static_cast<double>(total),
            params.delta);
}

TEST(Nmis, AdversarialLocality) {
  // Thm 3.1's "even if coin tosses outside N²(v) are adversarial": as a
  // proxy, a node's coverage must not depend on far-away topology. Two
  // graphs sharing a node's 3-neighborhood (disjoint unions) give the
  // same local decision for the same seeds.
  Rng rng(5);
  const Graph core = gen::cycle(8);
  // core plus a far-away clique; node ids of the core are unchanged.
  GraphBuilder b(16);
  for (EdgeId e = 0; e < core.num_edges(); ++e) {
    const auto [u, v] = core.endpoints(e);
    b.add_edge(u, v);
  }
  for (NodeId u = 8; u < 16; ++u)
    for (NodeId v = u + 1; v < 16; ++v) b.add_edge(u, v);
  const Graph with_far = b.build();
  const auto a = run_nmis(core, test::run_opts(7));
  const auto c = run_nmis(with_far, test::run_opts(7));
  // Same per-node RNG streams + same neighborhoods => identical outcomes
  // for the core nodes.
  std::vector<bool> in_a(8, false), in_c(8, false);
  for (NodeId v : a.independent_set) in_a[v] = true;
  for (NodeId v : c.independent_set)
    if (v < 8) in_c[v] = true;
  EXPECT_EQ(in_a, in_c);
}

}  // namespace
}  // namespace distapx
