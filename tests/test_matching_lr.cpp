// Theorem 2.9/2.10 tests: Algorithm 2 as a local aggregation program, and
// the congestion-free 2-approximate MWM on line graphs.
#include <gtest/gtest.h>

#include "graph/algos.hpp"
#include "graph/generators.hpp"
#include "matching/exact_mwm.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/lr_matching.hpp"
#include "sim/aggregation.hpp"
#include "test_helpers.hpp"

namespace distapx {
namespace {

NodeWeights node_weights_for(const Graph& g, std::uint64_t seed,
                             Weight max_w) {
  Rng rng(hash_combine(seed, 0x11));
  return gen::uniform_node_weights(g.num_nodes(), max_w, rng);
}

EdgeWeights edge_weights_for(const Graph& g, std::uint64_t seed,
                             Weight max_w) {
  Rng rng(hash_combine(seed, 0x22));
  return gen::uniform_edge_weights(g.num_edges(), max_w, rng);
}

class AggMaxIsSeeds : public ::testing::TestWithParam<int> {};

TEST_P(AggMaxIsSeeds, DeltaApproximationOnNodes) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const auto& fc : test::small_families(seed)) {
    if (fc.graph.num_nodes() > 20) continue;
    const auto w = node_weights_for(fc.graph, seed, 25);
    const auto res = run_layered_maxis_agg(fc.graph, w, test::run_opts(seed));
    EXPECT_TRUE(is_independent_set(fc.graph, res.independent_set))
        << fc.name;
    const Weight opt = test::brute_force_maxis_weight(fc.graph, w);
    const Weight got = set_weight(w, res.independent_set);
    const Weight delta = std::max<std::uint32_t>(fc.graph.max_degree(), 1);
    EXPECT_GE(got * delta, opt) << fc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggMaxIsSeeds, ::testing::Range(1, 5));

TEST(AggMaxIs, MediumFamilies) {
  for (const auto& fc : test::medium_families(3)) {
    const auto w = node_weights_for(fc.graph, 3, 100);
    const auto res = run_layered_maxis_agg(fc.graph, w, test::run_opts(3));
    EXPECT_TRUE(is_independent_set(fc.graph, res.independent_set))
        << fc.name;
    EXPECT_TRUE(res.metrics.completed) << fc.name;
  }
}

TEST(AggMaxIs, UnitWeightsGiveMaximalIs) {
  Rng rng(4);
  const Graph g = gen::gnp(100, 0.06, rng);
  const auto res =
      run_layered_maxis_agg(g, gen::unit_node_weights(g.num_nodes()),
                            test::run_opts(4));
  EXPECT_TRUE(is_maximal_independent_set(g, res.independent_set));
}

class LrMatchingSeeds : public ::testing::TestWithParam<int> {};

TEST_P(LrMatchingSeeds, TwoApproximationSmall) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const auto& fc : test::small_families(seed)) {
    if (fc.graph.num_nodes() > 20 || fc.graph.num_edges() == 0) continue;
    const auto w = edge_weights_for(fc.graph, seed, 25);
    const auto res = run_lr_matching(fc.graph, w, test::run_opts(seed));
    EXPECT_TRUE(is_matching(fc.graph, res.matching)) << fc.name;
    const Weight opt =
        matching_weight(w, exact_mwm_small(fc.graph, w).matching);
    const Weight got = matching_weight(w, res.matching);
    EXPECT_GE(got * 2, opt) << fc.name << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LrMatchingSeeds, ::testing::Range(1, 6));

TEST(LrMatching, BipartiteAtScale) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    const Graph g = gen::bipartite_gnp(40, 40, 0.08, rng);
    const auto w = edge_weights_for(g, seed, 100);
    const auto res = run_lr_matching(g, w, test::run_opts(seed));
    EXPECT_TRUE(is_matching(g, res.matching));
    const Weight opt =
        matching_weight(w, exact_mwm_bipartite(g, w).matching);
    EXPECT_GE(matching_weight(w, res.matching) * 2, opt)
        << "seed " << seed;
  }
}

TEST(LrMatching, UnweightedIsMaximalMatching) {
  // Unit weights: the IS on L(G) is an MIS of L(G) = a maximal matching,
  // hence a 2-approximation of MCM.
  Rng rng(5);
  const Graph g = gen::gnp(60, 0.08, rng);
  const auto res =
      run_lr_matching(g, gen::unit_edge_weights(g.num_edges()),
                      test::run_opts(5));
  EXPECT_TRUE(is_maximal_matching(g, res.matching));
}

TEST(LrMatching, CongestionBoundedOnHighDegreeGraphs) {
  // The whole point of Sec. 2.4: Θ(Δ)-degree graphs stay within the
  // CONGEST cap when executed through the aggregation mechanism.
  const Graph star = gen::star(200);
  const auto w = edge_weights_for(star, 6, 1000);
  const auto res = run_lr_matching(star, w, test::run_opts(6));
  EXPECT_TRUE(is_matching(star, res.matching));
  EXPECT_EQ(res.matching.size(), 1u);  // stars have a 1-edge maximum
  EXPECT_LE(res.metrics.max_edge_bits, res.metrics.bandwidth_cap);
  // The naive simulation would need Θ(Δ log n) bits per edge.
  EXPECT_GT(sim::naive_line_congestion_bits(star, 64),
            res.metrics.bandwidth_cap);
}

TEST(LrMatching, StarPicksHeaviestEdgeByWeightDominance) {
  // On a star, 2-approximation requires picking an edge with at least
  // half the best weight; local ratio actually picks the heaviest layer.
  const Graph star = gen::star(12);
  EdgeWeights w(star.num_edges(), 1);
  w[4] = 1000;
  const auto res = run_lr_matching(star, w, test::run_opts(7));
  ASSERT_EQ(res.matching.size(), 1u);
  EXPECT_GE(matching_weight(w, res.matching) * 2, 1000);
}

TEST(LrMatching, DeterministicPerSeed) {
  Rng rng(8);
  const Graph g = gen::gnp(40, 0.12, rng);
  const auto w = edge_weights_for(g, 8, 64);
  const auto a = run_lr_matching(g, w, test::run_opts(9));
  const auto b = run_lr_matching(g, w, test::run_opts(9));
  EXPECT_EQ(a.matching, b.matching);
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds);
}

TEST(LrMatching, MediumFamiliesComplete) {
  for (const auto& fc : test::medium_families(9)) {
    if (fc.graph.num_edges() == 0) continue;
    const auto w = edge_weights_for(fc.graph, 9, 50);
    const auto res = run_lr_matching(fc.graph, w, test::run_opts(9));
    EXPECT_TRUE(is_matching(fc.graph, res.matching)) << fc.name;
    EXPECT_TRUE(res.metrics.completed) << fc.name;
    EXPECT_LE(res.metrics.max_edge_bits, res.metrics.bandwidth_cap)
        << fc.name;
  }
}

}  // namespace
}  // namespace distapx
