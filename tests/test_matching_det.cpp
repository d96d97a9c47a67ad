// Theorem 2.10 (deterministic half): Algorithm 3 as an aggregation
// program, and the deterministic 2-approximate MWM on the line graph.
#include <gtest/gtest.h>

#include "coloring/coloring.hpp"
#include "graph/algos.hpp"
#include "graph/generators.hpp"
#include "matching/exact_mwm.hpp"
#include "matching/lr_matching_det.hpp"
#include "maxis/coloring_maxis.hpp"
#include "maxis/exact.hpp"
#include "test_helpers.hpp"

namespace distapx {
namespace {

NodeWeights node_weights_for(const Graph& g, std::uint64_t seed,
                             Weight max_w) {
  Rng rng(hash_combine(seed, 0x44));
  return gen::uniform_node_weights(g.num_nodes(), max_w, rng);
}

EdgeWeights edge_weights_for(const Graph& g, std::uint64_t seed,
                             Weight max_w) {
  Rng rng(hash_combine(seed, 0x55));
  return gen::uniform_edge_weights(g.num_edges(), max_w, rng);
}

class Alg3AggSeeds : public ::testing::TestWithParam<int> {};

TEST_P(Alg3AggSeeds, DeltaApproximationOnNodes) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const auto& fc : test::small_families(seed)) {
    if (fc.graph.num_nodes() > 20) continue;
    const auto w = node_weights_for(fc.graph, seed, 25);
    const auto res =
        run_coloring_maxis_agg(fc.graph, w, greedy_coloring(fc.graph),
                               test::run_opts());
    EXPECT_TRUE(is_independent_set(fc.graph, res.independent_set))
        << fc.name;
    const Weight opt = test::brute_force_maxis_weight(fc.graph, w);
    const Weight got = set_weight(w, res.independent_set);
    const Weight delta = std::max<std::uint32_t>(fc.graph.max_degree(), 1);
    EXPECT_GE(got * delta, opt) << fc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Alg3AggSeeds, ::testing::Range(1, 5));

TEST(Alg3Agg, AgreesWithMessagePassingVariantGuarantees) {
  // Both implementations of Algorithm 3 on the same coloring are
  // deterministic — and in fact make identical local-ratio choices, since
  // the selection is by color, not randomness.
  Rng rng(3);
  const Graph g = gen::gnp(60, 0.1, rng);
  const auto w = node_weights_for(g, 3, 50);
  const auto colors = greedy_coloring(g);
  const auto agg = run_coloring_maxis_agg(g, w, colors, test::run_opts());
  const auto msg = run_coloring_maxis_with(g, w, colors, test::run_opts());
  EXPECT_EQ(agg.independent_set, msg.independent_set);
}

TEST(Alg3Agg, SweepRoundsScaleWithColors) {
  // One super-round per color sweep: rounds bounded by ~#colors plus the
  // candidate unwinding.
  Rng rng(4);
  const Graph g = gen::random_regular(256, 6, rng);
  const auto w = node_weights_for(g, 4, 1000);
  const auto colors = greedy_coloring(g);
  Color num_colors = 0;
  for (Color c : colors) num_colors = std::max(num_colors, c + 1);
  const auto res = run_coloring_maxis_agg(g, w, colors, test::run_opts());
  EXPECT_LE(res.metrics.rounds, 4u * num_colors + 8u);
}

class DetLrSeeds : public ::testing::TestWithParam<int> {};

TEST_P(DetLrSeeds, TwoApproxMwmSmall) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const auto& fc : test::small_families(seed)) {
    if (fc.graph.num_nodes() > 20 || fc.graph.num_edges() == 0) continue;
    const auto w = edge_weights_for(fc.graph, seed, 25);
    const auto res = run_lr_matching_deterministic(fc.graph, w,
                                                   test::run_opts());
    EXPECT_TRUE(is_matching(fc.graph, res.matching)) << fc.name;
    const Weight opt =
        matching_weight(w, exact_mwm_small(fc.graph, w).matching);
    EXPECT_GE(matching_weight(w, res.matching) * 2, opt) << fc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetLrSeeds, ::testing::Range(1, 4));

TEST(DetLr, FullyDeterministic) {
  Rng rng(5);
  const Graph g = gen::gnp(40, 0.12, rng);
  const auto w = edge_weights_for(g, 5, 64);
  const auto a = run_lr_matching_deterministic(g, w, test::run_opts());
  const auto b = run_lr_matching_deterministic(g, w, test::run_opts());
  EXPECT_EQ(a.matching, b.matching);
  EXPECT_EQ(a.matching_metrics.rounds, b.matching_metrics.rounds);
}

TEST(DetLr, BipartiteAtScale) {
  Rng rng(6);
  const Graph g = gen::bipartite_gnp(30, 30, 0.1, rng);
  const auto w = edge_weights_for(g, 6, 100);
  const auto res = run_lr_matching_deterministic(g, w, test::run_opts());
  EXPECT_TRUE(is_matching(g, res.matching));
  const Weight opt = matching_weight(w, exact_mwm_bipartite(g, w).matching);
  EXPECT_GE(matching_weight(w, res.matching) * 2, opt);
  // Edge coloring black box must be proper on L(G): <= Δ_L + 1 colors.
  std::uint32_t line_delta = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    line_delta = std::max(line_delta, g.degree(u) + g.degree(v) - 2);
  }
  EXPECT_LE(res.num_colors, line_delta + 1);
}

TEST(DetLr, CongestionBoundedOnStar) {
  const Graph star = gen::star(100);
  EdgeWeights w(star.num_edges(), 1);
  w[7] = 500;
  const auto res = run_lr_matching_deterministic(star, w, test::run_opts());
  ASSERT_EQ(res.matching.size(), 1u);
  EXPECT_GE(matching_weight(w, res.matching) * 2, 500);
  EXPECT_LE(res.matching_metrics.max_edge_bits,
            res.matching_metrics.bandwidth_cap);
}

TEST(DetLr, EmptyGraph) {
  const Graph empty = GraphBuilder(3).build();
  const auto res = run_lr_matching_deterministic(empty, {}, test::run_opts());
  EXPECT_TRUE(res.matching.empty());
  // Nothing to run is a completed run, as it is for the randomized variant.
  EXPECT_TRUE(res.coloring_metrics.completed);
  EXPECT_TRUE(res.matching_metrics.completed);
}

}  // namespace
}  // namespace distapx
