#include <gtest/gtest.h>

#include "coloring/coloring.hpp"
#include "graph/algos.hpp"
#include "graph/generators.hpp"
#include "maxis/coloring_maxis.hpp"
#include "maxis/exact.hpp"
#include "maxis/greedy_maxis.hpp"
#include "maxis/layered_maxis.hpp"
#include "maxis/local_ratio_seq.hpp"
#include "support/bits.hpp"
#include "test_helpers.hpp"

namespace distapx {
namespace {

NodeWeights weights_for(const Graph& g, std::uint64_t seed, Weight max_w) {
  Rng rng(hash_combine(seed, 0xabc));
  return gen::uniform_node_weights(g.num_nodes(), max_w, rng);
}

// ---- exact baselines -------------------------------------------------------

TEST(ExactMaxIs, MatchesBruteForceOnSmallGraphs) {
  for (const auto& fc : test::small_families(1)) {
    if (fc.graph.num_nodes() > 20) continue;
    const auto w = weights_for(fc.graph, 1, 30);
    const auto exact = exact_maxis(fc.graph, w);
    EXPECT_TRUE(is_independent_set(fc.graph, exact.independent_set))
        << fc.name;
    EXPECT_EQ(set_weight(w, exact.independent_set),
              test::brute_force_maxis_weight(fc.graph, w))
        << fc.name;
  }
}

TEST(ExactMaxIs, UnweightedKnownValues) {
  const auto ones = gen::unit_node_weights(12);
  EXPECT_EQ(exact_maxis(gen::path(12), NodeWeights(12, 1))
                .independent_set.size(),
            6u);
  EXPECT_EQ(exact_maxis(gen::cycle(12), NodeWeights(12, 1))
                .independent_set.size(),
            6u);
  EXPECT_EQ(exact_maxis(gen::cycle(13), NodeWeights(13, 1))
                .independent_set.size(),
            6u);
  EXPECT_EQ(exact_maxis(gen::star(10), NodeWeights(10, 1))
                .independent_set.size(),
            9u);
  EXPECT_EQ(exact_maxis(gen::complete(10), NodeWeights(10, 1))
                .independent_set.size(),
            1u);
  (void)ones;
}

TEST(ExactMaxIs, NegativeWeightsExcluded) {
  const Graph p = gen::path(3);
  const auto res = exact_maxis(p, {5, -2, 7});
  EXPECT_EQ(set_weight({5, -2, 7}, res.independent_set), 12);
}

TEST(ExactMaxIsForest, MatchesBitsetSolverOnTrees) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const Graph t = gen::random_tree(18, rng);
    const auto w = weights_for(t, seed, 40);
    const auto dp = exact_maxis_forest(t, w);
    const auto bb = exact_maxis(t, w);
    EXPECT_TRUE(is_independent_set(t, dp.independent_set));
    EXPECT_EQ(set_weight(w, dp.independent_set),
              set_weight(w, bb.independent_set))
        << "seed " << seed;
  }
}

TEST(ExactMaxIsForest, LargeForestAndCycleRejection) {
  Rng rng(9);
  const Graph t = gen::random_tree(5000, rng);
  const auto w = weights_for(t, 2, 100);
  const auto dp = exact_maxis_forest(t, w);
  EXPECT_TRUE(is_independent_set(t, dp.independent_set));
  EXPECT_THROW(exact_maxis_forest(gen::cycle(5), NodeWeights(5, 1)),
               EnsureError);
}

// ---- Algorithm 1 (sequential local ratio) ---------------------------------

class SeqLocalRatioPolicies
    : public ::testing::TestWithParam<LocalRatioPolicy> {};

TEST_P(SeqLocalRatioPolicies, DeltaApproximationOnSmallFamilies) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const auto& fc : test::small_families(seed)) {
      if (fc.graph.num_nodes() > 20) continue;
      const auto w = weights_for(fc.graph, seed, 25);
      const auto res = seq_local_ratio_maxis(fc.graph, w, GetParam());
      EXPECT_TRUE(is_independent_set(fc.graph, res.independent_set))
          << fc.name;
      const Weight opt = test::brute_force_maxis_weight(fc.graph, w);
      const Weight got = set_weight(w, res.independent_set);
      const Weight delta =
          std::max<std::uint32_t>(fc.graph.max_degree(), 1);
      EXPECT_GE(got * delta, opt) << fc.name << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, SeqLocalRatioPolicies,
                         ::testing::Values(
                             LocalRatioPolicy::kSingleMaxWeight,
                             LocalRatioPolicy::kGreedyMis,
                             LocalRatioPolicy::kTopLayerMis));

TEST(SeqLocalRatio, StarTrap) {
  // The paper's star example: center weight larger than each leaf but
  // smaller than their sum. Simultaneous naive reductions would kill all
  // nodes; the algorithm must still output a Δ-approximation.
  const Graph s = gen::star(5);
  const NodeWeights w{10, 4, 4, 4, 4};  // center 10, leaves 4
  const auto res = seq_local_ratio_maxis(s, w,
                                         LocalRatioPolicy::kGreedyMis);
  const Weight got = set_weight(w, res.independent_set);
  EXPECT_GE(got * 4, 16);  // OPT = 16 (all leaves), Δ = 4
  EXPECT_TRUE(is_independent_set(s, res.independent_set));
}

TEST(SeqLocalRatio, TopLayerPolicyUsesFewIterations) {
  // O(log W) iterations for the layered policy.
  Rng rng(5);
  const Graph g = gen::gnp(150, 0.05, rng);
  const auto w = weights_for(g, 5, 1 << 12);
  SeqLocalRatioStats stats;
  seq_local_ratio_maxis(g, w, LocalRatioPolicy::kTopLayerMis, &stats);
  EXPECT_LE(stats.iterations, 6u * 13u);
  SeqLocalRatioStats single_stats;
  seq_local_ratio_maxis(g, w, LocalRatioPolicy::kSingleMaxWeight,
                        &single_stats);
  EXPECT_GT(single_stats.iterations, stats.iterations);
}

TEST(SeqLocalRatio, IgnoresNonPositiveWeights) {
  const Graph p = gen::path(4);
  const auto res =
      seq_local_ratio_maxis(p, {0, 5, -3, 2}, LocalRatioPolicy::kGreedyMis);
  for (NodeId v : res.independent_set) {
    EXPECT_TRUE(v == 1 || v == 3);
  }
}

// ---- Algorithm 2 (layered distributed) ------------------------------------

class LayeredMaxIsSeeds : public ::testing::TestWithParam<int> {};

TEST_P(LayeredMaxIsSeeds, DeltaApproximationSmall) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const auto& fc : test::small_families(seed)) {
    if (fc.graph.num_nodes() > 20) continue;
    const auto w = weights_for(fc.graph, seed, 25);
    const auto res = run_layered_maxis(fc.graph, w, test::run_opts(seed));
    EXPECT_TRUE(is_independent_set(fc.graph, res.independent_set))
        << fc.name;
    const Weight opt = test::brute_force_maxis_weight(fc.graph, w);
    const Weight got = set_weight(w, res.independent_set);
    const Weight delta = std::max<std::uint32_t>(fc.graph.max_degree(), 1);
    EXPECT_GE(got * delta, opt) << fc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayeredMaxIsSeeds, ::testing::Range(1, 6));

TEST(LayeredMaxIs, ForestRatioAtScale) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    const Graph t = gen::random_tree(400, rng);
    const auto w = weights_for(t, seed, 1000);
    const auto res = run_layered_maxis(t, w, test::run_opts(seed));
    EXPECT_TRUE(is_independent_set(t, res.independent_set));
    const Weight opt =
        set_weight(w, exact_maxis_forest(t, w).independent_set);
    const Weight got = set_weight(w, res.independent_set);
    const Weight delta = t.max_degree();
    EXPECT_GE(got * delta, opt);
    // Local ratio on trees is empirically much better than Δ.
    EXPECT_GE(got * 3, opt) << "seed " << seed;
  }
}

TEST(LayeredMaxIs, MediumFamiliesComplete) {
  for (const auto& fc : test::medium_families(2)) {
    const auto w = weights_for(fc.graph, 2, 100);
    const auto res = run_layered_maxis(fc.graph, w, test::run_opts(2));
    EXPECT_TRUE(is_independent_set(fc.graph, res.independent_set))
        << fc.name;
    EXPECT_TRUE(res.metrics.completed) << fc.name;
    EXPECT_LE(res.metrics.max_edge_bits, res.metrics.bandwidth_cap)
        << fc.name;
  }
}

TEST(LayeredMaxIs, SelectionRuleVariants) {
  Rng rng(7);
  const Graph g = gen::gnp(60, 0.1, rng);
  const auto w = weights_for(g, 7, 64);
  for (MisSelectionRule rule :
       {MisSelectionRule::kLubyValue, MisSelectionRule::kCoin,
        MisSelectionRule::kIdGreedy}) {
    LayeredMaxIsParams params;
    params.rule = rule;
    const auto res = run_layered_maxis(g, w, test::run_opts(7), params);
    EXPECT_TRUE(is_independent_set(g, res.independent_set))
        << static_cast<int>(rule);
    EXPECT_GT(res.independent_set.size(), 0u);
  }
}

TEST(LayeredMaxIs, DeterministicPerSeed) {
  Rng rng(8);
  const Graph g = gen::gnp(50, 0.1, rng);
  const auto w = weights_for(g, 8, 32);
  const auto a = run_layered_maxis(g, w, test::run_opts(42));
  const auto b = run_layered_maxis(g, w, test::run_opts(42));
  EXPECT_EQ(a.independent_set, b.independent_set);
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds);
}

TEST(LayeredMaxIs, RoundsScaleWithLogW) {
  // Theorem 2.3: rounds = O(MIS(G) log W). Fixing the graph, growing W
  // from 2 to 2^16 should grow rounds roughly linearly in log W.
  Rng rng(9);
  const Graph g = gen::random_regular(128, 4, rng);
  Rng wrng(10);
  NodeWeights w_small(g.num_nodes()), w_large(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    w_small[v] = wrng.next_in(1, 2);
    w_large[v] = wrng.next_in(1, 1 << 16);
  }
  const auto small = run_layered_maxis(g, w_small, test::run_opts(3));
  const auto large = run_layered_maxis(g, w_large, test::run_opts(3));
  EXPECT_GT(large.metrics.rounds, small.metrics.rounds);
  EXPECT_LE(large.metrics.rounds, small.metrics.rounds * 40);
}

TEST(LayeredMaxIs, UnitWeightsEqualsMisBehaviour) {
  // With W = 1 there is a single layer: the run is one MIS computation.
  Rng rng(11);
  const Graph g = gen::gnp(100, 0.08, rng);
  const auto res =
      run_layered_maxis(g, gen::unit_node_weights(g.num_nodes()),
                        test::run_opts(4));
  EXPECT_TRUE(is_maximal_independent_set(g, res.independent_set));
}

// ---- Algorithm 3 (coloring-based) ------------------------------------------

class ColoringMaxIsSeeds : public ::testing::TestWithParam<int> {};

TEST_P(ColoringMaxIsSeeds, DeltaApproximationSmall) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const auto& fc : test::small_families(seed)) {
    if (fc.graph.num_nodes() > 20) continue;
    const auto w = weights_for(fc.graph, seed, 25);
    const auto res = run_coloring_maxis_with(
        fc.graph, w, greedy_coloring(fc.graph), test::run_opts());
    EXPECT_TRUE(is_independent_set(fc.graph, res.independent_set))
        << fc.name;
    const Weight opt = test::brute_force_maxis_weight(fc.graph, w);
    const Weight got = set_weight(w, res.independent_set);
    const Weight delta = std::max<std::uint32_t>(fc.graph.max_degree(), 1);
    EXPECT_GE(got * delta, opt) << fc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColoringMaxIsSeeds, ::testing::Range(1, 5));

TEST(ColoringMaxIs, FullPipelines) {
  Rng rng(3);
  const Graph g = gen::gnp(80, 0.07, rng);
  const auto w = weights_for(g, 3, 50);
  for (ColoringSource src :
       {ColoringSource::kLinial, ColoringSource::kRandomized}) {
    const auto res = run_coloring_maxis(g, w, src, test::run_opts(5));
    EXPECT_TRUE(is_independent_set(g, res.independent_set));
    EXPECT_GT(res.coloring_metrics.rounds, 0u);
    EXPECT_GT(res.maxis_metrics.rounds, 0u);
    EXPECT_LE(res.num_colors, g.max_degree() + 1);
  }
}

TEST(ColoringMaxIs, DeterministicWithLinial) {
  Rng rng(4);
  const Graph g = gen::gnp(60, 0.1, rng);
  const auto w = weights_for(g, 4, 20);
  const auto a = run_coloring_maxis(g, w, ColoringSource::kLinial,
                                    test::run_opts());
  const auto b = run_coloring_maxis(g, w, ColoringSource::kLinial,
                                    test::run_opts());
  EXPECT_EQ(a.independent_set, b.independent_set);
}

TEST(ColoringMaxIs, PostColoringRoundsScaleWithColors) {
  // Algorithm 3 proper takes O(#colors) sweeps, independent of n.
  Rng rng1(5), rng2(6);
  const Graph small = gen::random_regular(64, 4, rng1);
  const Graph large = gen::random_regular(512, 4, rng2);
  const auto ws = weights_for(small, 5, 100);
  const auto wl = weights_for(large, 6, 100);
  const auto rs = run_coloring_maxis_with(small, ws, greedy_coloring(small),
                                          test::run_opts());
  const auto rl = run_coloring_maxis_with(large, wl, greedy_coloring(large),
                                          test::run_opts());
  // Same Δ ⇒ same palette ⇒ comparable round counts despite 8x nodes.
  EXPECT_LE(rl.maxis_metrics.rounds, rs.maxis_metrics.rounds * 3);
}

TEST(ColoringMaxIs, RejectsImproperColoring) {
  const Graph p = gen::path(3);
  EXPECT_THROW(
      run_coloring_maxis_with(p, NodeWeights{1, 2, 3}, {0, 0, 1},
                              test::run_opts()),
      EnsureError);
}

// ---- greedy baseline --------------------------------------------------------

TEST(GreedyMaxIs, ValidAndReasonable) {
  for (const auto& fc : test::small_families(3)) {
    if (fc.graph.num_nodes() > 20) continue;
    const auto w = weights_for(fc.graph, 3, 25);
    const auto res = greedy_maxis(fc.graph, w);
    EXPECT_TRUE(is_independent_set(fc.graph, res.independent_set))
        << fc.name;
    const Weight opt = test::brute_force_maxis_weight(fc.graph, w);
    const Weight got = set_weight(w, res.independent_set);
    const Weight delta = std::max<std::uint32_t>(fc.graph.max_degree(), 1);
    EXPECT_GE(got * delta, opt) << fc.name;  // greedy is also Δ-approx
  }
}

}  // namespace
}  // namespace distapx
