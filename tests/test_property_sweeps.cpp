// Wide parameterized property sweeps: the paper's guarantees asserted over
// the cross product of topology family × weight regime × algorithm
// configuration. Complements the targeted suites with combinatorial
// breadth at moderate sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "coloring/coloring.hpp"
#include "graph/algos.hpp"
#include "graph/generators.hpp"
#include "matching/blossom.hpp"
#include "matching/exact_mwm.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/lr_matching.hpp"
#include "matching/mcm_congest.hpp"
#include "matching/nmm_2eps.hpp"
#include "matching/weighted_2eps.hpp"
#include "maxis/coloring_maxis.hpp"
#include "maxis/exact.hpp"
#include "maxis/greedy_maxis.hpp"
#include "maxis/layered_maxis.hpp"
#include "maxis/local_ratio_seq.hpp"
#include "mis/mis.hpp"
#include "sim/network.hpp"
#include "sim/run_many.hpp"
#include "test_helpers.hpp"

namespace distapx {
namespace {

enum class Family { kGnp, kRegular, kTree, kGrid, kStar, kMultipartite };
enum class WeightRegime { kUnit, kUniform, kLogUniform, kExponential };

Graph make_family(Family f, Rng& rng) {
  switch (f) {
    case Family::kGnp:
      return gen::gnp(90, 0.05, rng);
    case Family::kRegular:
      return gen::random_regular(96, 6, rng);
    case Family::kTree:
      return gen::random_tree(120, rng);
    case Family::kGrid:
      return gen::grid(9, 10);
    case Family::kStar:
      return gen::star(70);
    case Family::kMultipartite:
      return gen::complete_multipartite({12, 9, 6});
  }
  return gen::path(8);
}

NodeWeights make_weights(WeightRegime r, NodeId n, Rng& rng) {
  switch (r) {
    case WeightRegime::kUnit:
      return gen::unit_node_weights(n);
    case WeightRegime::kUniform:
      return gen::uniform_node_weights(n, 1 << 10, rng);
    case WeightRegime::kLogUniform:
      return gen::log_uniform_node_weights(n, 1 << 14, rng);
    case WeightRegime::kExponential:
      return gen::exponential_node_weights(n, 1 << 12, rng);
  }
  return gen::unit_node_weights(n);
}

const char* family_name(Family f) {
  switch (f) {
    case Family::kGnp:
      return "gnp";
    case Family::kRegular:
      return "regular";
    case Family::kTree:
      return "tree";
    case Family::kGrid:
      return "grid";
    case Family::kStar:
      return "star";
    case Family::kMultipartite:
      return "multipartite";
  }
  return "?";
}

using SweepParam = std::tuple<Family, WeightRegime>;

class MaxIsSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(MaxIsSweep, BothDistributedAlgorithmsValidAndBoundedVsSeq) {
  const auto [family, regime] = GetParam();
  Rng rng(hash_combine(static_cast<int>(family) * 7,
                       static_cast<int>(regime)));
  const Graph g = make_family(family, rng);
  const auto w = make_weights(regime, g.num_nodes(), rng);

  // Algorithm 2 runs as a 3-seed batch through the run_many_tasks
  // scheduler; every seed's output must satisfy the paper's guarantees, and
  // the batch must be bit-identical to a serial execution of the same seed
  // set.
  const Weight max_w = *std::max_element(w.begin(), w.end());
  const auto factory = make_layered_maxis_program(g, w, max_w);
  const std::uint64_t seeds[] = {5, 6, 7};
  const auto run_seed = [&](std::uint64_t seed, std::size_t) {
    sim::RunOptions opts;
    opts.policy = sim::BandwidthPolicy::congest(32);
    opts.seed = seed;
    return sim::Network(g).run(factory, opts);
  };
  const auto runs = sim::run_many_tasks(seeds, 2, run_seed);
  const auto serial = sim::run_many_tasks(seeds, 1, run_seed);
  std::vector<std::vector<NodeId>> batch_sets;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    ASSERT_TRUE(runs[i].metrics.completed) << family_name(family);
    ASSERT_EQ(runs[i].outputs, serial[i].outputs)
        << family_name(family) << " seed " << seeds[i];
    ASSERT_LE(runs[i].metrics.max_edge_bits, runs[i].metrics.bandwidth_cap);
    std::vector<NodeId> is;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (runs[i].outputs[v] == kOutInIs) is.push_back(v);
    }
    ASSERT_TRUE(is_independent_set(g, is)) << family_name(family);
    batch_sets.push_back(std::move(is));
  }
  const auto& alg2_set = batch_sets.front();  // seed 5, as before

  const auto alg3 = run_coloring_maxis_with(g, w, greedy_coloring(g),
                                            test::run_opts());
  ASSERT_TRUE(is_independent_set(g, alg3.independent_set));

  // The sequential meta-algorithm (Algorithm 1) with the top-layer policy
  // is the centralized version of Algorithm 2: both carry the same Δ
  // bound, so they should be within Δ of each other on any instance.
  const auto seq =
      seq_local_ratio_maxis(g, w, LocalRatioPolicy::kTopLayerMis);
  const Weight wa = set_weight(w, alg2_set);
  const Weight wb = set_weight(w, alg3.independent_set);
  const Weight ws = set_weight(w, seq.independent_set);
  const Weight delta = std::max<std::uint32_t>(g.max_degree(), 1);
  ASSERT_GT(wa, 0);
  ASSERT_GT(wb, 0);
  EXPECT_GE(wa * delta, ws);
  EXPECT_GE(wb * delta, ws);
  EXPECT_GE(ws * delta, wa);

  // With unit weights the results must be maximal independent sets — for
  // every seed in the batch.
  if (regime == WeightRegime::kUnit) {
    for (const auto& is : batch_sets) {
      EXPECT_TRUE(is_maximal_independent_set(g, is));
    }
    EXPECT_TRUE(is_maximal_independent_set(g, alg3.independent_set));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cross, MaxIsSweep,
    ::testing::Combine(
        ::testing::Values(Family::kGnp, Family::kRegular, Family::kTree,
                          Family::kGrid, Family::kStar,
                          Family::kMultipartite),
        ::testing::Values(WeightRegime::kUnit, WeightRegime::kUniform,
                          WeightRegime::kLogUniform,
                          WeightRegime::kExponential)));

class MatchingSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(MatchingSweep, LrAndNmmValidWithCardinalityFloor) {
  const auto [family, regime] = GetParam();
  Rng rng(hash_combine(static_cast<int>(family) * 13,
                       static_cast<int>(regime)));
  const Graph g = make_family(family, rng);
  if (g.num_edges() == 0) return;
  Rng wrng(9);
  const EdgeWeights ew =
      regime == WeightRegime::kUnit
          ? gen::unit_edge_weights(g.num_edges())
          : gen::uniform_edge_weights(g.num_edges(), 1 << 10, wrng);

  const auto lr = run_lr_matching(g, ew, test::run_opts(5));
  ASSERT_TRUE(is_matching(g, lr.matching)) << family_name(family);
  ASSERT_LE(lr.metrics.max_edge_bits, lr.metrics.bandwidth_cap);

  const auto nmm = run_nmm_2eps_matching(g, test::run_opts(5));
  ASSERT_TRUE(is_matching(g, nmm.matching));

  // Cardinality floor: a maximal matching is at least half of MCM, and
  // both results become maximal after greedy completion.
  const std::size_t opt = blossom_mcm(g).matching.size();
  const auto lr_full = complete_matching_greedily(g, lr.matching);
  const auto nmm_full = complete_matching_greedily(g, nmm.matching);
  EXPECT_GE(lr_full.size() * 2, opt);
  EXPECT_GE(nmm_full.size() * 2, opt);
  if (regime == WeightRegime::kUnit) {
    // Unit-weight local ratio on L(G) is already maximal.
    EXPECT_EQ(lr_full.size(), lr.matching.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cross, MatchingSweep,
    ::testing::Combine(
        ::testing::Values(Family::kGnp, Family::kRegular, Family::kTree,
                          Family::kGrid, Family::kStar,
                          Family::kMultipartite),
        ::testing::Values(WeightRegime::kUnit, WeightRegime::kUniform)));

// ---- approximation-ratio conformance sweeps --------------------------------
//
// The sweeps above check structural validity (matchings are matchings, IS
// are independent) plus loose cardinality floors; these check the paper's
// *quantitative* guarantees against exact optima on random small-graph
// sweeps: w(weighted_2eps) >= OPT_MWM/(2+ε) (App B.1, Thm 3.2 extension),
// |mcm_congest| >= |Hopcroft-Karp MCM|/(1+ε) (Thm B.12), and the Δ-bound
// of Theorems 2.1/2.3 for the layered and greedy MaxIS algorithms.

enum class BipFamily { kBipGnp, kGrid, kTree, kPath, kCompleteBip };

/// All bipartite, so Hopcroft-Karp / exact_mwm_bipartite are exact.
Graph make_bipartite_family(BipFamily f, Rng& rng) {
  switch (f) {
    case BipFamily::kBipGnp:
      return gen::bipartite_gnp(26, 26, 0.15, rng);
    case BipFamily::kGrid:
      return gen::grid(6, 8);
    case BipFamily::kTree:
      return gen::random_tree(56, rng);
    case BipFamily::kPath:
      return gen::path(40);
    case BipFamily::kCompleteBip:
      return gen::complete_bipartite(7, 9);
  }
  return gen::path(8);
}

const char* bip_family_name(BipFamily f) {
  switch (f) {
    case BipFamily::kBipGnp:
      return "bip_gnp";
    case BipFamily::kGrid:
      return "grid";
    case BipFamily::kTree:
      return "tree";
    case BipFamily::kPath:
      return "path";
    case BipFamily::kCompleteBip:
      return "cbipartite";
  }
  return "?";
}

using ConformanceParam = std::tuple<BipFamily, int>;  // (family, seed)

class WeightedMatchingConformance
    : public ::testing::TestWithParam<ConformanceParam> {};

TEST_P(WeightedMatchingConformance, Weighted2EpsWithinRatioOfExactMwm) {
  const auto [family, seed] = GetParam();
  Rng rng(hash_combine(static_cast<int>(family) * 31, seed));
  const Graph g = make_bipartite_family(family, rng);
  ASSERT_GT(g.num_edges(), 0u);
  const EdgeWeights ew = gen::uniform_edge_weights(g.num_edges(), 500, rng);

  Weighted2EpsParams params;
  params.epsilon = 0.25;
  const auto res = run_weighted_2eps_matching(
      g, ew, test::run_opts(static_cast<std::uint64_t>(seed)), params);
  ASSERT_TRUE(is_matching(g, res.matching)) << bip_family_name(family);

  const Weight opt = matching_weight(ew, exact_mwm_bipartite(g, ew).matching);
  const Weight got = matching_weight(ew, res.matching);
  ASSERT_GT(opt, 0) << bip_family_name(family);
  EXPECT_GE(static_cast<double>(got) * (2.0 + params.epsilon),
            static_cast<double>(opt))
      << bip_family_name(family) << " seed " << seed << ": " << got
      << " * (2+eps) < " << opt;
}

INSTANTIATE_TEST_SUITE_P(
    Cross, WeightedMatchingConformance,
    ::testing::Combine(
        ::testing::Values(BipFamily::kBipGnp, BipFamily::kGrid,
                          BipFamily::kTree, BipFamily::kPath,
                          BipFamily::kCompleteBip),
        ::testing::Values(1, 2, 3)));

class McmConformance : public ::testing::TestWithParam<ConformanceParam> {};

TEST_P(McmConformance, OnePlusEpsWithinRatioOfHopcroftKarp) {
  const auto [family, seed] = GetParam();
  Rng rng(hash_combine(static_cast<int>(family) * 37, seed));
  const Graph g = make_bipartite_family(family, rng);
  ASSERT_GT(g.num_edges(), 0u);

  McmCongestParams params;
  params.epsilon = 1.0 / 3.0;
  const auto res = run_mcm_1eps_congest(
      g, test::run_opts(static_cast<std::uint64_t>(seed)), params);
  ASSERT_TRUE(is_matching(g, res.matching)) << bip_family_name(family);

  const std::size_t opt = hopcroft_karp(g).matching.size();
  EXPECT_GE(static_cast<double>(res.matching.size()) *
                (1.0 + params.epsilon),
            static_cast<double>(opt))
      << bip_family_name(family) << " seed " << seed << ": "
      << res.matching.size() << " * (1+eps) < " << opt;
}

INSTANTIATE_TEST_SUITE_P(
    Cross, McmConformance,
    ::testing::Combine(
        ::testing::Values(BipFamily::kBipGnp, BipFamily::kGrid,
                          BipFamily::kTree, BipFamily::kPath,
                          BipFamily::kCompleteBip),
        ::testing::Values(1, 2, 3)));

/// Small families (n <= 64) where exact_maxis's branch & bound is cheap.
enum class SmallFamily { kGnp, kTree, kGrid, kRegular, kCycle, kStar };

Graph make_small_family(SmallFamily f, Rng& rng) {
  switch (f) {
    case SmallFamily::kGnp:
      return gen::gnp(40, 0.1, rng);
    case SmallFamily::kTree:
      return gen::random_tree(48, rng);
    case SmallFamily::kGrid:
      return gen::grid(6, 8);
    case SmallFamily::kRegular:
      return gen::random_regular(48, 4, rng);
    case SmallFamily::kCycle:
      return gen::cycle(45);
    case SmallFamily::kStar:
      return gen::star(30);
  }
  return gen::path(8);
}

using MaxIsConformanceParam = std::tuple<SmallFamily, WeightRegime>;

class MaxIsConformance
    : public ::testing::TestWithParam<MaxIsConformanceParam> {};

TEST_P(MaxIsConformance, LayeredAndGreedyWithinDeltaOfExact) {
  const auto [family, regime] = GetParam();
  Rng rng(hash_combine(static_cast<int>(family) * 41,
                       static_cast<int>(regime)));
  const Graph g = make_small_family(family, rng);
  ASSERT_LE(g.num_nodes(), 64u);
  const auto w = make_weights(regime, g.num_nodes(), rng);
  const Weight opt = set_weight(w, exact_maxis(g, w).independent_set);
  const Weight delta = std::max<std::uint32_t>(g.max_degree(), 1);

  // Algorithm 2 (Thm 2.3): Δ-approximation, any seed.
  const auto layered = run_layered_maxis(g, w, test::run_opts(7));
  ASSERT_TRUE(is_independent_set(g, layered.independent_set));
  const Weight w_layered = set_weight(w, layered.independent_set);
  EXPECT_GE(w_layered * delta, opt)
      << "layered: " << w_layered << " * " << delta << " < " << opt;

  // The sequential weight-greedy baseline carries the same Δ bound.
  const auto greedy = greedy_maxis(g, w);
  ASSERT_TRUE(is_independent_set(g, greedy.independent_set));
  const Weight w_greedy = set_weight(w, greedy.independent_set);
  EXPECT_GE(w_greedy * delta, opt)
      << "greedy: " << w_greedy << " * " << delta << " < " << opt;

  // Neither heuristic beats the optimum (sanity on exact_maxis itself).
  EXPECT_LE(w_layered, opt);
  EXPECT_LE(w_greedy, opt);
}

INSTANTIATE_TEST_SUITE_P(
    Cross, MaxIsConformance,
    ::testing::Combine(
        ::testing::Values(SmallFamily::kGnp, SmallFamily::kTree,
                          SmallFamily::kGrid, SmallFamily::kRegular,
                          SmallFamily::kCycle, SmallFamily::kStar),
        ::testing::Values(WeightRegime::kUnit, WeightRegime::kUniform,
                          WeightRegime::kLogUniform,
                          WeightRegime::kExponential)));

}  // namespace
}  // namespace distapx
