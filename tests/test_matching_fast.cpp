// Section 3.1 / Appendix B.1 / B.4 tests: the O(log Δ / log log Δ) matching
// approximations.
#include <gtest/gtest.h>

#include "graph/algos.hpp"
#include "graph/generators.hpp"
#include "matching/blossom.hpp"
#include "matching/exact_mwm.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/nmm_2eps.hpp"
#include "matching/proposal.hpp"
#include "matching/weighted_2eps.hpp"
#include "test_helpers.hpp"

namespace distapx {
namespace {

EdgeWeights edge_weights_for(const Graph& g, std::uint64_t seed,
                             Weight max_w) {
  Rng rng(hash_combine(seed, 0x33));
  return gen::uniform_edge_weights(g.num_edges(), max_w, rng);
}

class Nmm2EpsSeeds : public ::testing::TestWithParam<int> {};

TEST_P(Nmm2EpsSeeds, ApproximatesMcm) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed);
  const Graph g = gen::gnp(100, 0.06, rng);
  Nmm2EpsParams params;
  params.epsilon = 0.25;
  const auto res = run_nmm_2eps_matching(g, test::run_opts(seed), params);
  EXPECT_TRUE(is_matching(g, res.matching));
  const std::size_t opt = blossom_mcm(g).matching.size();
  // (2+ε) guarantee with the paper's expectation argument; fixed seeds.
  EXPECT_GE(res.matching.size() * (2.0 + params.epsilon),
            static_cast<double>(opt))
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Nmm2EpsSeeds, ::testing::Range(1, 7));

TEST(Nmm2Eps, UndecidedEdgesAreUncoveredOnly) {
  Rng rng(3);
  const Graph g = gen::gnp(80, 0.08, rng);
  const auto res = run_nmm_2eps_matching(g, test::run_opts(3));
  std::vector<bool> used(g.num_nodes(), false);
  for (EdgeId e : res.matching) {
    const auto [u, v] = g.endpoints(e);
    used[u] = used[v] = true;
  }
  // Any uncovered edge must be among the undecided leftovers.
  std::vector<bool> undecided(g.num_edges(), false);
  for (EdgeId e : res.undecided_edges) undecided[e] = true;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    if (!used[u] && !used[v]) {
      EXPECT_TRUE(undecided[e]);
    }
  }
  EXPECT_LE(res.undecided_edges.size(),
            std::max<std::size_t>(4, g.num_edges() / 8));
}

TEST(Nmm2Eps, RoundsGrowSublinearlyInDegree) {
  // The Theorem 3.2 shape: super-rounds should grow far slower than Δ.
  std::uint32_t r4 = 0, r32 = 0;
  {
    Rng rng(5);
    const Graph g = gen::random_regular(256, 4, rng);
    r4 = run_nmm_2eps_matching(g, test::run_opts(5)).super_rounds;
  }
  {
    Rng rng(6);
    const Graph g = gen::random_regular(256, 32, rng);
    r32 = run_nmm_2eps_matching(g, test::run_opts(6)).super_rounds;
  }
  EXPECT_LT(r32, r4 * 4);  // 8x the degree, far less than 8x the rounds
}

TEST(Nmm2Eps, CongestCapRespected) {
  const Graph g = gen::star(150);
  const auto res = run_nmm_2eps_matching(g, test::run_opts(7));
  EXPECT_LE(res.metrics.max_edge_bits, res.metrics.bandwidth_cap);
}

class WeightedBucketSeeds : public ::testing::TestWithParam<int> {};

TEST_P(WeightedBucketSeeds, Stage1IsConstantApprox) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed);
  const Graph g = gen::bipartite_gnp(30, 30, 0.12, rng);
  const auto w = edge_weights_for(g, seed, 1000);
  const auto res = run_bucketed_o1_mwm(g, w, test::run_opts(seed));
  EXPECT_TRUE(is_matching(g, res.matching));
  const Weight opt = matching_weight(w, exact_mwm_bipartite(g, w).matching);
  const Weight got = matching_weight(w, res.matching);
  EXPECT_GE(got * 10, opt) << "seed " << seed;  // O(1), generous constant
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedBucketSeeds, ::testing::Range(1, 6));

class Weighted2EpsSeeds : public ::testing::TestWithParam<int> {};

TEST_P(Weighted2EpsSeeds, TwoPlusEpsApproximation) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed);
  const Graph g = gen::bipartite_gnp(25, 25, 0.15, rng);
  const auto w = edge_weights_for(g, seed, 500);
  Weighted2EpsParams params;
  params.epsilon = 0.25;
  const auto res = run_weighted_2eps_matching(g, w, test::run_opts(seed),
                                              params);
  EXPECT_TRUE(is_matching(g, res.matching));
  const Weight opt = matching_weight(w, exact_mwm_bipartite(g, w).matching);
  const double got = static_cast<double>(matching_weight(w, res.matching));
  EXPECT_GE(got * (2.0 + params.epsilon), static_cast<double>(opt))
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Weighted2EpsSeeds, ::testing::Range(1, 6));

TEST(Weighted2Eps, RefinementImprovesStage1) {
  Rng rng(11);
  const Graph g = gen::bipartite_gnp(30, 30, 0.15, rng);
  const auto w = edge_weights_for(g, 11, 300);
  const auto stage1 = run_bucketed_o1_mwm(g, w, test::run_opts(11));
  const auto full = run_weighted_2eps_matching(g, w, test::run_opts(11));
  EXPECT_GE(matching_weight(w, full.matching),
            matching_weight(w, stage1.matching));
}

TEST(Weighted2Eps, GeneralGraphsSmall) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const Graph g = gen::gnp(14, 0.3, rng);
    if (g.num_edges() == 0) continue;
    const auto w = edge_weights_for(g, seed, 100);
    const auto res = run_weighted_2eps_matching(g, w, test::run_opts(seed));
    EXPECT_TRUE(is_matching(g, res.matching));
    const Weight opt = matching_weight(w, exact_mwm_small(g, w).matching);
    EXPECT_GE(matching_weight(w, res.matching) * 3, opt)
        << "seed " << seed;
  }
}

// ---- Appendix B.4: the proposal algorithm ----------------------------------

TEST(ProposalBudget, OptimizedKBeatsFixedSmallK) {
  ProposalParams small_k;
  small_k.K = 2;
  small_k.epsilon = 0.25;
  ProposalParams opt_k;
  opt_k.epsilon = 0.25;
  const auto t2 = proposal_iteration_budget(1u << 16, small_k);
  const auto topt = proposal_iteration_budget(1u << 16, opt_k);
  EXPECT_LE(topt, t2 + 1);
}

TEST(ProposalBudget, LaterRepetitionsKeepTheJobGraphsCap) {
  // Each repetition runs on the bipartite subgraph of the nodes still
  // unmatched. Its cap stays that of the job graph's n (9 bits at
  // congest:1 for n = 300), not that of the remainder (8 bits: 48 nodes
  // are left after the first repetition).
  Rng rng(8);
  const Graph g = gen::gnp(300, 0.02, rng);
  sim::RunOptions opts = test::run_opts(1);
  opts.policy = sim::BandwidthPolicy::congest(1);
  const auto res = run_proposal_matching(g, opts, ProposalParams{});
  EXPECT_EQ(res.matching.size(), 126u);
  EXPECT_EQ(res.metrics.bandwidth_cap, 9u);
  EXPECT_LE(res.metrics.max_edge_bits, res.metrics.bandwidth_cap);
}

class ProposalSeeds : public ::testing::TestWithParam<int> {};

TEST_P(ProposalSeeds, BipartiteMatchingQuality) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed);
  const Graph g = gen::bipartite_gnp(60, 60, 0.08, rng);
  const auto parts = try_bipartition(g);
  ASSERT_TRUE(parts.has_value());
  ProposalParams params;
  params.epsilon = 0.2;
  const auto res =
      run_proposal_matching_bipartite(g, *parts, test::run_opts(seed), params);
  EXPECT_TRUE(is_matching(g, res.matching));
  // Lemma B.13: few unlucky left nodes.
  std::size_t left_in_opt = 0;
  const auto opt = hopcroft_karp(g, *parts);
  left_in_opt = opt.matching.size();
  EXPECT_LE(res.unlucky.size(),
            std::max<std::size_t>(3, left_in_opt / 3))
      << "seed " << seed;
  EXPECT_GE(res.matching.size() * (2.0 + params.epsilon) + 3.0,
            static_cast<double>(opt.matching.size()))
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProposalSeeds, ::testing::Range(1, 7));

TEST(Proposal, GeneralGraphWrapper) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const Graph g = gen::gnp(90, 0.07, rng);
    ProposalParams params;
    params.epsilon = 0.2;
    const auto res = run_proposal_matching(g, test::run_opts(seed), params);
    EXPECT_TRUE(is_matching(g, res.matching));
    const std::size_t opt = blossom_mcm(g).matching.size();
    EXPECT_GE(res.matching.size() * (2.0 + params.epsilon) + 2.0,
              static_cast<double>(opt))
        << "seed " << seed;
  }
}

TEST(Proposal, PerfectOnDisjointEdges) {
  // A perfect matching exists and every proposal must land: n/2 edges.
  GraphBuilder b(10);
  for (NodeId v = 0; v < 10; v += 2) b.add_edge(v, v + 1);
  const Graph g = b.build();
  const auto parts = try_bipartition(g);
  const auto res = run_proposal_matching_bipartite(g, *parts,
                                                   test::run_opts(3));
  EXPECT_EQ(res.matching.size(), 5u);
  EXPECT_TRUE(res.unlucky.empty());
}

TEST(Proposal, RespectsCongestCap) {
  Rng rng(4);
  const Graph g = gen::bipartite_gnp(50, 50, 0.1, rng);
  const auto parts = try_bipartition(g);
  const auto res = run_proposal_matching_bipartite(g, *parts,
                                                   test::run_opts(4));
  EXPECT_LE(res.metrics.max_edge_bits, res.metrics.bandwidth_cap);
}

}  // namespace
}  // namespace distapx
