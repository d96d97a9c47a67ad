// Cross-module integration tests: all algorithms on shared workloads,
// CONGEST legality everywhere, end-to-end determinism.
#include <gtest/gtest.h>

#include "coloring/coloring.hpp"
#include "graph/algos.hpp"
#include "graph/generators.hpp"
#include "matching/blossom.hpp"
#include "matching/exact_mwm.hpp"
#include "matching/hk_framework.hpp"
#include "matching/lr_matching.hpp"
#include "matching/mcm_congest.hpp"
#include "matching/nmm_2eps.hpp"
#include "matching/proposal.hpp"
#include "matching/weighted_2eps.hpp"
#include "maxis/coloring_maxis.hpp"
#include "maxis/exact.hpp"
#include "maxis/layered_maxis.hpp"
#include "maxis/local_ratio_seq.hpp"
#include "mis/luby.hpp"
#include "test_helpers.hpp"

namespace distapx {
namespace {

TEST(Integration, AllMaxIsAlgorithmsRespectDeltaBoundOnOneWorkload) {
  Rng rng(1);
  const Graph g = gen::gnp(18, 0.25, rng);
  const auto w = gen::uniform_node_weights(g.num_nodes(), 40, rng);
  const Weight opt = test::brute_force_maxis_weight(g, w);
  const Weight delta = std::max<std::uint32_t>(g.max_degree(), 1);

  std::vector<std::pair<std::string, Weight>> results;
  results.emplace_back(
      "seq_single",
      set_weight(w, seq_local_ratio_maxis(
                        g, w, LocalRatioPolicy::kSingleMaxWeight)
                        .independent_set));
  results.emplace_back(
      "seq_toplayer",
      set_weight(w, seq_local_ratio_maxis(
                        g, w, LocalRatioPolicy::kTopLayerMis)
                        .independent_set));
  results.emplace_back(
      "alg2",
      set_weight(w, run_layered_maxis(g, w, test::run_opts()).independent_set));
  results.emplace_back(
      "alg2_agg",
      set_weight(
          w, run_layered_maxis_agg(g, w, test::run_opts()).independent_set));
  results.emplace_back(
      "alg3",
      set_weight(w, run_coloring_maxis_with(g, w, greedy_coloring(g),
                                            test::run_opts())
                        .independent_set));
  for (const auto& [name, got] : results) {
    EXPECT_GE(got * delta, opt) << name;
    EXPECT_GT(got, 0) << name;
  }
}

TEST(Integration, AllMatchingAlgorithmsOnOneWorkload) {
  Rng rng(2);
  const Graph g = gen::gnp(16, 0.3, rng);
  const auto w = gen::uniform_edge_weights(g.num_edges(), 50, rng);
  const Weight opt_w = matching_weight(w, exact_mwm_small(g, w).matching);
  const std::size_t opt_c = blossom_mcm(g).matching.size();

  const auto lr = run_lr_matching(g, w, test::run_opts(2));
  EXPECT_GE(matching_weight(w, lr.matching) * 2, opt_w);

  const auto nmm = run_nmm_2eps_matching(g, test::run_opts(2));
  EXPECT_GE(nmm.matching.size() * 2.5, static_cast<double>(opt_c));

  const auto w2 = run_weighted_2eps_matching(g, w, test::run_opts(2));
  EXPECT_GE(matching_weight(w, w2.matching) * 3, opt_w);

  HkApproxParams hk;
  hk.algo = PathSetAlgo::kGreedyMaximal;
  const auto h = run_hk_matching_local(g, 2, hk);
  EXPECT_GE(h.matching.size() * (1.0 + hk.epsilon),
            static_cast<double>(opt_c));

  const auto mc = run_mcm_1eps_congest(g, test::run_opts(2));
  EXPECT_GE((mc.matching.size() + mc.deactivated.size()) * 1.4,
            static_cast<double>(opt_c));

  const auto prop = run_proposal_matching(g, test::run_opts(2));
  EXPECT_GE(prop.matching.size() * 2.5 + 1.0,
            static_cast<double>(opt_c));
}

TEST(Integration, CongestLegalityAcrossAlgorithms) {
  Rng rng(3);
  const Graph g = gen::power_law(120, 2.5, 5.0, rng);  // skewed degrees
  const auto nw = gen::uniform_node_weights(g.num_nodes(), 200, rng);
  const auto ew = gen::uniform_edge_weights(g.num_edges(), 200, rng);

  auto luby_opts = test::run_opts(3);
  luby_opts.policy = sim::BandwidthPolicy::congest(8);  // Luby's own width
  const auto mis = run_luby_mis(g, luby_opts);
  EXPECT_LE(mis.metrics.max_edge_bits, mis.metrics.bandwidth_cap);

  const auto alg2 = run_layered_maxis(g, nw, test::run_opts(3));
  EXPECT_LE(alg2.metrics.max_edge_bits, alg2.metrics.bandwidth_cap);

  const auto lr = run_lr_matching(g, ew, test::run_opts(3));
  EXPECT_LE(lr.metrics.max_edge_bits, lr.metrics.bandwidth_cap);

  const auto nmm = run_nmm_2eps_matching(g, test::run_opts(3));
  EXPECT_LE(nmm.metrics.max_edge_bits, nmm.metrics.bandwidth_cap);
}

TEST(Integration, WeightedPipelineOnCaterpillar) {
  // Structured family with exact forest baseline at scale.
  const Graph g = gen::caterpillar(50, 3);
  Rng rng(4);
  const auto w =
      gen::exponential_node_weights(g.num_nodes(), 1 << 12, rng);
  const Weight opt = set_weight(w, exact_maxis_forest(g, w).independent_set);
  const auto alg2 = run_layered_maxis(g, w, test::run_opts(4));
  const auto alg3 = run_coloring_maxis(g, w, ColoringSource::kRandomized,
                                       test::run_opts(4));
  const Weight delta = g.max_degree();
  EXPECT_GE(set_weight(w, alg2.independent_set) * delta, opt);
  EXPECT_GE(set_weight(w, alg3.independent_set) * delta, opt);
}

TEST(Integration, DeterministicEndToEnd) {
  Rng rng(5);
  const Graph g = gen::gnp(50, 0.1, rng);
  const auto ew = gen::uniform_edge_weights(g.num_edges(), 64, rng);
  const auto a1 = run_nmm_2eps_matching(g, test::run_opts(77));
  const auto a2 = run_nmm_2eps_matching(g, test::run_opts(77));
  EXPECT_EQ(a1.matching, a2.matching);
  const auto b1 = run_weighted_2eps_matching(g, ew, test::run_opts(77));
  const auto b2 = run_weighted_2eps_matching(g, ew, test::run_opts(77));
  EXPECT_EQ(b1.matching, b2.matching);
  const auto c1 = run_mcm_1eps_congest(g, test::run_opts(77));
  const auto c2 = run_mcm_1eps_congest(g, test::run_opts(77));
  EXPECT_EQ(c1.matching, c2.matching);
}

TEST(Integration, EmptyAndTinyGraphs) {
  // Degenerate inputs should not crash any public entry point.
  const Graph empty = GraphBuilder(0).build();
  EXPECT_TRUE(run_luby_mis(empty, test::run_opts()).independent_set.empty());
  EXPECT_TRUE(
      run_layered_maxis(empty, {}, test::run_opts()).independent_set.empty());
  EXPECT_TRUE(run_lr_matching(empty, {}, test::run_opts()).matching.empty());

  const Graph one = GraphBuilder(1).build();
  EXPECT_EQ(run_luby_mis(one, test::run_opts()).independent_set.size(), 1u);
  EXPECT_EQ(
      run_layered_maxis(one, {5}, test::run_opts()).independent_set.size(),
      1u);

  GraphBuilder b2(2);
  b2.add_edge(0, 1);
  const Graph edge = b2.build();
  EXPECT_EQ(run_lr_matching(edge, {7}, test::run_opts()).matching.size(), 1u);
  EXPECT_EQ(run_nmm_2eps_matching(edge, test::run_opts()).matching.size(), 1u);
}

}  // namespace
}  // namespace distapx
