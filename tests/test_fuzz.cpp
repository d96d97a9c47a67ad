// Cross-algorithm fuzz sweep: random (family, weights, algorithm, seed)
// combinations, verifying every structural invariant on each. Complements
// the targeted suites with breadth — any EnsureError (model violation,
// CONGEST cap breach, broken invariant) fails the test.
#include <gtest/gtest.h>

#include "coloring/coloring.hpp"
#include "graph/algos.hpp"
#include "graph/generators.hpp"
#include "matching/lr_matching.hpp"
#include "matching/lr_matching_det.hpp"
#include "matching/mcm_congest.hpp"
#include "matching/nmm_2eps.hpp"
#include "matching/proposal.hpp"
#include "matching/weighted_2eps.hpp"
#include "maxis/coloring_maxis.hpp"
#include "maxis/layered_maxis.hpp"
#include "mis/ghaffari_nmis.hpp"
#include "mis/luby.hpp"
#include "test_helpers.hpp"

namespace distapx {
namespace {

Graph random_family(Rng& rng) {
  switch (rng.next_below(9)) {
    case 0:
      return gen::gnp(40 + rng.next_below(80), 0.06, rng);
    case 1:
      return gen::random_regular(64, 2 + 2 * rng.next_below(4), rng);
    case 2:
      return gen::random_tree(60 + rng.next_below(100), rng);
    case 3:
      return gen::grid(4 + rng.next_below(6), 4 + rng.next_below(6));
    case 4:
      return gen::bipartite_gnp(30, 30, 0.08, rng);
    case 5:
      return gen::power_law(80, 2.5, 4.0, rng);
    case 6:
      return gen::caterpillar(10 + rng.next_below(20), 1 + rng.next_below(3));
    case 7:
      return gen::barbell(4 + rng.next_below(4), rng.next_below(5));
    default:
      return gen::star(20 + rng.next_below(60));
  }
}

class Fuzz : public ::testing::TestWithParam<int> {};

TEST_P(Fuzz, AllAlgorithmsAllInvariants) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(hash_combine(seed, 0xf0));
  const Graph g = random_family(rng);
  const auto nw = gen::log_uniform_node_weights(
      g.num_nodes(), 1 + rng.next_below(1 << 14), rng);
  const auto ew = gen::uniform_edge_weights(
      g.num_edges(), 1 + rng.next_below(1 << 10), rng);

  // MIS.
  const auto mis = run_luby_mis(g, test::run_opts(seed));
  ASSERT_TRUE(is_maximal_independent_set(g, mis.independent_set));
  const auto nmis = run_nmis(g, test::run_opts(seed));
  ASSERT_TRUE(is_independent_set(g, nmis.independent_set));

  // MaxIS (both algorithms).
  const auto alg2 = run_layered_maxis(g, nw, test::run_opts(seed));
  ASSERT_TRUE(is_independent_set(g, alg2.independent_set));
  ASSERT_LE(alg2.metrics.max_edge_bits, alg2.metrics.bandwidth_cap);
  const auto alg3 = run_coloring_maxis_with(g, nw, greedy_coloring(g),
                                            test::run_opts());
  ASSERT_TRUE(is_independent_set(g, alg3.independent_set));

  if (g.num_edges() == 0) return;

  // Matchings.
  const auto lr = run_lr_matching(g, ew, test::run_opts(seed));
  ASSERT_TRUE(is_matching(g, lr.matching));
  ASSERT_LE(lr.metrics.max_edge_bits, lr.metrics.bandwidth_cap);

  const auto det = run_lr_matching_deterministic(g, ew, test::run_opts());
  ASSERT_TRUE(is_matching(g, det.matching));

  const auto nmm = run_nmm_2eps_matching(g, test::run_opts(seed));
  ASSERT_TRUE(is_matching(g, nmm.matching));
  ASSERT_TRUE(is_maximal_matching(
      g, complete_matching_greedily(g, nmm.matching)));

  const auto w2 = run_weighted_2eps_matching(g, ew, test::run_opts(seed));
  ASSERT_TRUE(is_matching(g, w2.matching));

  const auto prop = run_proposal_matching(g, test::run_opts(seed));
  ASSERT_TRUE(is_matching(g, prop.matching));

  McmCongestParams mcp;
  mcp.epsilon = 0.5;  // keep the fuzz iteration cheap
  mcp.stages = 4;
  const auto mc = run_mcm_1eps_congest(g, test::run_opts(seed), mcp);
  ASSERT_TRUE(is_matching(g, mc.matching));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz, ::testing::Range(1, 21));

TEST(FuzzObserver, TraceMatchesMetrics) {
  Rng rng(3);
  const Graph g = gen::gnp(60, 0.08, rng);
  sim::Network net(g);
  sim::RunOptions opts;
  std::uint64_t traced_msgs = 0, traced_bits = 0;
  std::uint32_t last_round = 0;
  NodeId final_halted = 0;
  opts.observer = [&](const sim::RoundSample& s) {
    traced_msgs += s.messages;
    traced_bits += s.bits;
    last_round = s.round;
    final_halted = s.nodes_halted;
  };
  const auto res = net.run(make_luby_program(g), opts);
  EXPECT_EQ(traced_msgs, res.metrics.messages);
  EXPECT_EQ(traced_bits, res.metrics.total_bits);
  EXPECT_EQ(last_round, res.metrics.rounds);
  EXPECT_EQ(final_halted, g.num_nodes());
}

}  // namespace
}  // namespace distapx
