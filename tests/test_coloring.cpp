#include <gtest/gtest.h>

#include "coloring/coloring.hpp"
#include "coloring/linial.hpp"
#include "coloring/rand_coloring.hpp"
#include "graph/generators.hpp"
#include "support/bits.hpp"
#include "test_helpers.hpp"

namespace distapx {
namespace {

TEST(GreedyColoring, ProperAndBounded) {
  for (const auto& fc : test::small_families(1)) {
    const auto colors = greedy_coloring(fc.graph);
    EXPECT_TRUE(is_proper_coloring(fc.graph, colors)) << fc.name;
    for (Color c : colors) EXPECT_LE(c, fc.graph.max_degree()) << fc.name;
  }
}

TEST(NextPrime, SmallValues) {
  EXPECT_EQ(next_prime(0), 2u);
  EXPECT_EQ(next_prime(2), 2u);
  EXPECT_EQ(next_prime(3), 3u);
  EXPECT_EQ(next_prime(4), 5u);
  EXPECT_EQ(next_prime(14), 17u);
  EXPECT_EQ(next_prime(100), 101u);
}

TEST(LinialSchedule, ReachesQuadraticPalette) {
  const auto s = build_linial_schedule(1u << 16, 8);
  EXPECT_GT(s.steps.size(), 0u);
  EXPECT_LE(s.steps.size(), 6u);  // log*-ish
  EXPECT_LE(s.final_colors, 4ull * (2 * 8 + 1) * (2 * 8 + 1));
  // Each step must strictly shrink and be internally consistent.
  std::uint64_t m = 1u << 16;
  for (const auto& step : s.steps) {
    EXPECT_EQ(step.m_in, m);
    EXPECT_LT(step.m_out, step.m_in);
    EXPECT_EQ(step.m_out, step.q * step.q);
    EXPECT_GT(step.q, static_cast<std::uint64_t>(step.degree) * 8);
    // q^{d+1} >= m so every color has a polynomial representation.
    double pow = 1;
    for (std::uint32_t i = 0; i <= step.degree; ++i) {
      pow *= static_cast<double>(step.q);
    }
    EXPECT_GE(pow, static_cast<double>(step.m_in));
    m = step.m_out;
  }
  EXPECT_EQ(s.final_colors, m);
}

TEST(LinialSchedule, TrivialWhenFewNodes) {
  const auto s = build_linial_schedule(4, 3);
  EXPECT_TRUE(s.steps.empty());
  EXPECT_EQ(s.final_colors, 4u);
}

class LinialFamilies : public ::testing::TestWithParam<int> {};

TEST_P(LinialFamilies, ProperDeltaPlusOneColoring) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const auto& fc : test::small_families(seed)) {
    const auto res = linial_coloring(fc.graph, test::run_opts());
    EXPECT_TRUE(is_proper_coloring(fc.graph, res.colors)) << fc.name;
    EXPECT_LE(res.num_colors, fc.graph.max_degree() + 1) << fc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinialFamilies, ::testing::Values(1, 2));

TEST(Linial, MediumGraphs) {
  for (const auto& fc : test::medium_families(1)) {
    const auto res = linial_coloring(fc.graph, test::run_opts());
    EXPECT_TRUE(is_proper_coloring(fc.graph, res.colors)) << fc.name;
    EXPECT_LE(res.num_colors, fc.graph.max_degree() + 1) << fc.name;
  }
}

TEST(Linial, DeterministicAndRoundStructure) {
  Rng rng(3);
  const Graph g = gen::gnp(100, 0.06, rng);
  const auto a = linial_coloring(g, test::run_opts());
  const auto b = linial_coloring(g, test::run_opts());
  EXPECT_EQ(a.colors, b.colors);
  // Rounds = reduction steps + class-elimination rounds (O(Δ²) dominated).
  const auto schedule = build_linial_schedule(100, g.max_degree());
  const std::uint64_t expect =
      schedule.steps.size() +
      (schedule.final_colors > g.max_degree() + 1
           ? schedule.final_colors - g.max_degree() - 1
           : 0);
  EXPECT_EQ(a.metrics.rounds, expect);
}

TEST(Linial, EliminationRoundsScaleWithDeltaNotN) {
  // The log* n part is tiny; elimination is O(Δ²) independent of n.
  Rng rng1(4), rng2(5);
  const Graph small_n = gen::random_regular(128, 4, rng1);
  const Graph large_n = gen::random_regular(1024, 4, rng2);
  const auto r1 = linial_coloring(small_n, test::run_opts());
  const auto r2 = linial_coloring(large_n, test::run_opts());
  // Same Δ: rounds should be within a couple of reduction steps.
  EXPECT_LE(r2.metrics.rounds,
            r1.metrics.rounds + 6);
}

class RandColoringFamilies : public ::testing::TestWithParam<int> {};

TEST_P(RandColoringFamilies, ProperDeltaPlusOne) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const auto& fc : test::small_families(seed)) {
    const auto res = randomized_coloring(fc.graph, test::run_opts(seed));
    EXPECT_TRUE(is_proper_coloring(fc.graph, res.colors)) << fc.name;
    EXPECT_LE(res.num_colors, fc.graph.max_degree() + 1) << fc.name;
  }
  for (const auto& fc : test::medium_families(seed)) {
    const auto res = randomized_coloring(fc.graph, test::run_opts(seed));
    EXPECT_TRUE(is_proper_coloring(fc.graph, res.colors)) << fc.name;
    EXPECT_LE(res.num_colors, fc.graph.max_degree() + 1) << fc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandColoringFamilies,
                         ::testing::Range(1, 5));

TEST(RandColoring, LogarithmicRounds) {
  for (NodeId n : {256u, 1024u}) {
    Rng rng(n);
    const Graph g = gen::gnp(n, 6.0 / n, rng);
    const auto res = randomized_coloring(g, test::run_opts(3));
    EXPECT_LE(res.metrics.rounds, 14 * ceil_log2(n)) << n;
  }
}

TEST(RandColoring, CompleteGraphUsesWholePalette) {
  const Graph g = gen::complete(9);
  const auto res = randomized_coloring(g, test::run_opts(2));
  EXPECT_TRUE(is_proper_coloring(g, res.colors));
  EXPECT_EQ(res.num_colors, 9u);
}

}  // namespace
}  // namespace distapx
