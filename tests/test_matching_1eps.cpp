// Appendix B.2/B.3 tests: hypergraph NMM, the LOCAL (1+ε) framework, the
// bipartite CONGEST augmenting-path machinery, and Theorem B.12.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "graph/algos.hpp"
#include "graph/generators.hpp"
#include "matching/bipartite_paths.hpp"
#include "matching/blossom.hpp"
#include "matching/hk_framework.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/hypergraph_nmm.hpp"
#include "matching/mcm_congest.hpp"
#include "support/assert.hpp"
#include "test_helpers.hpp"

namespace distapx {
namespace {

// ---- hypergraph nearly-maximal matching ------------------------------------

Hypergraph random_hypergraph(NodeId n, HyperedgeId m, std::uint32_t rank,
                             Rng& rng) {
  std::vector<std::vector<NodeId>> edges;
  for (HyperedgeId e = 0; e < m; ++e) {
    const auto size = 2 + rng.next_below(rank - 1);
    const auto verts = rng.sample_without_replacement(
        n, static_cast<std::uint32_t>(size));
    edges.emplace_back(verts.begin(), verts.end());
  }
  return Hypergraph(n, std::move(edges));
}

class HypergraphNmmSeeds : public ::testing::TestWithParam<int> {};

TEST_P(HypergraphNmmSeeds, MatchingAndMaximalityOnActive) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed);
  const Hypergraph h = random_hypergraph(60, 120, 4, rng);
  const auto res = run_hypergraph_nmm(h, seed);
  EXPECT_TRUE(h.is_matching(res.matching));
  EXPECT_TRUE(res.drained);
  // Maximality on active nodes: every hyperedge with all nodes active must
  // intersect the matching.
  std::vector<bool> active(h.num_vertices(), true);
  for (NodeId v : res.deactivated) active[v] = false;
  std::vector<bool> covered(h.num_vertices(), false);
  for (HyperedgeId e : res.matching) {
    for (NodeId v : h.vertices(e)) covered[v] = true;
  }
  for (HyperedgeId e = 0; e < h.num_hyperedges(); ++e) {
    bool all_active = true, touches = false;
    for (NodeId v : h.vertices(e)) {
      all_active = all_active && active[v];
      touches = touches || covered[v];
    }
    EXPECT_TRUE(!all_active || touches) << "hyperedge " << e;
  }
  // Deactivation should be rare (Lemma B.10; δ = 0.05).
  EXPECT_LE(res.deactivated.size(), h.num_vertices() / 5u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HypergraphNmmSeeds, ::testing::Range(1, 8));

TEST(HypergraphNmm, Rank2MatchesGraphSemantics) {
  // A rank-2 hypergraph is a graph: NMM should produce a matching that is
  // near-maximal in the usual sense.
  Rng rng(3);
  std::vector<std::vector<NodeId>> edges;
  const Graph g = gen::gnp(40, 0.1, rng);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    edges.push_back({u, v});
  }
  Hypergraph h(40, std::move(edges));
  const auto res = run_hypergraph_nmm(h, 3);
  std::vector<EdgeId> matching(res.matching.begin(), res.matching.end());
  EXPECT_TRUE(is_matching(g, matching));
}

TEST(HypergraphNmm, EmptyAndSingleton) {
  Hypergraph empty(5, {});
  const auto res = run_hypergraph_nmm(empty, 1);
  EXPECT_TRUE(res.matching.empty());
  EXPECT_TRUE(res.drained);
  Hypergraph single(3, {{0, 1, 2}});
  const auto res1 = run_hypergraph_nmm(single, 1);
  EXPECT_EQ(res1.matching.size(), 1u);
}

// ---- LOCAL (1+ε) framework --------------------------------------------------

class HkLocalSeeds : public ::testing::TestWithParam<int> {};

TEST_P(HkLocalSeeds, GreedyModeGivesOnePlusEps) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed);
  const Graph g = gen::gnp(60, 0.08, rng);
  HkApproxParams params;
  params.epsilon = 1.0 / 3.0;
  params.algo = PathSetAlgo::kGreedyMaximal;
  const auto res = run_hk_matching_local(g, seed, params);
  EXPECT_TRUE(is_matching(g, res.matching));
  const std::size_t opt = blossom_mcm(g).matching.size();
  EXPECT_GE(res.matching.size() * (1.0 + params.epsilon),
            static_cast<double>(opt))
      << "seed " << seed;
  EXPECT_TRUE(res.deactivated.empty());
  // HK fact (1): no augmenting path of length <= 2⌈1/ε⌉+1 remains.
  const auto mate = mates_of(g, res.matching);
  EXPECT_EQ(shortest_augmenting_path_length(g, mate, 7), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HkLocalSeeds, ::testing::Range(1, 7));

class HkNmmSeeds : public ::testing::TestWithParam<int> {};

TEST_P(HkNmmSeeds, NmmModeGivesOnePlusEpsOnActive) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed);
  const Graph g = gen::gnp(50, 0.1, rng);
  HkApproxParams params;
  params.epsilon = 1.0 / 3.0;
  params.algo = PathSetAlgo::kHypergraphNmm;
  const auto res = run_hk_matching_local(g, seed, params);
  EXPECT_TRUE(is_matching(g, res.matching));
  const std::size_t opt = blossom_mcm(g).matching.size();
  // Deactivations may cost a little; Theorem B.4 accounting.
  EXPECT_GE((res.matching.size() + res.deactivated.size()) *
                (1.0 + params.epsilon),
            static_cast<double>(opt))
      << "seed " << seed;
  // No augmenting path among non-deactivated nodes.
  std::vector<bool> active(g.num_nodes(), true);
  for (NodeId v : res.deactivated) active[v] = false;
  const auto mate = mates_of(g, res.matching);
  EXPECT_EQ(shortest_augmenting_path_length(g, mate, 7, active), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HkNmmSeeds, ::testing::Range(1, 6));

TEST(HkLocal, PerfectOnEvenPath) {
  const Graph p = gen::path(10);
  HkApproxParams params;
  params.epsilon = 0.2;
  params.algo = PathSetAlgo::kGreedyMaximal;
  const auto res = run_hk_matching_local(p, 1, params);
  EXPECT_EQ(res.matching.size(), 5u);
}

// ---- bipartite traversal (Claims B.5/B.6, Figure 1) -------------------------

/// Brute-force per-node count of length-d augmenting paths (d = shortest).
std::vector<double> brute_counts(const Graph& g,
                                 const std::vector<NodeId>& mate,
                                 std::uint32_t d) {
  std::vector<double> counts(g.num_nodes(), 0.0);
  for (const auto& path : enumerate_augmenting_paths(g, mate, d)) {
    for (NodeId v : path) counts[v] += 1.0;
  }
  return counts;
}

class TraversalSeeds : public ::testing::TestWithParam<int> {};

TEST_P(TraversalSeeds, CountsMatchBruteForce) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed);
  const Graph g = gen::bipartite_gnp(10, 10, 0.25, rng);
  const auto parts = try_bipartition(g);
  ASSERT_TRUE(parts.has_value());
  std::vector<NodeId> mate(g.num_nodes(), kInvalidNode);
  std::vector<EdgeId> matched_edge(g.num_nodes(), kInvalidEdge);

  for (std::uint32_t d = 1; d <= 5; d += 2) {
    // Establish the precondition: flip all shorter paths maximally.
    for (std::uint32_t s = 1; s < d; s += 2) {
      for (;;) {
        const auto paths = enumerate_augmenting_paths(g, mate, s);
        if (paths.empty()) break;
        std::vector<bool> used(g.num_nodes(), false);
        bool any = false;
        for (const auto& path : paths) {
          if (std::any_of(path.begin(), path.end(),
                          [&](NodeId v) { return used[v]; })) {
            continue;
          }
          for (NodeId v : path) used[v] = true;
          flip_augmenting_path(g, mate, matched_edge, path);
          any = true;
        }
        if (!any) break;
      }
    }
    if (shortest_augmenting_path_length(g, mate, d) != d) continue;
    const auto traversal =
        count_augmenting_paths_per_node(g, *parts, mate, d);
    const auto brute = brute_counts(g, mate, d);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_NEAR(traversal[v], brute[v], 1e-6)
          << "d=" << d << " node " << v << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraversalSeeds, ::testing::Range(1, 10));

TEST(Traversal, Figure1StyleManualGraph) {
  // A small instance mirroring Figure 1's structure: 4 A-nodes, 4 B-nodes,
  // a partial matching, count the length-3 augmenting paths by hand.
  GraphBuilder b(8);  // A = {0,1,2,3}, B = {4,5,6,7}
  // matching: (1,5), (2,6)
  b.add_edge(0, 5);  // free A 0 -> matched B 5
  b.add_edge(1, 5);
  b.add_edge(1, 4);  // matched A 1 -> free B 4
  b.add_edge(0, 6);
  b.add_edge(2, 6);
  b.add_edge(2, 7);  // matched A 2 -> free B 7
  const Graph g = b.build();
  Bipartition parts;
  parts.side.assign(8, Side::kRight);
  for (NodeId v = 0; v < 4; ++v) parts.side[v] = Side::kLeft;
  std::vector<NodeId> mate(8, kInvalidNode);
  mate[1] = 5;
  mate[5] = 1;
  mate[2] = 6;
  mate[6] = 2;
  // Length-3 augmenting paths from free A (0,3): 0-5-1-4 and 0-6-2-7.
  const auto counts = count_augmenting_paths_per_node(g, parts, mate, 3);
  EXPECT_DOUBLE_EQ(counts[0], 2.0);
  EXPECT_DOUBLE_EQ(counts[1], 1.0);
  EXPECT_DOUBLE_EQ(counts[2], 1.0);
  EXPECT_DOUBLE_EQ(counts[4], 1.0);
  EXPECT_DOUBLE_EQ(counts[7], 1.0);
  EXPECT_DOUBLE_EQ(counts[3], 0.0);
}

class FindFlipSeeds : public ::testing::TestWithParam<int> {};

TEST_P(FindFlipSeeds, FlipsDisjointPathsUntilDrained) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed);
  const Graph g = gen::bipartite_gnp(15, 15, 0.2, rng);
  const auto parts = try_bipartition(g);
  ASSERT_TRUE(parts.has_value());
  std::vector<NodeId> mate(g.num_nodes(), kInvalidNode);
  std::vector<bool> active(g.num_nodes(), true);
  Rng search_rng(hash_combine(seed, 1));

  for (std::uint32_t d = 1; d <= 5; d += 2) {
    AugPathSearchParams params;
    params.d = d;
    const auto res = find_and_flip_aug_paths_bipartite(
        g, *parts, mate, active, params, search_rng);
    EXPECT_TRUE(res.drained) << "d=" << d;
    for (const auto& path : res.flipped) {
      EXPECT_EQ(path.size(), d + 1) << "d=" << d;
    }
    // No length-d augmenting path among active nodes remains.
    EXPECT_EQ(shortest_augmenting_path_length(g, mate, d, active), 0u)
        << "d=" << d << " seed " << seed;
  }
  // The matching view must still be consistent.
  std::size_t matched = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (mate[v] != kInvalidNode) {
      EXPECT_EQ(mate[mate[v]], v);
      ++matched;
    }
  }
  EXPECT_EQ(matched % 2, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FindFlipSeeds, ::testing::Range(1, 8));

// Every node-indexed input must cover the whole graph: a short vector would
// be read past its end by the traversal.
struct ShortInputs {
  Graph g;
  Bipartition parts, short_parts;
  std::vector<NodeId> mate, short_mate;
  std::vector<bool> active, short_active;
};

ShortInputs short_inputs() {
  Rng rng(21);
  ShortInputs in;
  in.g = gen::bipartite_gnp(6, 6, 0.5, rng);
  const NodeId n = in.g.num_nodes();
  in.parts = *try_bipartition(in.g);
  in.short_parts = in.parts;
  in.short_parts.side.pop_back();
  in.mate.assign(n, kInvalidNode);
  in.short_mate.assign(n - 1, kInvalidNode);
  in.active.assign(n, true);
  in.short_active.assign(n - 1, true);
  return in;
}

TEST(Traversal, RejectsShortInputs) {
  const ShortInputs in = short_inputs();
  EXPECT_THROW(count_augmenting_paths_per_node(in.g, in.parts, in.mate, 1,
                                               in.short_active),
               EnsureError);
  EXPECT_THROW(
      count_augmenting_paths_per_node(in.g, in.parts, in.short_mate, 1),
      EnsureError);
  EXPECT_THROW(
      count_augmenting_paths_per_node(in.g, in.short_parts, in.mate, 1),
      EnsureError);
  // An empty `active` still means "all nodes".
  EXPECT_NO_THROW(count_augmenting_paths_per_node(in.g, in.parts, in.mate, 1));
}

TEST(FindFlip, RejectsShortInputs) {
  ShortInputs in = short_inputs();
  AugPathSearchParams params;
  params.d = 1;
  Rng rng(22);
  EXPECT_THROW(find_and_flip_aug_paths_bipartite(in.g, in.parts, in.mate,
                                                 in.short_active, params, rng),
               EnsureError);
  EXPECT_THROW(find_and_flip_aug_paths_bipartite(in.g, in.parts, in.short_mate,
                                                 in.active, params, rng),
               EnsureError);
  EXPECT_THROW(find_and_flip_aug_paths_bipartite(in.g, in.short_parts, in.mate,
                                                 in.active, params, rng),
               EnsureError);
}

// ---- Theorem B.12 ------------------------------------------------------------

class McmCongestSeeds : public ::testing::TestWithParam<int> {};

TEST_P(McmCongestSeeds, OnePlusEpsOnGeneralGraphs) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed);
  const Graph g = gen::gnp(60, 0.08, rng);
  McmCongestParams params;
  params.epsilon = 1.0 / 3.0;
  const auto res = run_mcm_1eps_congest(g, test::run_opts(seed), params);
  EXPECT_TRUE(is_matching(g, res.matching));
  const std::size_t opt = blossom_mcm(g).matching.size();
  EXPECT_GE((res.matching.size() + res.deactivated.size()) *
                (1.0 + params.epsilon),
            static_cast<double>(opt))
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, McmCongestSeeds, ::testing::Range(1, 7));

TEST(McmCongest, BipartiteNearOptimal) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const Graph g = gen::bipartite_gnp(25, 25, 0.15, rng);
    McmCongestParams params;
    params.epsilon = 0.25;
    const auto res = run_mcm_1eps_congest(g, test::run_opts(seed), params);
    const std::size_t opt = hopcroft_karp(g).matching.size();
    EXPECT_GE((res.matching.size() + res.deactivated.size()) * 1.25,
              static_cast<double>(opt))
        << "seed " << seed;
  }
}

TEST(McmCongest, PathsAndCycles) {
  McmCongestParams params;
  params.epsilon = 0.25;
  const auto p = run_mcm_1eps_congest(gen::path(20), test::run_opts(2), params);
  EXPECT_GE(p.matching.size(), 8u);  // opt 10, (1+ε) with slack
  const auto c = run_mcm_1eps_congest(gen::cycle(20), test::run_opts(2),
                                      params);
  EXPECT_GE(c.matching.size(), 8u);
}

TEST(McmCongest, MatchingOnlyGrowsAcrossStages) {
  // Internal consistency: result must be at least a maximal-matching-size
  // fraction; specifically at least half of OPT (any maximal matching is).
  Rng rng(9);
  const Graph g = gen::gnp(70, 0.06, rng);
  const auto res = run_mcm_1eps_congest(g, test::run_opts(9));
  const std::size_t opt = blossom_mcm(g).matching.size();
  EXPECT_GE(res.matching.size() * 2 + res.deactivated.size(), opt);
}

TEST(McmCongest, RoundCapStopsBeforeAChargeWouldPassIt) {
  // Rounds are charged by formula; a run stops before the stage or search
  // iteration whose charge would pass opts.max_rounds and says so.
  Rng rng(9);
  const Graph g = gen::gnp(70, 0.06, rng);
  const auto full = run_mcm_1eps_congest(g, test::run_opts(9));
  ASSERT_TRUE(full.completed);
  for (const std::uint32_t cap : {0u, 1u, 3u, 100u, full.rounds - 1}) {
    auto opts = test::run_opts(9);
    opts.max_rounds = cap;
    const auto cut = run_mcm_1eps_congest(g, opts);
    EXPECT_LE(cut.rounds, cap);
    EXPECT_FALSE(cut.completed) << cap;
    EXPECT_TRUE(is_matching(g, cut.matching)) << cap;
  }
  auto exact = test::run_opts(9);
  exact.max_rounds = full.rounds;
  const auto same = run_mcm_1eps_congest(g, exact);
  EXPECT_TRUE(same.completed);
  EXPECT_EQ(same.rounds, full.rounds);
  EXPECT_EQ(same.matching, full.matching);
}


TEST(HypergraphNmm, ForcedDeactivationPathStillValid) {
  // Threshold 0-ish deactivates aggressively; the matching must stay
  // valid and maximality must hold among the surviving active nodes.
  Rng rng(13);
  const Hypergraph h = random_hypergraph(40, 90, 4, rng);
  HypergraphNmmParams params;
  params.good_round_threshold = 1;
  const auto res = run_hypergraph_nmm(h, 13, params);
  EXPECT_TRUE(h.is_matching(res.matching));
  EXPECT_TRUE(res.drained);
  std::vector<bool> active(h.num_vertices(), true);
  for (NodeId v : res.deactivated) active[v] = false;
  std::vector<bool> covered(h.num_vertices(), false);
  for (HyperedgeId e : res.matching) {
    for (NodeId v : h.vertices(e)) covered[v] = true;
  }
  for (HyperedgeId e = 0; e < h.num_hyperedges(); ++e) {
    bool all_active = true, touches = false;
    for (NodeId v : h.vertices(e)) {
      all_active = all_active && active[v];
      touches = touches || covered[v];
    }
    EXPECT_TRUE(!all_active || touches);
  }
}

TEST(FindFlip, ForcedDeactivationKeepsInvariant) {
  Rng rng(14);
  const Graph g = gen::bipartite_gnp(12, 12, 0.3, rng);
  const auto parts = try_bipartition(g);
  ASSERT_TRUE(parts.has_value());
  std::vector<NodeId> mate(g.num_nodes(), kInvalidNode);
  std::vector<bool> active(g.num_nodes(), true);
  Rng search_rng(15);
  AugPathSearchParams params;
  params.d = 1;
  params.good_threshold = 1;  // deactivate after a single good iteration
  const auto res = find_and_flip_aug_paths_bipartite(g, *parts, mate,
                                                     active, params,
                                                     search_rng);
  // Either drained naturally or everything left on a path was pulled out;
  // in both cases no active length-1 augmenting path may remain.
  EXPECT_EQ(shortest_augmenting_path_length(g, mate, 1, active), 0u);
  for (const auto& path : res.flipped) EXPECT_EQ(path.size(), 2u);
}

TEST(FindFlip, IterationCapDeactivatesCarriers) {
  Rng rng(16);
  const Graph g = gen::bipartite_gnp(10, 10, 0.4, rng);
  const auto parts = try_bipartition(g);
  std::vector<NodeId> mate(g.num_nodes(), kInvalidNode);
  std::vector<bool> active(g.num_nodes(), true);
  Rng search_rng(17);
  AugPathSearchParams params;
  params.d = 1;
  params.max_iterations = 1;  // force the cap path
  find_and_flip_aug_paths_bipartite(g, *parts, mate, active, params,
                                    search_rng);
  EXPECT_EQ(shortest_augmenting_path_length(g, mate, 1, active), 0u);
}

// ---- pinned B.3 search trajectories -----------------------------------------
//
// Exact outputs of the Appendix B.3 search on fixed seeds: iterations,
// charged rounds, flipped paths and deactivations in order, and the mates
// after each call. Any change to the traversals, the token walk, the
// attenuation updates or the deactivation order shows up here, so an engine
// rewrite that claims identical rows must keep every value.

constexpr NodeId kX = kInvalidNode;

struct SearchStep {
  std::uint32_t d;
  std::uint64_t good_threshold;  // 0 = the Lemma B.10 default
  std::uint32_t max_iterations;  // 0 = the default cap
  std::uint32_t iterations;
  std::uint32_t rounds;
  bool drained;
  std::vector<NodePath> flipped;
  std::vector<NodeId> deactivated;
  std::vector<NodeId> mate;  // after the step
};

/// Steps run in order on one mate/active state and one search Rng, the
/// way run_mcm_1eps_congest walks d = 1, 3, 5 within a stage.
struct SearchChain {
  NodeId a, b;
  double p;
  std::uint64_t graph_seed, search_seed;
  std::vector<SearchStep> steps;
};

void run_chain(const SearchChain& c) {
  Rng rng(c.graph_seed);
  const Graph g = gen::bipartite_gnp(c.a, c.b, c.p, rng);
  const auto parts = try_bipartition(g);
  ASSERT_TRUE(parts.has_value());
  std::vector<NodeId> mate(g.num_nodes(), kInvalidNode);
  std::vector<bool> active(g.num_nodes(), true);
  Rng search_rng(c.search_seed);
  for (const SearchStep& s : c.steps) {
    SCOPED_TRACE("d=" + std::to_string(s.d));
    AugPathSearchParams params;
    params.d = s.d;
    if (s.good_threshold != 0) params.good_threshold = s.good_threshold;
    if (s.max_iterations != 0) params.max_iterations = s.max_iterations;
    const auto res = find_and_flip_aug_paths_bipartite(
        g, *parts, mate, active, params, search_rng);
    EXPECT_EQ(res.iterations, s.iterations);
    EXPECT_EQ(res.rounds, s.rounds);
    EXPECT_EQ(res.drained, s.drained);
    EXPECT_EQ(res.flipped, s.flipped);
    EXPECT_EQ(res.deactivated, s.deactivated);
    EXPECT_EQ(mate, s.mate);
  }
}

TEST(FindFlipPins, Sparse15x15DepthsOneToFive) {
  run_chain({15, 15, 0.2, 1, 101, {
      {1, 0, 0, 47, 470, true,
       {{2, 15}, {8, 26}, {11, 21}, {6, 25}, {13, 19}, {12, 22}, {1, 18},
        {0, 20}, {10, 28}, {9, 17}, {4, 29}, {7, 16}},
       {},
       {20, 18, 15, kX, 29, kX, 25, 16, 26, 17, 28, 21, 22, 19, kX, 2, 7, 9,
        1, 13, 0, 11, 12, kX, kX, 6, 8, kX, 10, 4}},
      {3, 0, 0, 1693, 37246, true,
       {{5, 22, 12, 24}},
       {},
       {20, 18, 15, kX, 29, 22, 25, 16, 26, 17, 28, 21, 24, 19, kX, 2, 7, 9,
        1, 13, 0, 11, 5, kX, 12, 6, 8, kX, 10, 4}},
      {5, 0, 0, 0, 0, true,
       {},
       {},
       {20, 18, 15, kX, 29, 22, 25, 16, 26, 17, 28, 21, 24, 19, kX, 2, 7, 9,
        1, 13, 0, 11, 5, kX, 12, 6, 8, kX, 10, 4}},
  }});
}

TEST(FindFlipPins, Sparse30x30DepthsOneToFive) {
  run_chain({30, 30, 0.1, 2, 202, {
      {1, 0, 0, 200, 2000, true,
       {{28, 43}, {11, 54}, {2, 49}, {8, 45}, {6, 55}, {1, 34}, {20, 39},
        {19, 38}, {13, 41}, {18, 44}, {25, 31}, {29, 42}, {7, 52}, {24, 47},
        {27, 40}, {5, 58}, {21, 51}, {12, 50}, {4, 59}, {16, 48}, {15, 57},
        {22, 35}, {14, 36}},
       {},
       {kX, 34, 49, kX, 59, 58, 55, 52, 45, kX, kX, 54, 50, 41, 36, 57, 48,
        kX, 44, 38, 39, 51, 35, kX, 47, 31, kX, 40, 43, 42, kX, 25, kX, kX, 1,
        22, 14, kX, 19, 20, 27, 13, 29, 28, 18, 8, kX, 24, 16, 2, 12, 21, 7,
        kX, 11, 6, kX, 15, 5, 4}},
      {3, 0, 0, 216, 4752, true,
       {{0, 50, 12, 56}, {17, 45, 8, 30}},
       {},
       {50, 34, 49, kX, 59, 58, 55, 52, 30, kX, kX, 54, 56, 41, 36, 57, 48,
        45, 44, 38, 39, 51, 35, kX, 47, 31, kX, 40, 43, 42, 8, 25, kX, kX, 1,
        22, 14, kX, 19, 20, 27, 13, 29, 28, 18, 17, kX, 24, 16, 2, 0, 21, 7,
        kX, 11, 6, 12, 15, 5, 4}},
      {5, 0, 0, 10405, 353770, true,
       {{23, 41, 13, 42, 29, 46}},
       {},
       {50, 34, 49, kX, 59, 58, 55, 52, 30, kX, kX, 54, 56, 42, 36, 57, 48,
        45, 44, 38, 39, 51, 35, 41, 47, 31, kX, 40, 43, 46, 8, 25, kX, kX, 1,
        22, 14, kX, 19, 20, 27, 23, 13, 28, 18, 17, 29, 24, 16, 2, 0, 21, 7,
        kX, 11, 6, 12, 15, 5, 4}},
  }});
}

TEST(FindFlipPins, GoodThresholdOneDeactivates) {
  run_chain({40, 40, 0.08, 5, 55, {
      {1, 0, 0, 296, 2960, true,
       {{5, 52}, {36, 64}, {15, 77}, {21, 50}, {38, 79}, {17, 70}, {16, 43},
        {37, 69}, {8, 57}, {30, 47}, {14, 54}, {25, 42}, {10, 58}, {2, 40},
        {31, 65}, {3, 49}, {29, 56}, {12, 62}, {23, 46}, {7, 59}, {34, 73},
        {22, 53}, {9, 76}, {6, 63}, {19, 60}, {4, 45}, {32, 55}, {24, 72},
        {39, 61}, {11, 51}, {35, 74}, {28, 68}},
       {},
       {kX, kX, 40, 49, 45, 52, 63, 59, 57, 76, 58, 51, 62, kX, 54, 77, 43,
        70, kX, 60, kX, 50, 53, 46, 72, 42, kX, kX, 68, 56, 47, 65, 55, kX,
        73, 74, 64, 69, 79, 61, 2, kX, 25, 16, kX, 4, 23, 30, kX, 3, 21, 11,
        5, 22, 14, 32, 29, 8, 10, 7, 19, 39, 12, 6, 36, 31, kX, kX, 28, 37,
        17, kX, 24, 34, 35, kX, 9, 15, kX, 38}},
      {3, 1, 0, 13, 286, true,
       {{1, 79, 38, 48}, {13, 69, 37, 41}},
       {4, 8, 10, 15, 18, 20, 24, 27, 33, 45, 57, 58, 66, 71, 72, 75, 77, 78},
       {kX, 79, 40, 49, 45, 52, 63, 59, 57, 76, 58, 51, 62, 69, 54, 77, 43,
        70, kX, 60, kX, 50, 53, 46, 72, 42, kX, kX, 68, 56, 47, 65, 55, kX,
        73, 74, 64, 41, 48, 61, 2, 37, 25, 16, kX, 4, 23, 30, 38, 3, 21, 11,
        5, 22, 14, 32, 29, 8, 10, 7, 19, 39, 12, 6, 36, 31, kX, kX, 28, 13,
        17, kX, 24, 34, 35, kX, 9, 15, kX, 1}},
  }});
}

TEST(FindFlipPins, OneIterationCap) {
  run_chain({10, 10, 0.4, 16, 17, {
      {1, 0, 1, 1, 10, false,
       {},
       {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19},
       {kX, kX, kX, kX, kX, kX, kX, kX, kX, kX, kX, kX, kX, kX, kX, kX, kX,
        kX, kX, kX}},
  }});
}

TEST(FindFlipPins, ThreeIterationCapAtDepthThree) {
  run_chain({20, 20, 0.15, 18, 19, {
      {1, 0, 0, 221, 2210, true,
       {{18, 38}, {11, 25}, {0, 35}, {15, 29}, {13, 31}, {1, 22}, {3, 32},
        {16, 20}, {2, 30}, {6, 37}, {4, 34}, {9, 24}, {7, 28}, {10, 27},
        {14, 33}},
       {},
       {35, 22, 30, 32, 34, kX, 37, 28, kX, 24, 27, 25, kX, 31, 33, 29, 20,
        kX, 38, kX, 16, kX, 1, kX, 9, 11, kX, 10, 7, 15, 2, 13, 3, 14, 4, 0,
        kX, 6, 18, kX}},
      {3, 0, 3, 3, 66, false,
       {},
       {5, 6, 17, 36, 37},
       {35, 22, 30, 32, 34, kX, 37, 28, kX, 24, 27, 25, kX, 31, 33, 29, 20,
        kX, 38, kX, 16, kX, 1, kX, 9, 11, kX, 10, 7, 15, 2, 13, 3, 14, 4, 0,
        kX, 6, 18, kX}},
  }});
}

struct McmPin {
  std::uint64_t seed;
  std::uint32_t rounds;
  std::vector<EdgeId> matching;
  std::vector<NodeId> deactivated;
};

TEST(McmCongestPins, Table1ColdRow) {
  // The served `mcm-1eps` row of the Table-1 catalogue: gnp:100:0.03 at
  // ε = 0.5.
  Rng rng(1);
  const Graph g = gen::gnp(100, 0.03, rng);
  const std::vector<McmPin> pins = {
      {1, 50178,
       {5, 8, 10, 11, 12, 14, 15, 25, 26, 28, 32, 35, 38, 45, 46, 49, 52, 53,
        55, 56, 60, 62, 63, 64, 68, 70, 77, 79, 81, 83, 86, 101, 104, 111,
        112, 113, 115, 120, 125, 126, 131, 133},
       {}},
      {2, 123930,
       {0, 4, 8, 10, 12, 19, 22, 26, 28, 32, 35, 38, 45, 46, 49, 51, 52, 55,
        56, 60, 62, 64, 67, 68, 71, 78, 83, 86, 91, 92, 95, 101, 106, 113,
        114, 117, 119, 122, 126, 130, 132},
       {}},
      {3, 164400,
       {0, 4, 10, 20, 25, 26, 33, 35, 41, 43, 46, 53, 55, 56, 59, 61, 64, 67,
        68, 70, 75, 83, 84, 86, 90, 92, 93, 106, 107, 113, 115, 117, 120, 125,
        126, 127, 132},
       {15, 54, 58, 67}},
  };
  for (const McmPin& pin : pins) {
    SCOPED_TRACE("seed=" + std::to_string(pin.seed));
    McmCongestParams params;
    params.epsilon = 0.5;
    const auto res = run_mcm_1eps_congest(g, test::run_opts(pin.seed), params);
    EXPECT_EQ(res.rounds, pin.rounds);
    EXPECT_EQ(res.matching, pin.matching);
    EXPECT_EQ(res.deactivated, pin.deactivated);
  }
}

}  // namespace
}  // namespace distapx
