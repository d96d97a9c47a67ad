#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>

#include "graph/algos.hpp"
#include "graph/bipartite.hpp"
#include "graph/generators.hpp"
#include "graph/genspec.hpp"
#include "graph/graph.hpp"
#include "graph/hypergraph.hpp"
#include "graph/line_graph.hpp"
#include "support/assert.hpp"
#include "test_helpers.hpp"

namespace distapx {
namespace {

TEST(GraphBuilder, RejectsSelfLoop) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(1, 1), EnsureError);
}

TEST(GraphBuilder, RejectsOutOfRange) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), EnsureError);
}

TEST(GraphBuilder, RejectsParallelEdgesAtBuild) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  EXPECT_THROW(b.build(), EnsureError);

  // A duplicate added far from its twin is caught the same way.
  GraphBuilder far(4);
  far.add_edge(0, 1);
  far.add_edge(1, 2);
  far.add_edge(2, 0);
  far.add_edge(0, 3);
  far.add_edge(2, 1);
  try {
    (void)far.build();
    ADD_FAILURE() << "parallel edge (1,2) accepted";
  } catch (const EnsureError& e) {
    EXPECT_NE(std::string(e.what()).find("parallel edge between 1 and 2"),
              std::string::npos)
        << e.what();
  }
}

TEST(GraphBuilder, BuildSortsAdjacencyWithoutSort) {
  Rng rng(17);
  const Graph src = gen::gnp(300, 0.05, rng);
  std::vector<std::pair<NodeId, NodeId>> order;
  for (EdgeId e = 0; e < src.num_edges(); ++e) {
    auto [u, v] = src.endpoints(e);
    if (rng.bernoulli(0.5)) std::swap(u, v);
    order.emplace_back(u, v);
  }
  rng.shuffle(order);

  GraphBuilder b(src.num_nodes());
  for (const auto& [u, v] : order) b.add_edge(u, v);
  const Graph g = b.build();

  // Reference CSR: each node's half-edges in insertion order, then sorted.
  std::vector<std::vector<HalfEdge>> ref(src.num_nodes());
  for (EdgeId e = 0; e < order.size(); ++e) {
    const auto [u, v] = order[e];
    EXPECT_EQ(g.endpoints(e), std::make_pair(std::min(u, v), std::max(u, v)));
    ref[u].push_back({v, e});
    ref[v].push_back({u, e});
  }
  std::uint32_t max_deg = 0;
  for (NodeId v = 0; v < src.num_nodes(); ++v) {
    std::sort(ref[v].begin(), ref[v].end(),
              [](const HalfEdge& a, const HalfEdge& c) { return a.to < c.to; });
    const auto nbrs = g.neighbors(v);
    ASSERT_EQ(nbrs.size(), ref[v].size()) << "node " << v;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_EQ(nbrs[i].to, ref[v][i].to) << "node " << v;
      EXPECT_EQ(nbrs[i].edge, ref[v][i].edge) << "node " << v;
      if (i > 0) {
        EXPECT_LT(nbrs[i - 1].to, nbrs[i].to) << "node " << v;
      }
    }
    max_deg = std::max<std::uint32_t>(max_deg, g.degree(v));
  }
  EXPECT_EQ(g.max_degree(), max_deg);
  EXPECT_EQ(g.num_edges(), src.num_edges());

  const Graph empty = GraphBuilder(0).build();
  EXPECT_EQ(empty.num_nodes(), 0u);
  EXPECT_EQ(empty.num_edges(), 0u);
  EXPECT_EQ(empty.max_degree(), 0u);

  GraphBuilder sparse(5);
  sparse.add_edge(3, 1);
  const Graph s = sparse.build();
  for (NodeId v : {0u, 2u, 4u}) EXPECT_TRUE(s.neighbors(v).empty());
  EXPECT_EQ(s.neighbors(1)[0].to, 3u);
  EXPECT_EQ(s.neighbors(3)[0].to, 1u);
  EXPECT_EQ(s.max_degree(), 1u);
}

TEST(Graph, CsrStructure) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(2, 3);
  const Graph g = b.build();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(3), 1u);
  EXPECT_EQ(g.max_degree(), 2u);
  // Adjacency sorted by neighbor id.
  const auto nbrs = g.neighbors(0);
  EXPECT_EQ(nbrs[0].to, 1u);
  EXPECT_EQ(nbrs[1].to, 2u);
  EXPECT_EQ(g.find_edge(2, 3), g.find_edge(3, 2));
  EXPECT_EQ(g.find_edge(1, 3), kInvalidEdge);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_EQ(g.other_endpoint(g.find_edge(0, 2), 0), 2u);
}

TEST(Generators, PathCycleStar) {
  const Graph p = gen::path(5);
  EXPECT_EQ(p.num_edges(), 4u);
  EXPECT_EQ(p.max_degree(), 2u);
  const Graph c = gen::cycle(5);
  EXPECT_EQ(c.num_edges(), 5u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(c.degree(v), 2u);
  const Graph s = gen::star(6);
  EXPECT_EQ(s.num_edges(), 5u);
  EXPECT_EQ(s.degree(0), 5u);
  EXPECT_THROW(gen::cycle(2), EnsureError);
}

TEST(Generators, CompleteAndBipartite) {
  const Graph k = gen::complete(6);
  EXPECT_EQ(k.num_edges(), 15u);
  const Graph kb = gen::complete_bipartite(3, 4);
  EXPECT_EQ(kb.num_edges(), 12u);
  EXPECT_TRUE(try_bipartition(kb).has_value());
}

TEST(Generators, GridAndHypercube) {
  const Graph g = gen::grid(3, 4);
  EXPECT_EQ(g.num_nodes(), 12u);
  EXPECT_EQ(g.num_edges(), 3u * 3 + 2u * 4);
  const Graph h = gen::hypercube(4);
  EXPECT_EQ(h.num_nodes(), 16u);
  EXPECT_EQ(h.num_edges(), 32u);
  for (NodeId v = 0; v < 16; ++v) EXPECT_EQ(h.degree(v), 4u);
}

TEST(Generators, GnpEdgeCountMatchesExpectation) {
  Rng rng(42);
  const Graph g = gen::gnp(400, 0.05, rng);
  const double expected = 0.05 * 400 * 399 / 2;
  EXPECT_GT(g.num_edges(), expected * 0.8);
  EXPECT_LT(g.num_edges(), expected * 1.2);
}

TEST(Generators, GnpExtremes) {
  Rng rng(1);
  EXPECT_EQ(gen::gnp(10, 0.0, rng).num_edges(), 0u);
  EXPECT_EQ(gen::gnp(10, 1.0, rng).num_edges(), 45u);
}

TEST(Generators, GnpTinyProbabilityHasNoEdges) {
  // The geometric gap exceeds 2^64 at these p; it must end the scan, not
  // wrap the pair index (expected edge count < 1e-14 over all seeds).
  for (double p : {1e-300, 1e-19, 5e-20}) {
    std::uint64_t edges = 0;
    for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
      Rng rng(seed);
      edges += gen::gnp(200, p, rng).num_edges();
    }
    EXPECT_EQ(edges, 0u) << "p=" << p;
  }
}

TEST(Generators, RandomRegularDegrees) {
  Rng rng(7);
  const Graph g = gen::random_regular(64, 4, rng);
  EXPECT_LE(g.max_degree(), 4u);
  std::size_t full = 0;
  for (NodeId v = 0; v < 64; ++v) full += g.degree(v) == 4 ? 1 : 0;
  EXPECT_GE(full, 60u);  // pairing model nearly always succeeds fully
  EXPECT_THROW(gen::random_regular(5, 3, rng), EnsureError);
}

TEST(Generators, RandomBoundedDegreeRespectsCap) {
  Rng rng(8);
  const Graph g = gen::random_bounded_degree(100, 5, rng);
  EXPECT_LE(g.max_degree(), 5u);
  EXPECT_GT(g.num_edges(), 50u);
}

TEST(Generators, RandomTreeIsTree) {
  Rng rng(9);
  for (NodeId n : {1u, 2u, 3u, 10u, 100u}) {
    const Graph t = gen::random_tree(n, rng);
    EXPECT_EQ(t.num_edges(), n - 1);
    const auto comp = connected_components(t);
    EXPECT_TRUE(std::all_of(comp.begin(), comp.end(),
                            [](std::uint32_t c) { return c == 0; }));
  }
}

TEST(Generators, PowerLawProducesSkew) {
  Rng rng(10);
  const Graph g = gen::power_law(200, 2.5, 4.0, rng);
  EXPECT_GT(g.num_edges(), 100u);
  EXPECT_GT(g.max_degree(), 8u);  // head of the distribution
}

TEST(Generators, Caterpillar) {
  const Graph g = gen::caterpillar(3, 2);
  EXPECT_EQ(g.num_nodes(), 9u);
  EXPECT_EQ(g.num_edges(), 2u + 6u);
}

TEST(Generators, Weights) {
  Rng rng(11);
  const auto w = gen::uniform_node_weights(100, 50, rng);
  EXPECT_TRUE(std::all_of(w.begin(), w.end(),
                          [](Weight x) { return x >= 1 && x <= 50; }));
  const auto we = gen::exponential_node_weights(100, 1 << 16, rng);
  EXPECT_TRUE(std::all_of(we.begin(), we.end(), [](Weight x) {
    return x >= 1 && x <= (1 << 16);
  }));
  EXPECT_EQ(gen::unit_node_weights(5), NodeWeights(5, 1));
}

TEST(LineGraph, PathBecomesPath) {
  const Graph p = gen::path(5);
  const LineGraph lg(p);
  EXPECT_EQ(lg.graph().num_nodes(), 4u);
  EXPECT_EQ(lg.graph().num_edges(), 3u);
  EXPECT_EQ(lg.graph().max_degree(), 2u);
}

TEST(LineGraph, StarBecomesComplete) {
  const Graph s = gen::star(5);
  const LineGraph lg(s);
  EXPECT_EQ(lg.graph().num_nodes(), 4u);
  EXPECT_EQ(lg.graph().num_edges(), 6u);  // K4
}

TEST(LineGraph, CycleBecomesCycle) {
  const Graph c = gen::cycle(6);
  const LineGraph lg(c);
  EXPECT_EQ(lg.graph().num_nodes(), 6u);
  EXPECT_EQ(lg.graph().num_edges(), 6u);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(lg.graph().degree(v), 2u);
}

TEST(LineGraph, DegreeFormula) {
  Rng rng(12);
  const Graph g = gen::gnp(30, 0.2, rng);
  const LineGraph lg(g);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    EXPECT_EQ(lg.graph().degree(lg.line_node(e)),
              g.degree(u) + g.degree(v) - 2);
  }
}

TEST(LineGraph, ToMatchingMapsBack) {
  const Graph p = gen::path(5);
  const LineGraph lg(p);
  const auto matching = lg.to_matching({0, 2});
  EXPECT_EQ(matching, (std::vector<EdgeId>{0, 2}));
  EXPECT_TRUE(is_matching(p, matching));
}

TEST(Bipartite, EvenCycleYes) {
  EXPECT_TRUE(try_bipartition(gen::cycle(8)).has_value());
}

TEST(Bipartite, OddCycleNo) {
  EXPECT_FALSE(try_bipartition(gen::cycle(9)).has_value());
}

TEST(Bipartite, PartitionIsProper) {
  Rng rng(13);
  const Graph g = gen::bipartite_gnp(20, 25, 0.2, rng);
  const auto parts = try_bipartition(g);
  ASSERT_TRUE(parts.has_value());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    EXPECT_NE(parts->side[u], parts->side[v]);
  }
}

TEST(Bipartite, BichromaticMask) {
  Rng rng(14);
  const Graph g = gen::complete(6);
  const Bipartition parts = random_bipartition(6, rng);
  const auto mask = bichromatic_edge_mask(g, parts);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    EXPECT_EQ(mask[e], parts.side[u] != parts.side[v]);
  }
}

TEST(Hypergraph, BasicsAndIntersection) {
  Hypergraph h(6, {{0, 1, 2}, {2, 3}, {4, 5}});
  EXPECT_EQ(h.num_vertices(), 6u);
  EXPECT_EQ(h.num_hyperedges(), 3u);
  EXPECT_EQ(h.rank(), 3u);
  EXPECT_TRUE(h.intersects(0, 1));
  EXPECT_FALSE(h.intersects(0, 2));
  EXPECT_TRUE(h.is_matching({0, 2}));
  EXPECT_FALSE(h.is_matching({0, 1}));
  EXPECT_EQ(h.incident(2).size(), 2u);
}

TEST(Hypergraph, RejectsRepeatedVertex) {
  EXPECT_THROW(Hypergraph(3, {{0, 0, 1}}), EnsureError);
}

TEST(Algos, BfsDistances) {
  const Graph p = gen::path(6);
  const auto d = bfs_distances(p, 0);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(d[v], v);
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const auto d2 = bfs_distances(b.build(), 0);
  EXPECT_EQ(d2[2], kUnreachable);
}

TEST(Algos, ConnectedComponents) {
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(3, 4);
  const auto comp = connected_components(b.build());
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[2], comp[3]);
}

TEST(Algos, DegeneracyOfStructuredGraphs) {
  std::uint32_t d = 0;
  degeneracy_order(gen::path(10), &d);
  EXPECT_EQ(d, 1u);
  degeneracy_order(gen::cycle(10), &d);
  EXPECT_EQ(d, 2u);
  degeneracy_order(gen::complete(6), &d);
  EXPECT_EQ(d, 5u);
  const auto order = degeneracy_order(gen::star(8), &d);
  EXPECT_EQ(d, 1u);
  EXPECT_EQ(order.size(), 8u);
}

TEST(Algos, IndependentSetChecks) {
  const Graph p = gen::path(5);
  EXPECT_TRUE(is_independent_set(p, {0, 2, 4}));
  EXPECT_FALSE(is_independent_set(p, {0, 1}));
  EXPECT_FALSE(is_independent_set(p, {0, 0}));
  EXPECT_TRUE(is_maximal_independent_set(p, {0, 2, 4}));
  EXPECT_TRUE(is_maximal_independent_set(p, {0, 3}));
  EXPECT_FALSE(is_maximal_independent_set(p, {1}));  // node 4 uncovered
}

TEST(Algos, MatchingChecks) {
  const Graph p = gen::path(5);  // edges 0:(0,1) 1:(1,2) 2:(2,3) 3:(3,4)
  EXPECT_TRUE(is_matching(p, {0, 2}));
  EXPECT_FALSE(is_matching(p, {0, 1}));
  EXPECT_FALSE(is_matching(p, {0, 0}));
  EXPECT_TRUE(is_maximal_matching(p, {0, 2}));
  EXPECT_FALSE(is_maximal_matching(p, {0}));
  EXPECT_TRUE(is_maximal_matching(p, {1, 3}));
}

TEST(Algos, WeightHelpers) {
  NodeWeights w{1, 2, 3};
  EXPECT_EQ(set_weight(w, {0, 2}), 4);
  EdgeWeights ew{5, 7};
  EXPECT_EQ(matching_weight(ew, {1}), 7);
}

TEST(Algos, InducedSubgraph) {
  const Graph p = gen::path(5);
  std::vector<bool> keep{true, true, false, true, true};
  const auto sub = induced_subgraph(p, keep);
  EXPECT_EQ(sub.graph.num_nodes(), 4u);
  EXPECT_EQ(sub.graph.num_edges(), 2u);  // (0,1) and (3,4)
  EXPECT_EQ(sub.original_id[sub.new_id[3]], 3u);
  EXPECT_EQ(sub.new_id[2], kInvalidNode);
}

TEST(Algos, EdgeSubgraph) {
  const Graph p = gen::path(4);
  std::vector<bool> mask{true, false, true};
  const auto sub = edge_subgraph(p, mask);
  EXPECT_EQ(sub.graph.num_nodes(), 4u);
  EXPECT_EQ(sub.graph.num_edges(), 2u);
  EXPECT_EQ(sub.original_edge, (std::vector<EdgeId>{0, 2}));
}

// ---- bit-identity pins ----------------------------------------------------
//
// 64-bit FNV-1a digests of generated graphs and of the subgraphs and line
// graphs built from them. Every EdgeId, the CSR order and the RNG draws a
// generator makes are part of a graph's identity: algorithm rows, cache
// entries and golden files all depend on them. A change to the builder or
// a generator that moves any of them fails here before it moves a row.

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xffU)) * 0x100000001b3ULL;
    }
  }
  void add_graph(const Graph& g) {
    add(g.num_nodes());
    add(g.num_edges());
    add(g.max_degree());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto [u, v] = g.endpoints(e);
      add(u);
      add(v);
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (const HalfEdge& he : g.neighbors(v)) {
        add(he.to);
        add(he.edge);
      }
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Digest over seeds 1..20 of the spec's graph, an edge subgraph and an
/// induced subgraph under seeded masks, and the graph's line graph.
std::uint64_t spec_digest(const std::string& spec) {
  Fnv1a h;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const Graph g = gen::from_spec(spec, rng);
    h.add_graph(g);
    Rng mask_rng(seed * 0x9e3779b97f4a7c15ULL);
    std::vector<bool> edge_mask(g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      edge_mask[e] = mask_rng.bernoulli(0.3);
    }
    h.add_graph(edge_subgraph(g, edge_mask).graph);
    std::vector<bool> keep(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) keep[v] = mask_rng.bernoulli(0.7);
    h.add_graph(induced_subgraph(g, keep).graph);
    h.add_graph(LineGraph(g).graph());
  }
  return h.value();
}

TEST(GraphDigests, GeneratedGraphsAreBitIdentical) {
  struct Pin {
    const char* spec;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      // One small spec per generator family (genspec::spec_families()).
      {"gnp:60:0.1", 0x65aa6c0ef3f1ba9fULL},
      {"gnp:1:0.5", 0x56bcfcc5b0d03ee5ULL},
      {"gnp:12:1", 0xa381f8a0828cc605ULL},
      {"regular:40:4", 0x9c8aef0946a78267ULL},
      {"regular:41:6", 0xf718c2a42777742cULL},
      {"regular:10:7", 0xaf676b7bd30e1081ULL},  // reaches the greedy fallback
      {"bounded:60:4", 0x829d78940e003764ULL},
      {"bipartite:20:25:0.2", 0xb919b143d9c344f1ULL},
      {"tree:50", 0x7fbb66844e58fe7aULL},
      {"powerlaw:80:2.5:4", 0x7be95655b21e14aeULL},
      {"path:7", 0x74794836d100a981ULL},
      {"cycle:9", 0xf74ce4d771cad962ULL},
      {"star:8", 0x358af9b8da835ae0ULL},
      {"complete:7", 0xe3020bafa3633ab1ULL},
      {"grid:5:6", 0x4328d510851290f6ULL},
      {"hypercube:4", 0x3256fbbd5dbb48e8ULL},
      {"cbipartite:3:5", 0x5dc414063d2c61aaULL},
      {"btree:4", 0x0964e277b8062744ULL},
      {"caterpillar:4:2", 0xe6644190cefccecbULL},
      {"barbell:4:3", 0x8bec9a26e85d2d87ULL},
      {"lollipop:5:3", 0xfe1c15b681b12ee4ULL},
      // The table1-cold catalogue gens (perfbench/src/stream.cpp).
      {"gnp:2000:0.0035", 0xe8af4004cd8be1a6ULL},
      {"regular:150:6", 0x30a38fee232b8e48ULL},
      {"gnp:1500:0.005", 0xd3696b4b6063e31fULL},
      {"gnp:900:0.005", 0x19b8cf3ed308a07cULL},
      {"gnp:100:0.03", 0x939f23c936c91267ULL},
      {"gnp:600:0.008", 0x0824cfc6a6ee34a7ULL},
      {"tree:200", 0x007794fbdfcf37ebULL},
      {"gnp:2500:0.003", 0x2c85b5c55f150b9aULL},
  };
  std::set<std::string> families;
  for (const Pin& pin : pins) {
    families.insert(gen::parse_spec(pin.spec).family);
    const std::uint64_t digest = spec_digest(pin.spec);
    char hex[24];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, pin.digest) << pin.spec << " digests to " << hex;
  }
  EXPECT_EQ(families.size(), gen::spec_families().size());
}

TEST(GraphDigests, TightRegularSpecReachesGreedyFallback) {
  // regular:10:7 almost never pairs simply within the retry budget; the
  // fallback leaves some node short of degree 7 on at least one seed.
  bool short_node = false;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const Graph g = gen::random_regular(10, 7, rng);
    EXPECT_LE(g.max_degree(), 7u);
    for (NodeId v = 0; v < 10; ++v) short_node |= g.degree(v) < 7;
  }
  EXPECT_TRUE(short_node);
}

TEST(Families, HelpersProduceValidGraphs) {
  for (const auto& fc : test::small_families(3)) {
    EXPECT_GE(fc.graph.num_nodes(), 1u) << fc.name;
  }
  for (const auto& fc : test::medium_families(3)) {
    EXPECT_GE(fc.graph.num_nodes(), 100u) << fc.name;
  }
}

}  // namespace
}  // namespace distapx
