// Graph and weight generators for tests, examples and benchmark workloads.
//
// These are the workload families used to regenerate the paper's Table 1:
// structured graphs with known optima (paths, cycles, stars, grids,
// complete (bi)partite), random families with controllable Δ (G(n,p),
// random d-regular, bounded-degree, power-law), and bipartite families for
// the Appendix B algorithms.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "support/random.hpp"

namespace distapx::gen {

/// Path v0 - v1 - ... - v_{n-1}.
Graph path(NodeId n);

/// Cycle on n >= 3 nodes.
Graph cycle(NodeId n);

/// Star: node 0 is the center connected to 1..n-1.
Graph star(NodeId n);

/// Complete graph K_n.
Graph complete(NodeId n);

/// Complete bipartite K_{a,b}: left nodes [0,a), right nodes [a, a+b).
Graph complete_bipartite(NodeId a, NodeId b);

/// rows x cols grid (4-neighbour).
Graph grid(NodeId rows, NodeId cols);

/// d-dimensional hypercube (2^d nodes).
Graph hypercube(std::uint32_t dims);

/// Erdos-Renyi G(n, p), by geometric skipping over the pairs: O(n + m).
Graph gnp(NodeId n, double p, Rng& rng);

/// Random bipartite graph: sides of size a and b, each cross pair present
/// with probability p. Left nodes are [0, a), right nodes [a, a+b).
Graph bipartite_gnp(NodeId a, NodeId b, double p, Rng& rng);

/// Random d-regular graph via the pairing model with retry; requires
/// n*d even, d < n. Falls back to "nearly regular" (some degree-(d-1)
/// nodes) if a perfect pairing is not found after a bounded number of
/// retries — max_degree() is still <= d.
Graph random_regular(NodeId n, std::uint32_t d, Rng& rng);

/// Random graph with max degree <= d: repeatedly samples edges, skipping
/// those that would exceed the cap. `edge_factor` scales the attempted
/// number of edges (n*d/2 * edge_factor attempts).
Graph random_bounded_degree(NodeId n, std::uint32_t d, Rng& rng,
                            double edge_factor = 2.0);

/// Uniform random labelled tree (Prufer sequence decode).
Graph random_tree(NodeId n, Rng& rng);

/// Chung-Lu style power-law graph: node k gets target weight
/// proportional to (k+1)^{-1/(beta-1)}; edges sampled independently.
Graph power_law(NodeId n, double beta, double avg_degree, Rng& rng);

/// Caterpillar: a spine path of `spine` nodes, each with `legs` pendant
/// leaves. Known exact MaxIS; exercises weight-layer behaviour.
Graph caterpillar(NodeId spine, NodeId legs);

/// Barbell: two K_k cliques joined by a path of `bridge` nodes. Mixes a
/// dense core (slow MIS region) with a sparse bridge.
Graph barbell(NodeId k, NodeId bridge);

/// Complete multipartite graph with the given part sizes. MaxIS = the
/// largest part (known optimum at any scale).
Graph complete_multipartite(const std::vector<NodeId>& parts);

/// Balanced binary tree with `levels` levels (2^levels - 1 nodes).
Graph balanced_binary_tree(std::uint32_t levels);

/// Lollipop: K_k clique with a pendant path of `tail` nodes.
Graph lollipop(NodeId k, NodeId tail);

// ---- weight generators ---------------------------------------------------

/// Uniform integer node weights in [1, max_w].
NodeWeights uniform_node_weights(NodeId n, Weight max_w, Rng& rng);

/// Exponentially distributed (rounded, clamped to [1, max_w]) node weights;
/// exercises many weight layers of Algorithm 2.
NodeWeights exponential_node_weights(NodeId n, Weight max_w, Rng& rng);

/// Log-uniform node weights in [1, max_w]: every weight layer
/// L_i = (2^{i-1}, 2^i] is (roughly) equally populated — the adversarial
/// distribution for Algorithm 2's O(MIS·log W) bound.
NodeWeights log_uniform_node_weights(NodeId n, Weight max_w, Rng& rng);

/// All-ones node weights (the unweighted case).
NodeWeights unit_node_weights(NodeId n);

/// Uniform integer edge weights in [1, max_w].
EdgeWeights uniform_edge_weights(EdgeId m, Weight max_w, Rng& rng);

/// All-ones edge weights.
EdgeWeights unit_edge_weights(EdgeId m);

}  // namespace distapx::gen
