// Quickstart: the three headline algorithms of the paper on one small
// weighted graph.
//
//   $ ./quickstart
//
// Walks through (1) the Δ-approximate weighted MaxIS (Algorithm 2),
// (2) the 2-approximate weighted matching on the line graph (Thm 2.10),
// and (3) the fast (2+ε) matching (Thm 3.2), printing solutions and the
// CONGEST round/bit accounting for each.
#include <iostream>

#include "graph/algos.hpp"
#include "graph/generators.hpp"
#include "matching/lr_matching.hpp"
#include "matching/nmm_2eps.hpp"
#include "maxis/layered_maxis.hpp"

using namespace distapx;

int main() {
  // A 6x6 grid: 36 nodes, Δ = 4.
  const Graph g = gen::grid(6, 6);
  Rng rng(2024);
  const NodeWeights node_w = gen::uniform_node_weights(g.num_nodes(), 100, rng);
  const EdgeWeights edge_w = gen::uniform_edge_weights(g.num_edges(), 100, rng);

  std::cout << "graph: 6x6 grid, n=" << g.num_nodes()
            << " m=" << g.num_edges() << " Δ=" << g.max_degree() << "\n\n";

  // Every run: seed 1, CONGEST messages of at most 32·max(8, ⌈log₂ n⌉)
  // bits per edge per round (the job-file default), at most 2^20 rounds.
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::congest(32);

  // 1. Δ-approximate maximum weight independent set (Algorithm 2).
  const auto maxis = run_layered_maxis(g, node_w, opts);
  std::cout << "[Algorithm 2] MaxIS: " << maxis.independent_set.size()
            << " nodes, weight " << set_weight(node_w, maxis.independent_set)
            << "  (" << maxis.metrics.rounds << " CONGEST rounds, max "
            << maxis.metrics.max_edge_bits << " bits/edge/round, cap "
            << maxis.metrics.bandwidth_cap << ")\n";
  std::cout << "  independent? "
            << (is_independent_set(g, maxis.independent_set) ? "yes" : "NO")
            << "\n\n";

  // 2. 2-approximate maximum weight matching: Algorithm 2 on the line
  // graph through the congestion-free aggregation mechanism (Thm 2.10).
  const auto mwm = run_lr_matching(g, edge_w, opts);
  std::cout << "[Thm 2.10] 2-approx MWM: " << mwm.matching.size()
            << " edges, weight " << matching_weight(edge_w, mwm.matching)
            << "  (" << mwm.metrics.rounds << " physical rounds, max "
            << mwm.metrics.max_edge_bits << " bits/edge/round)\n";
  std::cout << "  matching? " << (is_matching(g, mwm.matching) ? "yes" : "NO")
            << "\n\n";

  // 3. (2+ε)-approximate maximum cardinality matching in
  // O(log Δ / log log Δ) rounds (Thm 3.2).
  Nmm2EpsParams fast;
  fast.epsilon = 0.25;
  const auto mcm = run_nmm_2eps_matching(g, opts, fast);
  std::cout << "[Thm 3.2] (2+ε) MCM: " << mcm.matching.size()
            << " edges in " << mcm.super_rounds << " super-rounds ("
            << mcm.metrics.rounds << " physical), "
            << mcm.undecided_edges.size() << " edges left undecided\n";
  return 0;
}
