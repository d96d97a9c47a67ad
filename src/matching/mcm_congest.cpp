#include "matching/mcm_congest.hpp"

#include <algorithm>
#include <cmath>

#include "graph/algos.hpp"
#include "support/assert.hpp"

namespace distapx {

McmCongestResult run_mcm_1eps_congest(const Graph& g,
                                      const sim::RunOptions& opts,
                                      McmCongestParams params) {
  DISTAPX_ENSURE(params.epsilon > 0);
  const auto inv_eps =
      static_cast<std::uint32_t>(std::ceil(1.0 / params.epsilon));
  const std::uint32_t stages =
      params.stages != 0
          ? params.stages
          : std::min<std::uint32_t>(64, 1u << std::min(inv_eps + 2, 6u));
  const std::uint32_t d_max = 2 * inv_eps - 1;

  const NodeId n = g.num_nodes();
  std::vector<NodeId> mate(n, kInvalidNode);
  std::vector<bool> active(n, true);
  Rng rng(opts.seed);

  McmCongestResult result;
  result.stages = stages;
  for (std::uint32_t stage = 0; stage < stages && result.completed;
       ++stage) {
    result.completed = result.rounds < opts.max_rounds;  // charge 1 fits
    if (!result.completed) break;
    // Random red/blue coloring; matched pairs survive only when their
    // matching edge is bi-chromatic, unmatched nodes always survive.
    Bipartition parts = random_bipartition(n, rng);
    result.rounds += 1;  // the coloring + membership exchange
    std::vector<bool> in_sub(n, false);
    for (NodeId v = 0; v < n; ++v) {
      if (mate[v] == kInvalidNode) {
        in_sub[v] = true;
      } else {
        in_sub[v] = parts.side[v] != parts.side[mate[v]];
      }
    }
    // Bipartite view: bi-chromatic edges among surviving nodes. We keep
    // the full node set and gate via the active predicate of the search.
    std::vector<bool> sub_active(n, false);
    for (NodeId v = 0; v < n; ++v) sub_active[v] = active[v] && in_sub[v];

    // Edge legality is enforced by a filtered graph copy: the B.3 engine
    // expects a bipartite graph, so drop monochromatic edges.
    std::vector<bool> edge_mask(g.num_edges(), false);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto [u, v] = g.endpoints(e);
      edge_mask[e] = parts.side[u] != parts.side[v];
    }
    const auto sub = edge_subgraph(g, edge_mask);

    for (std::uint32_t d = 1; d <= d_max && result.completed; d += 2) {
      AugPathSearchParams search = params.search;
      search.d = d;
      search.epsilon = params.epsilon;
      // Only the iterations whose 6d+4 charge fits the budget may run.
      const std::uint32_t affordable =
          (opts.max_rounds - result.rounds) / (6 * d + 4);
      search.max_iterations = std::min(search.max_iterations, affordable);
      auto res = find_and_flip_aug_paths_bipartite(sub.graph, parts, mate,
                                                   sub_active, search, rng);
      result.rounds += res.rounds;
      result.completed = res.drained ||
                         search.max_iterations == params.search.max_iterations;
      for (NodeId v : res.deactivated) {
        if (active[v]) {
          active[v] = false;
          result.deactivated.push_back(v);
        }
      }
    }
  }

  // Assemble the matching from the mate view (on the original graph).
  for (NodeId v = 0; v < n; ++v) {
    if (mate[v] != kInvalidNode && v < mate[v]) {
      const EdgeId e = g.find_edge(v, mate[v]);
      DISTAPX_ASSERT(e != kInvalidEdge);
      result.matching.push_back(e);
    }
  }
  DISTAPX_ENSURE(is_matching(g, result.matching));
  return result;
}

}  // namespace distapx
