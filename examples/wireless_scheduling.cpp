// Wireless transmission scheduling via distributed MaxIS.
//
// The classic motivation for distributed MaxIS: radios that are within
// interference range cannot transmit in the same slot, and each radio has
// a utility (queued traffic) for transmitting now. Picking the
// transmitting set = maximum weight independent set of the conflict
// graph, computed *by the radios themselves* in CONGEST.
//
// The example builds a random unit-disk-style conflict graph, runs both
// distributed Δ-approximations (Algorithm 2 randomized; Algorithm 3
// deterministic on a coloring), and compares utility and round cost.
#include <cmath>
#include <iostream>

#include "graph/algos.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "maxis/coloring_maxis.hpp"
#include "maxis/greedy_maxis.hpp"
#include "maxis/layered_maxis.hpp"
#include "support/random.hpp"

using namespace distapx;

namespace {

/// Unit-disk conflict graph: radios at random points in the unit square;
/// an edge whenever two radios are within `radius`.
Graph unit_disk(NodeId n, double radius, Rng& rng,
                std::vector<std::pair<double, double>>* positions) {
  positions->resize(n);
  for (auto& [x, y] : *positions) {
    x = rng.next_double();
    y = rng.next_double();
  }
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      const double dx = (*positions)[u].first - (*positions)[v].first;
      const double dy = (*positions)[u].second - (*positions)[v].second;
      if (std::sqrt(dx * dx + dy * dy) <= radius) b.add_edge(u, v);
    }
  }
  return b.build();
}

}  // namespace

int main() {
  Rng rng(7);
  std::vector<std::pair<double, double>> pos;
  const Graph conflicts = unit_disk(300, 0.09, rng, &pos);
  // Utility = queued packets, heavy-tailed.
  const NodeWeights traffic =
      gen::exponential_node_weights(conflicts.num_nodes(), 1 << 10, rng);

  std::cout << "conflict graph: n=" << conflicts.num_nodes()
            << " m=" << conflicts.num_edges()
            << " Δ=" << conflicts.max_degree() << "\n\n";

  const Weight total_demand = [&] {
    Weight t = 0;
    for (Weight w : traffic) t += w;
    return t;
  }();

  // Randomized Algorithm 2, seed 1, at the job-file default bandwidth.
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::congest(32);
  const auto alg2 = run_layered_maxis(conflicts, traffic, opts);
  std::cout << "[Algorithm 2] schedule " << alg2.independent_set.size()
            << " radios, utility " << set_weight(traffic, alg2.independent_set)
            << " / " << total_demand << " demand, "
            << alg2.metrics.rounds << " rounds\n";

  // Deterministic Algorithm 3 (randomized O(log n) coloring black box).
  opts.seed = 2;
  const auto alg3 =
      run_coloring_maxis(conflicts, traffic, ColoringSource::kRandomized, opts);
  std::cout << "[Algorithm 3] schedule " << alg3.independent_set.size()
            << " radios, utility " << set_weight(traffic, alg3.independent_set)
            << ", coloring " << alg3.coloring_metrics.rounds
            << " + selection " << alg3.maxis_metrics.rounds << " rounds ("
            << alg3.num_colors << " colors)\n";

  // Centralized greedy for context.
  const auto greedy = greedy_maxis(conflicts, traffic);
  std::cout << "[centralized greedy] utility "
            << set_weight(traffic, greedy.independent_set) << "\n\n";

  const bool ok1 = is_independent_set(conflicts, alg2.independent_set);
  const bool ok2 = is_independent_set(conflicts, alg3.independent_set);
  std::cout << "interference-free: alg2=" << (ok1 ? "yes" : "NO")
            << " alg3=" << (ok2 ? "yes" : "NO") << "\n";
  return ok1 && ok2 ? 0 : 1;
}
