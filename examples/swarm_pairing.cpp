// Robot-swarm pairing via near-optimal distributed matching.
//
// Robots within communication range can pair up for a cooperative task;
// the objective is to pair as many robots as possible. A maximal matching
// only guarantees half the optimum; the paper's (1+ε) algorithm
// (Thm B.12) gets arbitrarily close, still with purely local
// communication. We run it on a random geometric swarm and compare
// against exact (blossom) and the (2+ε) baseline.
#include <cmath>
#include <iostream>

#include "graph/algos.hpp"
#include "graph/graph.hpp"
#include "matching/blossom.hpp"
#include "matching/mcm_congest.hpp"
#include "matching/nmm_2eps.hpp"
#include "support/random.hpp"

using namespace distapx;

namespace {

Graph swarm_graph(NodeId n, double range, Rng& rng) {
  std::vector<std::pair<double, double>> pos(n);
  for (auto& [x, y] : pos) {
    x = rng.next_double();
    y = rng.next_double();
  }
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      const double dx = pos[u].first - pos[v].first;
      const double dy = pos[u].second - pos[v].second;
      if (std::sqrt(dx * dx + dy * dy) <= range) b.add_edge(u, v);
    }
  }
  return b.build();
}

}  // namespace

int main() {
  Rng rng(21);
  const Graph swarm = swarm_graph(200, 0.08, rng);
  std::cout << "swarm: n=" << swarm.num_nodes() << " m=" << swarm.num_edges()
            << " Δ=" << swarm.max_degree() << "\n\n";

  const auto opt = blossom_mcm(swarm);
  std::cout << "exact maximum pairing (centralized blossom): "
            << opt.matching.size() << " pairs\n";

  sim::RunOptions opts;  // seed 1, the job-file default bandwidth
  opts.policy = sim::BandwidthPolicy::congest(32);
  Nmm2EpsParams coarse;
  coarse.epsilon = 0.25;
  const auto nmm = run_nmm_2eps_matching(swarm, opts, coarse);
  std::cout << "[Thm 3.2, (2+ε)] " << nmm.matching.size() << " pairs in "
            << nmm.super_rounds << " super-rounds\n";

  McmCongestParams fine;
  fine.epsilon = 1.0 / 3.0;
  const auto mcm = run_mcm_1eps_congest(swarm, opts, fine);
  std::cout << "[Thm B.12, (1+ε)] " << mcm.matching.size() << " pairs over "
            << mcm.stages << " bipartition stages ("
            << mcm.deactivated.size() << " robots deactivated)\n\n";

  if (!is_matching(swarm, nmm.matching) || !is_matching(swarm, mcm.matching)) {
    std::cout << "INVALID pairing!\n";
    return 1;
  }
  std::cout << "pairing rates vs optimum: (2+ε): "
            << 100.0 * nmm.matching.size() / opt.matching.size()
            << "%   (1+ε): "
            << 100.0 * mcm.matching.size() / opt.matching.size() << "%\n";
  return 0;
}
