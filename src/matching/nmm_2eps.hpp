// Theorem 3.2: (2+ε)-approximate maximum cardinality matching in
// O(log Δ / log log Δ) rounds of CONGEST.
//
// Runs the modified nearly-maximal IS (Sec. 3.1 dynamics) on the line
// graph through the Theorem 2.8 aggregation mechanism. The paper sets
// K = Θ(log^0.1 Δ) and δ = 2^{-log^0.7 Δ}; only an expected δ-fraction of
// optimal-matching edges are left uncovered, so discarding the undecided
// edges still leaves a (2+ε)-approximation.
#pragma once

#include "matching/matching.hpp"
#include "mis/ghaffari_nmis.hpp"

namespace distapx {

struct Nmm2EpsParams {
  double epsilon = 0.25;
  /// Override the NMIS base K (0 = the paper's max(2, log^0.1 Δ_L)).
  std::uint32_t K = 0;
};

struct Nmm2EpsResult {
  std::vector<EdgeId> matching;
  std::vector<EdgeId> undecided_edges;  ///< leftover (discarded) edges
  sim::RunMetrics metrics;
  std::uint32_t super_rounds = 0;
};

/// Derived NMIS parameters for a given ε and line-graph max degree.
NmisParams nmm_params_for(double epsilon, std::uint32_t line_max_degree,
                          std::uint32_t K_override = 0);

Nmm2EpsResult run_nmm_2eps_matching(const Graph& g,
                                    const sim::RunOptions& opts,
                                    Nmm2EpsParams params = {});

}  // namespace distapx
