#include "matching/nmm_2eps.hpp"

#include <algorithm>
#include <cmath>

#include "mis/nmis_agg.hpp"
#include "support/assert.hpp"

namespace distapx {

NmisParams nmm_params_for(double epsilon, std::uint32_t line_max_degree,
                          std::uint32_t K_override) {
  DISTAPX_ENSURE(epsilon > 0);
  NmisParams p;
  if (K_override != 0) {
    p.K = K_override;
  } else {
    // K = Θ(log^0.1 Δ): 2 for every practical Δ, as the paper notes the
    // asymptotics only bite for enormous degrees.
    const double logd = std::log2(
        static_cast<double>(std::max<std::uint32_t>(line_max_degree, 4)));
    p.K = std::max<std::uint32_t>(
        2, static_cast<std::uint32_t>(std::pow(logd, 0.1)));
  }
  // δ ≪ ε so the expected uncovered fraction of OPT stays below ε/2.
  p.delta = std::min(epsilon / 8.0, 0.05);
  p.beta = 1.5;
  return p;
}

Nmm2EpsResult run_nmm_2eps_matching(const Graph& g,
                                    const sim::RunOptions& opts,
                                    Nmm2EpsParams params) {
  std::uint32_t line_delta = 1;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    line_delta = std::max(line_delta, g.degree(u) + g.degree(v) - 2);
  }
  const NmisParams nmis =
      nmm_params_for(params.epsilon, line_delta, params.K);
  const auto nm = run_nearly_maximal_matching(g, opts, nmis);
  Nmm2EpsResult out;
  out.matching = nm.matching;
  out.undecided_edges = nm.undecided;
  out.metrics = nm.metrics;
  out.super_rounds = nm.super_rounds;
  return out;
}

}  // namespace distapx
