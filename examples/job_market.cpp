// Decentralized job assignment via weighted matching.
//
// Workers and jobs form a bipartite graph; an edge's weight is the value
// of assigning that worker to that job. No coordinator: the assignment is
// computed by the participants in CONGEST. We compare
//   * the 2-approximate local-ratio matching (Thm 2.10),
//   * the (2+ε) weighted pipeline (Appendix B.1),
//   * the simple proposal algorithm (Appendix B.4),
// against the exact bipartite optimum.
#include <iostream>

#include "graph/algos.hpp"
#include "graph/generators.hpp"
#include "matching/exact_mwm.hpp"
#include "matching/lr_matching.hpp"
#include "matching/proposal.hpp"
#include "matching/weighted_2eps.hpp"

using namespace distapx;

int main() {
  Rng rng(11);
  constexpr NodeId kWorkers = 150, kJobs = 120;
  const Graph market = gen::bipartite_gnp(kWorkers, kJobs, 0.06, rng);
  const EdgeWeights value =
      gen::uniform_edge_weights(market.num_edges(), 1000, rng);

  std::cout << "market: " << kWorkers << " workers, " << kJobs
            << " jobs, " << market.num_edges() << " qualified pairs, Δ="
            << market.max_degree() << "\n\n";

  const auto opt = exact_mwm_bipartite(market, value);
  const Weight opt_value = matching_weight(value, opt.matching);
  std::cout << "exact optimum: " << opt.matching.size()
            << " assignments, value " << opt_value << "\n\n";

  sim::RunOptions opts;  // seed 1, the job-file default bandwidth
  opts.policy = sim::BandwidthPolicy::congest(32);
  const auto lr = run_lr_matching(market, value, opts);
  std::cout << "[Thm 2.10, 2-approx] " << lr.matching.size()
            << " assignments, value " << matching_weight(value, lr.matching)
            << " (" << lr.metrics.rounds << " rounds, "
            << lr.metrics.max_edge_bits << " bits/edge/round max)\n";

  Weighted2EpsParams w2;
  w2.epsilon = 0.25;
  const auto fast = run_weighted_2eps_matching(market, value, opts, w2);
  std::cout << "[App B.1, (2+ε)-approx] " << fast.matching.size()
            << " assignments, value "
            << matching_weight(value, fast.matching) << " ("
            << fast.rounds_parallel << " parallel rounds)\n";

  const auto parts = try_bipartition(market);
  ProposalParams pp;
  pp.epsilon = 0.2;
  const auto prop = run_proposal_matching_bipartite(market, *parts, opts, pp);
  std::cout << "[App B.4, proposals] " << prop.matching.size()
            << " assignments, value "
            << matching_weight(value, prop.matching) << " ("
            << prop.metrics.rounds << " rounds, " << prop.unlucky.size()
            << " unlucky workers)\n\n";

  for (const auto& [name, m] :
       {std::pair{std::string("lr"), lr.matching},
        {std::string("w2eps"), fast.matching},
        {std::string("proposal"), prop.matching}}) {
    if (!is_matching(market, m)) {
      std::cout << name << ": INVALID matching!\n";
      return 1;
    }
  }
  std::cout << "all assignments conflict-free; ratios vs OPT: "
            << static_cast<double>(opt_value) /
                   matching_weight(value, lr.matching)
            << " / "
            << static_cast<double>(opt_value) /
                   matching_weight(value, fast.matching)
            << "\n";
  return 0;
}
