// Ablation E6 — the probability-update base K of the modified
// nearly-maximal IS (Sec. 3.1, Theorem 3.1).
//
// Theorem 3.1 budget: β(log Δ / log K + K² log 1/δ). The paper picks
// K = Θ(log^0.1 Δ) to balance the two terms. We sweep K and report both
// the theoretical budget and the empirical rounds until every node
// decides (no budget cut-off), plus the leftover fraction under the
// theorem's budget.
#include <iostream>

#include "bench_common.hpp"
#include "graph/algos.hpp"
#include "mis/ghaffari_nmis.hpp"

namespace distapx {
namespace {

void sweep(std::uint32_t delta) {
  bench::banner("E6: NMIS K sweep on random " + std::to_string(delta) +
                    "-regular graphs (n=1024)",
                "budget = β(logΔ/logK + K² log 1/δ); small K wins at small "
                "Δ, the K² term dominates as K grows");
  Table t({"K", "theory budget", "rounds-to-drain(mean)",
           "undecided frac @budget", "IS size"});
  for (std::uint32_t K : {2u, 3u, 4u, 6u, 8u}) {
    NmisParams theory;
    theory.K = K;
    const auto budget = nmis_iteration_budget(delta, theory);
    Summary drain_rounds, undecided_frac, is_size;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(hash_combine(seed, K));
      const Graph g = gen::random_regular(1024, delta, rng);
      // Empirical drain: huge budget, nodes decide naturally.
      NmisParams free_run = theory;
      free_run.iterations = 100000;
      const auto res = run_nmis(g, bench::run_opts(seed), free_run);
      drain_rounds.add(res.metrics.rounds);
      is_size.add(static_cast<double>(res.independent_set.size()));
      // Leftovers under the theorem budget.
      const auto capped = run_nmis(g, bench::run_opts(hash_combine(seed, 7)),
                                   theory);
      undecided_frac.add(static_cast<double>(capped.undecided.size()) /
                         g.num_nodes());
    }
    t.add_row({Table::fmt(std::uint64_t{K}),
               Table::fmt(std::uint64_t{budget}),
               Table::fmt(drain_rounds.mean(), 1),
               Table::fmt(undecided_frac.mean(), 4),
               Table::fmt(is_size.mean(), 1)});
  }
  t.print(std::cout);
}

}  // namespace
}  // namespace distapx

int main() {
  std::cout << "Ablation E6: the K parameter of the nearly-maximal IS "
               "[Sec 3.1, Thm 3.1]\n";
  distapx::sweep(8);
  distapx::sweep(32);
  return 0;
}
