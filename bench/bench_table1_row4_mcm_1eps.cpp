// Table 1, row 4 — (1+ε)-approximate maximum cardinality matching in
// O(log Δ / log log Δ) rounds (Thm B.4 LOCAL, Thm B.12 CONGEST).
//
// Series regenerated:
//  (a) quality vs exact across ε for the CONGEST algorithm (Thm B.12)
//  (b) LOCAL framework (hypergraph NMM) conflict rounds vs Δ
//  (c) alternative (2+ε) proposal algorithm (App B.4) for context
#include <iostream>
#include <limits>

#include "bench_common.hpp"
#include "graph/algos.hpp"
#include "matching/blossom.hpp"
#include "matching/hk_framework.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/mcm_congest.hpp"
#include "matching/proposal.hpp"
#include "support/bits.hpp"

namespace distapx {
namespace {

void congest_quality() {
  bench::banner("E4a: Thm B.12 CONGEST (1+ε) MCM quality",
                "|ALG| >= |OPT|/(1+ε) modulo the δ-deactivated nodes");
  Table t({"workload", "eps", "OPT/ALG(mean)", "OPT/ALG(max)",
           "deactivated", "bound 1+ε"});
  for (double eps : {0.5, 1.0 / 3.0}) {
    for (int variant = 0; variant < 2; ++variant) {
      Summary r, deact;
      double worst = 0;
      const auto runs = bench::per_seed(1, 4, [&](std::uint64_t seed) {
        Rng rng(hash_combine(seed, variant * 10 + (eps < 0.4)));
        const Graph g = variant == 0
                            ? gen::bipartite_gnp(60, 60, 0.06, rng)
                            : gen::gnp(120, 0.04, rng);
        McmCongestParams params;
        params.epsilon = eps;
        // At ε = 1/3 the charged rounds pass the job default of 2^20; the
        // quality claim is about the uncut algorithm.
        auto opts = bench::run_opts(seed);
        opts.max_rounds = std::numeric_limits<std::uint32_t>::max();
        const auto res = run_mcm_1eps_congest(g, opts, params);
        const auto opt = blossom_mcm(g).matching.size();
        const double x =
            bench::ratio(static_cast<double>(opt),
                         static_cast<double>(res.matching.size()));
        return std::pair<double, double>{
            x, static_cast<double>(res.deactivated.size())};
      });
      for (const auto& [x, d] : runs) {
        r.add(x);
        worst = std::max(worst, x);
        deact.add(d);
      }
      t.add_row({variant == 0 ? "bipartite(60,60)" : "gnp(120,0.04)",
                 Table::fmt(eps, 2), Table::fmt(r.mean(), 3),
                 Table::fmt(worst, 3), Table::fmt(deact.mean(), 1),
                 Table::fmt(1.0 + eps, 2)});
    }
  }
  t.print(std::cout);
}

void local_rounds_vs_delta() {
  bench::banner(
      "E4b: LOCAL (1+ε) conflict-graph rounds vs Δ (Thm B.4)",
      "nearly-maximal hypergraph matching drains in O(d² logΔ/loglogΔ) "
      "iterations; each is O(1/ε) network rounds");
  Table t({"Delta", "conflict rounds (mean)", "rounds/log2Δ",
           "OPT/ALG"});
  for (std::uint32_t d : {4u, 8u, 16u, 32u}) {
    Summary rounds, quality;
    const auto runs = bench::per_seed(1, 3, [&](std::uint64_t seed) {
      Rng rng(hash_combine(seed, d));
      const Graph g = gen::random_regular(200, d, rng);
      HkApproxParams params;
      params.epsilon = 1.0 / 3.0;
      params.algo = PathSetAlgo::kHypergraphNmm;
      const auto res = run_hk_matching_local(g, seed, params);
      const auto opt = blossom_mcm(g).matching.size();
      return std::pair<double, double>{
          static_cast<double>(res.conflict_rounds),
          bench::ratio(static_cast<double>(opt),
                       static_cast<double>(res.matching.size()))};
    });
    for (const auto& [rnds, q] : runs) {
      rounds.add(rnds);
      quality.add(q);
    }
    t.add_row({Table::fmt(std::uint64_t{d}), Table::fmt(rounds.mean(), 1),
               Table::fmt(rounds.mean() / ceil_log2(d), 2),
               Table::fmt(quality.mean(), 3)});
  }
  t.print(std::cout);
}

void proposal_context() {
  bench::banner(
      "E4c: App B.4 proposal algorithm ((2+ε), "
      "O(logΔ/log(logΔ/log(1/ε))) rounds)",
      "simple alternative; unlucky left-node fraction <= ε/2 (Lemma B.13)");
  Table t({"Delta", "rounds", "unlucky frac", "OPT/ALG"});
  for (std::uint32_t d : {4u, 16u, 64u}) {
    Summary rounds, unlucky, quality;
    struct SeedStats {
      double rounds = 0, unlucky = 0, quality = 0;
    };
    const auto runs = bench::per_seed(1, 4, [&](std::uint64_t seed) {
      Rng rng(hash_combine(seed, d));
      const Graph g = gen::bipartite_gnp(400, 400, d / 400.0, rng);
      const auto parts = try_bipartition(g);
      ProposalParams params;
      params.epsilon = 0.2;
      const auto res =
          run_proposal_matching_bipartite(g, *parts, bench::run_opts(seed),
                                          params);
      const auto opt = hopcroft_karp(g, *parts).matching.size();
      return SeedStats{
          static_cast<double>(res.metrics.rounds),
          static_cast<double>(res.unlucky.size()) / 400.0,
          bench::ratio(static_cast<double>(opt),
                       static_cast<double>(res.matching.size()))};
    });
    for (const auto& s : runs) {
      rounds.add(s.rounds);
      unlucky.add(s.unlucky);
      quality.add(s.quality);
    }
    t.add_row({Table::fmt(std::uint64_t{d}), Table::fmt(rounds.mean(), 1),
               Table::fmt(unlucky.mean(), 4),
               Table::fmt(quality.mean(), 3)});
  }
  t.print(std::cout);
}

}  // namespace
}  // namespace distapx

int main() {
  std::cout << "Table 1 row 4: MCM (1+ε)-approximation, randomized, "
               "O(log Δ / log log Δ) rounds [Thms B.4, B.12]\n";
  distapx::congest_quality();
  distapx::local_rounds_vs_delta();
  distapx::proposal_context();
  return 0;
}
