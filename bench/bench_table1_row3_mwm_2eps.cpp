// Table 1, row 3 — (2+ε)-approximate maximum weight matching in
// O(log Δ / log log Δ) rounds (Thm 3.2 + Appendix B.1).
//
// Series regenerated:
//  (a) unweighted NMM super-rounds vs Δ — sublogarithmic growth, compared
//      against the O(log n)-type local-ratio matching (row 1 machinery)
//  (b) cardinality quality vs exact (blossom)
//  (c) weighted pipeline (bucketing + refinement) quality vs exact MWM
#include <chrono>
#include <iostream>

#include "bench_common.hpp"
#include "graph/algos.hpp"
#include "matching/blossom.hpp"
#include "matching/exact_mwm.hpp"
#include "matching/lr_matching.hpp"
#include "matching/nmm_2eps.hpp"
#include "matching/weighted_2eps.hpp"
#include "support/bits.hpp"

namespace distapx {
namespace {

void rounds_vs_delta() {
  bench::banner(
      "E3a: NMM super-rounds vs Δ (n=2048 regular)",
      "O(log Δ / log log Δ): flat-ish in Δ, vs the O(log n)-round "
      "local-ratio matching baseline");
  Table t({"Delta", "log2Δ", "nmm super-rounds", "nmm/log2Δ",
           "lr-matching rounds (baseline)"});
  for (std::uint32_t d : {4u, 8u, 16u, 32u, 64u}) {
    Summary nmm_rounds, lr_rounds;
    const auto runs = bench::per_seed(1, 3, [&](std::uint64_t seed) {
      Rng rng(hash_combine(seed, d));
      const Graph g = gen::random_regular(2048, d, rng);
      Nmm2EpsParams params;
      params.epsilon = 0.25;
      const double nmm =
          run_nmm_2eps_matching(g, bench::run_opts(seed), params)
              .super_rounds;
      const double lr =
          run_lr_matching(g, gen::unit_edge_weights(g.num_edges()),
                          bench::run_opts(seed))
              .metrics.rounds;
      return std::pair<double, double>{nmm, lr};
    });
    for (const auto& [nmm, lr] : runs) {
      nmm_rounds.add(nmm);
      lr_rounds.add(lr);
    }
    t.add_row({Table::fmt(std::uint64_t{d}),
               Table::fmt(std::int64_t{ceil_log2(d)}),
               Table::fmt(nmm_rounds.mean(), 1),
               Table::fmt(nmm_rounds.mean() / ceil_log2(d), 2),
               Table::fmt(lr_rounds.mean(), 1)});
  }
  t.print(std::cout);
}

void cardinality_quality() {
  bench::banner("E3b: (2+ε) MCM quality vs exact",
                "|ALG| >= |OPT| / (2+ε), ε=0.25");
  Table t({"workload", "OPT/ALG(mean)", "OPT/ALG(max)", "bound 2+ε"});
  for (const char* name : {"gnp(300,0.02)", "regular(300,8)",
                           "powerlaw(300)"}) {
    Summary r;
    double worst = 0;
    const auto ratios = bench::per_seed(1, 5, [&](std::uint64_t seed) {
      Rng rng(hash_combine(seed, std::string(name).size()));
      Graph g = std::string(name) == "gnp(300,0.02)"
                    ? gen::gnp(300, 0.02, rng)
                    : std::string(name) == "regular(300,8)"
                          ? gen::random_regular(300, 8, rng)
                          : gen::power_law(300, 2.5, 5.0, rng);
      Nmm2EpsParams params;
      params.epsilon = 0.25;
      const auto res = run_nmm_2eps_matching(g, bench::run_opts(seed), params);
      const auto opt = blossom_mcm(g).matching.size();
      return bench::ratio(static_cast<double>(opt),
                          static_cast<double>(res.matching.size()));
    });
    for (const double x : ratios) {
      r.add(x);
      worst = std::max(worst, x);
    }
    t.add_row({name, Table::fmt(r.mean(), 3), Table::fmt(worst, 3),
               "2.25"});
  }
  t.print(std::cout);
}

void weighted_quality() {
  bench::banner(
      "E3c: weighted (2+ε) pipeline (B.1: bucketing + refinement)",
      "stage 1 = O(1)-approx [LPSR09]; stage 2 refines to 2+ε [LPSP15]");
  Table t({"workload", "eps", "OPT/stage1", "OPT/full", "bound 2+ε"});
  for (double eps : {0.5, 0.25}) {
    Summary s1, s2;
    const auto runs = bench::per_seed(1, 5, [&](std::uint64_t seed) {
      Rng rng(seed);
      const Graph g = gen::bipartite_gnp(60, 60, 0.08, rng);
      const auto w =
          gen::uniform_edge_weights(g.num_edges(), 1 << 12, rng);
      const Weight opt =
          matching_weight(w, exact_mwm_bipartite(g, w).matching);
      Weighted2EpsParams params;
      params.epsilon = eps;
      const auto stage1 = run_bucketed_o1_mwm(g, w, bench::run_opts(seed),
                                              params);
      const auto full = run_weighted_2eps_matching(g, w, bench::run_opts(seed),
                                                   params);
      return std::pair<double, double>{
          bench::ratio(
              static_cast<double>(opt),
              static_cast<double>(matching_weight(w, stage1.matching))),
          bench::ratio(
              static_cast<double>(opt),
              static_cast<double>(matching_weight(w, full.matching)))};
    });
    for (const auto& [a, b] : runs) {
      s1.add(a);
      s2.add(b);
    }
    t.add_row({"bipartite_gnp(60,60,0.08)", Table::fmt(eps, 2),
               Table::fmt(s1.mean(), 3), Table::fmt(s2.mean(), 3),
               Table::fmt(2.0 + eps, 2)});
  }
  t.print(std::cout);
}

void run_many_throughput() {
  bench::banner(
      "E3d: multi-seed throughput through sim::run_many_tasks",
      "seeded runs are independent, so spreading them over the seed-"
      "parallel scheduler scales with cores (engine-level, not a paper "
      "claim)");
  const int kSeeds = 16;
  Rng rng(42);
  const Graph g = gen::random_regular(1024, 16, rng);
  auto one_seed = [&](std::uint64_t seed, std::size_t) {
    Nmm2EpsParams params;
    params.epsilon = 0.25;
    return run_nmm_2eps_matching(g, bench::run_opts(seed), params)
        .matching.size();
  };
  const auto seeds = bench::seed_sequence(kSeeds, 7);
  auto timed = [&](unsigned threads) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto sizes = sim::run_many_tasks(seeds, threads, one_seed);
    const auto t1 = std::chrono::steady_clock::now();
    std::size_t total = 0;
    for (const std::size_t s : sizes) total += s;
    return std::pair<double, std::size_t>{
        std::chrono::duration<double>(t1 - t0).count(), total};
  };
  const auto [t1_sec, check1] = timed(1);
  const auto [t8_sec, check8] = timed(8);
  Table t({"threads", "wall sec", "speedup", "sum|M| (determinism check)"});
  t.add_row({"1", Table::fmt(t1_sec, 3), "1.00",
             Table::fmt(static_cast<std::uint64_t>(check1))});
  t.add_row({"8", Table::fmt(t8_sec, 3),
             Table::fmt(t8_sec > 0 ? t1_sec / t8_sec : 0.0, 2),
             Table::fmt(static_cast<std::uint64_t>(check8))});
  t.print(std::cout);
  std::cout << "hardware threads available: "
            << std::thread::hardware_concurrency() << "\n"
            << (check1 == check8 ? "outputs identical across thread counts\n"
                                 : "DETERMINISM VIOLATION\n");
}

}  // namespace
}  // namespace distapx

int main() {
  std::cout << "Table 1 row 3: MWM (2+ε)-approximation, randomized, "
               "O(log Δ / log log Δ) rounds [Thm 3.2, App B.1]\n";
  distapx::rounds_vs_delta();
  distapx::cardinality_quality();
  distapx::weighted_quality();
  distapx::run_many_throughput();
  return 0;
}
