// Table 1, row 2 — deterministic Δ-approximation for weighted MaxIS
// (Algorithm 3): O(Δ + log* n) rounds given the [BEK14] coloring black box.
// Our deterministic coloring substitute is Linial + class elimination
// (O(Δ² + log* n)); the bench therefore reports the coloring phase and the
// Algorithm-3 phase separately — the paper's contribution is the latter,
// whose O(Δ) / n-independence shape is what we validate.
#include <iostream>

#include "bench_common.hpp"
#include "graph/algos.hpp"
#include "matching/exact_mwm.hpp"
#include "matching/lr_matching_det.hpp"
#include "maxis/coloring_maxis.hpp"
#include "maxis/exact.hpp"

namespace distapx {
namespace {

void rounds_vs_delta() {
  bench::banner(
      "E2a: Algorithm 3 rounds vs Δ (n=2048 regular, W=1000)",
      "post-coloring stage is O(#colors) = O(Δ); coloring is the "
      "documented O(Δ²+log* n) substitute");
  Table t({"Delta", "colors", "coloring rounds", "alg3 rounds",
           "alg3 rounds/Δ"});
  for (std::uint32_t d : {2u, 4u, 8u, 16u, 32u}) {
    Summary coloring_rounds, maxis_rounds, colors;
    const auto runs = bench::per_seed(1, 3, [&](std::uint64_t seed) {
      Rng rng(hash_combine(seed, d));
      const Graph g = gen::random_regular(2048, d, rng);
      const auto w = gen::uniform_node_weights(2048, 1000, rng);
      return run_coloring_maxis(g, w, ColoringSource::kLinial,
                                bench::run_opts(seed));
    });
    for (const auto& res : runs) {
      coloring_rounds.add(res.coloring_metrics.rounds);
      maxis_rounds.add(res.maxis_metrics.rounds);
      colors.add(res.num_colors);
    }
    t.add_row({Table::fmt(std::uint64_t{d}),
               Table::fmt(colors.mean(), 1),
               Table::fmt(coloring_rounds.mean(), 1),
               Table::fmt(maxis_rounds.mean(), 1),
               Table::fmt(maxis_rounds.mean() / d, 2)});
  }
  t.print(std::cout);
}

void rounds_vs_n() {
  bench::banner("E2b: Algorithm 3 rounds vs n (4-regular, W=1000)",
                "post-coloring rounds are independent of n");
  Table t({"n", "coloring rounds", "alg3 rounds"});
  for (NodeId n : {128u, 512u, 2048u, 8192u}) {
    Summary coloring_rounds, maxis_rounds;
    const auto runs = bench::per_seed(1, 3, [&](std::uint64_t seed) {
      Rng rng(hash_combine(seed, n));
      const Graph g = gen::random_regular(n, 4, rng);
      const auto w = gen::uniform_node_weights(n, 1000, rng);
      return run_coloring_maxis(g, w, ColoringSource::kLinial,
                                bench::run_opts(seed));
    });
    for (const auto& res : runs) {
      coloring_rounds.add(res.coloring_metrics.rounds);
      maxis_rounds.add(res.maxis_metrics.rounds);
    }
    t.add_row({Table::fmt(std::uint64_t{n}),
               Table::fmt(coloring_rounds.mean(), 1),
               Table::fmt(maxis_rounds.mean(), 1)});
  }
  t.print(std::cout);
}

void quality() {
  bench::banner("E2c: Algorithm 3 approximation quality",
                "deterministic Δ-approximation (Sec. 2.3)");
  Table t({"workload", "Delta", "OPT/ALG(mean)", "OPT/ALG(max)", "bound"});
  for (int variant = 0; variant < 2; ++variant) {
    Summary r;
    double worst = 0;
    std::uint32_t delta = 0;
    const auto runs = bench::per_seed(1, 8, [&](std::uint64_t seed) {
      Rng rng(seed + (variant ? 900 : 0));
      const Graph g = variant == 0 ? gen::gnp(20, 0.2, rng)
                                   : gen::caterpillar(60, 3);
      const auto w =
          gen::exponential_node_weights(g.num_nodes(), 1 << 10, rng);
      const Weight opt =
          variant == 0
              ? set_weight(w, exact_maxis(g, w).independent_set)
              : set_weight(w, exact_maxis_forest(g, w).independent_set);
      const auto res =
          run_coloring_maxis(g, w, ColoringSource::kLinial,
                             bench::run_opts(seed));
      const double x = bench::ratio(
          static_cast<double>(opt),
          static_cast<double>(set_weight(w, res.independent_set)));
      return std::pair<double, std::uint32_t>{x, g.max_degree()};
    });
    for (const auto& [x, d] : runs) {
      r.add(x);
      worst = std::max(worst, x);
      delta = std::max(delta, d);
    }
    t.add_row({variant == 0 ? "gnp(20,0.2)" : "caterpillar(60,3)",
               Table::fmt(std::uint64_t{delta}), Table::fmt(r.mean(), 3),
               Table::fmt(worst, 3), Table::fmt(std::uint64_t{delta})});
  }
  t.print(std::cout);
}

void det_mwm() {
  bench::banner(
      "E2d: deterministic 2-approx MWM (Thm 2.10, Algorithm 3 on L(G))",
      "same sweeps on the line graph via the Thm 2.8 mechanism; "
      "2-approximation of maximum weight matching");
  Table t({"workload", "L(G) colors", "coloring rounds", "matching rounds",
           "OPT/ALG", "bound"});
  for (int variant = 0; variant < 2; ++variant) {
    struct SeedStats {
      double colors = 0, c_rounds = 0, m_rounds = 0, q = 0;
    };
    const auto runs = bench::per_seed(1, 4, [&](std::uint64_t seed) {
      Rng rng(hash_combine(seed, variant));
      const Graph g = variant == 0
                          ? gen::bipartite_gnp(30, 30, 0.1, rng)
                          : gen::gnp(18, 0.25, rng);
      const auto w = gen::uniform_edge_weights(g.num_edges(), 1000, rng);
      const auto res = run_lr_matching_deterministic(g, w, bench::run_opts());
      const Weight opt =
          variant == 0
              ? matching_weight(w, exact_mwm_bipartite(g, w).matching)
              : matching_weight(w, exact_mwm_small(g, w).matching);
      return SeedStats{
          static_cast<double>(res.num_colors),
          static_cast<double>(res.coloring_metrics.rounds),
          static_cast<double>(res.matching_metrics.rounds),
          bench::ratio(
              static_cast<double>(opt),
              static_cast<double>(matching_weight(w, res.matching)))};
    });
    Summary colors, c_rounds, m_rounds, q;
    for (const auto& s : runs) {
      colors.add(s.colors);
      c_rounds.add(s.c_rounds);
      m_rounds.add(s.m_rounds);
      q.add(s.q);
    }
    t.add_row({variant == 0 ? "bipartite(30,30,0.1)" : "gnp(18,0.25)",
               Table::fmt(colors.mean(), 1), Table::fmt(c_rounds.mean(), 1),
               Table::fmt(m_rounds.mean(), 1), Table::fmt(q.mean(), 3),
               "2"});
  }
  t.print(std::cout);
}

}  // namespace
}  // namespace distapx

int main() {
  std::cout << "Table 1 row 2: MaxIS Δ-approx / MWM 2-approx, "
               "deterministic, O(Δ + log* n) rounds [Sec 2.3, Thm 2.10]\n";
  distapx::rounds_vs_delta();
  distapx::rounds_vs_n();
  distapx::quality();
  distapx::det_mwm();
  return 0;
}
