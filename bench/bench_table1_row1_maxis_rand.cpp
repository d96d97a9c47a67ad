// Table 1, row 1 — randomized Δ-approximation for weighted MaxIS
// (Algorithm 2): O(MIS(G) · log W) rounds with Luby as the MIS black box,
// i.e. O(log n · log W) in CONGEST.
//
// Series regenerated:
//  (a) rounds vs W at fixed topology   — should grow linearly in log W
//  (b) rounds vs n at fixed W          — should grow like log n
//  (c) approximation quality vs exact baselines (small graphs + forests)
#include <iostream>

#include "bench_common.hpp"
#include "graph/algos.hpp"
#include "maxis/exact.hpp"
#include "maxis/greedy_maxis.hpp"
#include "maxis/layered_maxis.hpp"
#include "support/bits.hpp"

namespace distapx {
namespace {

/// Layer-chain workload: log2(W)+1 groups of `group` independent nodes,
/// complete bipartite links between consecutive groups, group i holding
/// weights in layer i. Layer i+1 blocks layer i until it drains, so the
/// run must walk the layers sequentially — the adversarial instance for
/// Theorem 2.3's O(MIS · log W) bound.
struct LayerChain {
  Graph graph;
  NodeWeights weights;
};

LayerChain layer_chain(int log_w, NodeId group, Rng& rng) {
  const int layers = log_w + 1;
  const NodeId n = static_cast<NodeId>(layers) * group;
  GraphBuilder b(n);
  for (int i = 0; i + 1 < layers; ++i) {
    for (NodeId x = 0; x < group; ++x) {
      for (NodeId y = 0; y < group; ++y) {
        b.add_edge(static_cast<NodeId>(i) * group + x,
                   static_cast<NodeId>(i + 1) * group + y);
      }
    }
  }
  LayerChain out{b.build(), NodeWeights(n)};
  for (int i = 0; i < layers; ++i) {
    for (NodeId x = 0; x < group; ++x) {
      const Weight lo = i == 0 ? 1 : (Weight{1} << (i - 1)) + 1;
      const Weight hi = Weight{1} << i;
      out.weights[static_cast<NodeId>(i) * group + x] =
          rng.next_in(lo, hi);
    }
  }
  return out;
}

void rounds_vs_w() {
  bench::banner(
      "E1a: Algorithm 2 rounds vs W, log-uniform weights",
      "rounds = O(MIS(G) log W). The bound binds on the layer-chain "
      "instance (layer i+1 blocks layer i); on sparse random graphs "
      "distant regions drain their layers in parallel and rounds are "
      "nearly flat");
  Table t({"topology", "W", "log2W", "rounds(mean)", "rounds(sd)",
           "rounds/log2W"});
  for (int chain = 1; chain >= 0; --chain) {
    std::vector<double> xs, ys;
    for (int logw : {1, 4, 8, 12, 16, 20}) {
      const Weight W = Weight{1} << logw;
      const auto stats =
          bench::sample_par(5, 100 + logw, [&](std::uint64_t seed) {
            Rng rng(seed);
            if (chain) {
              const auto inst = layer_chain(logw, 16, rng);
              return static_cast<double>(
                  run_layered_maxis(inst.graph, inst.weights,
                                    bench::run_opts(seed))
                      .metrics.rounds);
            }
            const Graph g = gen::random_regular(512, 4, rng);
            const auto w = gen::log_uniform_node_weights(512, W, rng);
            return static_cast<double>(
                run_layered_maxis(g, w, bench::run_opts(seed)).metrics.rounds);
          });
      xs.push_back(logw);
      ys.push_back(stats.mean());
      t.add_row({chain ? "layer-chain(16/layer)" : "regular(512,4)",
                 Table::fmt(static_cast<std::uint64_t>(W)),
                 Table::fmt(static_cast<std::int64_t>(logw)),
                 Table::fmt(stats.mean(), 1), Table::fmt(stats.stddev(), 1),
                 Table::fmt(stats.mean() / logw, 2)});
    }
    const auto fit = fit_linear(xs, ys);
    std::cout << (chain ? "layer-chain" : "regular(512,4)")
              << ": rounds ~ " << Table::fmt(fit.intercept, 1) << " + "
              << Table::fmt(fit.slope, 2)
              << " * log2(W), r2=" << Table::fmt(fit.r2, 3) << "\n";
  }
  t.print(std::cout);
}

void rounds_vs_n() {
  bench::banner("E1b: Algorithm 2 rounds vs n (avg degree 8, W=2^10)",
                "MIS(G)=O(log n) via Luby; rounds grow ~ log n");
  Table t({"n", "log2n", "rounds(mean)", "rounds(sd)", "rounds/log2n"});
  for (NodeId n : {64u, 128u, 256u, 512u, 1024u, 2048u, 4096u}) {
    const auto stats = bench::sample_par(3, 200 + n, [&](std::uint64_t seed) {
      Rng rng(seed);
      const Graph g = gen::gnp(n, 8.0 / n, rng);
      const auto w = gen::uniform_node_weights(n, 1 << 10, rng);
      return static_cast<double>(
          run_layered_maxis(g, w, bench::run_opts(seed)).metrics.rounds);
    });
    const int logn = ceil_log2(n);
    t.add_row({Table::fmt(std::uint64_t{n}),
               Table::fmt(static_cast<std::int64_t>(logn)),
               Table::fmt(stats.mean(), 1), Table::fmt(stats.stddev(), 1),
               Table::fmt(stats.mean() / logn, 2)});
  }
  t.print(std::cout);
}

void quality() {
  bench::banner("E1c: Algorithm 2 approximation quality",
                "ALG >= OPT/Δ always (Thm 2.3); empirically far better");
  Table t({"workload", "Delta", "OPT/ALG(mean)", "OPT/ALG(max)",
           "bound Δ", "greedy OPT/ALG"});
  struct Case {
    std::string name;
    bool forest;
    NodeId n;
  };
  // Small random graphs vs branch & bound; forests vs the exact DP.
  for (int variant = 0; variant < 2; ++variant) {
    struct SeedStats {
      double r_alg = 0;
      double r_greedy = 0;
      std::uint32_t delta = 0;
    };
    const auto per_seed = bench::per_seed(1, 8, [&](std::uint64_t seed) {
          Rng rng(seed + (variant ? 500 : 0));
          const Graph g = variant == 0 ? gen::gnp(20, 0.2, rng)
                                       : gen::random_tree(300, rng);
          const auto w =
              gen::exponential_node_weights(g.num_nodes(), 1 << 12, rng);
          const Weight opt =
              variant == 0
                  ? set_weight(w, exact_maxis(g, w).independent_set)
                  : set_weight(w, exact_maxis_forest(g, w).independent_set);
          const auto alg = run_layered_maxis(g, w, bench::run_opts(seed));
          const auto greedy = greedy_maxis(g, w);
          SeedStats s;
          s.r_alg = bench::ratio(
              static_cast<double>(opt),
              static_cast<double>(set_weight(w, alg.independent_set)));
          s.r_greedy = bench::ratio(
              static_cast<double>(opt),
              static_cast<double>(set_weight(w, greedy.independent_set)));
          s.delta = g.max_degree();
          return s;
        });
    Summary ratio_alg, ratio_greedy;
    double worst = 0;
    std::uint32_t delta = 0;
    for (const auto& s : per_seed) {
      ratio_alg.add(s.r_alg);
      ratio_greedy.add(s.r_greedy);
      worst = std::max(worst, s.r_alg);
      delta = std::max(delta, s.delta);
    }
    t.add_row({variant == 0 ? "gnp(20,0.2)" : "random_tree(300)",
               Table::fmt(std::uint64_t{delta}),
               Table::fmt(ratio_alg.mean(), 3), Table::fmt(worst, 3),
               Table::fmt(std::uint64_t{delta}),
               Table::fmt(ratio_greedy.mean(), 3)});
  }
  t.print(std::cout);
}

}  // namespace
}  // namespace distapx

int main() {
  std::cout << "Table 1 row 1: MaxIS Δ-approximation, randomized, "
               "O(MIS(G) log W) rounds [Thm 2.3]\n";
  distapx::rounds_vs_w();
  distapx::rounds_vs_n();
  distapx::quality();
  return 0;
}
