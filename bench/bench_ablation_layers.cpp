// Ablation E8 — Algorithm 2's weight-layer prioritization.
//
// The layering (topmost weight layer runs the MIS first) is what yields
// the O(MIS · log W) bound of Theorem 2.3: each MIS execution empties the
// top layer. Without it every undecided node participates each iteration;
// the Δ-approximation survives (Lemma 2.2 holds for any independent set)
// but rounds are no longer tied to log W.
#include <iostream>

#include "bench_common.hpp"
#include "graph/algos.hpp"
#include "maxis/layered_maxis.hpp"

namespace distapx {
namespace {

void progress_curve() {
  bench::banner(
      "E8b: per-round decision progress (layer-chain, W=2^12)",
      "layering drains one layer per MIS sweep: the halted-node curve "
      "climbs in staircase steps, one per layer");
  // The adversarial layer-chain of E1a: 13 layers x 24 nodes.
  const int log_w = 12;
  const NodeId group = 24;
  GraphBuilder b(static_cast<NodeId>(log_w + 1) * group);
  for (int i = 0; i < log_w; ++i) {
    for (NodeId x = 0; x < group; ++x)
      for (NodeId y = 0; y < group; ++y)
        b.add_edge(static_cast<NodeId>(i) * group + x,
                   static_cast<NodeId>(i + 1) * group + y);
  }
  const Graph g = b.build();
  Rng rng(3);
  NodeWeights w(g.num_nodes());
  for (int i = 0; i <= log_w; ++i) {
    for (NodeId x = 0; x < group; ++x) {
      const Weight lo = i == 0 ? 1 : (Weight{1} << (i - 1)) + 1;
      w[static_cast<NodeId>(i) * group + x] =
          rng.next_in(lo, Weight{1} << i);
    }
  }
  Table t({"round", "halted nodes", "msgs this round"});
  sim::Network net(g);
  sim::RunOptions opts;
  opts.seed = 1;
  opts.policy = sim::BandwidthPolicy::congest(32);
  opts.observer = [&](const sim::RoundSample& s) {
    if (s.round % 4 == 0) {  // one sample per super-iteration
      t.add_row({Table::fmt(std::uint64_t{s.round}),
                 Table::fmt(std::uint64_t{s.nodes_halted}),
                 Table::fmt(s.messages)});
    }
  };
  const Weight max_w = Weight{1} << log_w;
  net.run(make_layered_maxis_program(g, w, max_w), opts);
  t.print(std::cout);
}

void layered_vs_flat() {
  bench::banner("E8: Algorithm 2 with vs without layer prioritization",
                "layered rounds track log W; the unlayered variant's "
                "quality stays Δ-approximate but loses the bound");
  Table t({"log2W", "layered rounds", "unlayered rounds",
           "layered weight", "unlayered weight"});
  for (int logw : {4, 8, 12, 16, 20}) {
    Summary lr, ur, lw, uw;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(hash_combine(seed, logw));
      const Graph g = gen::random_regular(512, 8, rng);
      const auto w =
          gen::log_uniform_node_weights(512, Weight{1} << logw, rng);
      LayeredMaxIsParams layered;
      LayeredMaxIsParams flat;
      flat.use_layers = false;
      const auto a = run_layered_maxis(g, w, bench::run_opts(seed), layered);
      const auto b = run_layered_maxis(g, w, bench::run_opts(seed), flat);
      lr.add(a.metrics.rounds);
      ur.add(b.metrics.rounds);
      lw.add(static_cast<double>(set_weight(w, a.independent_set)));
      uw.add(static_cast<double>(set_weight(w, b.independent_set)));
    }
    t.add_row({Table::fmt(static_cast<std::int64_t>(logw)),
               Table::fmt(lr.mean(), 1), Table::fmt(ur.mean(), 1),
               Table::fmt(lw.mean(), 0), Table::fmt(uw.mean(), 0)});
  }
  t.print(std::cout);
}

}  // namespace
}  // namespace distapx

int main() {
  std::cout << "Ablation E8: Algorithm 2 layer prioritization [Sec 2.2]\n";
  distapx::layered_vs_flat();
  distapx::progress_curve();
  return 0;
}
