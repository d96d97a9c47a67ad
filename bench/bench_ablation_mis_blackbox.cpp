// Ablation E9 — Algorithm 2's MIS black box.
//
// Theorem 2.3 charges O(MIS(G)) rounds per weight layer to whatever MIS
// procedure is plugged in. We compare per-iteration selection rules: one
// Luby iteration (the paper's CONGEST choice), a fair-coin marking rule,
// and the deterministic highest-id rule.
#include <iostream>

#include "bench_common.hpp"
#include "graph/algos.hpp"
#include "maxis/layered_maxis.hpp"

namespace distapx {
namespace {

const char* rule_name(MisSelectionRule r) {
  switch (r) {
    case MisSelectionRule::kLubyValue:
      return "luby-value";
    case MisSelectionRule::kCoin:
      return "coin(1/2)";
    case MisSelectionRule::kIdGreedy:
      return "id-greedy";
  }
  return "?";
}

void blackbox_sweep() {
  bench::banner("E9: Algorithm 2 under different MIS selection rules",
                "rounds = O(MIS(G) log W): the black box sets the factor");
  Table t({"workload", "rule", "rounds(mean)", "weight(mean)"});
  struct Workload {
    std::string name;
    Graph graph;
  };
  Rng rng(7);
  std::vector<Workload> workloads;
  workloads.push_back({"gnp(512, deg~8)", gen::gnp(512, 8.0 / 512, rng)});
  workloads.push_back({"regular(512,16)",
                       gen::random_regular(512, 16, rng)});
  workloads.push_back({"path(512)", gen::path(512)});
  for (const auto& wl : workloads) {
    for (MisSelectionRule rule :
         {MisSelectionRule::kLubyValue, MisSelectionRule::kCoin,
          MisSelectionRule::kIdGreedy}) {
      Summary rounds, weight;
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Rng wrng(hash_combine(seed, wl.graph.num_edges()));
        const auto w = gen::uniform_node_weights(wl.graph.num_nodes(),
                                                 1 << 10, wrng);
        LayeredMaxIsParams params;
        params.rule = rule;
        const auto res = run_layered_maxis(wl.graph, w, bench::run_opts(seed),
                                           params);
        rounds.add(res.metrics.rounds);
        weight.add(static_cast<double>(set_weight(w, res.independent_set)));
      }
      t.add_row({wl.name, rule_name(rule), Table::fmt(rounds.mean(), 1),
                 Table::fmt(weight.mean(), 0)});
    }
  }
  t.print(std::cout);
}

}  // namespace
}  // namespace distapx

int main() {
  std::cout << "Ablation E9: the MIS black box inside Algorithm 2 "
               "[Thm 2.3]\n";
  distapx::blackbox_sweep();
  return 0;
}
