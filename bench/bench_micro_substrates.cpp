// E10 — substrate micro-benchmarks (google-benchmark): generator and
// simulator throughput, so regressions in the platform underneath the
// experiments are visible.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "coloring/linial.hpp"
#include "graph/algos.hpp"
#include "graph/bipartite.hpp"
#include "graph/generators.hpp"
#include "graph/genspec.hpp"
#include "graph/line_graph.hpp"
#include "matching/baselines.hpp"
#include "matching/bipartite_paths.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/mcm_congest.hpp"
#include "matching/nmm_2eps.hpp"
#include "matching/weighted_2eps.hpp"
#include "mis/luby.hpp"
#include "sim/aggregation.hpp"
#include "sim/run_many.hpp"
#include "sim/worker_pool.hpp"
#include "sim/workspace.hpp"
#include "support/random.hpp"

namespace distapx {
namespace {

void BM_GnpGeneration(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen::gnp(n, 8.0 / n, rng));
  }
}
BENCHMARK(BM_GnpGeneration)->Arg(1024)->Arg(8192);

void BM_RandomRegular(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen::random_regular(n, 8, rng));
  }
}
BENCHMARK(BM_RandomRegular)->Arg(1024)->Arg(4096);

void BM_LineGraphConstruction(benchmark::State& state) {
  Rng rng(3);
  const Graph g = gen::gnp(static_cast<NodeId>(state.range(0)), 0.02, rng);
  for (auto _ : state) {
    LineGraph lg(g);
    benchmark::DoNotOptimize(lg.graph().num_edges());
  }
}
BENCHMARK(BM_LineGraphConstruction)->Arg(512)->Arg(1024);

/// An edge subgraph of the served mwm-2eps row's graph that keeps all n
/// nodes but only ~5% of the edges (the full-n shape mcm-1eps and proposal
/// filter their phases through; mwm-2eps buckets run on compact graphs).
void BM_EdgeSubgraph(benchmark::State& state) {
  Rng rng(9);
  const Graph g = gen::gnp(1500, 0.005, rng);
  std::vector<bool> mask(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) mask[e] = rng.bernoulli(0.05);
  for (auto _ : state) {
    benchmark::DoNotOptimize(edge_subgraph(g, mask));
  }
}
BENCHMARK(BM_EdgeSubgraph);

void BM_LubyMis(benchmark::State& state) {
  Rng rng(4);
  const auto n = static_cast<NodeId>(state.range(0));
  const Graph g = gen::gnp(n, 8.0 / n, rng);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_luby_mis(g, bench::run_opts(++seed)));
  }
}
BENCHMARK(BM_LubyMis)->Arg(1024)->Arg(4096);

/// A table1-cold program and its graph: luby on gnp:2500:0.003 (case 0) or
/// maxis-alg3's Linial phase on regular:150:6 (case 1).
struct LeaseCase {
  Graph graph;
  sim::ProgramFactory program;
};

LeaseCase lease_case(benchmark::State& state) {
  Rng rng(1);
  const bool luby = state.range(0) == 0;
  state.SetLabel(luby ? "luby gnp:2500:0.003" : "linial regular:150:6");
  Graph g = gen::from_spec(luby ? "gnp:2500:0.003" : "regular:150:6", rng);
  auto program = luby ? make_luby_program(g) : make_linial_program(g);
  return {std::move(g), std::move(program)};
}

/// What a worker's kept sim::Workspace saves per run on a fresh graph: a
/// Network built for the run (what every run without a workspace does) ...
void BM_NetworkConstructRun(benchmark::State& state) {
  const LeaseCase c = lease_case(state);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    sim::Network net(c.graph);
    benchmark::DoNotOptimize(net.run(c.program, bench::run_opts(++seed)));
  }
}
BENCHMARK(BM_NetworkConstructRun)->Arg(0)->Arg(1);

/// ... against one kept Network rebound to the graph (as a workspace does
/// when a unit of a new job arrives).
void BM_NetworkRebindRun(benchmark::State& state) {
  const LeaseCase c = lease_case(state);
  sim::Network net;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    net.rebind(c.graph);
    benchmark::DoNotOptimize(net.run(c.program, bench::run_opts(++seed)));
  }
}
BENCHMARK(BM_NetworkRebindRun)->Arg(0)->Arg(1);

void BM_HopcroftKarp(benchmark::State& state) {
  Rng rng(5);
  const auto n = static_cast<NodeId>(state.range(0));
  const Graph g = gen::bipartite_gnp(n, n, 6.0 / n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hopcroft_karp(g));
  }
}
BENCHMARK(BM_HopcroftKarp)->Arg(512)->Arg(2048);

/// Table-1 row 4 (Thm B.12) at ε = 0.5 on gnp(n, p/1000), run seeds 1-3
/// per iteration so every iteration does the same work. Its time is the
/// Appendix B.3 augmenting-path search; {100, 30} is the served row.
void BM_Mcm1Eps(benchmark::State& state) {
  Rng rng(7);
  const Graph g = gen::gnp(static_cast<NodeId>(state.range(0)),
                           static_cast<double>(state.range(1)) / 1000.0, rng);
  McmCongestParams params;
  params.epsilon = 0.5;
  for (auto _ : state) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      benchmark::DoNotOptimize(run_mcm_1eps_congest(g, bench::run_opts(seed),
                                                    params));
    }
  }
}
BENCHMARK(BM_Mcm1Eps)
    ->Args({100, 30})
    ->Args({300, 20})
    ->Unit(benchmark::kMillisecond);

/// One Claim B.5/B.6 traversal counting the length-3 augmenting paths
/// through every node, over a greedy maximal matching.
void BM_AugPathCount(benchmark::State& state) {
  Rng rng(8);
  const auto n = static_cast<NodeId>(state.range(0));
  const Graph g = gen::bipartite_gnp(n, n, 6.0 / n, rng);
  const Bipartition parts = *try_bipartition(g);
  const auto mate = mates_of(g, greedy_maximal_matching(g).matching);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        count_augmenting_paths_per_node(g, parts, mate, 3));
  }
}
BENCHMARK(BM_AugPathCount)->Arg(512)->Arg(4096);

/// Cost of one aggregation super-round on the line graph (the Thm 2.8
/// mechanism, no explicit line graph).
class NoopAgg final : public sim::AggProgram {
 public:
  std::vector<int> state_bits() const override { return {8}; }
  std::vector<sim::Aggregator> aggregators() const override {
    return {sim::agg_sum(
        [](std::span<const std::uint64_t> s) { return s[0]; }, 24)};
  }
  void init(sim::AggCtx& ctx) override { ctx.state()[0] = 1; }
  void round(sim::AggCtx& ctx) override {
    if (ctx.round() >= 16) ctx.halt(0);
  }
};

void BM_LineAggregationRounds(benchmark::State& state) {
  Rng rng(6);
  const auto n = static_cast<NodeId>(state.range(0));
  const Graph g = gen::gnp(n, 8.0 / n, rng);
  for (auto _ : state) {
    NoopAgg prog;
    sim::RunOptions opts;
    opts.policy = sim::BandwidthPolicy::local();
    benchmark::DoNotOptimize(sim::run_on_line_graph(g, prog, opts));
  }
}
BENCHMARK(BM_LineAggregationRounds)->Arg(512)->Arg(2048);

/// The table1-cold mcm-2eps row: NMM on the line graph of gnp:900:0.005
/// (ε = 0.25), with a fresh AggEngine's buffers per run ...
void BM_NmmLineFreshRun(benchmark::State& state) {
  Rng rng(9);
  const Graph g = gen::from_spec("gnp:900:0.005", rng);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_nmm_2eps_matching(g, bench::run_opts(++seed)));
  }
}
BENCHMARK(BM_NmmLineFreshRun)->Unit(benchmark::kMicrosecond);

/// ... against one kept workspace, as a serving worker runs it.
void BM_NmmLineWorkspaceRun(benchmark::State& state) {
  Rng rng(9);
  const Graph g = gen::from_spec("gnp:900:0.005", rng);
  sim::Workspace ws;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    sim::RunOptions opts = bench::run_opts(++seed);
    opts.workspace = &ws;
    benchmark::DoNotOptimize(run_nmm_2eps_matching(g, opts));
  }
}
BENCHMARK(BM_NmmLineWorkspaceRun)->Unit(benchmark::kMicrosecond);

/// The table1-cold mwm-2eps row (gnp:1500:0.005, ε = 0.25): about 60 NMM
/// bucket runs on compact bucket graphs, fresh buffers per run ...
void BM_Mwm2EpsFreshRun(benchmark::State& state) {
  Rng rng(10);
  const Graph g = gen::from_spec("gnp:1500:0.005", rng);
  const EdgeWeights w = gen::uniform_edge_weights(g.num_edges(), 1024, rng);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_weighted_2eps_matching(g, w, bench::run_opts(++seed)));
  }
}
BENCHMARK(BM_Mwm2EpsFreshRun)->Unit(benchmark::kMillisecond);

/// ... against one kept workspace.
void BM_Mwm2EpsWorkspaceRun(benchmark::State& state) {
  Rng rng(10);
  const Graph g = gen::from_spec("gnp:1500:0.005", rng);
  const EdgeWeights w = gen::uniform_edge_weights(g.num_edges(), 1024, rng);
  sim::Workspace ws;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    sim::RunOptions opts = bench::run_opts(++seed);
    opts.workspace = &ws;
    benchmark::DoNotOptimize(run_weighted_2eps_matching(g, w, opts));
  }
}
BENCHMARK(BM_Mwm2EpsWorkspaceRun)->Unit(benchmark::kMillisecond);

// ---- the scheduler: one batch of 4 trivial units on 2 workers --------------

/// Spawn per call: for_each_index forks a worker thread and joins it.
void BM_ForEachIndexSpawnBatch(benchmark::State& state) {
  std::vector<std::size_t> out(4);
  for (auto _ : state) {
    sim::for_each_index<char>(out.size(), 2,
                              [&](char&, std::size_t i) { out[i] = i; });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ForEachIndexSpawnBatch)->UseRealTime();

/// A kept pool: post the batch, wake the workers, wait for done.
void BM_WorkerPoolBatch(benchmark::State& state) {
  sim::WorkerPool pool(2);
  std::vector<std::size_t> out(4);
  for (auto _ : state) {
    pool.run(out.size(), [&](sim::Workspace&, std::size_t i) { out[i] = i; });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_WorkerPoolBatch)->UseRealTime();

}  // namespace
}  // namespace distapx

BENCHMARK_MAIN();
