// Determinism and robustness tests for the seed-parallel scheduler
// (for_each_index and run_many_tasks): the same seed set must produce
// bit-identical outputs on 1 thread and on N threads, and across two
// invocations, with every worker reusing one Network across its runs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <thread>

#include "graph/algos.hpp"
#include "graph/generators.hpp"
#include "maxis/layered_maxis.hpp"
#include "mis/luby.hpp"
#include "mis/mis.hpp"
#include "sim/network.hpp"
#include "sim/run_many.hpp"
#include "support/assert.hpp"
#include "test_helpers.hpp"

namespace distapx {
namespace {

std::vector<std::uint64_t> seeds_for(int count) {
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < count; ++i) {
    seeds.push_back(hash_combine(0xabcdef, static_cast<std::uint64_t>(i)));
  }
  return seeds;
}

/// One run of `factory` on `g` per seed. Each worker owns one Network,
/// bound on its first run and reused for every later seed it picks up.
std::vector<sim::RunResult> run_seeds(
    const Graph& g, const sim::ProgramFactory& factory,
    std::span<const std::uint64_t> seeds, unsigned threads,
    sim::BandwidthPolicy policy = sim::BandwidthPolicy::congest()) {
  struct Worker {
    sim::Network net;
    bool bound = false;
  };
  std::vector<sim::RunResult> results(seeds.size());
  sim::for_each_index<Worker>(
      seeds.size(), threads, [&](Worker& w, std::size_t i) {
        if (!w.bound) {
          w.net.rebind(g);
          w.bound = true;
        }
        sim::RunOptions opts;
        opts.policy = policy;
        opts.seed = seeds[i];
        results[i] = w.net.run(factory, opts);
      });
  return results;
}

void expect_same_results(const std::vector<sim::RunResult>& a,
                         const std::vector<sim::RunResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].outputs, b[i].outputs) << "run " << i;
    EXPECT_EQ(a[i].halted, b[i].halted) << "run " << i;
    EXPECT_EQ(a[i].metrics.rounds, b[i].metrics.rounds) << "run " << i;
    EXPECT_EQ(a[i].metrics.messages, b[i].metrics.messages) << "run " << i;
    EXPECT_EQ(a[i].metrics.total_bits, b[i].metrics.total_bits)
        << "run " << i;
    EXPECT_EQ(a[i].metrics.max_edge_bits, b[i].metrics.max_edge_bits)
        << "run " << i;
  }
}

TEST(RunMany, ResolveThreads) {
  EXPECT_EQ(sim::resolve_threads(4, 100), 4u);
  EXPECT_EQ(sim::resolve_threads(4, 2), 2u);
  EXPECT_EQ(sim::resolve_threads(1, 100), 1u);
  EXPECT_GE(sim::resolve_threads(0, 100), 1u);
  EXPECT_EQ(sim::resolve_threads(8, 0), 1u);
}

TEST(RunMany, BitIdenticalAcrossThreadCounts) {
  Rng rng(11);
  const Graph g = gen::gnp(120, 0.05, rng);
  const auto factory = make_luby_program(g);
  const auto seeds = seeds_for(12);

  const auto base = run_seeds(g, factory, seeds, 1);
  ASSERT_EQ(base.size(), seeds.size());
  for (const auto& r : base) ASSERT_TRUE(r.metrics.completed);

  for (const unsigned threads : {2u, 4u, 8u}) {
    expect_same_results(base, run_seeds(g, factory, seeds, threads));
  }
}

TEST(RunMany, BitIdenticalAcrossInvocations) {
  Rng rng(12);
  const Graph g = gen::random_regular(96, 6, rng);
  const auto w = gen::uniform_node_weights(96, 1 << 10, rng);
  const auto factory = make_layered_maxis_program(g, w, 1 << 10);
  const auto seeds = seeds_for(8);

  const auto policy = sim::BandwidthPolicy::congest(32);
  const auto first = run_seeds(g, factory, seeds, 4, policy);
  const auto second = run_seeds(g, factory, seeds, 4, policy);
  expect_same_results(first, second);
}

TEST(RunMany, MatchesSingleNetworkRuns) {
  // Workers reuse one Network across seeds; every run must agree with a
  // one-off Network::run on a fresh Network.
  Rng rng(13);
  const Graph g = gen::gnp(64, 0.08, rng);
  const auto factory = make_luby_program(g);
  const auto seeds = seeds_for(6);

  // At 1 thread a single Network runs all six seeds back to back.
  for (const unsigned threads : {1u, 3u}) {
    const auto batch = run_seeds(g, factory, seeds, threads);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      sim::Network net(g);
      sim::RunOptions single;
      single.seed = seeds[i];
      const auto solo = net.run(factory, single);
      EXPECT_EQ(batch[i].outputs, solo.outputs) << "seed index " << i;
      EXPECT_EQ(batch[i].metrics.rounds, solo.metrics.rounds);
    }
  }
}

TEST(RunMany, ResultsAreValidIndependentSets) {
  Rng rng(14);
  const Graph g = gen::power_law(150, 2.5, 4.0, rng);
  const auto factory = make_luby_program(g);
  const auto seeds = seeds_for(10);
  for (const auto& run : run_seeds(g, factory, seeds, 4)) {
    ASSERT_TRUE(run.metrics.completed);
    std::vector<NodeId> is;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (run.outputs[v] == kOutInIs) is.push_back(v);
    }
    EXPECT_TRUE(is_maximal_independent_set(g, is));
  }
}

TEST(RunMany, PropagatesPerRunExceptions) {
  // A program that violates the CONGEST cap in every run: the batch must
  // rethrow instead of swallowing the failure.
  class Chatty final : public sim::NodeProgram {
    void round(sim::Ctx& ctx) override {
      sim::Message m(1);
      for (int i = 0; i < 64; ++i) m.push(0, 64);
      if (ctx.degree() > 0) ctx.send(0, m);
      ctx.halt(0);
    }
  };
  const Graph g = gen::cycle(8);
  const auto seeds = seeds_for(4);
  EXPECT_THROW(
      run_seeds(
          g, [](NodeId) { return std::make_unique<Chatty>(); }, seeds, 2,
          sim::BandwidthPolicy::congest(8, /*enforce=*/true)),
      EnsureError);
}

TEST(RunMany, EmptySeedSet) {
  const Graph g = gen::path(4);
  const auto factory = make_luby_program(g);
  EXPECT_TRUE(run_seeds(g, factory, {}, 0).empty());
  EXPECT_TRUE(sim::run_many_tasks({}, 4, [](std::uint64_t, std::size_t) {
                return 0;
              }).empty());
}

TEST(RunManyTasks, DeterministicOrderAndValues) {
  const auto seeds = seeds_for(9);
  auto task = [](std::uint64_t seed, std::size_t index) {
    Rng rng(seed);
    return static_cast<double>(rng.next() % 1000) +
           static_cast<double>(index) * 1e6;
  };
  const auto serial = sim::run_many_tasks(seeds, 1, task);
  for (const unsigned threads : {2u, 4u}) {
    EXPECT_EQ(serial, sim::run_many_tasks(seeds, threads, task));
  }
}

TEST(RunMany, OneStatePerWorkerAndCallerIsWorkerZero) {
  static std::atomic<int> states{0};
  struct Counted {
    Counted() { states.fetch_add(1); }
  };
  const std::thread::id caller = std::this_thread::get_id();
  states = 0;
  std::vector<std::thread::id> ran_on(16);
  EXPECT_EQ(sim::for_each_index<Counted>(
                ran_on.size(), 1,
                [&](Counted&, std::size_t i) {
                  ran_on[i] = std::this_thread::get_id();
                }),
            1u);
  EXPECT_EQ(states.load(), 1);
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, caller);

  states = 0;
  std::vector<char> done(64, 0);
  const unsigned workers = sim::for_each_index<Counted>(
      done.size(), 4, [&](Counted&, std::size_t i) { done[i] = 1; });
  EXPECT_EQ(workers, 4u);
  EXPECT_EQ(states.load(), 4);
  for (const char d : done) EXPECT_EQ(d, 1);
}

TEST(RunMany, FirstErrorCancelsTheRest) {
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(sim::for_each_index<int>(1000, 1,
                                        [&](int&, std::size_t i) {
                                          ran.fetch_add(1);
                                          if (i == 3) {
                                            throw std::runtime_error("boom");
                                          }
                                        }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 4u);  // indices past the failure never ran

  // Index 0 fails at once; without the cancel, the other worker would
  // grind through all 200 slow indices before the error surfaced.
  ran = 0;
  EXPECT_THROW(sim::for_each_index<int>(
                   200, 2,
                   [&](int&, std::size_t i) {
                     if (i == 0) throw std::runtime_error("boom");
                     std::this_thread::sleep_for(std::chrono::milliseconds(1));
                     ran.fetch_add(1);
                   }),
               std::runtime_error);
  EXPECT_LT(ran.load(), 100u);
}

TEST(RunManyTasks, SpawnFailureRunsOnFewerWorkers) {
  // A thread spawn that fails after another worker has started must not
  // abort the process: the scheduler carries on with the workers it has.
  if (!test::OneFreeThreadSlot::possible()) {
    GTEST_SKIP() << "cannot lower the thread limit in a child process";
  }
  const auto seeds = seeds_for(64);
  auto task = [](std::uint64_t seed, std::size_t index) {
    Rng rng(seed);
    return rng.next() ^ index;
  };
  const auto serial = sim::run_many_tasks(seeds, 1, task);
  EXPECT_EXIT(
      {
        bool same = false;
        {
          const test::OneFreeThreadSlot one_slot;
          same = sim::run_many_tasks(seeds, 4, task) == serial;
        }
        std::_Exit(same ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace distapx
