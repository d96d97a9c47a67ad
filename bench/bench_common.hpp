// Shared utilities for the benchmark harness.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "service/job_spec.hpp"
#include "sim/run_many.hpp"
#include "support/random.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace distapx::bench {

/// Prints a section banner for one experiment.
void banner(const std::string& experiment, const std::string& claim);

/// The run contract of a job with default keys and run seed `seed`, for
/// benches that call an algorithm's entry point directly.
inline sim::RunOptions run_opts(std::uint64_t seed = 1) {
  return service::JobSpec{}.run_options(seed);
}

/// Worker threads the benches use: DISTAPX_BENCH_THREADS when set,
/// otherwise the hardware concurrency.
unsigned default_threads();

/// The derived seed sequence sample()/sample_par() feed to `fn`.
std::vector<std::uint64_t> seed_sequence(int reps, std::uint64_t base_seed);

/// mean of `reps` samples produced by `fn(seed)`.
template <typename Fn>
Summary sample(int reps, std::uint64_t base_seed, Fn&& fn) {
  Summary s;
  for (const std::uint64_t seed : seed_sequence(reps, base_seed)) {
    s.add(fn(seed));
  }
  return s;
}

/// sample(), but the per-seed work runs through the sim::run_many_tasks
/// scheduler. The reduction folds in seed order, so the Summary is
/// bit-identical to the serial sample() at any thread count.
template <typename Fn>
Summary sample_par(int reps, std::uint64_t base_seed, Fn&& fn) {
  const auto seeds = seed_sequence(reps, base_seed);
  const auto values = sim::run_many_tasks(
      seeds, default_threads(),
      [&](std::uint64_t seed, std::size_t) -> double { return fn(seed); });
  Summary s;
  for (const double v : values) s.add(v);
  return s;
}

/// Per-seed results for seeds first_seed..first_seed+reps-1 computed
/// through the sim::run_many_tasks scheduler; results are in seed order
/// regardless of thread count.
template <typename Fn>
auto per_seed(std::uint64_t first_seed, int reps, Fn&& fn) {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    seeds.push_back(first_seed + static_cast<std::uint64_t>(r));
  }
  return sim::run_many_tasks(
      seeds, default_threads(),
      [&](std::uint64_t seed, std::size_t) { return fn(seed); });
}

/// OPT/ALG ratio guard against divide-by-zero.
double ratio(double opt, double got);

}  // namespace distapx::bench
