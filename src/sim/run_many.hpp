// The seed-parallel fork/join every multi-seed path runs on.
//
// The property sweeps, the Table-1 benches and the batch server all share
// one shape: many fully independent units of work (one per seed, or per
// (job, seed)), each writing its own result slot. for_each_index() is the
// one scheduler for that shape: an atomic cursor, a first-error slot and a
// fork/join in which the calling thread is worker 0. Worker t works in the
// caller-owned states[t] — the batch server passes its owner's
// sim::Workspace set, so a worker's engine buffers outlive the call, not
// just one run. The form that takes a thread count builds the states for
// one call; run_many_tasks() is the stateless convenience form that
// collects one result per seed.
//
// Determinism: a unit's result depends only on its index (and whatever the
// body reads for it) — never on the thread count or on scheduling order —
// so a batch is bit-identical at 1 thread and at N threads, and across
// invocations.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

namespace distapx::sim {

/// Number of workers actually used for `jobs` jobs: `requested` (or the
/// hardware concurrency when 0), clamped to [1, jobs].
unsigned resolve_threads(unsigned requested, std::size_t jobs);

/// Calls body(states[t], i) once for every i in [0, count), spread over
/// min(states.size(), count) workers (at least one) that pull indices from
/// one shared cursor; worker t uses states[t] for every index it runs.
/// The calling thread is worker 0 and spawns the others. A spawn that
/// fails (e.g. the process thread limit) stops spawning: the workers
/// already running finish every index, so results are the same with fewer
/// workers. The first exception a body throws cancels the remaining
/// indices and is rethrown after every started thread has joined. Returns
/// the number of workers that ran. Requires a non-empty `states`.
template <typename State, typename Body>
unsigned for_each_index(std::size_t count, std::span<State> states,
                        Body&& body) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;
  auto drain = [&](State& state) {
    try {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        body(state, i);
      }
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
      next.store(count, std::memory_order_relaxed);  // cancel the rest
    }
  };
  const auto workers = static_cast<unsigned>(std::max<std::size_t>(
      1, std::min<std::size_t>(states.size(), count)));
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  try {
    for (unsigned t = 1; t < workers; ++t) {
      pool.emplace_back(drain, std::ref(states[t]));
    }
  } catch (...) {
    // Out of threads: the caller and the workers already started drain
    // the whole cursor between them.
  }
  drain(states[0]);
  for (std::thread& th : pool) th.join();
  if (error) std::rethrow_exception(error);
  return static_cast<unsigned>(pool.size()) + 1;
}

/// The same over resolve_threads(threads, count) default-constructed
/// States that live for this call.
template <typename State, typename Body>
unsigned for_each_index(std::size_t count, unsigned threads, Body&& body) {
  std::vector<State> states(resolve_threads(threads, count));
  return for_each_index(count, std::span<State>(states), body);
}

/// Deterministic seed-parallel map: results[i] = task(seeds[i], i). `task`
/// must be safe to call concurrently.
template <typename Task>
auto run_many_tasks(std::span<const std::uint64_t> seeds, unsigned threads,
                    Task&& task)
    -> std::vector<decltype(task(std::uint64_t{}, std::size_t{}))> {
  using Result = decltype(task(std::uint64_t{}, std::size_t{}));
  // std::vector<bool> packs bits: concurrent writes to adjacent slots
  // would race. Return char/int instead.
  static_assert(!std::is_same_v<Result, bool>,
                "run_many_tasks cannot return bool (vector<bool> races)");
  struct NoState {};
  std::vector<Result> results(seeds.size());
  for_each_index<NoState>(seeds.size(), threads,
                          [&](NoState&, std::size_t i) {
                            results[i] = task(seeds[i], i);
                          });
  return results;
}

}  // namespace distapx::sim
