// The seed-parallel scheduling every multi-seed path runs on.
//
// The property sweeps, the Table-1 benches and the batch server all share
// one shape: many fully independent units of work (one per seed, or per
// (job, seed)), each writing its own result slot. IndexBatch is the one
// claim/cancel/rethrow implementation for that shape: an atomic cursor, a
// first-error slot and a cancel. Two executors drain it:
//  - for_each_index() forks threads for one call, with the calling thread
//    as worker 0 (the benches, the sweeps, run_many_tasks());
//  - sim::WorkerPool (sim/worker_pool.hpp) keeps its workers for life and
//    shares them between the batches of concurrent callers (the serving
//    tiers).
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

/// The indices [0, count) of one batch of independent units, claimed one
/// at a time by any number of workers. A unit that throws cancels every
/// index not yet claimed; the batch's first exception is kept for its
/// caller.
class IndexBatch {
 public:
  explicit IndexBatch(std::size_t count) noexcept : count_(count) {}
  IndexBatch(const IndexBatch&) = delete;
  IndexBatch& operator=(const IndexBatch&) = delete;

  /// Claims the next index into `i`; false once every index is claimed or
  /// the batch was cancelled.
  bool claim(std::size_t& i) noexcept {
    i = next_.fetch_add(1, std::memory_order_relaxed);
    return i < count_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  /// True once no index is left to claim.
  [[nodiscard]] bool exhausted() const noexcept {
    return next_.load(std::memory_order_relaxed) >= count_;
  }

  /// Runs unit(i); an exception it throws is kept and cancels the rest.
  template <typename Unit>
  void run(Unit& unit, std::size_t i) noexcept {
    try {
      unit(i);
    } catch (...) {
      fail(std::current_exception());
    }
  }

  /// Claims and runs indices until none is left.
  template <typename Unit>
  void drain(Unit& unit) noexcept {
    std::size_t i = 0;
    while (claim(i)) run(unit, i);
  }

  /// Rethrows the first exception a unit threw. Call once every claimed
  /// unit has returned.
  void rethrow_if_failed() const {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  void fail(std::exception_ptr error) noexcept {
    {
      const std::lock_guard<std::mutex> lock(error_mu_);
      if (!error_) error_ = std::move(error);
    }
    next_.store(count_, std::memory_order_relaxed);  // cancel the rest
  }

  const std::size_t count_;
  std::atomic<std::size_t> next_{0};
  std::mutex error_mu_;
  std::exception_ptr error_;
};

/// Calls body(states[t], i) once for every i in [0, count), spread over
/// resolve_threads(threads, count) workers that drain one IndexBatch;
/// worker t uses its own default-constructed State for every index it
/// runs, and the states live for this call. The calling thread is worker 0
/// and spawns the others. A spawn that fails (e.g. the process thread
/// limit) stops spawning: the workers already running finish every index,
/// so results are the same with fewer workers. The first exception a body
/// throws cancels the remaining indices and is rethrown after every
/// started thread has joined. Returns the number of workers that ran.
template <typename State, typename Body>
unsigned for_each_index(std::size_t count, unsigned threads, Body&& body) {
  std::vector<State> states(resolve_threads(threads, count));
  IndexBatch batch(count);
  const auto drain = [&](State& state) {
    auto unit = [&](std::size_t i) { body(state, i); };
    batch.drain(unit);
  };
  std::vector<std::thread> pool;
  pool.reserve(states.size() - 1);
  try {
    for (std::size_t t = 1; t < states.size(); ++t) {
      pool.emplace_back(drain, std::ref(states[t]));
    }
  } catch (...) {
    // Out of threads: the caller and the workers already started drain
    // the whole cursor between them.
  }
  drain(states[0]);
  for (std::thread& th : pool) th.join();
  batch.rethrow_if_failed();
  return static_cast<unsigned>(pool.size()) + 1;
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
