// One set of workers shared by every concurrent caller.
//
// A socket lane serves one SUBMIT at a time, and a SUBMIT is a batch of
// independent (job, seed) units. A WorkerPool keeps a fixed set of
// workers, each owning one sim::Workspace for life, and lets any free
// worker run any in-flight batch's units: a caller posts its batch with
// run() and sleeps until every unit has returned. So neither a batch's
// first units (which build its graphs) nor the tail of its last ones
// leave a core idle while another caller's units wait.
//
// Scheduling: workers claim one index at a time, round-robin across the
// batches in flight, so a short batch posted while a long one still has
// unclaimed units does not wait out the long one's queue. Claims, the
// cancel and the rethrow are IndexBatch's (sim/run_many.hpp): a unit that
// throws cancels the rest of its own batch only, and the batch's first
// exception is rethrown to its caller.
//
// Workspaces: a worker keeps its workspace's binding while it runs units
// of one batch, whose graphs stay alive until run() returns, and resets it
// whenever it takes a unit of a batch other than its last one: graph
// addresses repeat across batches (sim/workspace.hpp).
//
// Threads: the constructor spawns `threads` workers; a spawn that fails
// (e.g. the process thread limit) leaves fewer. A pool of one thread
// spawns none, and neither does one whose spawns all failed: it runs each
// batch inline on its caller, in its one workspace, one batch at a time.
// Results depend on the unit index alone, never on which worker ran it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/run_many.hpp"
#include "sim/workspace.hpp"

namespace distapx::sim {

class WorkerPool {
 public:
  /// Spawns `threads` workers, or none when `threads` <= 1 (inline).
  explicit WorkerPool(unsigned threads);
  /// Joins the workers. No run() may be in progress.
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Workers a batch can use: the spawned ones, or 1 (the caller) inline.
  [[nodiscard]] unsigned workers() const noexcept {
    return threads_.empty() ? 1u : static_cast<unsigned>(threads_.size());
  }

  /// Calls body(workspace, i) once for every i in [0, count) on the pool's
  /// workers and returns once every call has returned. A call that throws
  /// cancels the batch's unclaimed indices; its exception is rethrown here.
  /// Safe to call from many threads at once, but not from inside a unit
  /// of the same pool.
  template <typename Body>
  void run(std::size_t count, Body body) {
    Batch batch(count);
    batch.call = [](void* b, Workspace& ws, std::size_t i) {
      (*static_cast<Body*>(b))(ws, i);
    };
    batch.body = &body;
    run_batch(batch);
  }

 private:
  struct Batch {
    explicit Batch(std::size_t count) : claims(count) {}
    IndexBatch claims;
    void (*call)(void*, Workspace&, std::size_t) = nullptr;
    void* body = nullptr;
    std::uint64_t serial = 0;   ///< unique per posted batch
    std::size_t running = 0;    ///< claimed units still running; under mu_
    std::condition_variable done;
  };
  struct Worker {
    Workspace ws;
    std::uint64_t last_batch = 0;  ///< serial of the batch it ran last
  };

  void run_batch(Batch& batch);
  void work(Worker& w);
  /// Drops `batch` from the claim ring once it has nothing left to claim.
  void retire(Batch& batch);

  std::unique_ptr<Worker[]> workers_;  ///< [0] is the inline one
  std::vector<std::thread> threads_;   ///< thread t runs workers_[t]
  std::mutex inline_mu_;               ///< one inline batch at a time

  std::mutex mu_;
  std::condition_variable work_;
  std::vector<Batch*> active_;  ///< batches with unclaimed units
  std::size_t next_ = 0;        ///< round-robin cursor into active_
  std::uint64_t serials_ = 0;
  bool stopping_ = false;
};

}  // namespace distapx::sim
