#include "sim/worker_pool.hpp"

#include <algorithm>

namespace distapx::sim {

WorkerPool::WorkerPool(unsigned threads)
    : workers_(std::make_unique<Worker[]>(std::max(threads, 1u))) {
  if (threads < 2) return;
  threads_.reserve(threads);
  try {
    for (unsigned t = 0; t < threads; ++t) {
      threads_.emplace_back([this, t] { work(workers_[t]); });
    }
  } catch (...) {
    // Out of threads: serve on the workers that started (inline if none).
  }
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::run_batch(Batch& batch) {
  if (threads_.empty()) {
    const std::lock_guard<std::mutex> lock(inline_mu_);
    Workspace& ws = workers_[0].ws;
    ws.reset();  // the last batch's graphs may be gone
    auto unit = [&](std::size_t i) { batch.call(batch.body, ws, i); };
    batch.claims.drain(unit);
  } else if (!batch.claims.exhausted()) {
    std::unique_lock<std::mutex> lock(mu_);
    batch.serial = ++serials_;
    active_.push_back(&batch);
    // Wake no more workers than the batch has units.
    const std::size_t wake = std::min(batch.claims.size(), threads_.size());
    for (std::size_t k = 0; k < wake; ++k) work_.notify_one();
    batch.done.wait(lock, [&] {
      return batch.running == 0 && batch.claims.exhausted();
    });
  }
  batch.claims.rethrow_if_failed();
}

void WorkerPool::retire(Batch& batch) {
  const auto it = std::find(active_.begin(), active_.end(), &batch);
  if (it == active_.end()) return;
  const auto pos = static_cast<std::size_t>(it - active_.begin());
  active_.erase(it);
  if (next_ > pos) --next_;  // the cursor keeps its batch
}

void WorkerPool::work(Worker& w) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_.wait(lock, [&] { return stopping_ || !active_.empty(); });
    if (active_.empty()) return;  // stopping, and nothing in flight
    if (next_ >= active_.size()) next_ = 0;
    Batch& batch = *active_[next_];
    std::size_t i = 0;
    if (!batch.claims.claim(i)) {  // cancelled by a failed unit
      retire(batch);
      continue;
    }
    if (batch.claims.exhausted()) {
      retire(batch);  // that was its last index
    } else {
      ++next_;  // round-robin: the next claim goes to the next batch
    }
    ++batch.running;
    lock.unlock();
    if (w.last_batch != batch.serial) {
      w.ws.reset();
      w.last_batch = batch.serial;
    }
    auto unit = [&](std::size_t k) { batch.call(batch.body, w.ws, k); };
    batch.claims.run(unit, i);
    lock.lock();
    if (batch.claims.exhausted()) retire(batch);  // a failure cancelled it
    if (--batch.running == 0 && batch.claims.exhausted()) {
      batch.done.notify_one();  // under mu_: the caller cannot return yet
    }
  }
}

}  // namespace distapx::sim
