#include "serving/batcher.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace byom::serving {

Batcher::Batcher(InferenceRequestQueue* queue, const BatcherConfig& config,
                 BatchFn execute)
    : queue_(queue), config_(config), execute_(std::move(execute)) {
  if (queue_ == nullptr) {
    throw std::invalid_argument("Batcher: null queue");
  }
  if (config_.max_batch == 0) {
    throw std::invalid_argument("Batcher: max_batch >= 1");
  }
  if (!execute_) {
    throw std::invalid_argument("Batcher: null batch function");
  }
}

bool Batcher::run_once(RequestBatch& batch) {
  batch.clear();

  // Block for the first request on the queue's condition variable — no
  // timeout, so an idle worker sleeps instead of waking every 50 ms, and
  // shutdown() wakes it immediately. The blocking pop returns empty only
  // when the queue is shut down and fully drained.
  queue_->pop_batch(batch, config_.max_batch);
  if (batch.empty()) return false;

  // Top up until the batch is full or the flush deadline fires. The
  // deadline is anchored at the first pop, so a trickle of requests cannot
  // postpone the flush indefinitely.
  // lint:allow(wall-clock) threaded-worker flush deadline; virtual-time
  // mode never calls run_once (it drains at lookup or by clock event)
  const auto deadline =
      std::chrono::steady_clock::now() + config_.flush_deadline;
  while (batch.size() < config_.max_batch) {
    // lint:allow(wall-clock) threaded-worker flush deadline, see above
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    if (queue_->pop_batch(batch, config_.max_batch - batch.size(),
                          std::max(left, std::chrono::milliseconds(1))) == 0 &&
        queue_->shut_down()) {
      break;
    }
  }

  execute(batch, batch.size() >= config_.max_batch);
  return true;
}

std::size_t Batcher::drain() {
  common::MutexLock lock(drain_mutex_);
  std::size_t total = 0;
  for (;;) {
    drained_.clear();
    if (queue_->pop_batch(drained_, config_.max_batch,
                          std::chrono::milliseconds(0)) == 0) {
      break;
    }
    const bool full = drained_.size() >= config_.max_batch;
    total += drained_.size();
    execute(drained_, full);
    // A short pop emptied the queue: anything pushed since arrived after
    // this drain began, so no final empty pop is needed.
    if (!full) break;
  }
  return total;
}

void Batcher::execute(const RequestBatch& batch, bool size_triggered) {
  if (batch.empty()) return;
  ++batches_;
  if (size_triggered) {
    ++size_flushes_;
  } else {
    ++deadline_flushes_;
  }
  execute_(batch.requests());
}

}  // namespace byom::serving
