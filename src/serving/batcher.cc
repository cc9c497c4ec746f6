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

bool Batcher::run_once() {
  // No reserve (as in drain): a batch of a few requests would pay for
  // max_batch of them.
  std::vector<InferenceRequest> batch;

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

  const bool size_triggered = batch.size() >= config_.max_batch;
  execute(std::move(batch), size_triggered);
  return true;
}

std::size_t Batcher::drain() {
  std::size_t total = 0;
  for (;;) {
    // No reserve: most passes move a request or two, and the last one
    // finds the queue empty.
    std::vector<InferenceRequest> batch;
    if (queue_->pop_batch(batch, config_.max_batch,
                          std::chrono::milliseconds(0)) == 0) {
      break;
    }
    total += batch.size();
    execute(std::move(batch), batch.size() >= config_.max_batch);
  }
  return total;
}

void Batcher::execute(std::vector<InferenceRequest>&& batch,
                      bool size_triggered) {
  if (batch.empty()) return;
  ++batches_;
  if (size_triggered) {
    ++size_flushes_;
  } else {
    ++deadline_flushes_;
  }
  execute_(std::move(batch));
}

}  // namespace byom::serving
