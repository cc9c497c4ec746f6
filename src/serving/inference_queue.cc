#include "serving/inference_queue.h"

#include <stdexcept>
#include <utility>

namespace byom::serving {

InferenceRequestQueue::InferenceRequestQueue(std::size_t capacity)
    : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("InferenceRequestQueue: capacity >= 1");
  }
}

bool InferenceRequestQueue::try_push(InferenceRequest request) {
  {
    common::MutexLock lock(mutex_);
    if (shutdown_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(request));
  }
  not_empty_.notify_one();
  return true;
}

std::size_t InferenceRequestQueue::take(std::vector<InferenceRequest>& out,
                                        std::size_t max_batch) {
  std::size_t popped = 0;
  while (popped < max_batch && !items_.empty()) {
    out.push_back(std::move(items_.front()));
    items_.pop_front();
    ++popped;
  }
  return popped;
}

std::size_t InferenceRequestQueue::pop_batch(
    std::vector<InferenceRequest>& out, std::size_t max_batch,
    std::chrono::milliseconds wait) {
  if (max_batch == 0) return 0;
  common::MutexLock lock(mutex_);
  // A wait <= 0 must not reach the condition variable: a wait on a
  // deadline already past still sleeps for the thread's timer slack
  // (~50 us on Linux), on every empty Batcher::drain().
  if (wait > std::chrono::milliseconds::zero()) {
    // lint:allow(wall-clock) threaded-consumer timeout; inline mode only
    // pops with wait == 0 (drain)
    const auto deadline = std::chrono::steady_clock::now() + wait;
    while (items_.empty() && !shutdown_) {
      if (not_empty_.wait_until(lock, deadline) == std::cv_status::timeout) {
        break;
      }
    }
  }
  return take(out, max_batch);
}

std::size_t InferenceRequestQueue::pop_batch(
    std::vector<InferenceRequest>& out, std::size_t max_batch) {
  if (max_batch == 0) return 0;
  common::MutexLock lock(mutex_);
  while (items_.empty() && !shutdown_) not_empty_.wait(lock);
  return take(out, max_batch);
}

void InferenceRequestQueue::shutdown() {
  {
    common::MutexLock lock(mutex_);
    shutdown_ = true;
  }
  not_empty_.notify_all();
}

bool InferenceRequestQueue::shut_down() const {
  common::MutexLock lock(mutex_);
  return shutdown_;
}

std::size_t InferenceRequestQueue::size() const {
  common::MutexLock lock(mutex_);
  return items_.size();
}

}  // namespace byom::serving
