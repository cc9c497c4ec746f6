#include "serving/inference_queue.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace byom::serving {

InferenceRequestQueue::InferenceRequestQueue(std::size_t capacity)
    : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("InferenceRequestQueue: capacity >= 1");
  }
}

// hotpath: one call per served job; copy-assigns into a recycled slot (the
// ring grows only while the backlog reaches a new depth).
bool InferenceRequestQueue::try_push(const trace::Job& job,
                                     double enqueued_at) {
  {
    common::MutexLock lock(mutex_);
    if (shutdown_ || count_ >= capacity_) return false;
    if (count_ == ring_.size()) {
      // Full ring below capacity: unwrap it so the queued requests run
      // from slot 0, then add one slot at the end (amortized growth).
      std::rotate(ring_.begin(),
                  ring_.begin() + static_cast<std::ptrdiff_t>(head_),
                  ring_.end());
      head_ = 0;
      ring_.emplace_back();
    }
    std::size_t tail = head_ + count_;
    if (tail >= ring_.size()) tail -= ring_.size();
    InferenceRequest& slot = ring_[tail];
    slot.job = job;
    slot.enqueued_at = enqueued_at;
    ++count_;
  }
  not_empty_.notify_one();
  return true;
}

// hotpath: one call per served batch; swaps slots, never allocates once the
// batch has as many slots as it is asked to hold.
std::size_t InferenceRequestQueue::take(RequestBatch& out,
                                        std::size_t max_batch) {
  std::size_t popped = 0;
  while (popped < max_batch && count_ > 0) {
    std::swap(out.append(), ring_[head_]);
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    --count_;
    ++popped;
  }
  return popped;
}

// hotpath: the inline lane's zero-wait pop; swaps slots via take().
std::size_t InferenceRequestQueue::pop_batch(RequestBatch& out,
                                             std::size_t max_batch,
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
    while (count_ == 0 && !shutdown_) {
      if (not_empty_.wait_until(lock, deadline) == std::cv_status::timeout) {
        break;
      }
    }
  }
  return take(out, max_batch);
}

std::size_t InferenceRequestQueue::pop_batch(RequestBatch& out,
                                             std::size_t max_batch) {
  if (max_batch == 0) return 0;
  common::MutexLock lock(mutex_);
  while (count_ == 0 && !shutdown_) not_empty_.wait(lock);
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
  return count_;
}

}  // namespace byom::serving
