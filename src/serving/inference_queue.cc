#include "serving/inference_queue.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace byom::serving {

namespace {

// SplitMix64 finalizer: spreads sequential job ids across stripes without
// correlating with the service-level fnv1a(job_key) shard routing.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

InferenceRequestQueue::InferenceRequestQueue(std::size_t capacity,
                                             std::size_t num_stripes)
    : stripe_capacity_(num_stripes == 0
                           ? 0
                           : std::max<std::size_t>(
                                 1, (capacity + num_stripes - 1) /
                                        num_stripes)) {
  if (capacity == 0) {
    throw std::invalid_argument("InferenceRequestQueue: capacity >= 1");
  }
  if (num_stripes == 0) {
    throw std::invalid_argument("InferenceRequestQueue: num_stripes >= 1");
  }
  stripes_.reserve(num_stripes);
  for (std::size_t i = 0; i < num_stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

std::size_t InferenceRequestQueue::stripe_of(std::uint64_t job_id) const {
  if (stripes_.size() == 1) return 0;
  return static_cast<std::size_t>(mix(job_id) % stripes_.size());
}

void InferenceRequestQueue::notify_not_empty() {
  // The empty critical section pairs with the consumer's predicate check
  // under gate_mutex_: once we hold the gate, any consumer that saw the
  // queue empty is already inside wait() and will receive the notify.
  { common::MutexLock gate(gate_mutex_); }
  not_empty_.notify_one();
}

bool InferenceRequestQueue::try_push(InferenceRequest request) {
  Stripe& stripe = *stripes_[stripe_of(request.job.job_id)];
  {
    common::MutexLock lock(stripe.mutex);
    // atomic: acquire — pairs with shutdown()'s release store
    if (shutdown_.load(std::memory_order_acquire) ||
        stripe.items.size() >= stripe_capacity_) {
      return false;
    }
    stripe.items.push_back(std::move(request));
    // size_ changes only alongside its item, under the item's stripe lock,
    // so the aggregate can never go negative-transient (underflow).
    // atomic: release — pairs with the acquire loads in wake_ready()/size()
    size_.fetch_add(1, std::memory_order_release);
  }
  notify_not_empty();
  return true;
}

bool InferenceRequestQueue::push(InferenceRequest request) {
  Stripe& stripe = *stripes_[stripe_of(request.job.job_id)];
  {
    common::MutexLock lock(stripe.mutex);
    // atomic: acquire — pairs with shutdown()'s release store
    while (!shutdown_.load(std::memory_order_acquire) &&
           stripe.items.size() >= stripe_capacity_) {
      stripe.not_full.wait(lock);
    }
    // atomic: acquire — pairs with shutdown()'s release store
    if (shutdown_.load(std::memory_order_acquire)) return false;
    stripe.items.push_back(std::move(request));
    // atomic: release — pairs with the acquire loads in wake_ready()/size()
    size_.fetch_add(1, std::memory_order_release);
  }
  notify_not_empty();
  return true;
}

std::size_t InferenceRequestQueue::sweep(std::vector<InferenceRequest>& out,
                                         std::size_t max_batch) {
  const std::size_t n = stripes_.size();
  // atomic: relaxed — round-robin start cursor; the bump publishes no
  // data, any interleaving just picks a different scan starting point
  const std::size_t start =
      n == 1 ? 0 : cursor_.fetch_add(1, std::memory_order_relaxed) % n;
  std::size_t popped = 0;
  for (std::size_t k = 0; k < n && popped < max_batch; ++k) {
    Stripe& stripe = *stripes_[(start + k) % n];
    std::size_t from_stripe = 0;
    {
      common::MutexLock lock(stripe.mutex);
      while (popped < max_batch && !stripe.items.empty()) {
        out.push_back(std::move(stripe.items.front()));
        stripe.items.pop_front();
        // atomic: release — keeps size_ publication symmetric with the
        // producers; pairs with the acquire loads in wake_ready()/size()
        size_.fetch_sub(1, std::memory_order_release);
        ++popped;
        ++from_stripe;
      }
    }
    if (from_stripe > 0) stripe.not_full.notify_all();
  }
  return popped;
}

std::optional<InferenceRequest> InferenceRequestQueue::pop(
    std::chrono::milliseconds wait) {
  std::vector<InferenceRequest> out;
  if (pop_batch(out, 1, wait) == 0) return std::nullopt;
  return std::move(out.front());
}

// The idle consumer's wake predicate: something to pop, or nothing ever
// will be. Reads only atomics, so no capability is required.
bool InferenceRequestQueue::wake_ready() const {
  // atomic: acquire — pairs with shutdown()'s release store and the
  // release size_ updates; seeing either implies their prior writes
  return shutdown_.load(std::memory_order_acquire) ||
         size_.load(std::memory_order_acquire) > 0;
}

std::size_t InferenceRequestQueue::pop_batch(
    std::vector<InferenceRequest>& out, std::size_t max_batch,
    std::chrono::milliseconds wait) {
  if (max_batch == 0) return 0;
  // A wait <= 0 is a pure non-blocking sweep. It must not reach the gate:
  // a condition-variable wait on a deadline already past still sleeps for
  // the thread's timer slack (~50 us on Linux), on every empty drain().
  if (wait <= std::chrono::milliseconds::zero()) {
    return sweep(out, max_batch);
  }
  // lint:allow(wall-clock) threaded-consumer timeout; only waits > 0 get
  // here, and inline mode only pops with wait == 0 (drain)
  const auto deadline = std::chrono::steady_clock::now() + wait;
  for (;;) {
    const std::size_t popped = sweep(out, max_batch);
    if (popped > 0) return popped;
    bool timed_out = false;
    {
      common::MutexLock gate(gate_mutex_);
      // atomic: acquire — shut-down-and-drained exit test; pairs with
      // shutdown()'s release store and the release size_ updates
      if (shutdown_.load(std::memory_order_acquire) &&
          size_.load(std::memory_order_acquire) == 0) {
        return 0;
      }
      while (!wake_ready()) {
        if (not_empty_.wait_until(gate, deadline) == std::cv_status::timeout) {
          timed_out = !wake_ready();
          break;
        }
      }
    }
    if (timed_out) {
      // Timed out: one last non-blocking attempt in case a push raced the
      // timeout.
      return sweep(out, max_batch);
    }
    // Woken (or the predicate already held): loop and sweep again — another
    // consumer may have raced us to the items.
  }
}

std::size_t InferenceRequestQueue::pop_batch(
    std::vector<InferenceRequest>& out, std::size_t max_batch) {
  if (max_batch == 0) return 0;
  for (;;) {
    const std::size_t popped = sweep(out, max_batch);
    if (popped > 0) return popped;
    common::MutexLock gate(gate_mutex_);
    // atomic: acquire — shut-down-and-drained exit test; pairs with
    // shutdown()'s release store and the release size_ updates
    if (shutdown_.load(std::memory_order_acquire) &&
        size_.load(std::memory_order_acquire) == 0) {
      return 0;
    }
    while (!wake_ready()) not_empty_.wait(gate);
  }
}

void InferenceRequestQueue::shutdown() {
  // atomic: release — pairs with the acquire loads in try_push/push/
  // wake_ready/shut_down; orders all pre-shutdown writes before the flag
  shutdown_.store(true, std::memory_order_release);
  for (auto& stripe : stripes_) {
    // Empty critical section: a producer between its shutdown check and
    // wait() holds the stripe mutex, so once we acquire it the producer is
    // inside wait() and the notify below reaches it.
    { common::MutexLock lock(stripe->mutex); }
    stripe->not_full.notify_all();
  }
  { common::MutexLock gate(gate_mutex_); }
  not_empty_.notify_all();
}

bool InferenceRequestQueue::shut_down() const {
  // atomic: acquire — pairs with shutdown()'s release store
  return shutdown_.load(std::memory_order_acquire);
}

std::size_t InferenceRequestQueue::size() const {
  // atomic: acquire — pairs with the release size_ updates in
  // try_push/push/sweep
  return size_.load(std::memory_order_acquire);
}

}  // namespace byom::serving
