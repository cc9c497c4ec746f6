// Bounded MPMC queue of category-inference requests — the entry point of
// the online serving loop (request queue -> batcher -> model) that keeps
// model inference off the storage layer's critical path, as the paper's
// production design requires.
//
// Any number of producers (job submission paths) push requests; any number
// of consumers (Batcher workers) pop them in batches. The queue is bounded
// so a stalled model back-pressures producers instead of growing without
// limit; try_push() fails rather than blocks, so callers degrade to the
// fallback provider.
//
// One mutex guards a ring of request slots and the shutdown flag; one
// condition variable wakes idle consumers. Each PlacementService shard
// owns its own queue, so shards share no lock. Ordering is strict global
// FIFO.
//
// Slots are recycled, never freed: try_push copy-assigns the job into the
// next free slot (its strings reuse the capacity the slot already has), and
// a pop swaps each queued slot with a spare slot of the consumer's
// RequestBatch. Slot storage circulates between the ring and the batches,
// so once the ring has grown to the deepest backlog seen and the slots'
// strings to the longest fields seen, push and pop allocate nothing. The
// ring grows on demand, up to the capacity, never ahead of it.
#pragma once

#include <chrono>
#include <cstddef>
#include <vector>

#include "common/mutex.h"
#include "common/span.h"
#include "common/thread_annotations.h"
#include "trace/job.h"

namespace byom::serving {

struct InferenceRequest {
  // The job is copied into the request: a request may outlive the
  // submission context that created it.
  trace::Job job;
  // Submission time on the owning PlacementService's clock, in seconds.
  double enqueued_at = 0.0;
};

// A consumer's reusable batch of requests. clear() resets the count but
// keeps every slot; pops fill the slots past the count by swapping, so the
// slots' previous contents (and their string capacity) go back to the
// queue's ring for the next pushes.
class RequestBatch {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear() { size_ = 0; }

  const InferenceRequest& operator[](std::size_t i) const {
    return slots_[i];
  }
  common::Span<const InferenceRequest> requests() const {
    return common::Span<const InferenceRequest>(slots_.data(), size_);
  }

 private:
  friend class InferenceRequestQueue;

  // The next slot past the count, grown on first use.
  InferenceRequest& append() {
    if (size_ == slots_.size()) slots_.emplace_back();
    return slots_[size_++];
  }

  std::vector<InferenceRequest> slots_;
  std::size_t size_ = 0;
};

class InferenceRequestQueue {
 public:
  explicit InferenceRequestQueue(std::size_t capacity);

  // Non-blocking push of a copy of `job` stamped `enqueued_at`; false when
  // the queue is full or shut down.
  bool try_push(const trace::Job& job, double enqueued_at);

  // Appends up to `max_batch` requests to `out`, waiting up to `wait` for
  // the first one. Returns the number appended (0 on timeout/shutdown).
  // A `wait` <= 0 takes what is queued and never waits on the condition
  // variable.
  std::size_t pop_batch(RequestBatch& out, std::size_t max_batch,
                        std::chrono::milliseconds wait);

  // Blocking variant: waits — without a timeout, so an idle consumer burns
  // no CPU — until a request arrives or the queue is shut down. Returns 0
  // only when the queue is shut down and fully drained (the worker-loop
  // exit condition).
  std::size_t pop_batch(RequestBatch& out, std::size_t max_batch);

  // Wakes all waiters; subsequent pushes fail, pops drain what remains.
  void shutdown();
  bool shut_down() const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  // Swaps up to `max_batch` queued requests into `out`, oldest first.
  std::size_t take(RequestBatch& out, std::size_t max_batch)
      BYOM_REQUIRES(mutex_);

  const std::size_t capacity_;
  mutable common::Mutex mutex_;
  common::CondVar not_empty_;
  // The ring: count_ queued requests starting at head_, wrapping at
  // ring_.size() (<= capacity_).
  std::vector<InferenceRequest> ring_ BYOM_GUARDED_BY(mutex_);
  std::size_t head_ BYOM_GUARDED_BY(mutex_) = 0;
  std::size_t count_ BYOM_GUARDED_BY(mutex_) = 0;
  bool shutdown_ BYOM_GUARDED_BY(mutex_) = false;
};

}  // namespace byom::serving
