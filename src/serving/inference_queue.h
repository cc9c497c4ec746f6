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
// One mutex guards the deque and the shutdown flag; one condition variable
// wakes idle consumers. Each PlacementService shard owns its own queue, so
// shards share no lock. Ordering is strict global FIFO.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <vector>

#include "common/mutex.h"
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

class InferenceRequestQueue {
 public:
  explicit InferenceRequestQueue(std::size_t capacity);

  // Non-blocking push; false when the queue is full or shut down.
  bool try_push(InferenceRequest request);

  // Appends up to `max_batch` requests to `out`, waiting up to `wait` for
  // the first one. Returns the number appended (0 on timeout/shutdown).
  // A `wait` <= 0 takes what is queued and never waits on the condition
  // variable.
  std::size_t pop_batch(std::vector<InferenceRequest>& out,
                        std::size_t max_batch, std::chrono::milliseconds wait);

  // Blocking variant: waits — without a timeout, so an idle consumer burns
  // no CPU — until a request arrives or the queue is shut down. Returns 0
  // only when the queue is shut down and fully drained (the worker-loop
  // exit condition).
  std::size_t pop_batch(std::vector<InferenceRequest>& out,
                        std::size_t max_batch);

  // Wakes all waiters; subsequent pushes fail, pops drain what remains.
  void shutdown();
  bool shut_down() const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  // Moves up to `max_batch` queued requests into `out`, oldest first.
  std::size_t take(std::vector<InferenceRequest>& out, std::size_t max_batch)
      BYOM_REQUIRES(mutex_);

  const std::size_t capacity_;
  mutable common::Mutex mutex_;
  common::CondVar not_empty_;
  std::deque<InferenceRequest> items_ BYOM_GUARDED_BY(mutex_);
  bool shutdown_ BYOM_GUARDED_BY(mutex_) = false;
};

}  // namespace byom::serving
