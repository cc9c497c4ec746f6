// Bounded lock-striped MPMC queue of category-inference requests — the
// entry point of the online serving loop (request queue -> batcher -> model)
// that keeps model inference off the storage layer's critical path, as the
// paper's production design requires.
//
// Any number of producers (job submission paths) push requests; any number
// of consumers (Batcher workers) pop them, individually or in batches. The
// queue is bounded so a stalled model back-pressures producers instead of
// growing without limit; try_push() lets callers degrade to the fallback
// provider rather than block.
//
// Striping (the million-RPS serving path): the queue is built from
// `num_stripes` independent deques, each behind its own mutex, with requests
// mapped to a stripe by a mix of their job id. Producers landing on
// different stripes never contend on a lock; consumers sweep the stripes
// from a rotating cursor so they spread across them too. The only shared
// lock is a "gate" mutex that an *idle* consumer takes to block on the
// not-empty condition — producers touch it only for an empty
// lock/unlock pair before notifying, so under load the gate is never
// contended. With num_stripes == 1 (the default) the queue degenerates to
// the classic single-mutex bounded queue and keeps its strict global FIFO.
//
// Ordering contract: FIFO *per stripe*. Requests that map to the same
// stripe are popped in push order; requests on different stripes have no
// relative order. Capacity is split evenly across stripes
// (ceil(capacity / num_stripes) each), so the bound is also per stripe —
// a hot stripe back-pressures without consuming the whole budget.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "trace/job.h"

namespace byom::serving {

struct InferenceRequest {
  // The job is copied into the request: a request may outlive the
  // submission context that created it.
  trace::Job job;
  // lint:allow(wall-clock) wall-latency accounting of the threaded mode;
  // never stamped or read in inline mode
  std::chrono::steady_clock::time_point enqueued_at{};
  // Virtual submission time (sim::SimClock seconds, 0 without a clock);
  // only meaningful when the owning PlacementService runs inline.
  double virtual_enqueued_at = 0.0;
};

class InferenceRequestQueue {
 public:
  // `capacity` is the total bound, split evenly across `num_stripes`
  // independently locked stripes (>= 1 slot each).
  explicit InferenceRequestQueue(std::size_t capacity,
                                 std::size_t num_stripes = 1);

  // Non-blocking push; false when the request's stripe is full or the queue
  // is shut down.
  bool try_push(InferenceRequest request);

  // Blocking push; waits while the request's stripe is full. False once
  // shut down.
  bool push(InferenceRequest request);

  // Pops one request, waiting up to `wait` for one to arrive (see
  // pop_batch for wait <= 0). Empty optional on timeout or when the queue
  // is shut down and drained.
  std::optional<InferenceRequest> pop(std::chrono::milliseconds wait);

  // Appends up to `max_batch` requests to `out`, waiting up to `wait` for
  // the first one. Returns the number appended (0 on timeout/shutdown).
  // A `wait` <= 0 is a pure non-blocking sweep: it takes what is queued
  // and never touches the wait gate or its condition variable.
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
  std::size_t capacity() const { return stripe_capacity_ * stripes_.size(); }
  std::size_t num_stripes() const { return stripes_.size(); }
  // The stripe a request with this job id lands on — exposed so tests can
  // assert the FIFO-per-stripe and per-stripe-bound contracts.
  std::size_t stripe_of(std::uint64_t job_id) const;

 private:
  struct Stripe {
    mutable common::Mutex mutex;
    // Per-stripe so a blocking producer waits on its own stripe's slot.
    common::CondVar not_full;
    std::deque<InferenceRequest> items BYOM_GUARDED_BY(mutex);
  };

  // Pops up to `max_batch` requests into `out`, sweeping every stripe once
  // from the rotating cursor. Lock scope is one stripe at a time.
  std::size_t sweep(std::vector<InferenceRequest>& out, std::size_t max_batch);
  // Gate-synchronized wakeup of one idle consumer (see header comment).
  void notify_not_empty();
  // The idle consumer's wake predicate (atomics only, no lock required).
  bool wake_ready() const;

  const std::size_t stripe_capacity_;
  // unique_ptr per stripe: Stripe holds a mutex and must not move when the
  // vector is built.
  std::vector<std::unique_ptr<Stripe>> stripes_;
  // Mutated only alongside its stripe's items (under that stripe's lock);
  // read lock-free by idle consumers' wake predicates.
  std::atomic<std::size_t> size_{0};
  std::atomic<bool> shutdown_{false};
  std::atomic<std::size_t> cursor_{0};

  // Consumers' idle block only: producers take it for an empty critical
  // section before notifying so a consumer between its predicate check and
  // wait() cannot miss the wakeup. Guards the wait protocol, not data —
  // every field a waiter reads is atomic.
  // lint:allow(guarded-mutex) protocol-only gate, no guarded members
  mutable common::Mutex gate_mutex_;
  common::CondVar not_empty_;
};

}  // namespace byom::serving
