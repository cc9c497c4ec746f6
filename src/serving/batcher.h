// Batcher — the middle stage of the serving loop. Pulls inference requests
// off an InferenceRequestQueue and flushes them into a batch-execution
// callback (in production: PlacementService::execute_batch, which runs
// core::predict_categories) on either of two triggers:
//
//   * size:     the batch reached `max_batch` requests (amortizes the
//               per-batch forest traversal across many jobs), or
//   * deadline: `flush_deadline` elapsed since the first request of the
//               batch arrived (bounds hint latency under light load).
//
// run_once() is the unit of a worker-thread loop; drain() is the inline
// path (no waiting, everything queued right now is flushed in arrival
// order) that a PlacementService with num_threads == 0 runs at lookup time,
// in virtual time, so simulation cells stay bit-reproducible inside a
// parallel sweep.
//
// Batches are RequestBatch buffers that are reused, never rebuilt: each
// worker passes its own to run_once(), and drain() fills one the batcher
// keeps. The batch function sees the batch as a span that is valid only
// for the duration of the call.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>

#include "common/mutex.h"
#include "common/span.h"
#include "common/thread_annotations.h"
#include "serving/inference_queue.h"

namespace byom::serving {

struct BatcherConfig {
  std::size_t max_batch = 64;
  std::chrono::milliseconds flush_deadline{2};
};

class Batcher {
 public:
  using BatchFn = std::function<void(common::Span<const InferenceRequest>)>;

  // `queue` is borrowed and must outlive the batcher.
  Batcher(InferenceRequestQueue* queue, const BatcherConfig& config,
          BatchFn execute);

  // Waits for at least one request, accumulates into `batch` (cleared
  // first; the caller's reusable buffer) until a trigger fires, and
  // executes the batch. Returns false when the queue is shut down and fully
  // drained (worker loop exit condition).
  bool run_once(RequestBatch& batch);

  // Flushes everything queued at call time in arrival order, without
  // waiting: every pop is a zero-wait sweep that never reaches the queue's
  // condition variable, so an empty drain() never sleeps. Returns the
  // number of requests executed. Deterministic: the result depends only on
  // queue contents, never on timing.
  std::size_t drain();

  // Flush-trigger counters (size + deadline == batches). run_once() may be
  // called concurrently from several workers, so these are atomics.
  std::uint64_t batches() const { return batches_.load(); }
  std::uint64_t size_flushes() const { return size_flushes_.load(); }
  std::uint64_t deadline_flushes() const { return deadline_flushes_.load(); }

 private:
  void execute(const RequestBatch& batch, bool size_triggered);

  InferenceRequestQueue* queue_;
  BatcherConfig config_;
  BatchFn execute_;
  // drain()'s reusable batch; the mutex makes concurrent drains safe.
  common::Mutex drain_mutex_;
  RequestBatch drained_ BYOM_GUARDED_BY(drain_mutex_);
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> size_flushes_{0};
  std::atomic<std::uint64_t> deadline_flushes_{0};
};

}  // namespace byom::serving
