// Batcher — the middle stage of the serving loop. Pulls inference requests
// off an InferenceRequestQueue and flushes them into a batch-execution
// callback (in production: CategoryModel::predict_batch via the
// PlacementService) on either of two triggers:
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
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "serving/inference_queue.h"

namespace byom::serving {

struct BatcherConfig {
  std::size_t max_batch = 64;
  std::chrono::milliseconds flush_deadline{2};
};

class Batcher {
 public:
  using BatchFn = std::function<void(std::vector<InferenceRequest>&&)>;

  // `queue` is borrowed and must outlive the batcher.
  Batcher(InferenceRequestQueue* queue, const BatcherConfig& config,
          BatchFn execute);

  // Waits for at least one request, accumulates until a trigger fires, and
  // executes the batch. Returns false when the queue is shut down and fully
  // drained (worker loop exit condition).
  bool run_once();

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
  void execute(std::vector<InferenceRequest>&& batch, bool size_triggered);

  InferenceRequestQueue* queue_;
  BatcherConfig config_;
  BatchFn execute_;
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> size_flushes_{0};
  std::atomic<std::uint64_t> deadline_flushes_{0};
};

}  // namespace byom::serving
