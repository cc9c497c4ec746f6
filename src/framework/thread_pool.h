// Fixed-size worker pool used by the parallel experiment engine and, one
// pool per GbdtClassifier::train call, by the GBDT trainer.
//
// Deliberately simple (no work stealing): the experiment grid is a static
// set of coarse, independent cells, so a shared FIFO queue keeps every
// worker busy and — crucially for reproducibility — the result of a task
// never depends on which worker ran it or in which order tasks completed.
//
// submit() returns a std::future carrying the task's value or exception;
// parallel_for() statically blocks an index range across the workers and
// rethrows the first body exception on the calling thread.
//
// Nested use (calling submit/parallel_for from inside a pool task) is not
// supported and may deadlock; the experiment engine only parallelizes the
// outermost grid loop. A task may run its own, separate pool (a training
// cell's GbdtClassifier::train does).
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace byom::framework {

// Shard-per-core wiring for sharded services (serving::PlacementService,
// future fleet components): resolves a requested shard count, where 0 means
// "one shard per hardware core" (at least 1). Centralized here so every
// sharded subsystem sizes itself the same way the experiment engine sizes
// its worker pool.
std::size_t resolve_shard_count(std::size_t requested);

class ThreadPool {
 public:
  // `num_threads == 0` uses the hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  // Enqueues `fn` and returns a future for its result. Exceptions thrown by
  // `fn` surface when the future is queried.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using Result = std::invoke_result_t<Fn>;
    auto task =
        std::make_shared<std::packaged_task<Result()>>(std::forward<Fn>(fn));
    std::future<Result> future = task->get_future();
    enqueue([task]() { (*task)(); });
    return future;
  }

  // Runs body(i) for every i in [begin, end), statically partitioned into
  // contiguous blocks (one per worker). Blocks until every index is done;
  // rethrows the first exception raised by any body invocation.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  common::Mutex mutex_;
  common::CondVar cv_;
  std::queue<std::function<void()>> queue_ BYOM_GUARDED_BY(mutex_);
  bool stopping_ BYOM_GUARDED_BY(mutex_) = false;
};

}  // namespace byom::framework
