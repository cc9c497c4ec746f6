// InferenceRequestQueue: the bounded single-mutex MPMC entry point of every
// serving lane. Covers global FIFO (also per producer under concurrent
// producers), multi-producer/multi-consumer completeness, shutdown drain
// and wakeup, and the timed pop. The CI `tsan` and `asan-ubsan` jobs run
// this suite over the same scenarios.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "serving/inference_queue.h"

namespace byom::serving {
namespace {

using std::chrono::milliseconds;

trace::Job job_for(std::uint64_t job_id) {
  trace::Job job;
  job.job_id = job_id;
  job.job_key = "pipe/step";
  return job;
}

TEST(InferenceRequestQueue, RejectsZeroCapacity) {
  EXPECT_THROW(InferenceRequestQueue(0), std::invalid_argument);
}

TEST(InferenceRequestQueue, KeepsGlobalFifo) {
  InferenceRequestQueue queue(8);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(queue.try_push(job_for(id), 0.0));
  }
  RequestBatch out;
  ASSERT_EQ(queue.pop_batch(out, 8, milliseconds(0)), 5u);
  for (std::uint64_t expected = 1; expected <= 5; ++expected) {
    EXPECT_EQ(out[expected - 1].job.job_id, expected);
  }
}

TEST(InferenceRequestQueue, FifoPerProducerWithConcurrentProducers) {
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 500;
  InferenceRequestQueue queue(kProducers * kPerProducer);

  // Producer p pushes ids p*1e6 + k with k ascending; a single consumer
  // observes the global pop order directly. One producer's pushes are
  // ordered and the queue is FIFO, so each producer's k's come out
  // ascending however the producers interleave.
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t k = 0; k < kPerProducer; ++k) {
        const std::uint64_t id = p * 1000000ULL + k;
        while (!queue.try_push(job_for(id), 0.0)) {
          std::this_thread::yield();
        }
      }
    });
  }

  std::vector<std::uint64_t> popped;
  popped.reserve(kProducers * kPerProducer);
  while (popped.size() < kProducers * kPerProducer) {
    RequestBatch batch;
    if (queue.pop_batch(batch, 64, milliseconds(50)) == 0) continue;
    for (const auto& request : batch.requests()) popped.push_back(request.job.job_id);
  }
  for (auto& producer : producers) producer.join();

  // Completeness: every id exactly once.
  std::set<std::uint64_t> unique(popped.begin(), popped.end());
  EXPECT_EQ(unique.size(), kProducers * kPerProducer);

  // FIFO per producer.
  std::vector<std::int64_t> last_k(kProducers, -1);
  for (const std::uint64_t id : popped) {
    const std::size_t p = static_cast<std::size_t>(id / 1000000ULL);
    const auto k = static_cast<std::int64_t>(id % 1000000ULL);
    EXPECT_LT(last_k[p], k) << "FIFO violated for producer " << p;
    last_k[p] = k;
  }
}

TEST(InferenceRequestQueue, MpmcStressLosesNothingAndDuplicatesNothing) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 4;
  constexpr std::uint64_t kPerProducer = 1000;
  InferenceRequestQueue queue(256);

  std::atomic<std::uint64_t> accepted{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t k = 0; k < kPerProducer; ++k) {
        const std::uint64_t id = p * 1000000ULL + k;
        while (!queue.try_push(job_for(id), 0.0)) {
          std::this_thread::yield();  // bounded queue back-pressures
        }
        accepted.fetch_add(1);
      }
    });
  }

  std::mutex popped_mutex;
  std::vector<std::uint64_t> popped;
  std::vector<std::thread> consumers;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      RequestBatch batch;
      // The blocking pop returns 0 only once shut down AND drained, so a
      // consumer can exit without ever dropping an accepted request.
      while (true) {
        batch.clear();
        if (queue.pop_batch(batch, 32) == 0) break;
        std::lock_guard<std::mutex> lock(popped_mutex);
        for (const auto& request : batch.requests()) {
          popped.push_back(request.job.job_id);
        }
      }
    });
  }

  for (auto& producer : producers) producer.join();
  queue.shutdown();
  for (auto& consumer : consumers) consumer.join();

  EXPECT_EQ(accepted.load(), kProducers * kPerProducer);
  EXPECT_EQ(popped.size(), kProducers * kPerProducer);
  std::set<std::uint64_t> unique(popped.begin(), popped.end());
  EXPECT_EQ(unique.size(), popped.size()) << "duplicate pop";
  EXPECT_EQ(queue.size(), 0u);
}

TEST(InferenceRequestQueue, ShutdownRejectsPushesAndDrainsRemainder) {
  InferenceRequestQueue queue(64);
  for (std::uint64_t id = 0; id < 10; ++id) {
    ASSERT_TRUE(queue.try_push(job_for(id), 0.0));
  }
  queue.shutdown();
  EXPECT_TRUE(queue.shut_down());
  EXPECT_FALSE(queue.try_push(job_for(99), 0.0));

  // Everything accepted before shutdown is still drained.
  RequestBatch out;
  std::size_t total = 0;
  std::size_t popped;
  while ((popped = queue.pop_batch(out, 4, milliseconds(0))) > 0) {
    total += popped;
  }
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(queue.size(), 0u);
  // Shut down and drained: the blocking pop exits immediately with 0.
  out.clear();
  EXPECT_EQ(queue.pop_batch(out, 4), 0u);
}

TEST(InferenceRequestQueue, ShutdownWakesIdleConsumer) {
  InferenceRequestQueue queue(4);
  std::atomic<bool> pop_returned{false};
  std::thread consumer([&] {
    RequestBatch out;
    // Blocks: the queue is empty and the blocking pop has no timeout.
    EXPECT_EQ(queue.pop_batch(out, 4), 0u);
    pop_returned.store(true);
  });
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_FALSE(pop_returned.load());
  queue.shutdown();
  consumer.join();
  EXPECT_TRUE(pop_returned.load());
}

TEST(InferenceRequestQueue, TimedPopTimesOutOnEmptyQueue) {
  InferenceRequestQueue queue(16);
  RequestBatch out;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(queue.pop_batch(out, 8, milliseconds(10)), 0u);
  EXPECT_EQ(queue.pop_batch(out, 8, milliseconds(0)), 0u);
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_LT(elapsed, 5.0) << "timed pop did not time out";
}

}  // namespace
}  // namespace byom::serving
