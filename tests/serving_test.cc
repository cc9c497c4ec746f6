#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/byom.h"
#include "core/category_provider.h"
#include "common/rng.h"
#include "serving/batcher.h"
#include "serving/hint_table.h"
#include "serving/inference_queue.h"
#include "serving/placement_service.h"
#include "harness/experiment_runner.h"
#include "sim/simulator.h"
#include "trace/generator.h"

namespace byom::serving {
namespace {

using std::chrono::milliseconds;

trace::Trace cluster_trace(std::uint32_t cluster, std::uint64_t seed,
                           int pipelines = 14, double days = 6.0) {
  trace::GeneratorConfig cfg = trace::canonical_cluster_config(cluster, seed);
  cfg.num_pipelines = pipelines;
  cfg.duration = days * 86400.0;
  return trace::generate_cluster_trace(cfg);
}

core::CategoryModelConfig small_model_config(int categories = 8) {
  core::CategoryModelConfig cfg;
  cfg.num_categories = categories;
  cfg.gbdt.num_rounds = 10;
  cfg.gbdt.max_trees_total = categories * 10;
  return cfg;
}

trace::Job job_for(std::uint64_t job_id) {
  trace::Job job;
  job.job_id = job_id;
  job.job_key = "pipe/step";
  return job;
}

// Shared trained fixture: one small model + registry + test split.
struct ServingFixture {
  trace::TrainTestSplit split;
  std::shared_ptr<core::CategoryModel> model;
  std::shared_ptr<core::ModelRegistry> registry;

  ServingFixture() {
    split = trace::split_train_test(cluster_trace(0, 515));
    model = std::make_shared<core::CategoryModel>(core::CategoryModel::train(
        split.train.jobs(), small_model_config()));
    registry = std::make_shared<core::ModelRegistry>();
    registry->set_default_model(model);
  }

  PlacementServiceConfig deterministic_config() const {
    PlacementServiceConfig config;
    config.num_threads = 0;
    config.queue_capacity = split.test.size() + 16;
    config.max_batch = 64;
    config.fallback_num_categories = model->num_categories();
    return config;
  }
};

ServingFixture& fixture() {
  static ServingFixture f;
  return f;
}

// ------------------------------------------------------ InferenceRequestQueue

TEST(InferenceQueue, FifoOrderAndBoundedCapacity) {
  InferenceRequestQueue queue(3);
  EXPECT_TRUE(queue.try_push(job_for(1), 0.0));
  EXPECT_TRUE(queue.try_push(job_for(2), 0.0));
  EXPECT_TRUE(queue.try_push(job_for(3), 0.0));
  EXPECT_FALSE(queue.try_push(job_for(4), 0.0));  // full: back-pressure
  EXPECT_EQ(queue.size(), 3u);

  RequestBatch out;
  ASSERT_EQ(queue.pop_batch(out, 1, milliseconds(0)), 1u);
  EXPECT_EQ(out[0].job.job_id, 1u);
  EXPECT_TRUE(queue.try_push(job_for(4), 0.0));  // slot freed
  ASSERT_EQ(queue.pop_batch(out, 8, milliseconds(0)), 3u);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_EQ(out[i].job.job_id, i + 1);
  }
}

TEST(InferenceQueue, PopBatchTakesUpToMax) {
  InferenceRequestQueue queue(16);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(queue.try_push(job_for(id), 0.0));
  }
  RequestBatch out;
  EXPECT_EQ(queue.pop_batch(out, 3, milliseconds(0)), 3u);
  EXPECT_EQ(queue.pop_batch(out, 3, milliseconds(0)), 2u);
  ASSERT_EQ(out.size(), 5u);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    EXPECT_EQ(out[id - 1].job.job_id, id);
  }
  EXPECT_EQ(queue.pop_batch(out, 3, milliseconds(0)), 0u);
}

TEST(InferenceQueue, ShutdownRejectsPushesAndDrainsRemainder) {
  InferenceRequestQueue queue(8);
  ASSERT_TRUE(queue.try_push(job_for(1), 0.0));
  ASSERT_TRUE(queue.try_push(job_for(2), 0.0));
  queue.shutdown();
  EXPECT_TRUE(queue.shut_down());
  EXPECT_FALSE(queue.try_push(job_for(3), 0.0));
  // Queued work is still drained after shutdown.
  RequestBatch out;
  EXPECT_EQ(queue.pop_batch(out, 1, milliseconds(0)), 1u);
  EXPECT_EQ(queue.pop_batch(out, 1, milliseconds(0)), 1u);
  EXPECT_EQ(queue.pop_batch(out, 1, milliseconds(0)), 0u);
}

// ---------------------------------------------------------------- HintTable

// The flat table against std::unordered_map under a seeded mix of inserts,
// duplicate inserts and takes over clustered ids (sequential ids collide
// into long probe runs, which backward-shift erasure must keep reachable),
// across several growths.
TEST(HintTable, MatchesAMapUnderRandomInsertsAndTakes) {
  HintTable<int> table;
  std::unordered_map<std::uint64_t, int> reference;
  common::Rng rng(77);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t id = rng.next_u64() % 512 + (step / 4000) * 300;
    const int value = static_cast<int>(rng.next_u64() % 1000);
    if (rng.next_u64() % 2 == 0) {
      EXPECT_EQ(table.insert(id, value), reference.emplace(id, value).second);
    } else {
      const auto it = reference.find(id);
      const std::optional<int> taken = table.take(id);
      ASSERT_EQ(taken.has_value(), it != reference.end()) << step;
      if (taken.has_value()) {
        EXPECT_EQ(*taken, it->second);
        reference.erase(it);
      }
    }
    ASSERT_EQ(table.size(), reference.size());
  }
  for (const auto& [id, value] : reference) {
    const std::optional<int> taken = table.take(id);
    ASSERT_TRUE(taken.has_value());
    EXPECT_EQ(*taken, value);
  }
  EXPECT_EQ(table.size(), 0u);
}

// ------------------------------------------------------------------ Batcher

TEST(Batcher, SizeTriggeredFlush) {
  InferenceRequestQueue queue(64);
  std::vector<std::size_t> batch_sizes;
  BatcherConfig config;
  config.max_batch = 4;
  config.flush_deadline = milliseconds(1000);  // deadline never fires
  Batcher batcher(&queue, config,
                  [&](common::Span<const InferenceRequest> batch) {
                    batch_sizes.push_back(batch.size());
                  });
  for (std::uint64_t id = 1; id <= 8; ++id) {
    ASSERT_TRUE(queue.try_push(job_for(id), 0.0));
  }
  RequestBatch batch;
  EXPECT_TRUE(batcher.run_once(batch));
  EXPECT_TRUE(batcher.run_once(batch));
  ASSERT_EQ(batch_sizes.size(), 2u);
  EXPECT_EQ(batch_sizes[0], 4u);
  EXPECT_EQ(batch_sizes[1], 4u);
  EXPECT_EQ(batcher.batches(), 2u);
  EXPECT_EQ(batcher.size_flushes(), 2u);
  EXPECT_EQ(batcher.deadline_flushes(), 0u);
}

TEST(Batcher, DeadlineTriggeredFlush) {
  InferenceRequestQueue queue(64);
  std::vector<std::size_t> batch_sizes;
  BatcherConfig config;
  config.max_batch = 100;  // size trigger unreachable
  config.flush_deadline = milliseconds(5);
  Batcher batcher(&queue, config,
                  [&](common::Span<const InferenceRequest> batch) {
                    batch_sizes.push_back(batch.size());
                  });
  for (std::uint64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(queue.try_push(job_for(id), 0.0));
  }
  RequestBatch batch;
  EXPECT_TRUE(batcher.run_once(batch));  // flushes the partial batch at deadline
  ASSERT_EQ(batch_sizes.size(), 1u);
  EXPECT_EQ(batch_sizes[0], 3u);
  EXPECT_EQ(batcher.deadline_flushes(), 1u);
  EXPECT_EQ(batcher.size_flushes(), 0u);
}

TEST(Batcher, DrainFlushesEverythingWithoutWaiting) {
  InferenceRequestQueue queue(64);
  std::size_t executed = 0;
  BatcherConfig config;
  config.max_batch = 2;
  Batcher batcher(&queue, config,
                  [&](common::Span<const InferenceRequest> batch) {
                    executed += batch.size();
                  });
  for (std::uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(queue.try_push(job_for(id), 0.0));
  }
  EXPECT_EQ(batcher.drain(), 5u);
  EXPECT_EQ(executed, 5u);
  EXPECT_EQ(batcher.batches(), 3u);  // 2 + 2 + 1
  EXPECT_EQ(batcher.drain(), 0u);    // nothing queued: no-op
}

// "Without waiting" measured, not assumed: a zero-wait pop on an empty
// queue must return from its sweep, never from a condition-variable wait
// on an already-past deadline — that wait still sleeps for the thread's
// timer slack (~50 us on Linux), so 4,000 of them take >= 100 ms while the
// sweep-only path takes well under 1 ms (10-20 ms in Debug sanitizer
// builds, which the 50 ms bound leaves room for).
TEST(Batcher, EmptyDrainAndZeroWaitPopNeverSleep) {
  InferenceRequestQueue queue(64);
  BatcherConfig config;
  config.max_batch = 8;
  std::size_t executed = 0;
  Batcher batcher(&queue, config,
                  [&](common::Span<const InferenceRequest> batch) {
                    executed += batch.size();
                  });
  constexpr int kCalls = 2000;
  RequestBatch out;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kCalls; ++i) {
    EXPECT_EQ(batcher.drain(), 0u);
    EXPECT_EQ(queue.pop_batch(out, config.max_batch, milliseconds(0)), 0u);
  }
  const auto elapsed_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(executed, 0u);
  EXPECT_TRUE(out.empty());
  EXPECT_LT(elapsed_us, 50000)
      << kCalls << " empty drain() + zero-wait pop_batch() calls";
}

TEST(Batcher, RunOnceReturnsFalseOnceShutDownAndDrained) {
  InferenceRequestQueue queue(8);
  BatcherConfig config;
  config.max_batch = 8;
  config.flush_deadline = milliseconds(1);
  std::size_t executed = 0;
  Batcher batcher(&queue, config,
                  [&](common::Span<const InferenceRequest> batch) {
                    executed += batch.size();
                  });
  ASSERT_TRUE(queue.try_push(job_for(1), 0.0));
  queue.shutdown();
  RequestBatch batch;
  EXPECT_TRUE(batcher.run_once(batch));  // drains the remaining request
  EXPECT_EQ(executed, 1u);
  EXPECT_FALSE(batcher.run_once(batch));  // queue empty + shut down: exit
}

// --------------------------------------------------------- PlacementService

TEST(PlacementService, DeterministicModeServesBatchedHints) {
  auto& f = fixture();
  const auto& jobs = f.split.test.jobs();
  PlacementService service(f.registry, f.deterministic_config());
  EXPECT_EQ(service.enqueue_all(jobs), jobs.size());

  // Expected hints: the offline batched pass over the same jobs.
  const auto expected = core::precompute_categories(
      *f.registry, jobs, f.model->num_categories());
  for (const auto& job : jobs) {
    const auto served = service.wait_for(job);
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(*served, expected.at(job.job_id));
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.enqueued, jobs.size());
  EXPECT_EQ(stats.completed, jobs.size());
  EXPECT_EQ(stats.hits, jobs.size());
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_EQ(stats.size_flushes + stats.deadline_flushes, stats.batches);
}

TEST(PlacementService, DeterministicModeIsRunToRunIdentical) {
  auto& f = fixture();
  const auto& jobs = f.split.test.jobs();
  const auto run_service = [&] {
    PlacementService service(f.registry, f.deterministic_config());
    service.enqueue_all(jobs);
    std::vector<int> categories;
    categories.reserve(jobs.size());
    for (const auto& job : jobs) {
      categories.push_back(service.wait_for(job).value_or(-1));
    }
    const auto stats = service.stats();
    return std::make_pair(categories, stats.batches);
  };
  const auto first = run_service();
  const auto second = run_service();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

TEST(PlacementService, MissedDeadlineCountsFallbacks) {
  // Lookups of jobs that were never requested miss even though the lookup
  // drains the queue: there is no hint to find.
  auto& f = fixture();
  const auto& jobs = f.split.test.jobs();
  ASSERT_GE(jobs.size(), 3u);
  const auto config = f.deterministic_config();
  PlacementService service(f.registry, config);
  ASSERT_TRUE(service.enqueue(jobs[1]));

  EXPECT_FALSE(service.wait_for(jobs.front()).has_value());
  EXPECT_FALSE(service.wait_for(jobs.back()).has_value());
  EXPECT_TRUE(service.wait_for(jobs[1]).has_value());
  const auto stats = service.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);

  // The consumer side degrades gracefully: a policy over the served
  // provider of a service nobody enqueued into falls back to the hash
  // category for every decision.
  policy::AdaptiveConfig adaptive;
  adaptive.num_categories = f.model->num_categories();
  auto service_ptr = std::make_shared<PlacementService>(f.registry, config);
  policy::AdaptiveCategoryPolicy policy(
      "served", make_served_provider(service_ptr), adaptive);
  policy::StorageView view;
  view.ssd_capacity_bytes = 1ULL << 40;
  for (const auto& job : jobs) {
    policy.decide(job, view);
  }
  EXPECT_EQ(policy.provider_fallbacks(), jobs.size());
}

TEST(PlacementService, FullQueueDropsRequests) {
  auto& f = fixture();
  auto config = f.deterministic_config();
  config.queue_capacity = 4;
  PlacementService service(f.registry, config);
  const auto& jobs = f.split.test.jobs();
  ASSERT_GT(jobs.size(), 8u);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    if (service.enqueue(jobs[i])) ++accepted;
  }
  EXPECT_EQ(accepted, 4u);
  EXPECT_EQ(service.stats().dropped, 4u);
}

TEST(PlacementService, ShutdownRejectsNewRequests) {
  auto& f = fixture();
  PlacementService service(f.registry, f.deterministic_config());
  service.shutdown();
  EXPECT_FALSE(service.enqueue(f.split.test.jobs().front()));
  EXPECT_EQ(service.stats().dropped, 1u);
}

// ISSUE-4 regression: an idle worker used to wake every 50 ms forever; it
// now blocks on the queue's condition variable, so shutdown() with an empty
// queue wakes, joins, and returns promptly instead of waiting out a poll
// slice per worker.
TEST(PlacementService, ShutdownWithEmptyQueueExitsPromptly) {
  auto& f = fixture();
  PlacementServiceConfig config;
  config.num_threads = 4;
  config.queue_capacity = 64;
  config.fallback_num_categories = f.model->num_categories();
  PlacementService service(f.registry, config);
  // Give the workers a moment to reach their idle block.
  std::this_thread::sleep_for(milliseconds(20));
  const auto start = std::chrono::steady_clock::now();
  service.shutdown();  // joins all four workers
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_LT(elapsed, 2.0) << "idle workers did not exit promptly";
  // Idempotent: a second shutdown (and the destructor's) is a no-op.
  service.shutdown();
}

// Drain order: requests accepted before shutdown() are executed by the
// exiting workers — when shutdown returns, nothing is left in the queue and
// every accepted request has a hint waiting for its consumer.
TEST(PlacementService, ShutdownDrainsAcceptedRequestsBeforeExit) {
  auto& f = fixture();
  PlacementServiceConfig config;
  config.num_threads = 2;
  config.queue_capacity = 1024;
  config.max_batch = 16;
  config.flush_deadline = milliseconds(1);
  config.fallback_num_categories = f.model->num_categories();
  PlacementService service(f.registry, config);

  const auto count = static_cast<std::ptrdiff_t>(
      std::min<std::size_t>(128, f.split.test.size()));
  std::vector<trace::Job> jobs(f.split.test.jobs().begin(),
                               f.split.test.jobs().begin() + count);
  const std::size_t accepted = service.enqueue_all(jobs);
  service.shutdown();
  EXPECT_EQ(service.pending_requests(), 0u);
  EXPECT_EQ(service.stats().completed, accepted);
  for (const auto& job : jobs) {
    EXPECT_TRUE(service.wait_for(job).has_value());
  }
  EXPECT_EQ(service.stats().hits, accepted);
}

TEST(PlacementService, ThreadedModeServesHintsBeforeDeadline) {
  auto& f = fixture();
  PlacementServiceConfig config;
  config.num_threads = 2;
  config.queue_capacity = 1024;
  config.max_batch = 32;
  config.flush_deadline = milliseconds(1);
  config.request_deadline = 5.0;  // generous: no misses
  config.fallback_num_categories = f.model->num_categories();
  PlacementService service(f.registry, config);

  const auto count = static_cast<std::ptrdiff_t>(
      std::min<std::size_t>(256, f.split.test.size()));
  std::vector<trace::Job> jobs(f.split.test.jobs().begin(),
                               f.split.test.jobs().begin() + count);
  ASSERT_EQ(service.enqueue_all(jobs), jobs.size());
  for (const auto& job : jobs) {
    const auto served = service.wait_for(job);
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(*served, f.model->predict_category(job));
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.hits, jobs.size());
  EXPECT_EQ(stats.misses, 0u);
  // Steady-clock enqueue -> publish time, in seconds.
  EXPECT_GT(stats.latency_max_s, 0.0);
  EXPECT_LE(stats.mean_latency_s(), stats.latency_max_s);
}

// ---------------------------------------------------------- sharded serving

TEST(ShardedService, ShardRoutingIsDeterministicAndInRange) {
  auto& f = fixture();
  auto config = f.deterministic_config();
  config.num_shards = 4;
  PlacementService service(f.registry, config);
  PlacementService other(f.registry, config);
  ASSERT_EQ(service.num_shards(), 4u);
  for (const auto& job : f.split.test.jobs()) {
    const std::size_t shard = service.shard_of(job.job_key);
    EXPECT_LT(shard, 4u);
    // Same key -> same shard in every instance (fnv1a, not a per-process
    // seed): recurring (pipeline, step) pairs always land on warm state.
    EXPECT_EQ(shard, service.shard_of(job.job_key));
    EXPECT_EQ(shard, other.shard_of(job.job_key));
  }
}

TEST(ShardedService, PerShardCountersSumToAggregate) {
  auto& f = fixture();
  auto config = f.deterministic_config();
  config.num_shards = 4;
  PlacementService service(f.registry, config);
  const auto& jobs = f.split.test.jobs();
  ASSERT_EQ(service.enqueue_all(jobs), jobs.size());
  for (const auto& job : jobs) {
    ASSERT_TRUE(service.wait_for(job).has_value());
  }

  ServingStats summed;
  std::size_t shards_used = 0;
  for (std::size_t i = 0; i < service.num_shards(); ++i) {
    const auto shard = service.shard_stats(i);
    summed.enqueued += shard.enqueued;
    summed.completed += shard.completed;
    summed.hits += shard.hits;
    summed.misses += shard.misses;
    if (shard.enqueued > 0) ++shards_used;
  }
  const auto total = service.stats();
  EXPECT_EQ(summed.enqueued, total.enqueued);
  EXPECT_EQ(summed.completed, total.completed);
  EXPECT_EQ(summed.hits, total.hits);
  EXPECT_EQ(total.enqueued, jobs.size());
  EXPECT_EQ(total.hits, jobs.size());
  EXPECT_EQ(total.misses, 0u);
  // The canonical trace spans 14 pipelines: the fnv1a router should spread
  // them over more than one lane.
  EXPECT_GT(shards_used, 1u);
}

// Acceptance: sharding must not change a single hint. Per-job hints are
// independent of batch composition, so the 4-shard deterministic service
// must be bit-identical to the offline batched pass (and hence to the
// single-shard service the AsyncServingEquivalence suite pins).
TEST(ShardedService, DeterministicHintsAreBitIdenticalAcrossShardCounts) {
  auto& f = fixture();
  const auto& jobs = f.split.test.jobs();
  const auto expected = core::precompute_categories(
      *f.registry, jobs, f.model->num_categories());

  for (const std::size_t shards : {2u, 4u}) {
    auto config = f.deterministic_config();
    config.num_shards = shards;
    PlacementService service(f.registry, config);
    ASSERT_EQ(service.enqueue_all(jobs), jobs.size());
    for (const auto& job : jobs) {
      const auto served = service.wait_for(job);
      ASSERT_TRUE(served.has_value());
      EXPECT_EQ(*served, expected.at(job.job_id))
          << "hint diverged at num_shards=" << shards;
    }
  }
}

TEST(ShardedService, ThreadedShardsServeEveryHintBeforeDeadline) {
  auto& f = fixture();
  PlacementServiceConfig config;
  config.num_shards = 4;
  config.num_threads = 1;  // 4 workers total, one per shard
  config.queue_capacity = 1024;
  config.max_batch = 32;
  config.flush_deadline = milliseconds(1);
  config.request_deadline = 5.0;  // generous: no misses
  config.fallback_num_categories = f.model->num_categories();
  PlacementService service(f.registry, config);

  const auto count = static_cast<std::ptrdiff_t>(
      std::min<std::size_t>(256, f.split.test.size()));
  std::vector<trace::Job> jobs(f.split.test.jobs().begin(),
                               f.split.test.jobs().begin() + count);
  ASSERT_EQ(service.enqueue_all(jobs), jobs.size());
  for (const auto& job : jobs) {
    const auto served = service.wait_for(job);  // routed hot path
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(*served, f.model->predict_category(job));
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.hits, jobs.size());
  EXPECT_EQ(stats.misses, 0u);
}

// ISSUE-6 bugfix pin: shutdown() must shut down ALL shard queues before
// joining any workers. The old order (stop+join shard by shard) drained
// shard 0 but left later shards' accepted requests unexecuted when their
// workers raced the flag. Every accepted request on every shard must have a
// hint waiting for its consumer once shutdown returns.
TEST(ShardedService, ShutdownDrainsAllShards) {
  auto& f = fixture();
  PlacementServiceConfig config;
  config.num_shards = 4;
  config.num_threads = 1;
  config.queue_capacity = 1024;
  config.max_batch = 16;
  config.flush_deadline = milliseconds(1);
  config.fallback_num_categories = f.model->num_categories();
  PlacementService service(f.registry, config);

  const auto count = static_cast<std::ptrdiff_t>(
      std::min<std::size_t>(256, f.split.test.size()));
  std::vector<trace::Job> jobs(f.split.test.jobs().begin(),
                               f.split.test.jobs().begin() + count);
  const std::size_t accepted = service.enqueue_all(jobs);
  service.shutdown();
  EXPECT_EQ(service.pending_requests(), 0u);
  EXPECT_EQ(service.stats().completed, accepted);
  for (const auto& job : jobs) {
    EXPECT_TRUE(service.wait_for(job).has_value())
        << "shard " << service.shard_of(job.job_key)
        << " lost a request on shutdown";
  }
  EXPECT_EQ(service.stats().hits, accepted);
}

// ISSUE-6 bugfix pin: stats() aggregates per-shard atomics with relaxed
// reads while producers and workers are mutating them. The tsan CI job runs
// this test; a torn/ non-atomic counter would trip it.
TEST(ShardedService, StatsAggregationIsSafeDuringLoad) {
  auto& f = fixture();
  PlacementServiceConfig config;
  config.num_shards = 2;
  config.num_threads = 1;
  config.queue_capacity = 1024;
  config.max_batch = 16;
  config.flush_deadline = milliseconds(1);
  config.request_deadline = 5.0;
  config.fallback_num_categories = f.model->num_categories();
  PlacementService service(f.registry, config);

  const auto count = static_cast<std::ptrdiff_t>(
      std::min<std::size_t>(128, f.split.test.size()));
  const std::vector<trace::Job> jobs(f.split.test.jobs().begin(),
                                     f.split.test.jobs().begin() + count);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    // Hammer the aggregate while the service is under load; monotone
    // counters must never run backwards from one read to the next.
    std::uint64_t last_enqueued = 0;
    while (!done.load()) {
      const auto stats = service.stats();
      EXPECT_GE(stats.enqueued, last_enqueued);
      EXPECT_LE(stats.completed, stats.enqueued);
      last_enqueued = stats.enqueued;
    }
  });
  service.enqueue_all(jobs);
  for (const auto& job : jobs) {
    service.wait_for(job);
  }
  done.store(true);
  reader.join();
  const auto stats = service.stats();
  EXPECT_EQ(stats.enqueued, jobs.size());
  EXPECT_EQ(stats.hits + stats.misses, jobs.size());
}

TEST(ShardedService, AutoShardCountResolvesToHardware) {
  auto& f = fixture();
  auto config = f.deterministic_config();
  config.num_shards = 0;  // auto: one shard per hardware core
  PlacementService service(f.registry, config);
  const std::size_t expected = std::max<std::size_t>(
      1, std::thread::hardware_concurrency());
  EXPECT_EQ(service.num_shards(), expected);
}

TEST(ShardedService, VirtualTimeRequiresSingleShard) {
  auto& f = fixture();
  auto config = f.deterministic_config();
  config.num_shards = 2;
  config.clock = std::make_shared<sim::SimClock>();
  config.latency_model = make_zero_latency_model();
  EXPECT_THROW(PlacementService(f.registry, config), std::invalid_argument);
}

// ------------------------------------------------------ provider equivalence

// Sync registry inference, a precomputed hint table, and the served
// pipeline must induce identical placements on a fixed trace.
TEST(ProviderEquivalence, SyncPrecomputedAndServedPlacementsMatch) {
  auto& f = fixture();
  const auto& test = f.split.test;
  policy::AdaptiveConfig adaptive;
  adaptive.num_categories = f.model->num_categories();

  const auto run_with = [&](core::CategoryProviderPtr provider) {
    policy::AdaptiveCategoryPolicy policy("equiv", std::move(provider),
                                          adaptive);
    sim::SimConfig config;
    config.ssd_capacity_bytes = sim::quota_capacity(test, 0.05);
    config.record_outcomes = true;
    return sim::simulate(test, policy, config);
  };

  const auto sync = run_with(core::make_registry_provider(f.registry));

  auto hints = std::make_shared<const core::CategoryHints>(
      core::precompute_categories(*f.registry, test.jobs(),
                                  f.model->num_categories()));
  const auto precomputed =
      run_with(core::make_precomputed_provider(std::move(hints)));

  auto service =
      std::make_shared<PlacementService>(f.registry,
                                         f.deterministic_config());
  service->enqueue_all(test.jobs());
  const auto served = run_with(make_served_provider(std::move(service)));

  for (const auto* result : {&precomputed, &served}) {
    EXPECT_EQ(result->tco_actual, sync.tco_actual);
    EXPECT_EQ(result->tcio_actual_seconds, sync.tcio_actual_seconds);
    EXPECT_EQ(result->jobs_scheduled_ssd, sync.jobs_scheduled_ssd);
    EXPECT_EQ(result->peak_ssd_used_bytes, sync.peak_ssd_used_bytes);
    ASSERT_EQ(result->outcomes.size(), sync.outcomes.size());
    for (std::size_t i = 0; i < sync.outcomes.size(); ++i) {
      EXPECT_EQ(result->outcomes[i].scheduled, sync.outcomes[i].scheduled);
    }
  }
}

// Acceptance: PlacementService-served hints reproduce the offline-batched
// sweep results bit-identically when every request meets its deadline.
TEST(AsyncServingEquivalence, ServedSweepMatchesOfflineBatched) {
  auto& f = fixture();
  // Offline path: each AdaptiveRanking cell precomputes the test trace in
  // one batched pass through its registry.
  sim::MethodFactory factory(f.split.train, cost::Rates{},
                             small_model_config());

  sim::ExperimentRunner runner;
  const auto index = runner.add_cluster(&factory, &f.split.test);
  const std::vector<double> quotas = {0.01, 0.1, 0.5};
  const auto offline = runner.run(
      runner.make_grid(index, {sim::MethodId::kAdaptiveRanking}, quotas));
  const auto served = runner.run(
      runner.make_grid(index, {sim::MethodId::kAdaptiveServed}, quotas));

  ASSERT_EQ(offline.size(), served.size());
  for (std::size_t i = 0; i < offline.size(); ++i) {
    EXPECT_EQ(served[i].capacity_bytes, offline[i].capacity_bytes);
    EXPECT_EQ(served[i].result.tco_actual, offline[i].result.tco_actual);
    EXPECT_EQ(served[i].result.tcio_actual_seconds,
              offline[i].result.tcio_actual_seconds);
    EXPECT_EQ(served[i].result.jobs_scheduled_ssd,
              offline[i].result.jobs_scheduled_ssd);
    EXPECT_EQ(served[i].result.peak_ssd_used_bytes,
              offline[i].result.peak_ssd_used_bytes);
  }
}

// --------------------------------------------------------- virtual time

TEST(VirtualTime, RequiresDeterministicMode) {
  auto config = fixture().deterministic_config();
  config.num_threads = 2;
  config.clock = std::make_shared<sim::SimClock>();
  EXPECT_THROW(PlacementService(fixture().registry, config),
               std::invalid_argument);
}

// Without a clock, inline time stands at 0: every hint is ready when
// looked up, exactly as with a clock and the zero-latency model.
TEST(VirtualTime, ZeroLatencyClockMatchesClocklessHints) {
  auto& f = fixture();
  const auto& jobs = f.split.test.jobs();

  PlacementService clockless(f.registry, f.deterministic_config());
  clockless.enqueue_all(jobs);

  auto config = f.deterministic_config();
  config.clock = std::make_shared<sim::SimClock>();
  config.latency_model = make_zero_latency_model();
  PlacementService clocked(f.registry, config);
  clocked.enqueue_all(jobs);

  for (const auto& job : jobs) {
    const auto a = clockless.wait_for(job);
    const auto b = clocked.wait_for(job);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*a, *b);
  }
  for (const auto& stats : {clockless.stats(), clocked.stats()}) {
    EXPECT_EQ(stats.on_time, jobs.size());
    EXPECT_EQ(stats.late, 0u);
    EXPECT_EQ(stats.latency_total_s, 0.0);
  }
}

// A hint is on time when it is ready within request_deadline of its
// lookup; a negative budget would make even a ready hint miss.
TEST(PlacementService, NegativeDeadlineIsRejected) {
  auto config = fixture().deterministic_config();
  config.request_deadline = -1.0;
  EXPECT_THROW(PlacementService(fixture().registry, config),
               std::invalid_argument);
}

TEST(VirtualTime, LatencyModelRequiresClock) {
  auto config = fixture().deterministic_config();
  config.latency_model = make_fixed_latency_model(0.5);
  EXPECT_THROW(PlacementService(fixture().registry, config),
               std::invalid_argument);
}

// Once every submitted job has been looked up once, on_time + late +
// dropped accounts for every submitted request, in both inline cases.
TEST(VirtualTime, TimelinessAccountsForEverySubmittedRequest) {
  auto& f = fixture();
  const auto& jobs = f.split.test.jobs();
  const auto check = [&](PlacementService& service) {
    const std::size_t accepted = service.enqueue_all(jobs);
    for (const auto& job : jobs) service.wait_for(job);
    const auto stats = service.stats();
    EXPECT_GT(stats.dropped, 0u);  // the bounded queue sheds some requests
    EXPECT_EQ(stats.enqueued, accepted);
    EXPECT_EQ(stats.hits + stats.misses, jobs.size());
    EXPECT_EQ(stats.on_time + stats.late + stats.dropped,
              stats.enqueued + stats.dropped);
    return stats;
  };

  // No clock, four shards: every accepted hint is on time.
  auto clockless = f.deterministic_config();
  clockless.num_shards = 4;
  clockless.queue_capacity = jobs.size() / 8;  // per shard
  PlacementService sharded(f.registry, clockless);
  const auto inline_stats = check(sharded);
  EXPECT_EQ(inline_stats.on_time, inline_stats.enqueued);
  EXPECT_EQ(inline_stats.late, 0u);

  // A fixed latency beyond the deadline: every accepted hint is late.
  auto clocked = f.deterministic_config();
  clocked.queue_capacity = jobs.size() / 2;
  clocked.clock = std::make_shared<sim::SimClock>();
  clocked.latency_model = make_fixed_latency_model(5.0);
  clocked.request_deadline = 1.0;
  PlacementService slow(f.registry, clocked);
  const auto late_stats = check(slow);
  EXPECT_EQ(late_stats.late, late_stats.enqueued);
  EXPECT_EQ(late_stats.on_time, 0u);
}

TEST(VirtualTime, HintWithinDeadlineConsumedMidWait) {
  auto& f = fixture();
  auto config = f.deterministic_config();
  config.clock = std::make_shared<sim::SimClock>();
  config.latency_model = make_fixed_latency_model(0.5);
  config.request_deadline = 1.0;
  PlacementService service(f.registry, config);

  const auto& job = f.split.test.jobs().front();
  ASSERT_TRUE(service.enqueue(job));
  const auto hint = service.wait_for(job);
  ASSERT_TRUE(hint.has_value());
  EXPECT_EQ(*hint, f.model->predict_category(job));
  const auto stats = service.stats();
  EXPECT_EQ(stats.on_time, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.late, 0u);
  EXPECT_NEAR(stats.mean_latency_s(), 0.5, 1e-9);
}

// A hint that cannot be ready within its consumer's deadline is a miss,
// counted late right then. The miss takes it out of the table, and nothing
// is scheduled on the clock.
TEST(VirtualTime, HintBeyondDeadlineIsLateAtTheMiss) {
  auto& f = fixture();
  auto config = f.deterministic_config();
  config.clock = std::make_shared<sim::SimClock>();
  config.latency_model = make_fixed_latency_model(5.0);
  config.request_deadline = 1.0;
  PlacementService service(f.registry, config);

  const auto& job = f.split.test.jobs().front();
  ASSERT_TRUE(service.enqueue(job));
  EXPECT_FALSE(service.wait_for(job).has_value());  // ready at 5: too late
  const auto stats = service.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.late, 1u);
  EXPECT_EQ(stats.on_time, 0u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_DOUBLE_EQ(stats.latency_total_s, 5.0);
  EXPECT_EQ(config.clock->pending(), 0u);
}

// A lookup removes the hint whether it was on time or late: a second
// wait_for() for the same job misses, and is not counted late again.
// Neither taking nor missing a hint changes `completed` or the latency
// statistics.
TEST(VirtualTime, ConsumedAndMissedHintsLeaveTheTable) {
  auto& f = fixture();
  const auto& jobs = f.split.test.jobs();
  ASSERT_GE(jobs.size(), 3u);
  auto config = f.deterministic_config();
  config.clock = std::make_shared<sim::SimClock>();
  config.latency_model = make_fixed_latency_model(0.5);
  config.request_deadline = 1.0;
  PlacementService service(f.registry, config);

  // Ready at 0.5, consumed mid-wait at 0.
  ASSERT_TRUE(service.enqueue(jobs[0]));
  ASSERT_TRUE(service.wait_for(jobs[0]).has_value());
  EXPECT_FALSE(service.wait_for(jobs[0]).has_value());  // already taken

  // Ready at 0.5, looked up at 2.
  ASSERT_TRUE(service.enqueue(jobs[1]));
  config.clock->run_until(2.0);
  ASSERT_TRUE(service.wait_for(jobs[1]).has_value());
  EXPECT_FALSE(service.wait_for(jobs[1]).has_value());  // already taken

  // Late: ready at 7, so the consumer gives up at 2 (deadline 3). The miss
  // took the hint: looked up again past its ready time, it is gone.
  PlacementService slow(f.registry, [&] {
    auto c = config;
    c.latency_model = make_fixed_latency_model(5.0);
    return c;
  }());
  ASSERT_TRUE(slow.enqueue(jobs[2]));
  EXPECT_FALSE(slow.wait_for(jobs[2]).has_value());
  config.clock->run_until(8.0);
  EXPECT_FALSE(slow.wait_for(jobs[2]).has_value());
  EXPECT_EQ(config.clock->pending(), 0u);

  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.on_time, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_DOUBLE_EQ(stats.latency_total_s, 1.0);
  EXPECT_DOUBLE_EQ(stats.latency_max_s, 0.5);
  const auto slow_stats = slow.stats();
  EXPECT_EQ(slow_stats.completed, 1u);
  EXPECT_EQ(slow_stats.late, 1u);
  EXPECT_EQ(slow_stats.misses, 2u);
  EXPECT_DOUBLE_EQ(slow_stats.latency_total_s, 5.0);
}

// -------------------------------------------------- noisy cells determinism

TEST(NoisyCells, ParallelNoisyGridMatchesSerialBitExactly) {
  auto& f = fixture();
  sim::MethodFactory factory(f.split.train, cost::Rates{},
                             small_model_config());

  sim::ExperimentRunner runner(4);
  const auto index = runner.add_cluster(&factory, &f.split.test);
  auto cells = runner.make_grid(index, {sim::MethodId::kAdaptiveRanking},
                                {0.01, 0.1}, /*base_seed=*/7);
  for (auto& cell : cells) cell.make.hint_noise = 0.25;

  const auto parallel = runner.run(cells);
  const auto serial = runner.run_serial(cells);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_EQ(parallel[i].result.tco_actual, serial[i].result.tco_actual);
    EXPECT_EQ(parallel[i].result.jobs_scheduled_ssd,
              serial[i].result.jobs_scheduled_ssd);
  }
}

}  // namespace
}  // namespace byom::serving
