#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/byom.h"
#include "core/category_provider.h"
#include "serving/batcher.h"
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

InferenceRequest request_for(std::uint64_t job_id) {
  InferenceRequest request;
  request.job.job_id = job_id;
  request.job.job_key = "pipe/step";
  request.enqueued_at = std::chrono::steady_clock::now();
  return request;
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
  EXPECT_TRUE(queue.try_push(request_for(1)));
  EXPECT_TRUE(queue.try_push(request_for(2)));
  EXPECT_TRUE(queue.try_push(request_for(3)));
  EXPECT_FALSE(queue.try_push(request_for(4)));  // full: back-pressure
  EXPECT_EQ(queue.size(), 3u);

  const auto first = queue.pop(milliseconds(0));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->job.job_id, 1u);
  EXPECT_TRUE(queue.try_push(request_for(4)));  // slot freed
  for (const std::uint64_t expected : {2u, 3u, 4u}) {
    const auto popped = queue.pop(milliseconds(0));
    ASSERT_TRUE(popped.has_value());
    EXPECT_EQ(popped->job.job_id, expected);
  }
}

TEST(InferenceQueue, PopBatchTakesUpToMax) {
  InferenceRequestQueue queue(16);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(queue.try_push(request_for(id)));
  }
  std::vector<InferenceRequest> out;
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
  ASSERT_TRUE(queue.push(request_for(1)));
  ASSERT_TRUE(queue.push(request_for(2)));
  queue.shutdown();
  EXPECT_TRUE(queue.shut_down());
  EXPECT_FALSE(queue.try_push(request_for(3)));
  EXPECT_FALSE(queue.push(request_for(3)));
  // Queued work is still drained after shutdown.
  EXPECT_TRUE(queue.pop(milliseconds(0)).has_value());
  EXPECT_TRUE(queue.pop(milliseconds(0)).has_value());
  EXPECT_FALSE(queue.pop(milliseconds(0)).has_value());
}

// ------------------------------------------------------------------ Batcher

TEST(Batcher, SizeTriggeredFlush) {
  InferenceRequestQueue queue(64);
  std::vector<std::size_t> batch_sizes;
  BatcherConfig config;
  config.max_batch = 4;
  config.flush_deadline = milliseconds(1000);  // deadline never fires
  Batcher batcher(&queue, config,
                  [&](std::vector<InferenceRequest>&& batch) {
                    batch_sizes.push_back(batch.size());
                  });
  for (std::uint64_t id = 1; id <= 8; ++id) {
    ASSERT_TRUE(queue.try_push(request_for(id)));
  }
  EXPECT_TRUE(batcher.run_once());
  EXPECT_TRUE(batcher.run_once());
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
                  [&](std::vector<InferenceRequest>&& batch) {
                    batch_sizes.push_back(batch.size());
                  });
  for (std::uint64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(queue.try_push(request_for(id)));
  }
  EXPECT_TRUE(batcher.run_once());  // flushes the partial batch at deadline
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
                  [&](std::vector<InferenceRequest>&& batch) {
                    executed += batch.size();
                  });
  for (std::uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(queue.try_push(request_for(id)));
  }
  EXPECT_EQ(batcher.drain(), 5u);
  EXPECT_EQ(executed, 5u);
  EXPECT_EQ(batcher.batches(), 3u);  // 2 + 2 + 1
  EXPECT_EQ(batcher.drain(), 0u);    // nothing queued: no-op
}

TEST(Batcher, RunOnceReturnsFalseOnceShutDownAndDrained) {
  InferenceRequestQueue queue(8);
  BatcherConfig config;
  config.max_batch = 8;
  config.flush_deadline = milliseconds(1);
  std::size_t executed = 0;
  Batcher batcher(&queue, config,
                  [&](std::vector<InferenceRequest>&& batch) {
                    executed += batch.size();
                  });
  ASSERT_TRUE(queue.try_push(request_for(1)));
  queue.shutdown();
  EXPECT_TRUE(batcher.run_once());  // drains the remaining request
  EXPECT_EQ(executed, 1u);
  EXPECT_FALSE(batcher.run_once());  // queue empty + shut down: exit
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
    const auto served = service.wait_for(job.job_id);
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
      categories.push_back(service.wait_for(job.job_id).value_or(-1));
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

  EXPECT_FALSE(service.wait_for(jobs.front().job_id).has_value());
  EXPECT_FALSE(service.wait_for(jobs.back().job_id).has_value());
  EXPECT_TRUE(service.wait_for(jobs[1].job_id).has_value());
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
// every accepted request has a published hint.
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
    EXPECT_TRUE(service.lookup(job.job_id).has_value());
  }
}

TEST(PlacementService, ThreadedModeServesHintsBeforeDeadline) {
  auto& f = fixture();
  PlacementServiceConfig config;
  config.num_threads = 2;
  config.queue_capacity = 1024;
  config.max_batch = 32;
  config.flush_deadline = milliseconds(1);
  config.request_deadline = milliseconds(5000);  // generous: no misses
  config.fallback_num_categories = f.model->num_categories();
  PlacementService service(f.registry, config);

  const auto count = static_cast<std::ptrdiff_t>(
      std::min<std::size_t>(256, f.split.test.size()));
  std::vector<trace::Job> jobs(f.split.test.jobs().begin(),
                               f.split.test.jobs().begin() + count);
  ASSERT_EQ(service.enqueue_all(jobs), jobs.size());
  for (const auto& job : jobs) {
    const auto served = service.wait_for(job.job_id);
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(*served, f.model->predict_category(job));
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.hits, jobs.size());
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_GE(stats.wall_latency_max_ms, 0.0);
  // Threaded mode accounts wall-clock only; the virtual counters must
  // never mix into it.
  EXPECT_EQ(stats.virtual_latency_total_s, 0.0);
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
  config.queue_stripes = 2;
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
    config.queue_stripes = 4;
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
  config.queue_stripes = 4;
  config.num_threads = 1;  // 4 workers total, one per shard
  config.queue_capacity = 1024;
  config.max_batch = 32;
  config.flush_deadline = milliseconds(1);
  config.request_deadline = milliseconds(5000);  // generous: no misses
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
// published hint once shutdown returns.
TEST(ShardedService, ShutdownDrainsAllShards) {
  auto& f = fixture();
  PlacementServiceConfig config;
  config.num_shards = 4;
  config.queue_stripes = 2;
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
    EXPECT_TRUE(service.lookup(job.job_id).has_value())
        << "shard " << service.shard_of(job.job_key)
        << " lost a request on shutdown";
  }
}

// ISSUE-6 bugfix pin: stats() aggregates per-shard atomics with relaxed
// reads while producers and workers are mutating them. The tsan CI job runs
// this test; a torn/ non-atomic counter would trip it.
TEST(ShardedService, StatsAggregationIsSafeDuringLoad) {
  auto& f = fixture();
  PlacementServiceConfig config;
  config.num_shards = 2;
  config.queue_stripes = 2;
  config.num_threads = 1;
  config.queue_capacity = 1024;
  config.max_batch = 16;
  config.flush_deadline = milliseconds(1);
  config.request_deadline = milliseconds(5000);
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

// Sync model inference, a precomputed hint table, and the served pipeline
// must induce identical placements on a fixed trace.
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

  const auto sync = run_with(core::make_model_provider(f.model));

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
  sim::MethodFactory factory(f.split.train, cost::Rates{},
                             small_model_config());
  // Offline path: one batched pass over the test trace, shared as hints.
  auto hints = std::make_shared<const core::CategoryHints>(
      core::precompute_categories(*f.registry, f.split.test.jobs(),
                                  f.model->num_categories()));
  factory.set_category_model(*f.model);
  factory.set_predicted_hints(hints);

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

TEST(VirtualTime, ZeroLatencyMatchesPlainDeterministicHints) {
  auto& f = fixture();
  const auto& jobs = f.split.test.jobs();

  PlacementService plain(f.registry, f.deterministic_config());
  plain.enqueue_all(jobs);

  auto config = f.deterministic_config();
  config.clock = std::make_shared<sim::SimClock>();
  config.latency_model = make_zero_latency_model();
  PlacementService virt(f.registry, config);
  virt.enqueue_all(jobs);

  for (const auto& job : jobs) {
    const auto a = plain.wait_for(job.job_id);
    const auto b = virt.wait_for(job.job_id);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*a, *b);
  }
  const auto stats = virt.stats();
  EXPECT_EQ(stats.on_time, jobs.size());
  EXPECT_EQ(stats.late, 0u);
}

TEST(VirtualTime, HintWithinDeadlineConsumedMidWait) {
  auto& f = fixture();
  auto config = f.deterministic_config();
  config.clock = std::make_shared<sim::SimClock>();
  config.latency_model = make_fixed_latency_model(0.5);
  config.virtual_request_deadline = 1.0;
  PlacementService service(f.registry, config);

  const auto& job = f.split.test.jobs().front();
  ASSERT_TRUE(service.enqueue(job));
  const auto hint = service.wait_for(job.job_id);
  ASSERT_TRUE(hint.has_value());
  EXPECT_EQ(*hint, f.model->predict_category(job));
  const auto stats = service.stats();
  EXPECT_EQ(stats.on_time, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.late, 0u);
  EXPECT_NEAR(stats.mean_virtual_latency_s(), 0.5, 1e-9);
  // Virtual-time mode accounts virtual seconds only; the wall-clock
  // counters must stay untouched (the ISSUE-4 unit-mixing bugfix).
  EXPECT_EQ(stats.wall_latency_total_ms, 0.0);
  EXPECT_EQ(stats.wall_latency_max_ms, 0.0);
}

TEST(VirtualTime, HintBeyondDeadlineIsLateAndDeliveredByEvent) {
  auto& f = fixture();
  auto config = f.deterministic_config();
  config.clock = std::make_shared<sim::SimClock>();
  config.latency_model = make_fixed_latency_model(5.0);
  config.virtual_request_deadline = 1.0;
  PlacementService service(f.registry, config);

  const auto& job = f.split.test.jobs().front();
  ASSERT_TRUE(service.enqueue(job));
  EXPECT_FALSE(service.wait_for(job.job_id).has_value());  // cannot make it
  EXPECT_EQ(service.stats().misses, 1u);
  EXPECT_EQ(service.stats().late, 0u);  // not delivered yet

  // The hint-ready event fires at t = 5: the hint lands in the results
  // table (an observer sees it) and is counted late.
  config.clock->run_all();
  EXPECT_DOUBLE_EQ(config.clock->now(), 5.0);
  const auto hint = service.lookup(job.job_id);
  ASSERT_TRUE(hint.has_value());
  EXPECT_EQ(*hint, f.model->predict_category(job));
  const auto stats = service.stats();
  EXPECT_EQ(stats.late, 1u);
  EXPECT_EQ(stats.on_time, 0u);
  EXPECT_EQ(stats.completed, 1u);
}

// -------------------------------------------------- noisy cells determinism

TEST(NoisyCells, ParallelNoisyGridMatchesSerialBitExactly) {
  auto& f = fixture();
  sim::MethodFactory factory(f.split.train, cost::Rates{},
                             small_model_config());
  factory.set_category_model(*f.model);

  sim::ExperimentRunner runner(4);
  const auto index = runner.add_cluster(&factory, &f.split.test);
  auto cells = runner.make_grid(index, {sim::MethodId::kAdaptiveRanking},
                                {0.01, 0.1}, /*base_seed=*/7);
  for (auto& cell : cells) cell.hint_noise = 0.25;

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
