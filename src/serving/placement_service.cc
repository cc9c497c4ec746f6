#include "serving/placement_service.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "framework/thread_pool.h"

namespace byom::serving {

namespace {

// Validates and resolves the config once, before the const member is
// initialized: num_shards == 0 becomes one shard per hardware core.
PlacementServiceConfig resolve_config(PlacementServiceConfig config) {
  config.num_shards = framework::resolve_shard_count(config.num_shards);
  if (config.fallback_num_categories < 2) {
    throw std::invalid_argument("PlacementService: fallback N >= 2 required");
  }
  if (!(config.request_deadline >= 0.0)) {
    throw std::invalid_argument(
        "PlacementService: request_deadline must be >= 0");
  }
  if (config.latency_model && !config.clock) {
    throw std::invalid_argument(
        "PlacementService: a latency model requires a clock (a hint's ready "
        "time is judged against it)");
  }
  if (config.clock) {
    if (config.num_threads != 0) {
      throw std::invalid_argument(
          "PlacementService: a clock requires num_threads == 0");
    }
    if (config.num_shards != 1) {
      throw std::invalid_argument(
          "PlacementService: a clock requires num_shards == 1 (simulation "
          "cells stay on the single-lane path)");
    }
  }
  return config;
}

}  // namespace

PlacementService::Shard::Shard(PlacementService* service,
                               const PlacementServiceConfig& config)
    : queue(config.queue_capacity),
      batcher(&queue, BatcherConfig{config.max_batch, config.flush_deadline},
              [service, this](common::Span<const InferenceRequest> batch) {
                service->execute_batch(*this, batch);
              }) {}

void PlacementService::Shard::publish(std::uint64_t job_id, const Hint& hint,
                                      double latency) {
  if (!results.insert(job_id, hint)) return;
  ++completed;
  latency_total_s += latency;
  latency_max_s = std::max(latency_max_s, latency);
}

PlacementService::PlacementService(
    std::shared_ptr<const core::ModelRegistry> registry,
    const PlacementServiceConfig& config)
    : config_(resolve_config(config)), registry_(std::move(registry)) {
  if (!registry_) {
    throw std::invalid_argument("PlacementService: null registry");
  }
  shards_.reserve(config_.num_shards);
  for (std::size_t i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(this, config_));
  }
  for (auto& shard : shards_) {
    shard->workers.reserve(config_.num_threads);
    for (std::size_t i = 0; i < config_.num_threads; ++i) {
      shard->workers.emplace_back([this, s = shard.get()] { worker_loop(*s); });
    }
  }
}

PlacementService::~PlacementService() { shutdown(); }

double PlacementService::now() const {
  if (deterministic()) return config_.clock ? config_.clock->now() : 0.0;
  // lint:allow(wall-clock) the threaded service's clock; inline services
  // read the SimClock above
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void PlacementService::worker_loop(Shard& shard) {
  RequestBatch batch;  // this worker's, reused for every batch
  while (shard.batcher.run_once(batch)) {
  }
}

std::size_t PlacementService::shard_of(std::string_view job_key) const {
  return shards_.size() == 1
             ? 0
             : static_cast<std::size_t>(common::fnv1a(job_key) %
                                        shards_.size());
}

// hotpath: one call per submitted job; the queue copies into a recycled
// slot.
bool PlacementService::enqueue(const trace::Job& job) {
  Shard& shard = shard_for(job);
  if (!shard.queue.try_push(job, now())) {
    // atomic: relaxed — stats counter; publishes no data, only summed
    // by stats()
    shard.dropped.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // atomic: relaxed — stats counter; publishes no data, only summed
  // by stats()
  shard.enqueued.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::size_t PlacementService::enqueue_all(
    const std::vector<trace::Job>& jobs) {
  std::size_t accepted = 0;
  for (const auto& job : jobs) {
    if (enqueue(job)) ++accepted;
  }
  return accepted;
}

// hotpath: the served lookup; takes the hint out of the shard's table.
std::optional<int> PlacementService::wait_for_inline(Shard& shard,
                                                     std::uint64_t job_id) {
  std::optional<Hint> hint;
  {
    common::MutexLock lock(shard.results_mutex);
    hint = shard.results.take(job_id);
  }
  if (!hint) {
    // Compute everything queued on this shard so far; each result enters
    // the table with its ready time.
    shard.batcher.drain();
    common::MutexLock lock(shard.results_mutex);
    hint = shard.results.take(job_id);
  }
  // The consumer waits up to request_deadline in virtual time. A hint that
  // cannot be ready by then is a miss now (Algorithm 1 falls back) and is
  // counted late; it has left the table all the same.
  if (!hint || hint->ready_time > now() + config_.request_deadline) {
    // atomic: relaxed — stats counters; publish no data, only summed by
    // stats()
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    if (hint) shard.late.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  // atomic: relaxed — stats counters; publish no data, only summed by
  // stats()
  shard.hits.fetch_add(1, std::memory_order_relaxed);
  shard.on_time.fetch_add(1, std::memory_order_relaxed);
  return hint->category;
}

std::optional<int> PlacementService::wait_for_threaded(Shard& shard,
                                                       std::uint64_t job_id) {
  // lint:allow(wall-clock) the deadline as a point on the service clock,
  // which is the steady clock in this mode
  const auto deadline = std::chrono::steady_clock::time_point() +
                        std::chrono::duration<double>(
                            now() + config_.request_deadline);
  common::MutexLock lock(shard.results_mutex);
  // Explicit predicate loop (not the lambda-predicate wait overload): the
  // thread-safety analysis checks each guarded access in this scope, where
  // it can see the MutexLock.
  std::optional<Hint> hint = shard.results.take(job_id);
  while (!hint) {
    const bool timed_out = shard.results_cv.wait_until(lock, deadline) ==
                           std::cv_status::timeout;
    hint = shard.results.take(job_id);  // a publish may race the timeout
    if (timed_out) break;
  }
  if (hint) {
    // atomic: relaxed — stats counter; only summed by stats()
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    return hint->category;
  }
  // atomic: relaxed — stats counter; only summed by stats()
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

std::optional<int> PlacementService::wait_for(const trace::Job& job) {
  Shard& shard = shard_for(job);
  return deterministic() ? wait_for_inline(shard, job.job_id)
                         : wait_for_threaded(shard, job.job_id);
}

// hotpath: one call per batch; jobs are staged as pointers on the stack.
void PlacementService::execute_batch(
    Shard& shard, common::Span<const InferenceRequest> batch) {
  // One registry-grouped pass per chunk of the batch — the exact code path
  // offline precomputation uses, which is what makes served hints
  // bit-identical to offline-batched hints (per-job results are
  // independent of batch composition, so neither chunking nor shard
  // interleaving can change them).
  constexpr std::size_t kChunk = 64;
  std::array<const trace::Job*, kChunk> jobs;
  std::array<int, kChunk> categories;
  for (std::size_t first = 0; first < batch.size(); first += kChunk) {
    const std::size_t n = std::min(kChunk, batch.size() - first);
    for (std::size_t i = 0; i < n; ++i) jobs[i] = &batch[first + i].job;
    core::predict_categories(
        *registry_, common::Span<const trace::Job* const>(jobs.data(), n),
        config_.fallback_num_categories, nullptr,
        common::Span<int>(categories.data(), n));
    publish_chunk(shard, batch.subspan(first, n), categories.data());
  }
}

// hotpath: one locked table insert per computed hint.
void PlacementService::publish_chunk(
    Shard& shard, common::Span<const InferenceRequest> requests,
    const int* categories) {
  // A hint is ready its latency after its enqueue: inline, the latency
  // model's delay, so possibly later than now (wait_for judges it against
  // the consumer's deadline); threaded, the measured latency, so now.
  const double t = now();
  {
    common::MutexLock lock(shard.results_mutex);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const InferenceRequest& request = requests[i];
      const double latency =
          !deterministic() ? t - request.enqueued_at
          : config_.latency_model
              ? config_.latency_model->latency_seconds(request.job)
              : 0.0;
      shard.publish(request.job.job_id,
                    Hint{categories[i], request.enqueued_at + latency},
                    latency);
    }
  }
  shard.results_cv.notify_all();
}

void PlacementService::shutdown() {
  common::MutexLock lock(shutdown_mutex_);
  // Drain order, for EVERY shard: (1) all queues stop accepting and wake
  // every blocked worker; (2) each shard's workers flush what their queue
  // already accepted and exit their loop; (3) the joins below observe those
  // exits. Only then may the service report itself shut down — an accepted
  // request is never abandoned by a worker mid-drain, on any shard.
  for (auto& shard : shards_) shard->queue.shutdown();
  for (auto& shard : shards_) {
    for (auto& worker : shard->workers) {
      if (worker.joinable()) worker.join();
    }
    // With workers the shard queue must be fully drained once they exited
    // (run_once returns false only on shut-down-and-drained). Inline mode
    // has no workers; its queues drain at lookup time.
    assert(shard->workers.empty() || shard->queue.size() == 0);
  }
}

ServingStats PlacementService::shard_stats(std::size_t shard_index) const {
  const Shard& shard = *shards_.at(shard_index);
  ServingStats stats;
  // atomic: relaxed — stats counter reads; each counter is independently
  // monotonic and no cross-counter ordering is implied (exact totals need
  // the workers quiesced, which callers arrange via drain/shutdown)
  stats.enqueued = shard.enqueued.load(std::memory_order_relaxed);
  stats.dropped = shard.dropped.load(std::memory_order_relaxed);
  stats.hits = shard.hits.load(std::memory_order_relaxed);
  stats.misses = shard.misses.load(std::memory_order_relaxed);
  stats.on_time = shard.on_time.load(std::memory_order_relaxed);
  stats.late = shard.late.load(std::memory_order_relaxed);
  stats.batches = shard.batcher.batches();
  stats.size_flushes = shard.batcher.size_flushes();
  stats.deadline_flushes = shard.batcher.deadline_flushes();
  {
    common::MutexLock lock(shard.results_mutex);
    stats.completed = shard.completed;
    stats.latency_total_s = shard.latency_total_s;
    stats.latency_max_s = shard.latency_max_s;
  }
  return stats;
}

ServingStats PlacementService::stats() const {
  ServingStats total;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const ServingStats s = shard_stats(i);
    total.enqueued += s.enqueued;
    total.dropped += s.dropped;
    total.completed += s.completed;
    total.hits += s.hits;
    total.misses += s.misses;
    total.on_time += s.on_time;
    total.late += s.late;
    total.batches += s.batches;
    total.size_flushes += s.size_flushes;
    total.deadline_flushes += s.deadline_flushes;
    total.latency_total_s += s.latency_total_s;
    total.latency_max_s = std::max(total.latency_max_s, s.latency_max_s);
  }
  return total;
}

sim::HintTimeliness PlacementService::hint_timeliness() const {
  const ServingStats total = stats();
  sim::HintTimeliness timeliness;
  timeliness.on_time = total.on_time;
  timeliness.late = total.late;
  timeliness.dropped = total.dropped;
  return timeliness;
}

std::size_t PlacementService::pending_requests() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->queue.size();
  return total;
}

namespace {

class ServedCategoryProvider final : public core::CategoryProvider {
 public:
  explicit ServedCategoryProvider(std::shared_ptr<PlacementService> service)
      : service_(std::move(service)) {
    if (!service_) {
      throw std::invalid_argument("make_served_provider: null service");
    }
  }

  std::string name() const override { return "served"; }

  std::optional<int> category(const trace::Job& job) override {
    return service_->wait_for(job);
  }

 private:
  std::shared_ptr<PlacementService> service_;
};

}  // namespace

core::CategoryProviderPtr make_served_provider(
    std::shared_ptr<PlacementService> service) {
  return std::make_shared<ServedCategoryProvider>(std::move(service));
}

}  // namespace byom::serving
