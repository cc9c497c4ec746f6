#include "serving/placement_service.h"

#include <algorithm>
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
  if (config.clock) {
    if (config.num_threads != 0) {
      throw std::invalid_argument(
          "PlacementService: virtual-time mode requires num_threads == 0");
    }
    if (config.num_shards != 1) {
      throw std::invalid_argument(
          "PlacementService: virtual-time mode requires num_shards == 1 "
          "(simulation cells stay on the single-lane path)");
    }
  }
  return config;
}

}  // namespace

PlacementService::Shard::Shard(PlacementService* service,
                               const PlacementServiceConfig& config)
    : queue(config.queue_capacity, config.queue_stripes),
      batcher(&queue, BatcherConfig{config.max_batch, config.flush_deadline},
              [service, this](std::vector<InferenceRequest>&& batch) {
                service->execute_batch(*this, std::move(batch));
              }) {}

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

void PlacementService::worker_loop(Shard& shard) {
  while (shard.batcher.run_once()) {
  }
}

std::size_t PlacementService::shard_of(std::string_view job_key) const {
  return shards_.size() == 1
             ? 0
             : static_cast<std::size_t>(common::fnv1a(job_key) %
                                        shards_.size());
}

bool PlacementService::enqueue(const trace::Job& job) {
  Shard& shard = shard_for(job);
  InferenceRequest request;
  request.job = job;
  // lint:allow(wall-clock) threaded-mode latency accounting; virtual-time
  // consumers read virtual_enqueued_at instead
  request.enqueued_at = std::chrono::steady_clock::now();
  if (virtual_time()) {
    request.virtual_enqueued_at = config_.clock->now();
  }
  if (!shard.queue.try_push(std::move(request))) {
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

std::optional<int> PlacementService::lookup(std::uint64_t job_id) const {
  for (const auto& shard : shards_) {
    common::MutexLock lock(shard->results_mutex);
    const auto it = shard->results.find(job_id);
    if (it != shard->results.end()) return it->second;
  }
  return std::nullopt;
}

std::optional<int> PlacementService::wait_for_virtual(std::uint64_t job_id) {
  Shard& shard = *shards_.front();  // virtual-time mode is single-shard
  const double now = config_.clock->now();
  auto hint = lookup(job_id);
  if (!hint) {
    // Compute everything queued so far; results land in the published table
    // (ready now) or the in-flight table (ready in the future).
    shard.batcher.drain();
    hint = lookup(job_id);
  }
  if (hint) {
    // Ready at or before the lookup: consumed on time.
    // atomic: relaxed — stats counters; publish no data, only summed by
    // stats()
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    shard.on_time.fetch_add(1, std::memory_order_relaxed);
    return hint;
  }
  {
    common::MutexLock lock(shard.results_mutex);
    const auto it = shard.in_flight.find(job_id);
    if (it != shard.in_flight.end()) {
      if (it->second.ready_time <= now + config_.virtual_request_deadline) {
        // The consumer's wait budget covers the remaining latency: consume
        // the hint "mid-wait". The scheduled hint-ready event finds it
        // already published and does nothing.
        const InFlightHint ready = it->second;
        shard.in_flight.erase(it);
        shard.results.emplace(job_id, ready.category);
        ++shard.completed;
        shard.virtual_latency_total_s += ready.virtual_latency;
        shard.virtual_latency_max_s =
            std::max(shard.virtual_latency_max_s, ready.virtual_latency);
        // atomic: relaxed — stats counters; publish no data, only
        // summed by stats()
        shard.hits.fetch_add(1, std::memory_order_relaxed);
        shard.on_time.fetch_add(1, std::memory_order_relaxed);
        return ready.category;
      }
      // The hint cannot make the deadline: Algorithm 1 falls back now; the
      // hint-ready event will deliver (and count) it late.
      it->second.missed = true;
    }
  }
  // atomic: relaxed — stats counter; publishes no data, only summed
  // by stats()
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

std::optional<int> PlacementService::wait_for_on(Shard& shard,
                                                 std::uint64_t job_id) {
  if (deterministic()) {
    std::optional<int> hint;
    {
      common::MutexLock lock(shard.results_mutex);
      const auto it = shard.results.find(job_id);
      if (it != shard.results.end()) hint = it->second;
    }
    if (!hint) {
      // Process everything queued on this shard on this thread: the "every
      // request meets its deadline" regime, with no timing dependence.
      shard.batcher.drain();
      common::MutexLock lock(shard.results_mutex);
      const auto it = shard.results.find(job_id);
      if (it != shard.results.end()) hint = it->second;
    }
    if (hint) {
      // atomic: relaxed — stats counter; only summed by stats()
      shard.hits.fetch_add(1, std::memory_order_relaxed);
    } else {
      // atomic: relaxed — stats counter; only summed by stats()
      shard.misses.fetch_add(1, std::memory_order_relaxed);
    }
    return hint;
  }

  // lint:allow(wall-clock) threaded-mode consumer deadline; virtual-time
  // lookups go through wait_for_virtual instead
  const auto deadline =
      std::chrono::steady_clock::now() + config_.request_deadline;
  common::MutexLock lock(shard.results_mutex);
  // Explicit predicate loop (not the lambda-predicate wait overload): the
  // thread-safety analysis checks each guarded access in this scope, where
  // it can see the MutexLock.
  auto it = shard.results.find(job_id);
  while (it == shard.results.end()) {
    if (shard.results_cv.wait_until(lock, deadline) ==
        std::cv_status::timeout) {
      it = shard.results.find(job_id);  // a publish may race the timeout
      break;
    }
    it = shard.results.find(job_id);
  }
  if (it != shard.results.end()) {
    const int category = it->second;
    // atomic: relaxed — stats counter; only summed by stats()
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    return category;
  }
  // atomic: relaxed — stats counter; only summed by stats()
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

std::optional<int> PlacementService::wait_for(const trace::Job& job) {
  if (virtual_time()) {
    return wait_for_virtual(job.job_id);
  }
  return wait_for_on(shard_for(job), job.job_id);
}

std::optional<int> PlacementService::wait_for(std::uint64_t job_id) {
  if (virtual_time()) {
    return wait_for_virtual(job_id);
  }
  if (shards_.size() == 1) {
    return wait_for_on(*shards_.front(), job_id);
  }

  // Id-only lookups cannot route by job key. Deterministic mode drains
  // every shard and scans; threaded mode polls the tables until the
  // deadline. Both attribute the hit to the owning shard (the miss to
  // shard 0) so aggregates stay exact.
  const auto scan = [&]() -> Shard* {
    // Self-contained locking: the lambda acquires each shard's capability
    // itself, so the analysis checks its body independently.
    for (const auto& shard : shards_) {
      common::MutexLock lock(shard->results_mutex);
      if (shard->results.count(job_id)) return shard.get();
    }
    return nullptr;
  };

  if (deterministic()) {
    Shard* owner = scan();
    if (!owner) {
      for (const auto& shard : shards_) shard->batcher.drain();
      owner = scan();
    }
    if (owner) {
      // atomic: relaxed — stats counter; only summed by stats()
      owner->hits.fetch_add(1, std::memory_order_relaxed);
      common::MutexLock lock(owner->results_mutex);
      return owner->results.at(job_id);
    }
    // atomic: relaxed — stats counter; only summed by stats()
    shards_.front()->misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }

  // lint:allow(wall-clock) threaded-mode poll deadline (id-only slow path)
  const auto deadline =
      std::chrono::steady_clock::now() + config_.request_deadline;
  for (;;) {
    if (Shard* owner = scan()) {
      // atomic: relaxed — stats counter; only summed by stats()
      owner->hits.fetch_add(1, std::memory_order_relaxed);
      common::MutexLock lock(owner->results_mutex);
      return owner->results.at(job_id);
    }
    // lint:allow(wall-clock) threaded-mode poll loop, see above
    if (std::chrono::steady_clock::now() >= deadline) break;
    // lint:allow(wall-clock) threaded-mode poll backoff, see above
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // atomic: relaxed — stats counter; only summed by stats()
  shards_.front()->misses.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void PlacementService::publish_virtual(Shard& shard, std::uint64_t job_id,
                                       int category, double virtual_latency) {
  common::MutexLock lock(shard.results_mutex);
  if (!shard.results.emplace(job_id, category).second) return;
  ++shard.completed;
  shard.virtual_latency_total_s += virtual_latency;
  shard.virtual_latency_max_s =
      std::max(shard.virtual_latency_max_s, virtual_latency);
}

void PlacementService::on_hint_ready_event(void* ctx, std::uint64_t job_id,
                                           double) {
  static_cast<PlacementService*>(ctx)->deliver_virtual(job_id);
}

void PlacementService::deliver_virtual(std::uint64_t job_id) {
  // Hint-ready event: move the in-flight hint into the published table. If
  // the consumer already took it mid-wait (or it was never computed) there
  // is nothing to do.
  Shard& shard = *shards_.front();
  InFlightHint hint;
  {
    common::MutexLock lock(shard.results_mutex);
    const auto it = shard.in_flight.find(job_id);
    if (it == shard.in_flight.end()) return;
    hint = it->second;
    shard.in_flight.erase(it);
  }
  publish_virtual(shard, job_id, hint.category, hint.virtual_latency);
  // atomic: relaxed — late-hint stats counter; only summed by stats()
  if (hint.missed) shard.late.fetch_add(1, std::memory_order_relaxed);
}

void PlacementService::execute_batch(Shard& shard,
                                     std::vector<InferenceRequest>&& batch) {
  // One registry-grouped predict_batch pass — the exact code path offline
  // precomputation uses, which is what makes served hints bit-identical to
  // offline-batched hints (per-job results are independent of batch
  // composition, so shard/stripe interleaving cannot change them).
  std::vector<trace::Job> jobs;
  jobs.reserve(batch.size());
  for (const auto& request : batch) jobs.push_back(request.job);
  const core::CategoryHints hints = core::precompute_categories(
      *registry_, jobs, config_.fallback_num_categories);

  if (virtual_time()) {
    const double now = config_.clock->now();
    for (const auto& request : batch) {
      const std::uint64_t job_id = request.job.job_id;
      const double latency =
          config_.latency_model
              ? config_.latency_model->latency_seconds(request.job)
              : 0.0;
      const double ready = request.virtual_enqueued_at + latency;
      if (ready <= now) {
        publish_virtual(shard, job_id, hints.at(job_id), latency);
        continue;
      }
      {
        common::MutexLock lock(shard.results_mutex);
        if (shard.results.count(job_id) || shard.in_flight.count(job_id)) {
          continue;  // duplicate request for an already-served job
        }
        shard.in_flight.emplace(job_id,
                                InFlightHint{hints.at(job_id), ready, latency,
                                             /*missed=*/false});
      }
      config_.clock->schedule_typed(ready, sim::SimClock::kHintReadyPriority,
                                    sim::SimClock::EventKind::kHintReady,
                                    &PlacementService::on_hint_ready_event,
                                    this, job_id);
    }
    return;
  }

  // lint:allow(wall-clock) threaded-mode publish timestamp; the virtual
  // path above uses the injected clock
  const auto now = std::chrono::steady_clock::now();
  {
    common::MutexLock lock(shard.results_mutex);
    for (const auto& request : batch) {
      // First publication wins; a duplicate request for an already-served
      // job completes without recounting stats.
      if (!shard.results
               .emplace(request.job.job_id, hints.at(request.job.job_id))
               .second) {
        continue;
      }
      ++shard.completed;
      const double latency_ms =
          std::chrono::duration<double, std::milli>(now - request.enqueued_at)
              .count();
      shard.wall_latency_total_ms += latency_ms;
      shard.wall_latency_max_ms =
          std::max(shard.wall_latency_max_ms, latency_ms);
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
    // (run_once returns false only on shut-down-and-drained). Deterministic
    // mode has no workers; its queues drain at lookup time.
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
    stats.wall_latency_total_ms = shard.wall_latency_total_ms;
    stats.wall_latency_max_ms = shard.wall_latency_max_ms;
    stats.virtual_latency_total_s = shard.virtual_latency_total_s;
    stats.virtual_latency_max_s = shard.virtual_latency_max_s;
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
    total.wall_latency_total_ms += s.wall_latency_total_ms;
    total.wall_latency_max_ms =
        std::max(total.wall_latency_max_ms, s.wall_latency_max_ms);
    total.virtual_latency_total_s += s.virtual_latency_total_s;
    total.virtual_latency_max_s =
        std::max(total.virtual_latency_max_s, s.virtual_latency_max_s);
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
