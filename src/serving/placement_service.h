// PlacementService — the online serving loop of the paper's production
// design: jobs enqueue inference requests, a Batcher groups them, the
// workload's CategoryModel predicts whole batches, and Algorithm 1 consumes
// whatever hint is ready when the placement decision happens, falling back
// gracefully when it isn't (paper section 2.3 robustness, section 6
// dynamics; see also Hafeez et al. on decoupling storage management from
// pipeline execution).
//
//   submit path                 serving loop                decision path
//   -----------                 ------------                -------------
//   enqueue(job) ---> shard router (fnv1a job-key hash)
//                        |-> shard 0: queue -> Batcher -> predict
//                        |-> shard 1: queue -> Batcher -> predict
//                        `-> ...               (one worker set per shard)
//   provider()->category(job) <---- per-shard hint table <-------------+
//
// Sharding (the million-RPS serving path): the service stands up
// `num_shards` fully independent serving lanes — each with its own
// single-mutex InferenceRequestQueue, Batcher, worker threads, results
// table, and counters — and routes every request to the shard selected by
// fnv1a(job.job_key) % num_shards. The same recurring (pipeline, step) pair
// always lands on the same shard (deterministic routing, warm per-shard
// state); requests for different job keys on different shards share *no*
// locks end to end. `num_shards == 0` wires one shard per hardware core
// (framework::resolve_shard_count). Aggregate counters are summed across
// shards with relaxed atomic reads; ServingStats stays the single external
// currency.
//
// One clock per service, in seconds: every request is stamped with it on
// enqueue, `request_deadline` is measured on it, and ServingStats latencies
// are read from it. Which clock depends on the mode:
//   * num_threads >= 1 (threaded): the steady clock. Worker threads (per
//     shard) drive the batcher; consumers wait up to `request_deadline` for
//     a hint still being computed before declining (a miss, counted — the
//     consumer's fallback chain takes over).
//   * num_threads == 0 (inline, virtual time): the injected sim::SimClock,
//     or 0 without one. No threads: a lookup drains the job's shard on the
//     calling thread, and every request is charged
//     `latency_model->latency_seconds(job)` of virtual delay, so its hint
//     carries a ready time (enqueue time + delay). A consumer waits up to
//     `request_deadline` virtual seconds for its hint: a hint ready by then
//     is consumed on time; one that is not is a miss (the consumer degrades
//     to its fallback, per Algorithm 1) and is counted `late` right then.
//     The service only reads the clock — it schedules no events. Without a
//     clock, time stands at 0 and every hint is ready when looked up, so
//     results are bit-reproducible — the mode simulation cells and tests
//     use. A clock (and so any latency model) requires num_shards == 1:
//     simulation cells stay on the single-lane path.
//
// Category values are produced by the same registry-grouped pass as the
// offline path (core::predict_categories, which core::precompute_categories
// wraps) — per-job hints are independent of batch composition — so served
// hints are bit-identical to offline-batched hints whenever every request
// completes in time, at any shard count.
//
// Backend resolution goes through the registry (core/model_registry.h):
// each batch calls ModelRegistry::lookup, which takes its one mutex, per
// job, so a hot-swap is seen by the next batch.
//
// The inline lane allocates nothing per job in steady state:
//   * the shard queue is a ring of recycled request slots: enqueue
//     copy-assigns the job into a free slot (reusing its string capacity)
//     and the batcher's pops swap slots into a RequestBatch it reuses
//     (serving/inference_queue.h);
//   * a batch is predicted through job pointers and stack scratch into a
//     span (core::predict_categories, ModelBackend::predict_into);
//   * each shard keeps one flat open-addressing hint table
//     (serving/hint_table.h) of {category, ready time}, and a lookup
//     removes the hint whether it was on time or late, so the table holds
//     only hints no consumer has consumed or missed yet. A request for a
//     job whose hint is still in the table changes nothing; once its hint
//     left, a new request for the job is served afresh.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/byom.h"
#include "core/category_provider.h"
#include "common/span.h"
#include "serving/batcher.h"
#include "serving/hint_table.h"
#include "serving/inference_queue.h"
#include "serving/latency_model.h"
#include "sim/hint_service.h"
#include "sim/sim_clock.h"

namespace byom::serving {

struct PlacementServiceConfig {
  // Independent serving lanes (queue + batcher + workers + results each),
  // routed by fnv1a(job_key). 0 = one shard per hardware core. A clock
  // requires the resolved count to be 1.
  std::size_t num_shards = 1;
  // Request-queue bound *per shard*.
  std::size_t queue_capacity = 4096;
  std::size_t max_batch = 64;
  // Batcher flush deadline: max hint latency added by batching under light
  // load (threaded mode only).
  std::chrono::milliseconds flush_deadline{2};
  // Consumer wait budget for a hint before declining, in seconds of the
  // service clock (>= 0): a hint ready within this much of the lookup is
  // consumed on time; anything slower is a miss (inline: counted late).
  double request_deadline = 0.005;
  // Worker threads driving each shard's batcher (so the service runs
  // num_shards * num_threads workers in total). 0 selects the inline
  // virtual-time mode described above.
  std::size_t num_threads = 1;
  // Jobs whose workload has no model in the registry are served the robust
  // hash fallback over this N (mirrors core::precompute_categories).
  int fallback_num_categories = 15;

  // ---- inline mode (num_threads == 0) ----
  // The service clock (requires num_shards == 1). Null means time stands
  // at 0.
  std::shared_ptr<sim::SimClock> clock;
  // Per-request serving delay (queueing + batching + inference). Null means
  // zero latency; non-null requires a clock, against whose time a hint's
  // ready time is judged.
  LatencyModelPtr latency_model;
};

// Aggregate serving counters (all monotonic), summed across shards with
// relaxed atomic reads.
struct ServingStats {
  std::uint64_t enqueued = 0;   // requests accepted into the queues
  std::uint64_t dropped = 0;    // requests rejected (queue full / shut down)
  std::uint64_t completed = 0;  // hints computed (entered a shard table)
  std::uint64_t hits = 0;       // provider lookups answered with a hint
  std::uint64_t misses = 0;     // provider lookups that declined (deadline
                                // missed or never requested) -> fallback
  // Inline-mode hint timeliness, counted at the lookup: a hint is `on_time`
  // when it is ready within `request_deadline` of its consumer's lookup,
  // `late` when it is not (the consumer falls back). When every request is
  // looked up exactly once (the simulator's regime), on_time + late +
  // dropped accounts for every submitted request.
  std::uint64_t on_time = 0;
  std::uint64_t late = 0;
  std::uint64_t batches = 0;
  std::uint64_t size_flushes = 0;
  std::uint64_t deadline_flushes = 0;
  // Enqueue -> ready latency of the computed hints, in seconds of the
  // service clock: measured steady-clock time in threaded mode, the latency
  // model's virtual delay inline (zero without a model).
  double latency_total_s = 0.0;
  double latency_max_s = 0.0;

  double mean_latency_s() const {
    return completed > 0 ? latency_total_s / static_cast<double>(completed)
                         : 0.0;
  }
};

// Implements sim::HintService so the event engine can submit requests and
// fold timeliness counters without naming any serving type (the layer
// contract puts serving above sim; see sim/hint_service.h).
class PlacementService : public sim::HintService {
 public:
  // The registry maps each job to its workload's ModelBackend
  // (core/model_registry.h). Hot-swaps are honored mid-run: each batch
  // resolves its backends at execution time, one ModelRegistry::lookup
  // per job.
  explicit PlacementService(
      std::shared_ptr<const core::ModelRegistry> registry,
      const PlacementServiceConfig& config = {});
  ~PlacementService() override;

  PlacementService(const PlacementService&) = delete;
  PlacementService& operator=(const PlacementService&) = delete;

  // Requests a category hint for `job`, routed to its job-key shard.
  // Non-blocking: false means the request was dropped (shard queue full or
  // service shut down) and the consumer will fall back at decision time.
  bool enqueue(const trace::Job& job) override;
  // Convenience for replay-style consumers that know the upcoming jobs.
  // Returns the number of requests accepted.
  std::size_t enqueue_all(const std::vector<trace::Job>& jobs);

  // Consumer-side lookup with the service's fallback semantics, routed
  // straight to the job's shard: waits up to `request_deadline` for the
  // hint (inline mode drains the shard on this thread first, and waits in
  // virtual time). Counts a hit or a miss. The hint leaves the shard's
  // table either way, so a second wait_for() for the same job misses
  // unless the job was requested again.
  // This is the serving hot path — O(1) in the shard count.
  std::optional<int> wait_for(const trace::Job& job);

  // Stops accepting requests, wakes every idle worker on every shard, and
  // joins them. The drain order is part of the contract: requests accepted
  // before shutdown are executed by the exiting workers of their shard, so
  // when shutdown() returns in threaded mode every shard queue is empty
  // (asserted) and no worker thread is left behind — all shards drain, not
  // just shard 0. An idle worker blocks on its queue's condition variable
  // (no polling), so shutdown with empty queues returns promptly.
  // Idempotent and thread-safe; also called by the destructor.
  void shutdown();

  // Aggregated across shards (relaxed atomic counter reads + per-shard
  // result-lock reads); safe to call concurrently with serving.
  ServingStats stats() const;
  // One shard's counters — tests use this to assert routing and balance.
  ServingStats shard_stats(std::size_t shard_index) const;
  // The sim-layer slice of stats(): hint-timeliness counters the event
  // engine folds into SimResult (sim/hint_service.h).
  sim::HintTimeliness hint_timeliness() const override;

  bool deterministic() const { return config_.num_threads == 0; }
  std::size_t num_shards() const { return shards_.size(); }
  // Deterministic fnv1a job-key routing (same key -> same shard, every run,
  // every process).
  std::size_t shard_of(std::string_view job_key) const;
  std::size_t pending_requests() const;
  const PlacementServiceConfig& config() const { return config_; }

 private:
  // A computed hint and the service-clock time it is ready at: enqueue
  // time + latency (threaded, the measured latency, so its publish time).
  struct Hint {
    int category = 0;
    double ready_time = 0.0;
  };

  // One independent serving lane. Lives behind a unique_ptr so `this` stays
  // stable for the batcher callback and the worker threads.
  struct Shard {
    Shard(PlacementService* service, const PlacementServiceConfig& config);

    // Enters a hint into the table and counts it completed with its
    // enqueue -> ready latency. A hint already in the table for the job
    // wins: a duplicate request changes nothing.
    void publish(std::uint64_t job_id, const Hint& hint, double latency)
        BYOM_REQUIRES(results_mutex);

    InferenceRequestQueue queue;
    Batcher batcher;

    mutable common::Mutex results_mutex;
    common::CondVar results_cv;
    // Computed hints no consumer has consumed or missed yet.
    HintTable<Hint> results BYOM_GUARDED_BY(results_mutex);
    std::uint64_t completed BYOM_GUARDED_BY(results_mutex) = 0;
    double latency_total_s BYOM_GUARDED_BY(results_mutex) = 0.0;
    double latency_max_s BYOM_GUARDED_BY(results_mutex) = 0.0;

    std::atomic<std::uint64_t> enqueued{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> on_time{0};
    std::atomic<std::uint64_t> late{0};

    // Written by the constructor before any worker runs and joined by
    // shutdown() under shutdown_mutex_; never touched by the workers
    // themselves.
    std::vector<std::thread> workers;
  };

  Shard& shard_for(const trace::Job& job) {
    return *shards_[shard_of(job.job_key)];
  }

  void execute_batch(Shard& shard,
                     common::Span<const InferenceRequest> batch);
  // Publishes the predicted categories of `requests` with their ready
  // times; categories[i] is requests[i]'s.
  void publish_chunk(Shard& shard,
                     common::Span<const InferenceRequest> requests,
                     const int* categories);
  // The service clock, in seconds: the steady clock when threaded; the
  // SimClock's time, or 0 without a clock, when inline.
  double now() const;
  std::optional<int> wait_for_threaded(Shard& shard, std::uint64_t job_id);
  std::optional<int> wait_for_inline(Shard& shard, std::uint64_t job_id);
  void worker_loop(Shard& shard);

  const PlacementServiceConfig config_;  // num_shards resolved (>= 1)
  std::shared_ptr<const core::ModelRegistry> registry_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Serializes concurrent shutdown() calls (guards the join protocol, not
  // data: worker joins must not race each other).
  // lint:allow(guarded-mutex) protocol-only, no guarded members
  common::Mutex shutdown_mutex_;
};

// Async CategoryProvider over a service: category() = wait_for(job), routed
// to the job's shard. Declines on a miss, so compose it with a sync
// fallback via core::make_fallback_chain. Holds a shared_ptr, keeping the
// service alive for as long as any consumer does.
core::CategoryProviderPtr make_served_provider(
    std::shared_ptr<PlacementService> service);

}  // namespace byom::serving
