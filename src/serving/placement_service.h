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
//                        |-> shard 0: striped queue -> Batcher -> predict
//                        |-> shard 1: striped queue -> Batcher -> predict
//                        `-> ...               (one worker set per shard)
//   provider()->category(job) <---- per-shard published hint table <---+
//
// Sharding (the million-RPS serving path): the service stands up
// `num_shards` fully independent serving lanes — each with its own
// lock-striped InferenceRequestQueue, Batcher, worker threads, results
// table, and counters — and routes every request to the shard selected by
// fnv1a(job.job_key) % num_shards. The same recurring (pipeline, step) pair
// always lands on the same shard (deterministic routing, warm per-shard
// state); requests for different job keys on different shards share *no*
// locks end to end. `num_shards == 0` wires one shard per hardware core
// (framework::resolve_shard_count). Aggregate counters are summed across
// shards with relaxed atomic reads; ServingStats stays the single external
// currency.
//
// Three execution modes (per shard):
//   * num_threads >= 1: worker threads (per shard) drive the batcher;
//     consumers wait up to `request_deadline` for an in-flight hint before
//     declining (a miss, counted — the consumer's fallback chain takes
//     over).
//   * num_threads == 0: deterministic single-thread mode. No threads, no
//     timing: provider lookups drain the job's shard synchronously, so
//     every request "meets its deadline" and results are bit-reproducible —
//     the mode simulation cells and tests use.
//   * num_threads == 0 with a sim::SimClock (virtual-time mode): timestamps
//     come from the injected clock and every request is charged
//     `latency_model->latency_seconds(job)` of virtual delay, so hints race
//     the placement decisions replayed by the event-driven simulator. A
//     consumer waits up to `virtual_request_deadline` virtual seconds for
//     its hint; a hint that cannot make that deadline is a miss (the
//     consumer degrades to its fallback, per Algorithm 1) and is delivered
//     later by a hint-ready event on the clock, counted `late`. With the
//     zero-latency model every hint is on time and results are bit-identical
//     to plain deterministic mode. Virtual-time mode requires num_shards ==
//     1: simulation cells stay on the single-lane, bit-reproducible path.
//
// Category values are produced by the same registry-grouped
// CategoryModel::predict_batch pass as the offline path
// (core::precompute_categories) — per-job hints are independent of batch
// composition — so served hints are bit-identical to offline-batched hints
// whenever every request completes in time, at any shard count.
//
// Backend resolution is epoch-published (core/model_registry.h): each batch
// loads an immutable snapshot through an atomic slot, so registry hot-swaps
// never take a lock on this read path.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/byom.h"
#include "core/category_provider.h"
#include "serving/batcher.h"
#include "serving/inference_queue.h"
#include "serving/latency_model.h"
#include "sim/hint_service.h"
#include "sim/sim_clock.h"

namespace byom::serving {

struct PlacementServiceConfig {
  // Independent serving lanes (queue + batcher + workers + results each),
  // routed by fnv1a(job_key). 0 = one shard per hardware core. Virtual-time
  // mode requires the resolved count to be 1.
  std::size_t num_shards = 1;
  // Lock stripes inside each shard's request queue (see
  // InferenceRequestQueue): producers on different stripes never contend.
  std::size_t queue_stripes = 1;
  // Request-queue bound *per shard* (split across its stripes).
  std::size_t queue_capacity = 4096;
  std::size_t max_batch = 64;
  // Batcher flush deadline: max hint latency added by batching under light
  // load (threaded mode only).
  std::chrono::milliseconds flush_deadline{2};
  // Consumer wait budget for an in-flight hint before declining (threaded
  // mode only; deterministic mode drains synchronously instead).
  std::chrono::milliseconds request_deadline{5};
  // Worker threads driving each shard's batcher (so the service runs
  // num_shards * num_threads workers in total). 0 selects the deterministic
  // single-thread mode described above.
  std::size_t num_threads = 1;
  // Jobs whose workload has no model in the registry are served the robust
  // hash fallback over this N (mirrors core::precompute_categories).
  int fallback_num_categories = 15;

  // ---- virtual-time mode (requires num_threads == 0, num_shards <= 1) ----
  // The shared virtual time source. Setting it switches the deterministic
  // mode to virtual time: enqueue timestamps, latencies, and deadlines are
  // all expressed in clock seconds.
  std::shared_ptr<sim::SimClock> clock;
  // Per-request serving delay (queueing + batching + inference). Null means
  // zero latency.
  LatencyModelPtr latency_model;
  // Consumer wait budget in virtual seconds: a hint ready within this much
  // of the lookup is consumed on time; anything slower is a miss and a late
  // delivery. The virtual analogue of `request_deadline`.
  double virtual_request_deadline = 0.0;
};

// Aggregate serving counters (all monotonic), summed across shards with
// relaxed atomic reads.
struct ServingStats {
  std::uint64_t enqueued = 0;   // requests accepted into the queues
  std::uint64_t dropped = 0;    // requests rejected (queue full / shut down)
  std::uint64_t completed = 0;  // hints published
  std::uint64_t hits = 0;       // provider lookups answered with a hint
  std::uint64_t misses = 0;     // provider lookups that declined (deadline
                                // missed or never requested) -> fallback
  // Virtual-time mode hint timeliness: a hint is `on_time` when its
  // consumer got it within the virtual deadline, `late` when it was
  // delivered by a clock event after its consumer had already fallen back.
  // When every request is consumed exactly once (the simulator's regime),
  // on_time + late + dropped accounts for every submitted request.
  std::uint64_t on_time = 0;
  std::uint64_t late = 0;
  std::uint64_t batches = 0;
  std::uint64_t size_flushes = 0;
  std::uint64_t deadline_flushes = 0;
  // Latency accounting is mode-tagged — the two modes measure different
  // clocks in different units and must never share a counter:
  //   * threaded / plain deterministic mode: wall-clock enqueue -> publish,
  //     milliseconds (the `wall_*` pair; `virtual_*` stays zero);
  //   * virtual-time mode: the latency model's virtual serving delay,
  //     seconds (the `virtual_*` pair; `wall_*` stays zero).
  double wall_latency_total_ms = 0.0;
  double wall_latency_max_ms = 0.0;
  double virtual_latency_total_s = 0.0;
  double virtual_latency_max_s = 0.0;

  double mean_wall_latency_ms() const {
    return completed > 0
               ? wall_latency_total_ms / static_cast<double>(completed)
               : 0.0;
  }
  double mean_virtual_latency_s() const {
    return completed > 0
               ? virtual_latency_total_s / static_cast<double>(completed)
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
  // resolves its backends (via epoch-published snapshots) at execution
  // time.
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

  // Non-blocking result lookup (no hit/miss accounting). Scans shards; a
  // job id is published by at most one.
  std::optional<int> lookup(std::uint64_t job_id) const;

  // Consumer-side lookup with the service's fallback semantics, routed
  // straight to the job's shard: waits up to `request_deadline` in threaded
  // mode, drains the shard synchronously in deterministic mode. Counts a
  // hit or a miss. This is the serving hot path — O(1) in the shard count.
  std::optional<int> wait_for(const trace::Job& job);

  // Id-only variant for consumers that no longer hold the job. Identical to
  // the routed overload at num_shards == 1; with more shards it must scan
  // (deterministic mode) or poll (threaded mode) the results tables, so
  // prefer wait_for(job) on hot paths.
  std::optional<int> wait_for(std::uint64_t job_id);

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
  bool virtual_time() const { return config_.clock != nullptr; }
  std::size_t num_shards() const { return shards_.size(); }
  // Deterministic fnv1a job-key routing (same key -> same shard, every run,
  // every process).
  std::size_t shard_of(std::string_view job_key) const;
  std::size_t pending_requests() const;
  const PlacementServiceConfig& config() const { return config_; }

 private:
  // A computed hint whose virtual ready time is still in the future.
  struct InFlightHint {
    int category = 0;
    double ready_time = 0.0;
    double virtual_latency = 0.0;
    // Consumer already declined this hint (deadline exceeded): deliver
    // counts it late.
    bool missed = false;
  };

  // One independent serving lane. Lives behind a unique_ptr so `this` stays
  // stable for the batcher callback and the worker threads.
  struct Shard {
    Shard(PlacementService* service, const PlacementServiceConfig& config);

    InferenceRequestQueue queue;
    Batcher batcher;

    mutable common::Mutex results_mutex;
    common::CondVar results_cv;
    core::CategoryHints results BYOM_GUARDED_BY(results_mutex);
    std::uint64_t completed BYOM_GUARDED_BY(results_mutex) = 0;
    double wall_latency_total_ms BYOM_GUARDED_BY(results_mutex) = 0.0;
    double wall_latency_max_ms BYOM_GUARDED_BY(results_mutex) = 0.0;
    double virtual_latency_total_s BYOM_GUARDED_BY(results_mutex) = 0.0;
    double virtual_latency_max_s BYOM_GUARDED_BY(results_mutex) = 0.0;

    std::atomic<std::uint64_t> enqueued{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> on_time{0};
    std::atomic<std::uint64_t> late{0};

    // Virtual-time mode state (single shard; guarded by results_mutex for
    // consistency with the results table).
    std::unordered_map<std::uint64_t, InFlightHint> in_flight
        BYOM_GUARDED_BY(results_mutex);

    // Written by the constructor before any worker runs and joined by
    // shutdown() under shutdown_mutex_; never touched by the workers
    // themselves.
    std::vector<std::thread> workers;
  };

  Shard& shard_for(const trace::Job& job) {
    return *shards_[shard_of(job.job_key)];
  }

  void execute_batch(Shard& shard, std::vector<InferenceRequest>&& batch);
  void publish_virtual(Shard& shard, std::uint64_t job_id, int category,
                       double virtual_latency);
  void deliver_virtual(std::uint64_t job_id);
  // Typed SimClock trampoline (virtual-time mode, shard 0): hint-ready
  // delivery, dispatched with zero allocation.
  static void on_hint_ready_event(void* ctx, std::uint64_t job_id, double);
  std::optional<int> wait_for_on(Shard& shard, std::uint64_t job_id);
  std::optional<int> wait_for_virtual(std::uint64_t job_id);
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
