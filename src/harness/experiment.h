// Experiment harness shared by the figure/table benches: trains everything a
// method needs from a cluster's training split, builds the policy, and runs
// the placement simulation on the test split.
//
// Methods (paper section 5.1 "Methods Compared"):
//   FirstFit, Heuristic, MLBaseline, AdaptiveHash, AdaptiveRanking,
//   OracleTCO, OracleTCIO — plus TrueCategory (Figure 11's perfect-model
//   variant of AdaptiveRanking), AdaptiveServed (AdaptiveRanking whose
//   hints flow through the online serving loop, serving/placement_service.h,
//   inline without a clock, so every hint is ready when looked up:
//   offline-batched vs online-served comparisons), and
//   AdaptiveServedLatency (the same inline loop on the simulator's
//   SimClock: hints race decisions under a pluggable LatencyModel, late
//   hints degrade to the hash fallback, and an optional StalenessSchedule
//   replays the paper's section-6 retraining-cadence dynamics).
//
// One builder: MethodFactory::make_streaming_cell is the only place a
// cell's policy and provider chain are built. make_context is the
// whole-trace adapter over it (one window spanning the test trace) and
// additionally solves the clairvoyant oracles; make_sim_config is the one
// place a SimConfig is filled from the resulting PolicyContext. run_method,
// ExperimentRunner and run_method_streaming (harness/streaming.h) all go
// through these.
//
// All adaptive methods construct their category source as a
// core::CategoryProvider chain (core/category_provider.h). Every
// model-predicted category comes from the cell's core::ModelRegistry
// (make_registry) through core::predict_categories: AdaptiveRanking
// precomputes each window through it, the served methods batch through it
// in the PlacementService. TrueCategory reads the labeler per job, and
// AdaptiveHash hashes. MakeOptions can additionally wrap the chain in a
// seeded NoisyProvider for hint-noise sensitivity sweeps.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/byom.h"
#include "core/category_model.h"
#include "core/category_provider.h"
#include "core/model_backend.h"
#include "core/model_registry.h"
#include "core/staleness.h"
#include "cost/cost_model.h"
#include "policy/adaptive.h"
#include "policy/lifetime_ml.h"
#include "policy/policy.h"
#include "serving/placement_service.h"
#include "sim/sim_clock.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/job_stream.h"
#include "trace/trace.h"

namespace byom::sim {

enum class MethodId {
  kFirstFit,
  kHeuristic,
  kMlBaseline,
  kAdaptiveHash,
  kAdaptiveRanking,
  kOracleTco,
  kOracleTcio,
  kTrueCategory,
  kAdaptiveServed,
  kAdaptiveServedLatency,
};

const char* method_name(MethodId id);

// Capacity for a quota expressed as a fraction of the test trace's peak
// concurrent usage (paper: "SSD Quota: Portion of the Peak SSD Usage").
std::uint64_t quota_capacity(const trace::Trace& test, double quota_fraction);
// Same, over a precomputed peak (the parallel runner caches the peak per
// cluster; both paths share this arithmetic so they stay bit-identical).
std::uint64_t quota_capacity(std::uint64_t peak_bytes, double quota_fraction);

// Per-policy construction knobs (sweeps build many policies from one
// factory without mutating shared state).
struct MakeOptions {
  // Algorithm-1 hyperparameter override; unset uses the factory's config.
  std::optional<policy::AdaptiveConfig> adaptive;
  // Fraction of category hints flipped by a seeded NoisyProvider wrapped
  // around the method's provider chain (adaptive methods only). 0 disables.
  double hint_noise = 0.0;
  // Seed for the noise decorator; ExperimentRunner cells pass their
  // deterministic per-cell seed here. Also seeds the latency and staleness
  // draws of AdaptiveServedLatency cells.
  std::uint64_t noise_seed = 0;

  // ---- AdaptiveServedLatency knobs (ignored by other methods) ----
  // Mean serving latency in virtual seconds (exponentially distributed per
  // request; 0 = instant hints, bit-identical to AdaptiveServed).
  double hint_latency = 0.0;
  // Consumer wait budget in virtual seconds: hints slower than this miss
  // their decision and the policy degrades to the hash category.
  double hint_deadline = 1.0;
  // Model retraining cadence in virtual seconds; 0 disables staleness
  // entirely, > 0 attaches a StalenessSchedule that decays hint accuracy
  // toward the AdaptiveHash floor between retrains (paper section 6). Each
  // retrain event reinstalls the deployed backends into the serving
  // registry (hot-swap) and resets the schedule's model age.
  double retrain_period = 0.0;
  // Hint-accuracy half-life while stale; 0 selects the factory default.
  double staleness_half_life = 0.0;

  // ---- model-backend selection (adaptive methods) ----
  // The cluster-default ModelBackend kind serving this cell: the paper's
  // GBDT (sharing the factory's category model), the cheap logistic
  // regression, or the frequency table (core/model_backend.h). Every
  // AdaptiveRanking/AdaptiveServed/AdaptiveServedLatency cell predicts
  // through a registry built from this.
  core::BackendKind backend = core::BackendKind::kGbdt;
  // Per-pipeline overrides — the bring-your-own-model fleet: each listed
  // pipeline gets its own backend of the given kind, trained on that
  // pipeline's own history (falling back to the cluster history when the
  // pipeline's sample is too small to label).
  std::vector<std::pair<std::string, core::BackendKind>> pipeline_backends;
};

// Everything one simulation cell needs: the policy plus the virtual-time
// machinery behind it. make_sim_config passes clock/service/staleness into
// SimConfig so the engine submits hint requests and drives retrains on the
// same timeline as the arrivals.
struct PolicyContext {
  std::unique_ptr<policy::PlacementPolicy> policy;
  std::shared_ptr<SimClock> clock;
  std::shared_ptr<serving::PlacementService> hint_service;
  std::shared_ptr<core::StalenessSchedule> staleness;
  // The serving registry behind registry-backed cells (hot-swapped by
  // retrain events); null for methods that do not use one.
  std::shared_ptr<core::ModelRegistry> registry;
};

// A simulation cell: the policy context plus the window hooks a driver fires
// over each window of jobs before replaying it — per chunk in the streaming
// driver (harness/streaming.h), once over the whole test trace in
// make_context. Built from a TraceSummary pre-pass instead of a
// materialized test trace.
struct StreamingCell {
  PolicyContext context;
  // Clairvoyant methods (the oracles) cannot stream — their solve reads
  // the whole test trace by definition. The driver materializes the stream
  // and builds make_context instead; everything else stays O(window).
  bool needs_materialized = false;
  // Ranking cells: open_window precomputes each window's hints through
  // the cell's registry (and a window-sized FeatureMatrix) and swaps the
  // table in here.
  std::shared_ptr<core::SwappableHintsProvider> window_hints;
  // Offline-served cells: each window's jobs enqueue here before replay.
  std::shared_ptr<serving::PlacementService> window_enqueue;
  // Registry behind window_hints' precompute (null when unused).
  std::shared_ptr<core::ModelRegistry> registry;
  int num_categories = 0;  // precompute width for window_hints

  // Fires the window hooks for the next window of jobs (arrival order)
  // before any of them replays. No-op for cells without hooks. Per-job
  // results do not depend on how the jobs are split into windows
  // (precompute_categories' batch-composition independence).
  void open_window(const std::vector<trace::Job>& jobs) const;
};

// Trains/caches per-cluster artifacts and manufactures policies.
class MethodFactory {
 public:
  MethodFactory(trace::Trace train, cost::Rates rates = {},
                core::CategoryModelConfig model_config = {},
                policy::AdaptiveConfig adaptive_config = {});

  // The ready-to-run context for replaying `test`: the clairvoyant oracles
  // solve over the whole trace; every other method is make_streaming_cell
  // with the whole trace as its one window, hooks already fired. Fields the
  // method does not use are null.
  PolicyContext make_context(MethodId id, const trace::Trace& test,
                             std::uint64_t ssd_capacity_bytes,
                             const MakeOptions& options) const;
  // Builds the cell from a TraceSummary pre-pass, never touching a
  // materialized test trace; the only place a cell's provider chain is
  // built. Serving-backed methods size their queues from `chunk_jobs` and
  // extract features per job. Oracles come back with needs_materialized
  // set and no policy.
  StreamingCell make_streaming_cell(MethodId id,
                                    const trace::TraceSummary& summary,
                                    std::size_t chunk_jobs,
                                    std::uint64_t ssd_capacity_bytes,
                                    const MakeOptions& options) const;

  // Lazily trained category model (shared across makes; thread-safe, so
  // parallel experiment cells can share one factory).
  const core::CategoryModel& category_model() const;
  // Same model as a shared handle: policies the factory builds hold this
  // pointer instead of copying the forest per cell.
  std::shared_ptr<const core::CategoryModel> shared_category_model() const;

  // The lazily trained backend of `kind` serving `pipeline`: "" is the
  // cluster default (kGbdt shares the category model's forest); a named
  // pipeline gets one trained on its own history (the per-workload BYOM
  // granularity), or the cluster default when it has fewer than 32
  // training jobs. Cached per (kind, pipeline); thread-safe.
  core::ModelBackendPtr backend(core::BackendKind kind,
                                const std::string& pipeline) const;
  // The serving registry for one cell: cluster-default backend of
  // options.backend plus every options.pipeline_backends override. A fresh
  // registry per call (cells hot-swap independently), sharing the cached
  // trained backends.
  std::shared_ptr<core::ModelRegistry> make_registry(
      const MakeOptions& options) const;

  // Pre-trains whatever `id` needs (category model, lifetime baseline, the
  // cell's backend selection) so parallel cells share finished artifacts
  // instead of serializing on the training lock mid-run.
  void warm(MethodId id, const MakeOptions& options = {}) const;

  const trace::Trace& train_trace() const { return train_; }
  const cost::CostModel& cost_model() const { return cost_model_; }
  const policy::AdaptiveConfig& adaptive_config() const {
    return adaptive_config_;
  }

  // Default hint-accuracy half-life for staleness schedules built from
  // MakeOptions with staleness_half_life == 0 (seconds).
  double default_staleness_half_life() const {
    return default_staleness_half_life_;
  }
  void set_default_staleness_half_life(double seconds) {
    default_staleness_half_life_ = seconds;
  }

 private:
  // The policy of a method that reads nothing about the test trace at
  // build time and has no window hooks: train-only artifacts (Heuristic,
  // MLBaseline) or a per-job hash or ground-truth label.
  std::unique_ptr<policy::PlacementPolicy> make_trace_free_policy(
      MethodId id, std::uint64_t ssd_capacity_bytes,
      const policy::AdaptiveConfig& adaptive,
      const MakeOptions& options) const;
  // The virtual-time serving pipeline + optional staleness schedule of one
  // kAdaptiveServedLatency cell; retrain windows start at `epoch_start`.
  PolicyContext served_latency_context(double epoch_start,
                                       std::size_t queue_capacity,
                                       const policy::AdaptiveConfig& adaptive,
                                       const MakeOptions& options) const;

  trace::Trace train_;
  cost::CostModel cost_model_;
  core::CategoryModelConfig model_config_;
  policy::AdaptiveConfig adaptive_config_;
  double default_staleness_half_life_ = 6.0 * 3600.0;
  mutable common::Mutex model_mutex_;
  mutable std::shared_ptr<const core::CategoryModel> model_
      BYOM_GUARDED_BY(model_mutex_);
  // Trained backends keyed by backend_kind_name + "\n" + pipeline ("" =
  // cluster default).
  mutable std::map<std::string, core::ModelBackendPtr> backend_cache_
      BYOM_GUARDED_BY(model_mutex_);
  // Trained-once prototype; each cell gets a cheap copy (the policy is
  // stateless after construction but each simulation owns its instance).
  mutable std::shared_ptr<const policy::LifetimeMlPolicy> ml_baseline_
      BYOM_GUARDED_BY(model_mutex_);
};

// The SimConfig that replays `context` under the quota: capacity, the
// factory's cost rates, and the cell's virtual-time wiring (clock, hint
// service, staleness schedule). The one place a SimConfig is filled from a
// PolicyContext; callers add run-level knobs (outcomes, counters, leads).
SimConfig make_sim_config(const MethodFactory& factory,
                          const PolicyContext& context,
                          std::uint64_t ssd_capacity_bytes);

// Convenience: make_context for `id`, then simulate `test` under the quota
// with make_sim_config's wiring, and return the result.
SimResult run_method(const MethodFactory& factory, MethodId id,
                     const trace::Trace& test,
                     std::uint64_t ssd_capacity_bytes,
                     const MakeOptions& options = {},
                     bool record_outcomes = false);

}  // namespace byom::sim
