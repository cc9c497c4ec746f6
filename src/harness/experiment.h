// Experiment harness shared by the figure/table benches: trains everything a
// method needs from a cluster's training split, builds the policy, and runs
// the placement simulation on the test split.
//
// Methods (paper section 5.1 "Methods Compared"):
//   FirstFit, Heuristic, MLBaseline, AdaptiveHash, AdaptiveRanking,
//   OracleTCO, OracleTCIO — plus TrueCategory (Figure 11's perfect-model
//   variant of AdaptiveRanking), AdaptiveServed (AdaptiveRanking whose
//   hints flow through the online serving loop, serving/placement_service.h,
//   in deterministic mode: offline-batched vs online-served comparisons),
//   and AdaptiveServedLatency (the serving loop in virtual-time mode on the
//   simulator's SimClock: hints race decisions under a pluggable
//   LatencyModel, late hints degrade to the hash fallback, and an optional
//   StalenessSchedule replays the paper's section-6 retraining-cadence
//   dynamics).
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
// core::CategoryProvider chain (core/category_provider.h); MakeOptions can
// additionally wrap the chain in a seeded NoisyProvider for hint-noise
// sensitivity sweeps.
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
  // retrain event *installs* a freshly trained backend into the serving
  // registry (hot-swap) and resets the schedule's model age.
  double retrain_period = 0.0;
  // Hint-accuracy half-life while stale; 0 selects the factory default.
  double staleness_half_life = 0.0;

  // ---- model-backend selection (adaptive methods) ----
  // The cluster-default ModelBackend kind serving this cell: the paper's
  // GBDT, the cheap logistic regression, or the frequency table
  // (core/model_backend.h). AdaptiveRanking/AdaptiveServed/
  // AdaptiveServedLatency build their registries from this.
  core::BackendKind backend = core::BackendKind::kGbdt;
  // Per-pipeline overrides — the bring-your-own-model fleet: each listed
  // pipeline gets its own backend of the given kind, trained on that
  // pipeline's own history (falling back to the cluster history when the
  // pipeline's sample is too small to label).
  std::vector<std::pair<std::string, core::BackendKind>> pipeline_backends;
};

// Everything one simulation cell needs: the policy plus the virtual-time
// machinery behind it. make_sim_config passes clock/service/staleness into
// SimConfig so the engine drives hint delivery and retrains on the same
// timeline as the arrivals.
//
// Lifetime: a context built with retrain_period > 0 *borrows* its factory —
// the retrain hook trains replacement backends through it — so the factory
// must outlive the simulation, exactly as it must outlive the runner that
// holds it by pointer (run_method and ExperimentRunner both satisfy this).
struct PolicyContext {
  std::unique_ptr<policy::PlacementPolicy> policy;
  std::shared_ptr<SimClock> clock;
  std::shared_ptr<serving::PlacementService> hint_service;
  std::shared_ptr<core::StalenessSchedule> staleness;
  // The serving registry behind registry-backed cells (hot-swapped by
  // retrain events); null for methods that do not use one.
  std::shared_ptr<core::ShardedModelRegistry> registry;
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
  // Custom-backend ranking: open_window precomputes each window's hints
  // (through a window-sized FeatureMatrix) and swaps the table in here.
  std::shared_ptr<core::SwappableHintsProvider> window_hints;
  // Offline-served cells: each window's jobs enqueue here before replay.
  std::shared_ptr<serving::PlacementService> window_enqueue;
  // Registry behind window_hints' precompute (null when unused).
  std::shared_ptr<core::ShardedModelRegistry> registry;
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

  // Lazily trained cluster-default backend of one kind (kGbdt shares the
  // category model's forest). Cached per kind; thread-safe.
  core::ModelBackendPtr shared_backend(core::BackendKind kind) const;
  // Backend trained on one pipeline's own history (the per-workload BYOM
  // granularity); degrades to the cluster backend when the pipeline has
  // fewer than 32 training jobs. Cached per (kind, pipeline); thread-safe.
  core::ModelBackendPtr pipeline_backend(core::BackendKind kind,
                                         const std::string& pipeline) const;
  // The serving registry for one cell: cluster-default backend of
  // options.backend plus every options.pipeline_backends override. A fresh
  // registry per call (cells hot-swap independently), sharing the cached
  // trained backends.
  std::shared_ptr<core::ShardedModelRegistry> make_registry(
      const MakeOptions& options) const;

  // True when the cell's backend selection differs from the plain shared
  // GBDT, in which case the method routes through a registry provider (and
  // the ranking chain precomputes each window's hints through it). The
  // single source of truth for that routing decision.
  static bool uses_custom_backends(const MakeOptions& options);

  // Pre-trains whatever `id` needs (category model, lifetime baseline) so
  // parallel cells share finished artifacts instead of serializing on the
  // training lock mid-run.
  void warm(MethodId id) const;
  // Same, also covering the cell's backend selection.
  void warm(MethodId id, const MakeOptions& options) const;
  // Swap in an externally trained model (cross-cluster generalization
  // studies train on cluster A and deploy on cluster B).
  void set_category_model(core::CategoryModel model);

  const trace::Trace& train_trace() const { return train_; }
  const cost::CostModel& cost_model() const { return cost_model_; }
  const policy::AdaptiveConfig& adaptive_config() const {
    return adaptive_config_;
  }
  void set_adaptive_config(const policy::AdaptiveConfig& config) {
    adaptive_config_ = config;
  }

  // Precomputed test-trace categories (one CategoryModel::predict_batch /
  // true-label pass shared by every cell of a sweep). When set,
  // AdaptiveRanking / TrueCategory policies consult the table first and
  // only fall back to per-job inference for jobs outside it.
  void set_predicted_hints(std::shared_ptr<const policy::CategoryHints> hints);
  void set_true_hints(std::shared_ptr<const policy::CategoryHints> hints);

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
  // MLBaseline) or per-job hash/model inference.
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
  // The shared BackendConfig backends are trained with.
  core::BackendConfig backend_config() const;
  // This pipeline's slice of the training history (cached: retrain events
  // re-read it per event, and the scan/copy is O(trace)).
  std::shared_ptr<const std::vector<trace::Job>> pipeline_history(
      const std::string& pipeline) const;
  // The (cached) forest serving one pipeline: the pipeline's own trained
  // model when its history is large enough, else the cluster model.
  // "" selects the cluster model. Tracks set_category_model swaps.
  std::shared_ptr<const core::CategoryModel> gbdt_model_for(
      const std::string& pipeline) const;
  // The replacement backend a retrain event installs. Cheap kinds retrain
  // from scratch per event; the GBDT shares the deployed artifact (in this
  // closed-world replay the history is immutable, so a retrained forest is
  // bit-identical) under a fresh wrapper, keeping the swap observable.
  core::ModelBackendPtr retrained_backend(core::BackendKind kind,
                                          const std::string& pipeline) const;

  trace::Trace train_;
  cost::CostModel cost_model_;
  core::CategoryModelConfig model_config_;
  policy::AdaptiveConfig adaptive_config_;
  double default_staleness_half_life_ = 6.0 * 3600.0;
  std::shared_ptr<const policy::CategoryHints> predicted_hints_;
  std::shared_ptr<const policy::CategoryHints> true_hints_;
  mutable common::Mutex model_mutex_;
  mutable std::shared_ptr<const core::CategoryModel> model_
      BYOM_GUARDED_BY(model_mutex_);
  // Trained backends keyed by backend_kind_name + "\n" + pipeline ("" =
  // cluster default).
  mutable std::map<std::string, core::ModelBackendPtr> backend_cache_
      BYOM_GUARDED_BY(model_mutex_);
  // Per-pipeline trained forests (see gbdt_model_for).
  mutable std::map<std::string, std::shared_ptr<const core::CategoryModel>>
      gbdt_model_cache_ BYOM_GUARDED_BY(model_mutex_);
  // Per-pipeline training-history slices (see pipeline_history).
  mutable std::map<std::string,
                   std::shared_ptr<const std::vector<trace::Job>>>
      history_cache_ BYOM_GUARDED_BY(model_mutex_);
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
