#include "harness/experiment.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "features/feature_matrix.h"
#include "oracle/greedy_oracle.h"
#include "policy/cachesack.h"
#include "policy/first_fit.h"
#include "policy/lifetime_ml.h"
#include "policy/oracle_replay.h"
#include "serving/placement_service.h"

namespace byom::sim {

const char* method_name(MethodId id) {
  switch (id) {
    case MethodId::kFirstFit: return "FirstFit";
    case MethodId::kHeuristic: return "Heuristic";
    case MethodId::kMlBaseline: return "MLBaseline";
    case MethodId::kAdaptiveHash: return "AdaptiveHash";
    case MethodId::kAdaptiveRanking: return "AdaptiveRanking";
    case MethodId::kOracleTco: return "OracleTCO";
    case MethodId::kOracleTcio: return "OracleTCIO";
    case MethodId::kTrueCategory: return "TrueCategory";
    case MethodId::kAdaptiveServed: return "AdaptiveServed";
    case MethodId::kAdaptiveServedLatency: return "AdaptiveServedLatency";
  }
  return "Unknown";
}

std::uint64_t quota_capacity(const trace::Trace& test, double quota_fraction) {
  return quota_capacity(test.peak_concurrent_bytes(), quota_fraction);
}

std::uint64_t quota_capacity(std::uint64_t peak_bytes, double quota_fraction) {
  return static_cast<std::uint64_t>(static_cast<double>(peak_bytes) *
                                    quota_fraction);
}

MethodFactory::MethodFactory(trace::Trace train, cost::Rates rates,
                             core::CategoryModelConfig model_config,
                             policy::AdaptiveConfig adaptive_config)
    : train_(std::move(train)),
      cost_model_(rates),
      model_config_(model_config),
      adaptive_config_(adaptive_config) {
  adaptive_config_.num_categories = model_config_.num_categories;
}

const core::CategoryModel& MethodFactory::category_model() const {
  return *shared_category_model();
}

std::shared_ptr<const core::CategoryModel>
MethodFactory::shared_category_model() const {
  common::MutexLock lock(model_mutex_);
  if (!model_) {
    model_ = std::make_shared<const core::CategoryModel>(
        core::CategoryModel::train(train_.jobs(), model_config_));
  }
  return model_;
}

void MethodFactory::warm(MethodId id, const MakeOptions& options) const {
  switch (id) {
    case MethodId::kAdaptiveRanking:
    case MethodId::kAdaptiveServed:
    case MethodId::kAdaptiveServedLatency:
      // The cell's backend selection; with the default selection this is
      // the shared GBDT over the category model.
      backend(options.backend, "");
      for (const auto& [pipeline, kind] : options.pipeline_backends) {
        backend(kind, pipeline);
      }
      break;
    case MethodId::kTrueCategory:
      shared_category_model();
      break;
    case MethodId::kMlBaseline: {
      common::MutexLock lock(model_mutex_);
      if (!ml_baseline_) {
        ml_baseline_ =
            std::make_shared<const policy::LifetimeMlPolicy>(train_.jobs());
      }
      break;
    }
    default:
      break;
  }
}

core::ModelBackendPtr MethodFactory::backend(
    core::BackendKind kind, const std::string& pipeline) const {
  const std::string key =
      std::string(backend_kind_name(kind)) + "\n" + pipeline;
  {
    common::MutexLock lock(model_mutex_);
    const auto it = backend_cache_.find(key);
    if (it != backend_cache_.end()) return it->second;
  }
  core::BackendConfig config;
  config.model = model_config_;
  core::ModelBackendPtr trained;
  if (pipeline.empty()) {
    trained = kind == core::BackendKind::kGbdt
                  ? core::make_gbdt_backend(shared_category_model())
                  : core::train_backend(kind, train_.jobs(), config);
  } else {
    std::vector<trace::Job> history;
    for (const auto& job : train_.jobs()) {
      if (job.pipeline_name == pipeline) history.push_back(job);
    }
    // Too few runs to fit a labeler worth trusting: deploy the cluster
    // default of this kind for this workload instead.
    trained = history.size() < 32 ? backend(kind, "")
                                  : core::train_backend(kind, history, config);
  }
  common::MutexLock lock(model_mutex_);
  // First insert wins if two cells raced on the same training; artifacts
  // are deterministic in (kind, history), so either instance is correct.
  return backend_cache_.emplace(key, std::move(trained)).first->second;
}

std::shared_ptr<core::ModelRegistry> MethodFactory::make_registry(
    const MakeOptions& options) const {
  auto registry = std::make_shared<core::ModelRegistry>();
  registry->set_default_model(backend(options.backend, ""));
  for (const auto& [pipeline, kind] : options.pipeline_backends) {
    registry->register_model(pipeline, backend(kind, pipeline));
  }
  return registry;
}

void StreamingCell::open_window(const std::vector<trace::Job>& jobs) const {
  if (jobs.empty()) return;
  if (window_hints) {
    // One registry-grouped batched pass over the window, reading a
    // window-sized feature matrix; the sync registry provider behind the
    // table answers any job outside it.
    const features::FeatureMatrix matrix(features::FeatureExtractor{}, jobs);
    window_hints->set_hints(std::make_shared<const core::CategoryHints>(
        core::precompute_categories(*registry, jobs, num_categories,
                                    &matrix)));
  }
  if (window_enqueue) {
    // This window's requests enter the serving queue before its replay.
    for (const trace::Job& job : jobs) window_enqueue->enqueue(job);
  }
}

namespace {

// Wraps `provider` in the cell's seeded noise decorator (if any) and builds
// Algorithm 1 over it.
std::unique_ptr<policy::PlacementPolicy> adaptive_policy(
    MethodId id, core::CategoryProviderPtr provider,
    const policy::AdaptiveConfig& adaptive, const MakeOptions& options) {
  if (options.hint_noise > 0.0) {
    provider = core::make_noisy_provider(std::move(provider),
                                         options.hint_noise,
                                         options.noise_seed,
                                         adaptive.num_categories);
  }
  return std::make_unique<policy::AdaptiveCategoryPolicy>(
      method_name(id), std::move(provider), adaptive);
}

}  // namespace

std::unique_ptr<policy::PlacementPolicy> MethodFactory::make_trace_free_policy(
    MethodId id, std::uint64_t ssd_capacity_bytes,
    const policy::AdaptiveConfig& adaptive, const MakeOptions& options) const {
  core::CategoryProviderPtr provider;
  switch (id) {
    case MethodId::kFirstFit:
      return std::make_unique<policy::FirstFitPolicy>();
    case MethodId::kHeuristic:
      return std::make_unique<policy::CacheSackPolicy>(train_.jobs(),
                                                       ssd_capacity_bytes);
    case MethodId::kMlBaseline:
      // Copy the trained-once prototype: two GBDT regressors per sweep
      // instead of two per cell.
      warm(MethodId::kMlBaseline);
      return std::make_unique<policy::LifetimeMlPolicy>(*ml_baseline_);
    case MethodId::kAdaptiveHash:
      provider = core::make_hash_provider(adaptive.num_categories);
      break;
    case MethodId::kTrueCategory:
      // The labeler's ground truth per job (one bucket search). Sharing the
      // trained model keeps the policy valid independently of this
      // factory's lifetime, without copying the forest per cell.
      provider = core::make_function_provider(
          "true", [model = shared_category_model()](const trace::Job& job) {
            return std::optional<int>(model->true_category(job));
          });
      break;
    default:
      throw std::invalid_argument(
          "MethodFactory::make_trace_free_policy: method reads the test "
          "trace or has window hooks");
  }
  return adaptive_policy(id, std::move(provider), adaptive, options);
}

PolicyContext MethodFactory::served_latency_context(
    double epoch_start, std::size_t queue_capacity,
    const policy::AdaptiveConfig& adaptive, const MakeOptions& options) const {
  PolicyContext context;
  context.clock = std::make_shared<SimClock>();

  // The serving registry: cluster-default backend of the cell's kind plus
  // per-pipeline overrides. Kept on the context so retrain events (and
  // tests) can hot-swap it while the service reads from it.
  context.registry = make_registry(options);

  serving::PlacementServiceConfig config;
  config.num_threads = 0;  // inline mode, timed by the cell's clock
  config.queue_capacity = queue_capacity;
  config.max_batch = 256;
  config.fallback_num_categories = adaptive.num_categories;
  config.clock = context.clock;
  config.latency_model =
      options.hint_latency > 0.0
          ? serving::make_exponential_latency_model(
                options.hint_latency,
                options.noise_seed ^ 0xA5A5A5A55A5A5A5AULL)
          : serving::make_zero_latency_model();
  config.request_deadline = options.hint_deadline;
  context.hint_service = std::make_shared<serving::PlacementService>(
      context.registry, config);
  // NOTE: no window hook — the event engine submits each request at its
  // job's arrival event, which is what makes hints race decisions.

  // Late or dropped hints decline, and AdaptiveCategoryPolicy degrades
  // those decisions to its hash fallback — exactly Algorithm 1's graceful
  // degradation; there is deliberately no synchronous model backstop.
  core::CategoryProviderPtr provider =
      serving::make_served_provider(context.hint_service);

  if (options.retrain_period > 0.0) {
    core::StalenessConfig staleness;
    staleness.epoch_start = epoch_start;
    staleness.retrain_period = options.retrain_period;
    staleness.half_life = options.staleness_half_life > 0.0
                              ? options.staleness_half_life
                              : default_staleness_half_life_;
    staleness.seed = options.noise_seed ^ 0x3C3C3C3CC3C3C3C3ULL;
    staleness.num_categories = adaptive.num_categories;
    context.staleness = std::make_shared<core::StalenessSchedule>(staleness);
    // Closed-world replay: the history is immutable, so a model retrained
    // at the event instant is bit-identical to the deployed one. Each
    // event reinstalls the deployed backends (default + every per-pipeline
    // override) into the serving registry, *then* the schedule's model age
    // resets. A live deployment would train on current data here.
    std::vector<std::pair<std::string, core::ModelBackendPtr>> overrides;
    for (const auto& [pipeline, kind] : options.pipeline_backends) {
      overrides.emplace_back(pipeline, backend(kind, pipeline));
    }
    context.staleness->set_retrain_hook(
        [registry = context.registry,
         deployed = backend(options.backend, ""),
         overrides = std::move(overrides)](double) {
          registry->set_default_model(deployed);
          for (const auto& [pipeline, model] : overrides) {
            registry->register_model(pipeline, model);
          }
        });
    provider = core::make_stale_provider(
        std::move(provider), context.staleness,
        [clock = context.clock] { return clock->now(); });
  }

  context.policy = adaptive_policy(MethodId::kAdaptiveServedLatency,
                                   std::move(provider), adaptive, options);
  return context;
}

StreamingCell MethodFactory::make_streaming_cell(
    MethodId id, const trace::TraceSummary& summary, std::size_t chunk_jobs,
    std::uint64_t ssd_capacity_bytes, const MakeOptions& options) const {
  const policy::AdaptiveConfig& adaptive =
      options.adaptive.has_value() ? *options.adaptive : adaptive_config_;
  const std::size_t queue_capacity =
      std::max<std::size_t>(1024, 2 * chunk_jobs);
  StreamingCell cell;
  switch (id) {
    case MethodId::kOracleTco:
    case MethodId::kOracleTcio:
      // Clairvoyant by definition: the greedy solve ranks the whole test
      // trace. The driver materializes and runs make_context instead.
      cell.needs_materialized = true;
      return cell;
    case MethodId::kAdaptiveServedLatency:
      cell.context = served_latency_context(summary.start_time,
                                            queue_capacity, adaptive, options);
      return cell;
    case MethodId::kAdaptiveRanking: {
      // Categories come from the cell's registry: open_window precomputes
      // each window through cell.registry and swaps the table into
      // cell.window_hints; the sync registry provider answers any job
      // outside the current window.
      cell.registry = make_registry(options);
      cell.window_hints = std::make_shared<core::SwappableHintsProvider>(
          "registry-windowed");
      cell.num_categories = adaptive.num_categories;
      cell.context.policy = adaptive_policy(
          id,
          core::make_fallback_chain(
              {cell.window_hints, core::make_registry_provider(cell.registry)}),
          adaptive, options);
      return cell;
    }
    case MethodId::kAdaptiveServed: {
      // The online serving loop inline without a clock (every hint ready
      // when looked up), fed window by window: open_window enqueues each
      // window's requests, and the policy consumes hints through the
      // served provider. The service extracts features per job; the queue
      // is sized so a full window always fits.
      auto registry = make_registry(options);
      serving::PlacementServiceConfig config;
      config.num_threads = 0;  // inline mode
      config.queue_capacity = queue_capacity;
      config.max_batch = 256;
      config.fallback_num_categories = adaptive.num_categories;
      cell.window_enqueue = std::make_shared<serving::PlacementService>(
          registry, config);
      // Sync registry inference backstops requests the service dropped.
      cell.context.policy = adaptive_policy(
          id,
          core::make_fallback_chain(
              {serving::make_served_provider(cell.window_enqueue),
               core::make_registry_provider(std::move(registry))}),
          adaptive, options);
      return cell;
    }
    default:
      break;
  }
  cell.context.policy =
      make_trace_free_policy(id, ssd_capacity_bytes, adaptive, options);
  return cell;
}

PolicyContext MethodFactory::make_context(MethodId id,
                                          const trace::Trace& test,
                                          std::uint64_t ssd_capacity_bytes,
                                          const MakeOptions& options) const {
  if (id == MethodId::kOracleTco || id == MethodId::kOracleTcio) {
    const auto solution = oracle::solve_greedy(
        test.jobs(), ssd_capacity_bytes,
        id == MethodId::kOracleTco ? oracle::Objective::kTco
                                   : oracle::Objective::kTcio,
        cost_model_);
    PolicyContext context;
    context.policy = std::make_unique<policy::OracleReplayPolicy>(
        method_name(id), test.jobs(), solution);
    return context;
  }
  // One window spanning the whole test trace.
  StreamingCell cell = make_streaming_cell(
      id, trace::summarize(test), test.size(), ssd_capacity_bytes, options);
  cell.open_window(test.jobs());
  return std::move(cell.context);
}

SimConfig make_sim_config(const MethodFactory& factory,
                          const PolicyContext& context,
                          std::uint64_t ssd_capacity_bytes) {
  SimConfig config;
  config.ssd_capacity_bytes = ssd_capacity_bytes;
  config.rates = factory.cost_model().rates();
  config.clock = context.clock;
  config.hint_service = context.hint_service;
  config.staleness = context.staleness;
  return config;
}

SimResult run_method(const MethodFactory& factory, MethodId id,
                     const trace::Trace& test,
                     std::uint64_t ssd_capacity_bytes,
                     const MakeOptions& options, bool record_outcomes) {
  const PolicyContext context =
      factory.make_context(id, test, ssd_capacity_bytes, options);
  SimConfig config = make_sim_config(factory, context, ssd_capacity_bytes);
  config.record_outcomes = record_outcomes;
  return simulate(test, *context.policy, config);
}

}  // namespace byom::sim
