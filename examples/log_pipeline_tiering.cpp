// Scenario: a log-processing team runs recurring ETL pipelines on the
// shared data-processing framework and wants its intermediate shuffle
// files tiered intelligently. This example drives the *live* path — the
// framework substrate executes dataflow graphs, the team's week of shuffle
// jobs is placed by the event engine with hints from the async serving
// loop, each placement is booked on the caching server, and the
// application-layer model is trained on the team's own execution history
// (the "bring your own model" contract: the model lives with the
// workload, not the storage system).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "core/byom.h"
#include "policy/byom_policy.h"
#include "framework/dataflow.h"
#include "framework/pipeline_runner.h"
#include "policy/first_fit.h"
#include "serving/placement_service.h"
#include "sim/simulator.h"
#include "storage/cache_server.h"
#include "trace/trace.h"

using namespace byom;

namespace {

// The team's two pipelines: a nightly batch ETL (big sequential shuffles,
// HDD-friendly) and an interactive query pipeline (hot join shuffles,
// SSD-friendly).
std::vector<framework::FrameworkPipeline> team_pipelines(std::uint64_t seed) {
  std::vector<framework::FrameworkPipeline> pipelines;
  pipelines.push_back(framework::make_prototype_pipeline(0, 0, seed));
  pipelines.back().name = "org_logsteam.nightly-etl-prod.dataimporter";
  pipelines.push_back(framework::make_prototype_pipeline(1, 1, seed));
  pipelines.back().name = "org_logsteam.interactive-joins-prod.dataimporter";
  return pipelines;
}

// Places the week on the event engine, then books every job's outcome on a
// caching server (file routing, pricing, run-time estimate).
storage::CacheServer replay(const trace::Trace& week,
                            policy::PlacementPolicy& policy,
                            std::uint64_t ssd_quota) {
  sim::SimConfig config;
  config.ssd_capacity_bytes = ssd_quota;
  config.record_outcomes = true;
  const sim::SimResult result = sim::simulate(week, policy, config);
  storage::CacheServer server;
  for (std::size_t i = 0; i < week.size(); ++i) {
    const sim::JobOutcome& outcome = result.outcomes[i];
    server.record(week.jobs()[i], outcome.scheduled, outcome.ssd_share,
                  outcome.ssd_time_share);
  }
  return server;
}

}  // namespace

int main() {
  const std::uint64_t seed = 11;
  framework::PipelineRunner runner(cost::Rates{}, seed);
  const auto pipelines = team_pipelines(seed);

  // Phase 1 (offline): run one week of executions to collect history.
  std::printf("== phase 1: collecting one week of execution history ==\n");
  std::vector<trace::Job> history;
  for (double t = 0.0; t < 7.0 * 86400.0; t += 1800.0) {
    // ETL every 4 h, joins every 30 min.
    if (std::fmod(t, 4.0 * 3600.0) < 1800.0) {
      for (auto& j : runner.run(pipelines[0], t)) history.push_back(j);
    }
    for (auto& j : runner.run(pipelines[1], t)) history.push_back(j);
  }
  std::printf("collected %zu shuffle jobs\n", history.size());

  // Phase 2 (offline): the team trains ITS OWN model on its history and
  // registers it for its pipelines only.
  auto model = std::make_shared<core::CategoryModel>(
      core::CategoryModel::train(history));
  auto registry = std::make_shared<core::ModelRegistry>();
  for (const auto& p : pipelines) registry->register_model(p.name, model);
  std::printf("== phase 2: trained a %d-category model (%zu trees) ==\n",
              model->num_categories(), model->classifier().num_trees());

  // Phase 3 (online): the live week's shuffle jobs reach the storage
  // layer with hints from the async serving loop — every job's inference
  // request is enqueued, a background worker batches them through the
  // model, and each placement decision takes whatever hint is ready (or
  // the robust hash fallback when the deadline is missed). Inference stays
  // off the placement critical path, as the paper's production design
  // requires. The week is placed as one arrival-ordered trace.
  std::printf("== phase 3: one live week through the caching server ==\n");
  std::vector<trace::Job> live;
  for (double t = 7.0 * 86400.0; t < 14.0 * 86400.0; t += 1800.0) {
    if (std::fmod(t, 4.0 * 3600.0) < 1800.0) {
      for (auto& j : runner.run(pipelines[0], t)) live.push_back(j);
    }
    for (auto& j : runner.run(pipelines[1], t)) live.push_back(j);
  }
  const trace::Trace week(0, std::move(live));

  serving::PlacementServiceConfig serving_config;
  serving_config.num_threads = 1;
  serving_config.max_batch = 32;
  serving_config.flush_deadline = std::chrono::milliseconds(1);
  serving_config.request_deadline = 0.05;  // seconds
  serving_config.fallback_num_categories = model->num_categories();
  auto service = std::make_shared<serving::PlacementService>(registry,
                                                             serving_config);
  for (const auto& j : week.jobs()) service->enqueue(j);

  policy::ByomPolicyOptions options;
  options.adaptive.num_categories = model->num_categories();
  options.custom_provider = serving::make_served_provider(service);
  const std::uint64_t ssd_quota = 64ULL << 30;  // 64 GiB of SSD for the team
  const auto byom_policy = policy::make_byom_policy(registry, options);
  policy::FirstFitPolicy first_fit;
  const storage::CacheServer byom_server =
      replay(week, *byom_policy, ssd_quota);
  const storage::CacheServer firstfit_server =
      replay(week, first_fit, ssd_quota);

  const auto serving_stats = service->stats();
  std::printf(
      "serving: %llu requests, %llu batches (%llu size / %llu deadline "
      "flushes), %llu hits, %llu fallbacks, mean hint latency %.3f ms\n",
      static_cast<unsigned long long>(serving_stats.enqueued),
      static_cast<unsigned long long>(serving_stats.batches),
      static_cast<unsigned long long>(serving_stats.size_flushes),
      static_cast<unsigned long long>(serving_stats.deadline_flushes),
      static_cast<unsigned long long>(serving_stats.hits),
      static_cast<unsigned long long>(serving_stats.misses),
      1e3 * serving_stats.mean_latency_s());

  std::printf("results over the live week (vs all-HDD baseline):\n");
  std::printf("  BYOM      TCO %.2f%%  TCIO %.2f%%  runtime %.2f%%\n",
              byom_server.tco_savings_pct(false, false),
              byom_server.tcio_savings_pct(false, false),
              byom_server.runtime_savings_pct(false, false));
  std::printf("  FirstFit  TCO %.2f%%  TCIO %.2f%%  runtime %.2f%%\n",
              firstfit_server.tco_savings_pct(false, false),
              firstfit_server.tcio_savings_pct(false, false),
              firstfit_server.runtime_savings_pct(false, false));
  std::printf("SSD wearout consumed: %.4f%% of drive endurance\n",
              100.0 * byom_server.file_system()
                          .device(storage::DeviceKind::kSsd)
                          .wearout_fraction());
  return 0;
}
