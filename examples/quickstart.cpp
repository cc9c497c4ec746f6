// Quickstart: the whole BYOM loop in ~60 lines.
//
//   1. Get a workload history        (here: synthetic cluster trace)
//   2. Train the application-layer category model on last week's jobs
//   3. Wire it into the storage-layer adaptive policy (Algorithm 1)
//   4. Replay this week's jobs through the placement simulator
//   5. Compare TCO savings against the FirstFit production heuristic
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "core/byom.h"
#include "policy/byom_policy.h"
#include "policy/first_fit.h"
#include "harness/experiment.h"
#include "sim/simulator.h"
#include "trace/generator.h"

using namespace byom;

int main() {
  // 1. Two weeks of one cluster's shuffle jobs (week 1 train, week 2 test).
  trace::GeneratorConfig config = trace::canonical_cluster_config(0);
  config.num_pipelines = 16;
  config.duration = 8.0 * 86400.0;
  const auto history = trace::generate_cluster_trace(config);
  const auto [train, test] = trace::split_train_test(history);
  std::printf("trace: %zu train jobs, %zu test jobs\n", train.size(),
              test.size());

  // 2. The workload brings its own model: a 15-class GBDT importance
  //    ranking trained purely on application-level features.
  const auto model = std::make_shared<core::CategoryModel>(
      core::CategoryModel::train(train.jobs()));
  std::printf("model: %zu trees, top-1 accuracy %.2f on the test week\n",
              model->classifier().num_trees(),
              model->top1_accuracy(test.jobs()));

  // 3. Storage layer: adaptive category selection over the model's hints,
  //    consumed through the CategoryProvider API (sync per-job inference
  //    here; see log_pipeline_tiering for the async serving loop).
  auto registry = std::make_shared<core::ModelRegistry>();
  registry->set_default_model(model);
  policy::ByomPolicyOptions options;
  options.adaptive.num_categories = model->num_categories();
  auto byom_policy = policy::make_byom_policy(registry, options);

  // 4 + 5. Replay the test week at a tight SSD quota (1% of peak usage).
  sim::SimConfig sim_config;
  sim_config.ssd_capacity_bytes = sim::quota_capacity(test, 0.01);
  const auto ours = sim::simulate(test, *byom_policy, sim_config);

  policy::FirstFitPolicy first_fit;
  const auto baseline = sim::simulate(test, first_fit, sim_config);

  std::printf("TCO savings:  BYOM %.2f%%  vs  FirstFit %.2f%%  (%.2fx)\n",
              ours.tco_savings_pct(), baseline.tco_savings_pct(),
              ours.tco_savings_pct() /
                  std::max(baseline.tco_savings_pct(), 1e-9));
  std::printf("TCIO savings: BYOM %.2f%%  vs  FirstFit %.2f%%\n",
              ours.tcio_savings_pct(), baseline.tcio_savings_pct());
  return 0;
}
