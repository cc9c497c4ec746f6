// Table 4: TCO savings and model top-1 accuracy as the number of categories
// N varies over {2, 5, 15, 25, 35}, at SSD quota 0.1. Paper findings:
//   * small N: high accuracy but coarse ranking -> lower end-to-end savings;
//   * large N: fine ranking but low accuracy -> savings fall off again;
//   * N ~ 15 is the sweet spot, beating the best baseline (10.7%).
#include <cstdio>

#include "common.h"
#include "core/model_registry.h"
#include "policy/byom_policy.h"

using namespace byom;

int main() {
  bench::print_header(
      "Table 4: TCO savings and accuracy vs category count N (quota 0.1)",
      "per-N: end-to-end TCO savings percent and model top-1 accuracy",
      "accuracy falls monotonically with N; savings peak at intermediate N "
      "(paper: N=15 -> 12.7% savings @ 32.3% accuracy)");

  const auto cfg = bench::bench_cluster_config(0);
  const auto split =
      trace::split_train_test(trace::generate_cluster_trace(cfg));
  const auto cap = sim::quota_capacity(split.test, 0.1);

  std::printf("N,tco_savings_pct,top1_accuracy\n");
  double best_baseline = 0.0;
  {
    sim::MethodFactory factory(split.train);
    for (auto id : {sim::MethodId::kFirstFit, sim::MethodId::kHeuristic,
                    sim::MethodId::kMlBaseline}) {
      best_baseline = std::max(
          best_baseline,
          sim::run_method(factory, id, split.test, cap).tco_savings_pct());
    }
  }

  for (int n : {2, 5, 15, 25, 35}) {
    const auto model = std::make_shared<const core::CategoryModel>(
        core::CategoryModel::train(split.train.jobs(),
                                   bench::bench_model_config(n)));
    auto registry = std::make_shared<core::ModelRegistry>();
    registry->set_default_model(model);
    policy::ByomPolicyOptions options;
    options.adaptive.num_categories = n;
    options.precompute_jobs = &split.test.jobs();
    options.name = "AdaptiveRanking";
    auto policy = policy::make_byom_policy(registry, options);
    const auto result = bench::run_policy(*policy, split.test, cap);
    std::printf("%d,%.3f,%.3f\n", n, result.tco_savings_pct(),
                model->top1_accuracy(split.test.jobs()));
  }
  std::printf("# best baseline at quota 0.1: %.3f%% (paper: 10.7%%)\n",
              best_baseline);
  return 0;
}
