// Figure 16: dynamics of the adaptive category selection algorithm over one
// week, at SSD quotas of 0.01%, 1%, 10% and 50% of peak usage. Paper
// finding: at tight quotas the admission category threshold (ACT) settles
// high (admit only the most important categories); as the quota grows the
// ACT drops, admitting more categories; spillover stays near the tolerance
// band.
#include <cstdio>

#include "common.h"
#include "common/stats.h"
#include "core/model_registry.h"
#include "policy/byom_policy.h"

using namespace byom;

int main() {
  bench::print_header(
      "Figure 16: ACT and spillover dynamics over the test week",
      "sampled (time, ACT, spillover%) series per SSD quota",
      "tight quota -> high ACT; plentiful quota -> ACT ~ 1; spillover "
      "regulated into the tolerance band");

  const auto cluster = bench::make_bench_cluster(0);
  const auto& test = cluster.split.test;
  auto registry = std::make_shared<core::ModelRegistry>();
  registry->set_default_model(cluster.factory->shared_category_model());
  policy::ByomPolicyOptions options;
  options.adaptive = cluster.factory->adaptive_config();
  options.precompute_jobs = &test.jobs();
  options.name = "AdaptiveRanking";

  std::printf("quota,hour,act,spillover_pct\n");
  std::printf("# summary below: quota,mean_act,mean_spillover\n");
  std::vector<std::pair<double, double>> summary;
  for (double quota : {0.0001, 0.01, 0.1, 0.5}) {
    const auto cap = sim::quota_capacity(test, quota);
    // One batched pass through the registry, then a fresh policy state.
    auto policy = policy::make_byom_policy(registry, options);
    bench::run_policy(*policy, test, cap);
    common::RunningStats act_stats, spill_stats;
    // Sample the decision log at ~2 hour granularity.
    const auto& log = policy->decision_log();
    double next_sample = 0.0;
    for (const auto& rec : log) {
      act_stats.add(rec.act);
      spill_stats.add(rec.spillover_pct);
      if (rec.time >= next_sample) {
        std::printf("%.4f,%.1f,%d,%.3f\n", quota, rec.time / 3600.0, rec.act,
                    100.0 * rec.spillover_pct);
        next_sample = rec.time + 2.0 * 3600.0;
      }
    }
    summary.emplace_back(act_stats.mean(), 100.0 * spill_stats.mean());
  }
  const double quotas[4] = {0.0001, 0.01, 0.1, 0.5};
  for (int i = 0; i < 4; ++i) {
    std::printf("# quota %.4f: mean ACT %.2f, mean spillover %.2f%%\n",
                quotas[i], summary[static_cast<std::size_t>(i)].first,
                summary[static_cast<std::size_t>(i)].second);
  }
  return 0;
}
