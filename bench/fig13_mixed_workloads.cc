// Figure 13: prototype mixed-workload savings (Appendix C.1.1). Framework
// and non-framework workloads (1:1 footprint) run through the storage
// substrate; TCO and TCIO savings are reported per group for FirstFit vs
// Adaptive Ranking at 1% and 20% SSD quotas. Paper finding: significant
// savings over FirstFit for BOTH groups - the approach is not limited to
// the data processing framework.
#include <cstdio>
#include <future>
#include <vector>

#include "common.h"
#include "framework/thread_pool.h"
#include "sim/metrics.h"

using namespace byom;

int main() {
  bench::print_header(
      "Figure 13: mixed framework/non-framework workload savings",
      "TCO and TCIO savings percentage per workload group, FirstFit vs "
      "AdaptiveRanking, at 1% and 20% quota",
      "AdaptiveRanking > FirstFit for both framework and non-framework "
      "groups at both quotas");

  const auto deployment = bench::MixedDeployment::generate(77);
  std::printf("# jobs: train=%zu test=%zu, test peak=%.2f TiB\n",
              deployment.train.size(), deployment.test.size(),
              static_cast<double>(deployment.peak_bytes) / (1ULL << 40));

  // The (method, quota) deployments are independent prototype replays:
  // shard them across the pool and collect in print order.
  const std::vector<double> quotas = {0.01, 0.20};
  framework::ThreadPool pool;
  std::vector<std::future<bench::MixedDeploymentResult>> ff_runs, ar_runs;
  for (double quota : quotas) {
    ff_runs.push_back(pool.submit(
        [&deployment, quota] { return deployment.run_first_fit(quota); }));
    ar_runs.push_back(pool.submit([&deployment, quota] {
      return deployment.run_adaptive_ranking(quota);
    }));
  }

  std::printf(
      "quota,method,tco_framework,tco_non_framework,tcio_framework,"
      "tcio_non_framework\n");
  for (std::size_t qi = 0; qi < quotas.size(); ++qi) {
    const double quota = quotas[qi];
    const auto ff = ff_runs[qi].get();
    const auto ar = ar_runs[qi].get();
    std::printf("%.2f,FirstFit,%.3f,%.3f,%.3f,%.3f\n", quota,
                ff.tco_framework, ff.tco_non_framework, ff.tcio_framework,
                ff.tcio_non_framework);
    std::printf("%.2f,AdaptiveRanking,%.3f,%.3f,%.3f,%.3f\n", quota,
                ar.tco_framework, ar.tco_non_framework, ar.tcio_framework,
                ar.tcio_non_framework);
    auto describe = [](double ours, double baseline) {
      if (baseline <= 0.0) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%+.2f%% vs %+.2f%%", ours, baseline);
        return std::string(buf);
      }
      return sim::improvement_factor(ours, baseline);
    };
    std::printf(
        "# quota %.2f: framework TCO %s, non-framework TCO %s over FirstFit\n",
        quota, describe(ar.tco_framework, ff.tco_framework).c_str(),
        describe(ar.tco_non_framework, ff.tco_non_framework).c_str());
  }
  return 0;
}
