// Figure 8: workload generalization. Train one category model per cluster
// C0..C3 and evaluate all of them on C0's test week across the quota sweep.
// Paper finding: cross-cluster models track the home model closely, except
// the degenerate cluster C3 (which only runs workloads rare elsewhere).
//
// The whole (model x quota) grid — four AdaptiveRanking variants plus the
// three baselines — runs as one ExperimentRunner multi-cluster grid: each
// trained factory registers as its own cluster over C0's test trace, and
// every cell shards across the pool.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common.h"
#include "harness/experiment_runner.h"
#include "sim/metrics.h"

using namespace byom;

int main() {
  bench::print_header(
      "Figure 8: cross-cluster generalization (train C0-C3, test C0)",
      "TCO savings on C0 for models trained on different clusters + best "
      "baseline",
      "C1/C2 models ~ C0 model; C3 (rare-workload cluster) degrades; all "
      "above/near the best baseline at small quota");

  // Factories trained on each cluster's own week, all evaluated on the
  // home cluster C0's test week (which also supplies the baselines). Each
  // AdaptiveRanking cell predicts the shared test trace in one batched pass
  // through its factory's model registry.
  std::vector<bench::BenchCluster> clusters;
  clusters.push_back(bench::make_bench_cluster(0));
  for (std::uint32_t cid = 1; cid < 4; ++cid) {
    clusters.push_back(bench::make_bench_cluster(cid, 16, 8.0));
  }
  const auto& test = clusters.front().split.test;

  sim::ExperimentRunner runner;
  std::vector<std::size_t> cluster_index;
  for (const auto& cluster : clusters) {
    cluster_index.push_back(runner.add_cluster(cluster.factory.get(), &test));
  }

  const std::vector<double> quotas = {0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0};
  const std::vector<sim::MethodId> baselines = {sim::MethodId::kFirstFit,
                                                sim::MethodId::kHeuristic,
                                                sim::MethodId::kMlBaseline};
  std::vector<sim::ExperimentCell> cells;
  for (const std::size_t index : cluster_index) {
    const auto grid =
        runner.make_grid(index, {sim::MethodId::kAdaptiveRanking}, quotas);
    cells.insert(cells.end(), grid.begin(), grid.end());
  }
  {
    const auto grid = runner.make_grid(cluster_index[0], baselines, quotas);
    cells.insert(cells.end(), grid.begin(), grid.end());
  }

  const auto results = runner.run(cells);
  const auto savings_of = [&](std::size_t cluster, sim::MethodId method,
                              double quota) {
    for (const auto& result : results) {
      if (result.cell.cluster == cluster && result.cell.method == method &&
          result.cell.quota == quota) {
        return result.result.tco_savings_pct();
      }
    }
    return 0.0;
  };

  sim::SweepTable table(
      "quota", {"train_C0", "train_C1", "train_C2", "train_C3",
                "best_baseline_C0"});
  for (double quota : quotas) {
    std::vector<double> row;
    for (const std::size_t index : cluster_index) {
      row.push_back(savings_of(index, sim::MethodId::kAdaptiveRanking, quota));
    }
    double best_baseline = 0.0;
    for (const sim::MethodId id : baselines) {
      best_baseline =
          std::max(best_baseline, savings_of(cluster_index[0], id, quota));
    }
    row.push_back(best_baseline);
    table.add_row(quota, row);
  }
  std::printf("%s", table.to_csv(3).c_str());
  return 0;
}
