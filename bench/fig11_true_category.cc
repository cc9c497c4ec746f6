// Figure 11: end-to-end TCO savings with the model's predicted categories
// vs ground-truth categories (a perfect, 100%-accurate model). Paper
// finding: the curves are close - beyond a point, better accuracy has
// diminishing returns; the category design and the adaptive algorithm are
// what matter.
//
// Both series run through the parallel ExperimentRunner: predicted cells
// score their test window in one batched pass through the factory's model
// registry, and true-category cells read the labeler per job.
#include <algorithm>
#include <cstdio>

#include "common.h"
#include "harness/experiment_runner.h"
#include "sim/metrics.h"

using namespace byom;

int main() {
  bench::print_header(
      "Figure 11: predicted vs true category",
      "TCO savings across the quota sweep for predicted / ground-truth "
      "categories",
      "true-category curve close to predicted-category curve (diminishing "
      "returns from accuracy)");

  auto cluster = bench::make_bench_cluster(0);
  const auto& test = cluster.split.test;
  auto& factory = *cluster.factory;
  const auto& model = factory.category_model();

  std::printf("# model top-1 accuracy on test week: %.3f\n",
              model.top1_accuracy(test.jobs()));

  sim::ExperimentRunner runner;
  const auto cluster_index = runner.add_cluster(&factory, &test);
  const std::vector<sim::MethodId> methods = {
      sim::MethodId::kAdaptiveRanking, sim::MethodId::kTrueCategory};
  const std::vector<double> quotas = {0.005, 0.01, 0.02, 0.05, 0.1,
                                      0.2,   0.35, 0.5,  0.75, 1.0};
  const auto cells = runner.make_grid(cluster_index, methods, quotas);
  const auto results = runner.run(cells);

  sim::SweepTable table("quota", {"predicted_category", "true_category"});
  for (std::size_t q = 0; q < quotas.size(); ++q) {
    table.add_row(quotas[q],
                  {results[q * 2].result.tco_savings_pct(),
                   results[q * 2 + 1].result.tco_savings_pct()});
  }
  std::printf("%s", table.to_csv(3).c_str());

  double max_gap = 0.0;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    max_gap = std::max(max_gap, table.value(r, 1) - table.value(r, 0));
  }
  std::printf("# max (true - predicted) gap: %.3f%% of TCO\n", max_gap);
  return 0;
}
