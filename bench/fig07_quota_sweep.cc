// Figure 7: TCO savings percentage as the SSD quota sweeps 0 -> 1, for all
// seven methods. Reproduced shapes:
//   * OracleTCO dominates everything everywhere;
//   * AdaptiveRanking > AdaptiveHash (the model matters) and beats the
//     practical baselines, especially at small quotas;
//   * TCO curves flatten (or dip) at large quotas, unlike TCIO.
//
// The 7 x 10 (method x quota) grid runs through the parallel
// ExperimentRunner: each AdaptiveRanking cell predicts its test window in
// one batched pass through its model registry, and the cells shard across
// a thread pool with results identical to the serial path.
#include <cstdio>

#include "common.h"
#include "harness/experiment_runner.h"
#include "sim/metrics.h"

using namespace byom;

int main() {
  bench::print_header(
      "Figure 7: TCO savings vs SSD quota (7 methods)",
      "rows: quota fraction of peak usage; columns: method TCO savings %",
      "oracle >> adaptive ranking > adaptive hash ~ heuristics; ranking "
      "advantage largest at small quota");

  auto cluster = bench::make_bench_cluster(0);
  const auto& test = cluster.split.test;
  auto& factory = *cluster.factory;

  const std::vector<sim::MethodId> methods = {
      sim::MethodId::kAdaptiveRanking, sim::MethodId::kAdaptiveHash,
      sim::MethodId::kMlBaseline,      sim::MethodId::kFirstFit,
      sim::MethodId::kHeuristic,       sim::MethodId::kOracleTco,
      sim::MethodId::kOracleTcio};
  const std::vector<double> quotas = {0.005, 0.01, 0.02, 0.05, 0.1,
                                      0.2,   0.35, 0.5,  0.75, 1.0};

  sim::ExperimentRunner runner;
  const auto cluster_index = runner.add_cluster(&factory, &test);
  const auto cells = runner.make_grid(cluster_index, methods, quotas);
  const auto results = runner.run(cells);

  sim::SweepTable table("quota",
                        {"AdaptiveRanking", "AdaptiveHash", "MLBaseline",
                         "FirstFit", "Heuristic", "OracleTCO", "OracleTCIO"});
  // make_grid produces quota-major cells: one table row per quota.
  for (std::size_t q = 0; q < quotas.size(); ++q) {
    std::vector<double> row;
    for (std::size_t m = 0; m < methods.size(); ++m) {
      row.push_back(results[q * methods.size() + m].result.tco_savings_pct());
    }
    table.add_row(quotas[q], row);
  }
  std::printf("%s", table.to_csv(3).c_str());

  // Headline check at 1% quota.
  const double ours = table.value(1, 0);
  double best_baseline = 0.0;
  for (std::size_t m = 1; m <= 4; ++m) {
    best_baseline = std::max(best_baseline, table.value(1, m));
  }
  std::printf("# at quota 0.01: ours=%.3f%%, best baseline=%.3f%% -> %s\n",
              ours, best_baseline,
              sim::improvement_factor(ours, best_baseline).c_str());
  std::printf("# grid: %zu cells on %zu threads\n", cells.size(),
              runner.num_threads());
  return 0;
}
