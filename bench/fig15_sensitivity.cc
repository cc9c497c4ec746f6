// Figure 15: sensitivity of Adaptive Ranking to the adaptive-algorithm
// hyperparameters. All 27 combinations of the paper's grid:
//   T_SPILLOVER in {[0.005,0.03], [0.01,0.15], [0.05,0.25]}
//   t_w (look-back window) in {600, 900, 1800} s
//   t_l (decision interval) in {600, 900, 1800} s
// Paper finding: the min-max band across combinations is narrow - the
// solution is not sensitive to hyperparameter selection.
//
// The 27 x 6 (hyperparameter x quota) grid runs through the parallel
// ExperimentRunner via per-cell AdaptiveConfig overrides; each cell
// predicts its test window in one batched pass through its model registry.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common.h"
#include "harness/experiment_runner.h"

using namespace byom;

int main() {
  bench::print_header(
      "Figure 15: adaptive algorithm hyperparameter sensitivity",
      "per-quota min/mean/max TCO savings across the 27-combination grid",
      "narrow band: insensitive to hyperparameters");

  auto cluster = bench::make_bench_cluster(0);
  const auto& test = cluster.split.test;
  auto& factory = *cluster.factory;

  sim::ExperimentRunner runner;
  const auto cluster_index = runner.add_cluster(&factory, &test);

  const double tolerance[3][2] = {{0.005, 0.03}, {0.01, 0.15}, {0.05, 0.25}};
  const double windows[3] = {600.0, 900.0, 1800.0};
  const double intervals[3] = {600.0, 900.0, 1800.0};
  const std::vector<double> quotas = {0.01, 0.05, 0.1, 0.25, 0.5, 1.0};

  // 27 consecutive cells per quota, in tolerance/window/interval order.
  std::vector<sim::ExperimentCell> cells;
  for (double quota : quotas) {
    for (const auto& tol : tolerance) {
      for (double tw : windows) {
        for (double tl : intervals) {
          policy::AdaptiveConfig cfg = factory.adaptive_config();
          cfg.spillover_lower = tol[0];
          cfg.spillover_upper = tol[1];
          cfg.lookback_window = tw;
          cfg.decision_interval = tl;
          sim::ExperimentCell cell;
          cell.cluster = cluster_index;
          cell.method = sim::MethodId::kAdaptiveRanking;
          cell.quota = quota;
          cell.make.adaptive = cfg;
          cells.push_back(cell);
        }
      }
    }
  }
  const auto results = runner.run(cells);

  std::printf("quota,min_pct,mean_pct,max_pct,band_width\n");
  const std::size_t combos = 27;
  for (std::size_t q = 0; q < quotas.size(); ++q) {
    double lo = 1e300, hi = -1e300, sum = 0.0;
    for (std::size_t c = 0; c < combos; ++c) {
      const double pct = results[q * combos + c].result.tco_savings_pct();
      lo = std::min(lo, pct);
      hi = std::max(hi, pct);
      sum += pct;
    }
    std::printf("%.2f,%.3f,%.3f,%.3f,%.3f\n", quotas[q], lo,
                sum / static_cast<double>(combos), hi, hi - lo);
  }

  // Ablation flagged in DESIGN.md: window semantics (jobs starting within
  // vs overlapping the look-back window).
  std::vector<sim::ExperimentCell> semantic_cells;
  const std::vector<double> semantic_quotas = {0.01, 0.1, 0.5};
  for (double quota : semantic_quotas) {
    for (bool overlap : {false, true}) {
      policy::AdaptiveConfig cfg = factory.adaptive_config();
      cfg.window_by_overlap = overlap;
      sim::ExperimentCell cell;
      cell.cluster = cluster_index;
      cell.method = sim::MethodId::kAdaptiveRanking;
      cell.quota = quota;
      cell.make.adaptive = cfg;
      semantic_cells.push_back(cell);
    }
  }
  const auto semantic_results = runner.run(semantic_cells);
  std::printf("window_semantics:quota,start_within,overlap\n");
  for (std::size_t q = 0; q < semantic_quotas.size(); ++q) {
    std::printf("%.2f,%.3f,%.3f\n", semantic_quotas[q],
                semantic_results[2 * q].result.tco_savings_pct(),
                semantic_results[2 * q + 1].result.tco_savings_pct());
  }
  return 0;
}
