// Hint-noise sensitivity (ROADMAP "noisy-hint" item, paper section 6
// dynamics): how fast do AdaptiveRanking's savings degrade as a growing
// fraction of category hints is corrupted?
//
// Each cell wraps the ranking provider in a NoisyProvider that flips a
// seeded fraction of hints to a different category; the flip pattern
// derives from the cell's deterministic per-cell seed, so repeats are
// genuinely different but the whole sweep is bit-reproducible at any
// thread count. AdaptiveHash is printed as the floor: 100% noise cannot do
// worse than ignoring the model entirely.
#include <cmath>
#include <cstdio>
#include <vector>

#include "common.h"
#include "harness/experiment_runner.h"
#include "sim/metrics.h"

using namespace byom;

int main() {
  bench::print_header(
      "Hint-noise sensitivity (AdaptiveRanking under corrupted hints)",
      "TCO savings vs fraction of hints flipped, at 1% and 10% SSD quota "
      "(mean/std over 3 seeds)",
      "graceful degradation toward the AdaptiveHash floor; small noise "
      "fractions cost little (robust cross-layer contract)");

  auto cluster = bench::make_bench_cluster(0);

  sim::ExperimentRunner runner;
  const auto index =
      runner.add_cluster(cluster.factory.get(), &cluster.split.test);

  const std::vector<double> noise_levels = {0.0,  0.05, 0.1,
                                            0.25, 0.5,  1.0};
  const std::vector<double> quotas = {0.01, 0.1};
  constexpr int kRepeats = 3;
  constexpr std::uint64_t kBaseSeed = 2026;

  std::vector<sim::ExperimentCell> cells;
  for (std::size_t n = 0; n < noise_levels.size(); ++n) {
    for (std::size_t q = 0; q < quotas.size(); ++q) {
      for (int repeat = 0; repeat < kRepeats; ++repeat) {
        sim::ExperimentCell cell;
        cell.cluster = index;
        cell.method = sim::MethodId::kAdaptiveRanking;
        cell.quota = quotas[q];
        cell.make.hint_noise = noise_levels[n];
        cell.seed = sim::derive_cell_seed(
            kBaseSeed, index, cell.method, q,
            n * static_cast<std::size_t>(kRepeats) +
                static_cast<std::size_t>(repeat));
        cells.push_back(cell);
      }
    }
  }
  // AdaptiveHash floor, once per quota.
  for (const double quota : quotas) {
    sim::ExperimentCell cell;
    cell.cluster = index;
    cell.method = sim::MethodId::kAdaptiveHash;
    cell.quota = quota;
    cells.push_back(cell);
  }

  const auto results = runner.run(cells);

  sim::SweepTable table("noise", {"q1_mean", "q1_std", "q10_mean", "q10_std"});
  for (std::size_t n = 0; n < noise_levels.size(); ++n) {
    std::vector<double> row;
    for (const double quota : quotas) {
      double sum = 0.0, sum_sq = 0.0;
      int count = 0;
      for (const auto& result : results) {
        if (result.cell.method == sim::MethodId::kAdaptiveRanking &&
            result.cell.make.hint_noise == noise_levels[n] &&
            result.cell.quota == quota) {
          const double savings = result.result.tco_savings_pct();
          sum += savings;
          sum_sq += savings * savings;
          ++count;
        }
      }
      const double mean = count > 0 ? sum / count : 0.0;
      const double variance =
          count > 0 ? std::max(0.0, sum_sq / count - mean * mean) : 0.0;
      row.push_back(mean);
      row.push_back(std::sqrt(variance));
    }
    table.add_row(noise_levels[n], row);
  }
  std::printf("%s", table.to_csv(3).c_str());

  for (const auto& result : results) {
    if (result.cell.method == sim::MethodId::kAdaptiveHash) {
      std::printf("# AdaptiveHash floor @ quota %.2f: %.3f%% TCO savings\n",
                  result.cell.quota, result.result.tco_savings_pct());
    }
  }
  return 0;
}
