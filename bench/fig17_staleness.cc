// Figure 17 (extension of the paper's section-6 dynamics study): TCO
// savings of the latency-aware served pipeline as a function of hint
// latency x model retraining cadence, at a fixed 5% SSD quota.
//
// Every cell is one AdaptiveServedLatency simulation on the event-driven
// engine: inference requests enter the serving queue at each job's arrival
// event, hints become ready after a seeded exponential latency, late hints
// degrade that decision to the hash category, and a StalenessSchedule
// decays hint accuracy toward the AdaptiveHash floor between retrains.
// Expectations: savings decay monotonically as either axis grows — toward
// the AdaptiveHash floor for latency (hints stop arriving in time) and
// toward the same floor for cadence (hints arrive but say less) — while
// never falling below it (Algorithm 1's graceful degradation).
#include <cstdio>
#include <vector>

#include "common.h"
#include "harness/experiment_runner.h"

using namespace byom;

int main() {
  bench::print_header(
      "Figure 17: savings vs hint latency x retraining cadence (5% quota)",
      "TCO savings pct per (retrain_period, hint_latency) cell; "
      "AdaptiveServed = fresh/instant ceiling, AdaptiveHash = floor",
      "monotone decay along both axes, bounded below by the hash floor");

  const auto cluster = bench::make_bench_cluster(0, 16, 8.0);

  sim::ExperimentRunner runner;
  const auto index =
      runner.add_cluster(cluster.factory.get(), &cluster.split.test);

  const double quota = 0.05;
  // Latencies in virtual seconds (mean of the exponential serving delay;
  // the consumer deadline is 1 s) and cadences in virtual seconds (0 =
  // always fresh; 1e18 = never retrained within the trace).
  const std::vector<double> latencies = {0.0, 0.5, 1.0, 5.0, 60.0};
  const std::vector<double> periods = {0.0, 6.0 * 3600.0, 86400.0,
                                       3.0 * 86400.0, 1e18};

  std::vector<sim::ExperimentCell> cells;
  for (std::size_t p = 0; p < periods.size(); ++p) {
    for (std::size_t l = 0; l < latencies.size(); ++l) {
      sim::ExperimentCell cell;
      cell.cluster = index;
      cell.method = sim::MethodId::kAdaptiveServedLatency;
      cell.quota = quota;
      cell.seed = sim::derive_cell_seed(17, index, cell.method,
                                        p * latencies.size() + l, 0);
      cell.make.hint_latency = latencies[l];
      cell.make.retrain_period = periods[p];
      cells.push_back(cell);
    }
  }
  // Reference cells: the fresh/instant ceiling and the hash floor.
  for (const sim::MethodId id :
       {sim::MethodId::kAdaptiveServed, sim::MethodId::kAdaptiveHash}) {
    const auto grid = runner.make_grid(index, {id}, {quota});
    cells.insert(cells.end(), grid.begin(), grid.end());
  }

  const auto results = runner.run(cells);

  std::printf("retrain_period_s");
  for (const double latency : latencies) {
    std::printf(",latency_%g", latency);
  }
  std::printf(",on_time_frac\n");
  for (std::size_t p = 0; p < periods.size(); ++p) {
    std::printf("%g", periods[p]);
    double on_time = 0.0, total = 0.0;
    for (std::size_t l = 0; l < latencies.size(); ++l) {
      const auto& r = results[p * latencies.size() + l].result;
      std::printf(",%.3f", r.tco_savings_pct());
      on_time += static_cast<double>(r.hints_on_time);
      total += static_cast<double>(r.hints_on_time + r.hints_late +
                                   r.hints_dropped);
    }
    std::printf(",%.3f\n", total > 0.0 ? on_time / total : 0.0);
  }
  const auto& served = results[results.size() - 2].result;
  const auto& hash = results[results.size() - 1].result;
  std::printf("# AdaptiveServed ceiling %.3f, AdaptiveHash floor %.3f\n",
              served.tco_savings_pct(), hash.tco_savings_pct());
  return 0;
}
