// Figure 18 (extension): the bring-your-own-model fleet. TCO savings of
// the served adaptive policy when each workload brings a different model
// *backend* — the paper's GBDT, a lightweight logistic regression, or a
// plain frequency table (core/model_backend.h) — mixed per pipeline through
// the hot-swappable registry, with daily retrain events reinstalling the
// deployed backends on the virtual timeline.
//
// Expectations: every backend (and every mix) lands between the
// AdaptiveHash floor and the oracle ceiling — weaker backends give up some
// savings but Algorithm 1 never does worse than its non-ML ablation. Among
// the homogeneous cluster-wide fleets the GBDT sits highest. Per-pipeline
// overrides pay a data-sufficiency tax: models trained on one pipeline's
// thin history (even forests) land well below the cluster-trained fleets —
// the cost side of the per-workload BYOM granularity.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "harness/experiment_runner.h"

using namespace byom;

int main() {
  bench::print_header(
      "Figure 18: savings by model-backend mix (5% quota, daily retrains)",
      "TCO savings pct per backend fleet on the served virtual-time "
      "pipeline; AdaptiveHash = floor, OracleTCO = ceiling",
      "every backend mix lands between the hash floor and the oracle "
      "ceiling; the cluster-trained GBDT leads the homogeneous fleets, "
      "while per-pipeline models pay a thin-history tax");

  const auto cluster = bench::make_bench_cluster(0, 16, 8.0);

  // The cluster's pipelines, for the heterogeneous per-pipeline mixes.
  const std::vector<std::string> pipelines =
      trace::distinct_pipelines(cluster.split.train);

  sim::ExperimentRunner runner;
  const auto index =
      runner.add_cluster(cluster.factory.get(), &cluster.split.test);

  const double quota = 0.05;
  const double retrain_period = 86400.0;  // daily

  struct Fleet {
    const char* name;
    core::BackendKind default_kind;
    std::vector<std::pair<std::string, core::BackendKind>> overrides;
  };
  const std::vector<core::BackendKind> kinds = {core::BackendKind::kGbdt,
                                                core::BackendKind::kLogistic,
                                                core::BackendKind::kFrequency};
  std::vector<Fleet> fleets;
  // Homogeneous fleets: every workload brings the same backend kind.
  for (const auto kind : kinds) {
    fleets.push_back({core::backend_kind_name(kind), kind, {}});
  }
  // Heterogeneous fleet: pipelines bring gbdt/logistic/frequency round-robin
  // (the registry serves all three kinds side by side, per shard).
  Fleet mixed{"mixed-round-robin", core::BackendKind::kGbdt, {}};
  for (std::size_t p = 0; p < pipelines.size(); ++p) {
    mixed.overrides.emplace_back(pipelines[p], kinds[p % kinds.size()]);
  }
  fleets.push_back(std::move(mixed));
  // Cheap fleet: frequency default, logistic for every other pipeline —
  // no forest anywhere.
  Fleet cheap{"mixed-no-forest", core::BackendKind::kFrequency, {}};
  for (std::size_t p = 0; p < pipelines.size(); p += 2) {
    cheap.overrides.emplace_back(pipelines[p], core::BackendKind::kLogistic);
  }
  fleets.push_back(std::move(cheap));

  std::vector<sim::ExperimentCell> cells;
  for (std::size_t f = 0; f < fleets.size(); ++f) {
    sim::ExperimentCell cell;
    cell.cluster = index;
    cell.method = sim::MethodId::kAdaptiveServedLatency;
    cell.quota = quota;
    cell.seed = sim::derive_cell_seed(18, index, cell.method, f, 0);
    cell.make.retrain_period = retrain_period;
    cell.make.backend = fleets[f].default_kind;
    cell.make.pipeline_backends = fleets[f].overrides;
    cells.push_back(cell);
  }
  // Reference cells: the non-ML floor and the clairvoyant ceiling.
  for (const sim::MethodId id :
       {sim::MethodId::kAdaptiveHash, sim::MethodId::kOracleTco}) {
    const auto grid = runner.make_grid(index, {id}, {quota});
    cells.insert(cells.end(), grid.begin(), grid.end());
  }

  const auto results = runner.run(cells);
  const double floor = results[results.size() - 2].result.tco_savings_pct();
  const double ceiling = results[results.size() - 1].result.tco_savings_pct();

  std::printf(
      "fleet,backends,tco_savings_pct,retrain_events,hints_on_time_frac\n");
  std::size_t within_band = 0;
  for (std::size_t f = 0; f < fleets.size(); ++f) {
    const auto& r = results[f].result;
    const double total = static_cast<double>(r.hints_on_time + r.hints_late +
                                             r.hints_dropped);
    const double savings = r.tco_savings_pct();
    if (savings >= floor && savings <= ceiling) ++within_band;
    std::printf("%s,%zu,%.3f,%llu,%.3f\n", fleets[f].name,
                fleets[f].overrides.empty() ? 1 : fleets[f].overrides.size(),
                savings, static_cast<unsigned long long>(r.retrain_events),
                total > 0.0 ? static_cast<double>(r.hints_on_time) / total
                            : 0.0);
  }
  std::printf("# AdaptiveHash floor %.3f, OracleTCO ceiling %.3f\n", floor,
              ceiling);
  std::printf("# fleets within [floor, ceiling]: %zu of %zu\n", within_band,
              fleets.size());
  return 0;
}
