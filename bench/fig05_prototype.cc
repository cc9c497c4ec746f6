// Figure 5: prototype results. End-to-end deployment through the framework
// and storage substrates: 16 pipelines run continuously, producing ~1024
// shuffle jobs (~3.6 TiB peak in the paper); FirstFit and Adaptive Ranking
// are deployed at SSD quotas of 1% and 20% of peak usage. Each deployment
// is placed by the simulator's event engine and booked on a caching
// server (bench::run_prototype), so the paper's section 5.2 validation of
// the simulator against the prototype holds exactly, by construction.
// Paper numbers: TCO savings 1.14% (4.38x FirstFit) at 1%, 2.48% (1.77x)
// at 20%; TCIO savings 3.90x and 1.69x FirstFit respectively.
#include <cstdio>
#include <future>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "common.h"
#include "common/histogram.h"
#include "core/byom.h"
#include "policy/byom_policy.h"
#include "framework/pipeline_runner.h"
#include "framework/thread_pool.h"
#include "policy/first_fit.h"
#include "sim/metrics.h"
#include "storage/cache_server.h"

using namespace byom;

namespace {

// Executes the 16-pipeline mix long enough to produce ~1024 shuffle jobs.
std::vector<trace::Job> run_prototype_workloads(std::uint64_t seed) {
  framework::PipelineRunner runner(cost::Rates{}, seed);
  std::vector<framework::FrameworkPipeline> pipelines;
  for (int i = 0; i < 8; ++i) {
    pipelines.push_back(framework::make_prototype_pipeline(0, i, seed));
    pipelines.push_back(framework::make_prototype_pipeline(1, i + 8, seed));
  }
  std::vector<trace::Job> jobs;
  // HDD-suitable pipelines run every 2 h; SSD-suitable every 45 min.
  for (double t = 0.0; t < 5.0 * 86400.0; t += 900.0) {
    for (std::size_t p = 0; p < pipelines.size(); ++p) {
      const bool ssd_suitable = p % 2 == 1;
      const double period = ssd_suitable ? 2700.0 : 7200.0;
      if (std::fmod(t + static_cast<double>(p) * 300.0, period) < 900.0) {
        for (auto& j : runner.run(pipelines[p], t)) {
          jobs.push_back(std::move(j));
        }
      }
    }
    if (jobs.size() >= 2048) break;
  }
  std::sort(jobs.begin(), jobs.end(),
            [](const trace::Job& a, const trace::Job& b) {
              return a.arrival_time < b.arrival_time;
            });
  return jobs;
}

// One deployment = one prototype replay; returns {TCO, TCIO} savings.
std::pair<double, double> run_deployment(const trace::Trace& test,
                                         policy::PlacementPolicy& policy,
                                         std::uint64_t capacity) {
  const storage::CacheServer server =
      bench::run_prototype(policy, test, capacity);
  return {server.tco_savings_pct(false, false),
          server.tcio_savings_pct(false, false)};
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 5: prototype results (framework + storage substrates)",
      "TCIO and TCO savings at 1%/20% SSD quota, AdaptiveRanking vs FirstFit",
      "AdaptiveRanking/FirstFit: TCO 4.38x @1%, 1.77x @20%; TCIO 3.90x @1%, "
      "1.69x @20%");

  const auto jobs = run_prototype_workloads(2025);
  const std::size_t half = jobs.size() / 2;
  const std::vector<trace::Job> train(jobs.begin(), jobs.begin() + half);
  const trace::Trace test(
      0, std::vector<trace::Job>(jobs.begin() + half, jobs.end()));

  // Peak concurrent usage of the test phase defines the quota base.
  common::IntervalSeries series;
  for (const auto& j : test.jobs()) {
    series.add(j.arrival_time, j.end_time(),
               static_cast<double>(j.peak_bytes));
  }
  const double peak = series.peak();
  std::printf("# jobs total=%zu, test=%zu, test peak=%.2f TiB\n", jobs.size(),
              test.size(), peak / (1024.0 * 1024.0 * 1024.0 * 1024.0));

  // Train the per-deployment category model and wire the BYOM registry.
  auto model_config = bench::bench_model_config(15);
  auto model = std::make_shared<core::CategoryModel>(
      core::CategoryModel::train(train, model_config));

  auto registry = std::make_shared<core::ModelRegistry>();
  registry->set_default_model(model);
  policy::AdaptiveConfig acfg;
  acfg.num_categories = model->num_categories();
  // The prototype run spans days, not weeks: use the fast end of the
  // paper's hyperparameter grid so the ACT transient stays negligible.
  acfg.decision_interval = 600.0;
  acfg.lookback_window = 900.0;

  // The four (method, quota) deployments are independent prototype
  // replays; shard them across the pool. The BYOM policy consumes one
  // batched inference pass over the test jobs per deployment.
  std::printf("method,quota,tco_savings_pct,tcio_savings_pct\n");
  double ff_tco[2], ff_tcio[2], ar_tco[2], ar_tcio[2];
  const double quotas[2] = {0.01, 0.20};
  framework::ThreadPool pool;
  std::vector<std::future<std::pair<double, double>>> ff_runs, ar_runs;
  for (int qi = 0; qi < 2; ++qi) {
    const auto cap = static_cast<std::uint64_t>(peak * quotas[qi]);
    ff_runs.push_back(pool.submit([&test, cap] {
      policy::FirstFitPolicy first_fit;
      return run_deployment(test, first_fit, cap);
    }));
    ar_runs.push_back(pool.submit([&test, registry, acfg, cap] {
      policy::ByomPolicyOptions options;
      options.adaptive = acfg;
      options.precompute_jobs = &test.jobs();
      const auto ranking = policy::make_byom_policy(registry, options);
      return run_deployment(test, *ranking, cap);
    }));
  }
  for (int qi = 0; qi < 2; ++qi) {
    const auto q = static_cast<std::size_t>(qi);
    std::tie(ff_tco[qi], ff_tcio[qi]) = ff_runs[q].get();
    std::tie(ar_tco[qi], ar_tcio[qi]) = ar_runs[q].get();
    std::printf("FirstFit,%.2f,%.3f,%.3f\n", quotas[qi], ff_tco[qi],
                ff_tcio[qi]);
    std::printf("AdaptiveRanking,%.2f,%.3f,%.3f\n", quotas[qi], ar_tco[qi],
                ar_tcio[qi]);
  }
  std::printf("# TCO improvement: %s @1%%, %s @20%% (paper: 4.38x, 1.77x)\n",
              sim::improvement_factor(ar_tco[0], ff_tco[0]).c_str(),
              sim::improvement_factor(ar_tco[1], ff_tco[1]).c_str());
  std::printf("# TCIO improvement: %s @1%%, %s @20%% (paper: 3.90x, 1.69x)\n",
              sim::improvement_factor(ar_tcio[0], ff_tcio[0]).c_str(),
              sim::improvement_factor(ar_tcio[1], ff_tcio[1]).c_str());
  return 0;
}
