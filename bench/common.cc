#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/histogram.h"
#include "core/byom.h"
#include "policy/byom_policy.h"
#include "framework/pipeline_runner.h"
#include "policy/first_fit.h"

namespace byom::bench {

trace::GeneratorConfig bench_cluster_config(std::uint32_t cluster_id,
                                            int num_pipelines, double days) {
  trace::GeneratorConfig cfg = trace::canonical_cluster_config(cluster_id);
  cfg.num_pipelines = num_pipelines;
  cfg.duration = days * 86400.0;
  return cfg;
}

core::CategoryModelConfig bench_model_config(int categories) {
  core::CategoryModelConfig cfg;
  cfg.num_categories = categories;
  cfg.gbdt.num_rounds = 20;
  cfg.gbdt.max_trees_total = 300;
  return cfg;
}

BenchCluster make_bench_cluster(std::uint32_t cluster_id, int num_pipelines,
                                double days, int categories) {
  BenchCluster cluster;
  const auto cfg = bench_cluster_config(cluster_id, num_pipelines, days);
  cluster.split =
      trace::split_train_test(trace::generate_cluster_trace(cfg));
  cluster.factory = std::make_unique<sim::MethodFactory>(
      cluster.split.train, cfg.rates, bench_model_config(categories));
  return cluster;
}

sim::SimResult run_policy(policy::PlacementPolicy& policy,
                          const trace::Trace& test,
                          std::uint64_t capacity_bytes,
                          bool record_outcomes) {
  sim::SimConfig cfg;
  cfg.ssd_capacity_bytes = capacity_bytes;
  cfg.record_outcomes = record_outcomes;
  return sim::simulate(test, policy, cfg);
}

storage::CacheServer run_prototype(policy::PlacementPolicy& policy,
                                   const trace::Trace& test,
                                   std::uint64_t capacity_bytes) {
  const sim::SimResult result =
      run_policy(policy, test, capacity_bytes, /*record_outcomes=*/true);
  storage::CacheServer server;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const sim::JobOutcome& outcome = result.outcomes[i];
    server.record(test.jobs()[i], outcome.scheduled, outcome.ssd_share,
                  outcome.ssd_time_share);
  }
  return server;
}

void print_header(const std::string& figure, const std::string& description,
                  const std::string& paper_expectation) {
  std::printf("# %s\n", figure.c_str());
  std::printf("# %s\n", description.c_str());
  std::printf("# paper expectation: %s\n", paper_expectation.c_str());
}

MixedDeployment MixedDeployment::generate(std::uint64_t seed) {
  framework::PipelineRunner runner(cost::Rates{}, seed);
  struct Entry {
    framework::FrameworkPipeline pipeline;
    double period;
  };
  std::vector<Entry> entries;
  // 4 + 4 framework pipelines (HDD-suitable ETL + SSD-suitable joins).
  for (int i = 0; i < 4; ++i) {
    entries.push_back({framework::make_prototype_pipeline(0, i, seed),
                       4.0 * 3600.0});
    entries.push_back({framework::make_prototype_pipeline(1, 10 + i, seed),
                       1800.0});
  }
  // 10 + 10 non-framework workloads (ML checkpointing + compress/upload).
  for (int i = 0; i < 10; ++i) {
    entries.push_back({framework::make_prototype_pipeline(2, 20 + i, seed),
                       3.0 * 3600.0});
    entries.push_back({framework::make_prototype_pipeline(3, 40 + i, seed),
                       1200.0});
  }

  std::vector<trace::Job> jobs;
  for (double t = 0.0; t < 2.0 * 86400.0; t += 600.0) {
    for (std::size_t p = 0; p < entries.size(); ++p) {
      if (std::fmod(t + static_cast<double>(p) * 211.0, entries[p].period) <
          600.0) {
        for (auto& j : runner.run(entries[p].pipeline, t)) {
          jobs.push_back(std::move(j));
        }
      }
    }
  }
  std::sort(jobs.begin(), jobs.end(),
            [](const trace::Job& a, const trace::Job& b) {
              return a.arrival_time < b.arrival_time;
            });

  MixedDeployment d;
  const std::size_t half = jobs.size() / 2;
  d.train.assign(jobs.begin(), jobs.begin() + static_cast<std::ptrdiff_t>(half));
  d.test = trace::Trace(
      0, std::vector<trace::Job>(
             jobs.begin() + static_cast<std::ptrdiff_t>(half), jobs.end()));
  common::IntervalSeries series;
  for (const auto& j : d.test.jobs()) {
    series.add(j.arrival_time, j.end_time(),
               static_cast<double>(j.peak_bytes));
  }
  d.peak_bytes = static_cast<std::uint64_t>(series.peak());
  // All four workload families bring gradient-boosted-tree category models
  // (Appendix C.1); one registry model per pipeline family works the same
  // way here as one model per workload.
  d.model = std::make_shared<const core::CategoryModel>(
      core::CategoryModel::train(d.train, bench_model_config(15)));
  return d;
}

namespace {

MixedDeploymentResult measure(const storage::CacheServer& server) {
  MixedDeploymentResult r;
  r.tco_framework = server.tco_savings_pct(true, true);
  r.tco_non_framework = server.tco_savings_pct(true, false);
  r.tcio_framework = server.tcio_savings_pct(true, true);
  r.tcio_non_framework = server.tcio_savings_pct(true, false);
  r.runtime_framework = server.runtime_savings_pct(true, true);
  r.runtime_non_framework = server.runtime_savings_pct(true, false);
  return r;
}

}  // namespace

MixedDeploymentResult MixedDeployment::run_first_fit(double quota) const {
  const auto cap =
      static_cast<std::uint64_t>(static_cast<double>(peak_bytes) * quota);
  policy::FirstFitPolicy first_fit;
  return measure(run_prototype(first_fit, test, cap));
}

MixedDeploymentResult MixedDeployment::run_adaptive_ranking(
    double quota) const {
  const auto cap =
      static_cast<std::uint64_t>(static_cast<double>(peak_bytes) * quota);
  auto registry = std::make_shared<core::ModelRegistry>();
  registry->set_default_model(model);
  policy::ByomPolicyOptions options;
  options.adaptive.num_categories = model->num_categories();
  // One batched inference pass over the replayed jobs; the engine's
  // per-arrival decisions then consume precomputed hints.
  options.precompute_jobs = &test.jobs();
  const auto ranking = policy::make_byom_policy(registry, options);
  return measure(run_prototype(*ranking, test, cap));
}

}  // namespace byom::bench
