// Figure 10: generalization to new users (upper) and new pipelines (lower).
// For each cluster, pick the second-largest TCO-consuming user/pipeline,
// train the category model once WITH and once WITHOUT its jobs, and compare
// TCO savings across the quota sweep. Paper finding: the two curves nearly
// coincide - the approach handles new users/pipelines gracefully.
//
// Both variants of every cluster register as their own ExperimentRunner
// cluster over the shared test trace, so the whole
// (study x cluster x variant x quota) grid shards across the pool in one
// run() (fig08 pattern); each AdaptiveRanking cell predicts its test trace
// in one batched pass through its factory's model registry.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "harness/experiment_runner.h"

using namespace byom;

namespace {

// Key of the second-largest total-HDD-TCO group under `key_fn`.
template <typename KeyFn>
std::string second_largest_group(const trace::Trace& trace, KeyFn key_fn) {
  std::map<std::string, double> tco;
  for (const auto& j : trace.jobs()) tco[key_fn(j)] += j.cost_hdd;
  std::string best, second;
  double best_v = -1.0, second_v = -1.0;
  for (const auto& [key, v] : tco) {
    if (v > best_v) {
      second = best;
      second_v = best_v;
      best = key;
      best_v = v;
    } else if (v > second_v) {
      second = key;
      second_v = v;
    }
  }
  return second.empty() ? best : second;
}

// One cluster's with/without-the-target pair of trained factories.
struct Study {
  const char* label;
  std::uint32_t cluster_id;
  trace::TrainTestSplit split;
  std::unique_ptr<sim::MethodFactory> with_factory;
  std::unique_ptr<sim::MethodFactory> without_factory;
  std::size_t with_index = 0;
  std::size_t without_index = 0;
};

std::unique_ptr<sim::MethodFactory> make_factory(trace::Trace train) {
  return std::make_unique<sim::MethodFactory>(
      std::move(train), cost::Rates{}, bench::bench_model_config(10));
}

template <typename KeyFn>
void collect_studies(const char* label, KeyFn key_fn,
                     std::vector<Study>& studies) {
  for (std::uint32_t cid : {0u, 1u, 2u, 4u, 5u}) {
    const auto cfg = bench::bench_cluster_config(cid, 14, 8.0);
    auto split = trace::split_train_test(trace::generate_cluster_trace(cfg));
    const std::string target = second_largest_group(split.train, key_fn);

    std::vector<trace::Job> without;
    for (const auto& j : split.train.jobs()) {
      if (key_fn(j) != target) without.push_back(j);
    }
    if (without.size() < 300 || without.size() == split.train.size()) {
      continue;  // degenerate cluster for this grouping
    }

    Study study;
    study.label = label;
    study.cluster_id = cid;
    study.split = std::move(split);
    study.with_factory = make_factory(study.split.train);
    study.without_factory =
        make_factory(trace::Trace(cid, std::move(without)));
    studies.push_back(std::move(study));
  }
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 10: generalization to new users (upper) and pipelines (lower)",
      "TCO savings curves with the 2nd-largest user/pipeline included vs "
      "excluded from training",
      "with/without curves nearly coincide in every cluster");

  std::vector<Study> studies;
  collect_studies("user", [](const trace::Job& j) { return j.owner; },
                  studies);
  collect_studies("pipeline",
                  [](const trace::Job& j) { return j.pipeline_name; },
                  studies);

  const std::vector<double> quotas = {0.01, 0.05, 0.2, 0.5, 1.0};
  sim::ExperimentRunner runner;
  std::vector<sim::ExperimentCell> cells;
  for (auto& study : studies) {
    study.with_index =
        runner.add_cluster(study.with_factory.get(), &study.split.test);
    study.without_index =
        runner.add_cluster(study.without_factory.get(), &study.split.test);
    for (const std::size_t index : {study.with_index, study.without_index}) {
      const auto grid =
          runner.make_grid(index, {sim::MethodId::kAdaptiveRanking}, quotas);
      cells.insert(cells.end(), grid.begin(), grid.end());
    }
  }
  const auto results = runner.run(cells);

  const auto savings_of = [&](std::size_t cluster, double quota) {
    for (const auto& result : results) {
      if (result.cell.cluster == cluster && result.cell.quota == quota) {
        return result.result.tco_savings_pct();
      }
    }
    return 0.0;
  };

  const char* current_label = "";
  for (const auto& study : studies) {
    if (std::string(current_label) != study.label) {
      current_label = study.label;
      std::printf("%s:cluster,quota,train_with,train_without\n",
                  current_label);
    }
    for (const double quota : quotas) {
      std::printf("%s:%u,%.2f,%.3f,%.3f\n", study.label, study.cluster_id,
                  quota, savings_of(study.with_index, quota),
                  savings_of(study.without_index, quota));
    }
  }
  return 0;
}
