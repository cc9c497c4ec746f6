#include "harness/experiment_runner.h"

#include <stdexcept>

#include "common/rng.h"

namespace byom::sim {

std::uint64_t derive_cell_seed(std::uint64_t base_seed, std::size_t cluster,
                               MethodId method, std::size_t quota_index,
                               std::size_t repeat) {
  std::uint64_t state = base_seed;
  common::split_mix64(state);
  state ^= 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(cluster) + 1);
  common::split_mix64(state);
  state ^= 0xC2B2AE3D27D4EB4FULL *
           (static_cast<std::uint64_t>(method) + 1);
  common::split_mix64(state);
  state ^= 0x165667B19E3779F9ULL *
           (static_cast<std::uint64_t>(quota_index) + 1);
  common::split_mix64(state);
  state ^= 0x27D4EB2F165667C5ULL * (static_cast<std::uint64_t>(repeat) + 1);
  return common::split_mix64(state);
}

ExperimentRunner::ExperimentRunner(std::size_t num_threads)
    : pool_(num_threads) {}

std::size_t ExperimentRunner::add_cluster(const MethodFactory* factory,
                                          const trace::Trace* test) {
  if (factory == nullptr || test == nullptr) {
    throw std::invalid_argument("ExperimentRunner: null cluster");
  }
  clusters_.push_back({factory, test, test->peak_concurrent_bytes()});
  return clusters_.size() - 1;
}

std::vector<ExperimentCell> ExperimentRunner::make_grid(
    std::size_t cluster, const std::vector<MethodId>& methods,
    const std::vector<double>& quotas, std::uint64_t base_seed) const {
  std::vector<ExperimentCell> cells;
  cells.reserve(methods.size() * quotas.size());
  for (std::size_t q = 0; q < quotas.size(); ++q) {
    for (const MethodId method : methods) {
      ExperimentCell cell;
      cell.cluster = cluster;
      cell.method = method;
      cell.quota = quotas[q];
      cell.seed = derive_cell_seed(base_seed, cluster, method, q, 0);
      cells.push_back(cell);
    }
  }
  return cells;
}

void ExperimentRunner::warm_models(
    const std::vector<ExperimentCell>& cells) const {
  // Train each referenced cluster's lazy models (including every backend
  // kind the cells select) once, up front, so worker threads share the
  // finished artifacts instead of serializing on the factory's training
  // lock mid-run.
  for (const auto& cell : cells) {
    if (cell.cluster >= clusters_.size()) {
      throw std::out_of_range("ExperimentRunner: cell references unknown "
                              "cluster");
    }
    clusters_[cell.cluster].factory->warm(cell.method, cell.make);
  }
}

CellResult ExperimentRunner::run_cell(const ExperimentCell& cell) const {
  const Cluster& cluster = clusters_[cell.cluster];
  CellResult out;
  out.cell = cell;
  out.capacity_bytes = quota_capacity(cluster.peak_bytes, cell.quota);
  MakeOptions options = cell.make;
  options.noise_seed = cell.seed;
  out.result = run_method(*cluster.factory, cell.method, *cluster.test,
                          out.capacity_bytes, options, cell.record_outcomes);
  return out;
}

std::vector<CellResult> ExperimentRunner::run(
    const std::vector<ExperimentCell>& cells) const {
  warm_models(cells);
  std::vector<CellResult> results(cells.size());
  pool_.parallel_for(0, cells.size(),
                     [&](std::size_t i) { results[i] = run_cell(cells[i]); });
  return results;
}

std::vector<CellResult> ExperimentRunner::run_serial(
    const std::vector<ExperimentCell>& cells) const {
  warm_models(cells);
  std::vector<CellResult> results(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    results[i] = run_cell(cells[i]);
  }
  return results;
}

}  // namespace byom::sim
