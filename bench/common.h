// Shared helpers for the figure/table benches: standard bench-sized
// clusters and their model config, policy and prototype replays, and the
// mixed prototype deployment. Adaptive ranking predicts through a model
// registry (MethodFactory cells, policy::make_byom_policy); nothing here
// holds a category table of its own.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/category_model.h"
#include "policy/adaptive.h"
#include "harness/experiment.h"
#include "storage/cache_server.h"
#include "trace/generator.h"

namespace byom::bench {

// Bench-sized generator config: smaller than production but large enough
// that every figure's qualitative shape is stable.
trace::GeneratorConfig bench_cluster_config(std::uint32_t cluster_id,
                                            int num_pipelines = 20,
                                            double days = 10.0);

struct BenchCluster {
  trace::TrainTestSplit split;
  std::unique_ptr<sim::MethodFactory> factory;
};

// Builds (and trains the category model for) one bench cluster.
// `categories` defaults to the paper's 15-class setup.
BenchCluster make_bench_cluster(std::uint32_t cluster_id,
                                int num_pipelines = 20, double days = 10.0,
                                int categories = 15);

// Model config used across benches (paper: 15 classes, <= 300 trees,
// depth <= 6).
core::CategoryModelConfig bench_model_config(int categories = 15);

// Runs an arbitrary policy on a test trace under a byte capacity.
sim::SimResult run_policy(policy::PlacementPolicy& policy,
                          const trace::Trace& test,
                          std::uint64_t capacity_bytes,
                          bool record_outcomes = false);

// The prototype path (paper section 5.2 / Appendix A): replays `test` on
// the event engine, then books every job's recorded outcome on a caching
// server, which routes the job's files, prices it and estimates its run
// time. The server's savings equal the replay's by construction.
storage::CacheServer run_prototype(policy::PlacementPolicy& policy,
                                   const trace::Trace& test,
                                   std::uint64_t capacity_bytes);

// Pretty header printed at the top of each bench's output.
void print_header(const std::string& figure, const std::string& description,
                  const std::string& paper_expectation);

// Mixed framework/non-framework prototype deployment (Appendix C.1):
// 4 HDD-suitable + 4 SSD-suitable framework pipelines and 10 + 10
// non-framework workloads, ~1:1 byte footprint, run through the prototype
// path (run_prototype): the event engine places each job and the caching
// server books it, keeping the per-workload-group savings split.
struct MixedDeploymentResult {
  // Savings in percent, per (method, workload-group) cell.
  double tco_framework = 0.0, tco_non_framework = 0.0;
  double tcio_framework = 0.0, tcio_non_framework = 0.0;
  double runtime_framework = 0.0, runtime_non_framework = 0.0;
};

struct MixedDeployment {
  std::vector<trace::Job> train;
  trace::Trace test;
  std::uint64_t peak_bytes = 0;
  // The 15-class category model trained once on `train`; every adaptive
  // ranking replay of the deployment shares it.
  std::shared_ptr<const core::CategoryModel> model;

  // Builds the workload mix deterministically from `seed` and trains its
  // category model.
  static MixedDeployment generate(std::uint64_t seed);

  // Replays the test phase under FirstFit or BYOM Adaptive Ranking.
  MixedDeploymentResult run_first_fit(double quota) const;
  MixedDeploymentResult run_adaptive_ranking(double quota) const;
};

}  // namespace byom::bench
