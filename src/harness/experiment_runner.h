// Parallel experiment engine: shards a (cluster x method x quota x seed)
// grid of simulation cells across a fixed-size thread pool.
//
// Each cell is fully independent — it builds its own policy from a shared
// (immutable after warm-up) MethodFactory and replays the deterministic
// simulator — so the engine guarantees results bit-identical to running the
// same cells serially through run_method(), regardless of thread count or
// scheduling order. Per-cell RNG seeds are derived deterministically from
// the grid coordinates (not from execution order), so any stochastic
// component a cell may grow later stays reproducible too.
#pragma once

#include <cstdint>
#include <vector>

#include "framework/thread_pool.h"
#include "harness/experiment.h"

namespace byom::sim {

struct ExperimentCell {
  std::size_t cluster = 0;  // index returned by ExperimentRunner::add_cluster
  MethodId method = MethodId::kFirstFit;
  double quota = 0.1;       // fraction of the test trace's peak usage
  // Deterministic per-cell seed: run_cell passes it as make.noise_seed,
  // seeding the cell's stochastic components (hint noise, serving latency,
  // staleness draws).
  std::uint64_t seed = 0;
  // Per-cell construction knobs (Algorithm-1 override, hint noise, serving
  // latency, retrain cadence, backend selection); make.noise_seed is
  // ignored in favour of `seed`.
  MakeOptions make;
  bool record_outcomes = false;
};

struct CellResult {
  ExperimentCell cell;
  std::uint64_t capacity_bytes = 0;
  SimResult result;
};

// Deterministic seed for grid coordinates: identical regardless of how the
// grid is sharded or which worker runs the cell.
std::uint64_t derive_cell_seed(std::uint64_t base_seed, std::size_t cluster,
                               MethodId method, std::size_t quota_index,
                               std::size_t repeat);

class ExperimentRunner {
 public:
  // `num_threads == 0` uses the hardware concurrency.
  explicit ExperimentRunner(std::size_t num_threads = 0);

  std::size_t num_threads() const { return pool_.num_threads(); }

  // Registers a cluster's trained factory and test trace (both borrowed;
  // they must outlive run()). Returns the cluster index for cells.
  std::size_t add_cluster(const MethodFactory* factory,
                          const trace::Trace* test);

  // Cross-product helper: every (method, quota) pair for one cluster, with
  // per-cell seeds derived from `base_seed` and the grid coordinates.
  std::vector<ExperimentCell> make_grid(std::size_t cluster,
                                        const std::vector<MethodId>& methods,
                                        const std::vector<double>& quotas,
                                        std::uint64_t base_seed = 0) const;

  // Runs every cell across the pool. Results come back in cell order and
  // are bit-identical to a serial run_method() loop over the same cells.
  std::vector<CellResult> run(const std::vector<ExperimentCell>& cells) const;

  // Serial reference path (also used by the determinism test and the
  // speedup microbench): same cells, same results, one thread, no pool.
  std::vector<CellResult> run_serial(
      const std::vector<ExperimentCell>& cells) const;

 private:
  struct Cluster {
    const MethodFactory* factory = nullptr;
    const trace::Trace* test = nullptr;
    // Cached test-trace peak so cells do not recompute the O(n log n)
    // concurrent-usage scan per quota point.
    std::uint64_t peak_bytes = 0;
  };

  CellResult run_cell(const ExperimentCell& cell) const;
  void warm_models(const std::vector<ExperimentCell>& cells) const;

  mutable framework::ThreadPool pool_;
  std::vector<Cluster> clusters_;
};

}  // namespace byom::sim
