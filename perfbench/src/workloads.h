// The benchmark's workloads and its two kinds of run.
//
// Every workload is one streamed, served simulation cell of canonical
// cluster 0 (40 pipelines): a fixed 7-day training week, a replayed 7-day
// window after it, a 5% SSD quota, on one thread in one process. The seed
// moves the replayed window's start by up to an hour.
//
//   untraced run  (--trace 0): rounds of (set up, replay through
//                 harness::run_method_streaming for a share of the
//                 requested seconds); reports the end-to-end metrics.
//   traced run    (--trace 1): set up once with every phase timed, then
//                 alternate untraced and traced replays (traced_replay),
//                 timing make_feature_matrix over the window after each
//                 traced one; reports the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Both workloads are kAdaptiveServedLatency cells: a 0.5 s mean hint
// latency against the 1 s deadline, hints submitted at arrival.
struct WorkloadSpec {
  std::string name;
  // false: the GBDT cluster model with a daily retrain. true: the
  // bring-your-own-model fleet, every pipeline bringing its own backend
  // (kinds round-robin over GBDT, logistic and frequency), no retrain.
  bool per_pipeline_backends = false;
};

// Looks a workload up by name; false when there is none.
bool find_workload(const std::string& name, WorkloadSpec* out);

struct RunOptions {
  WorkloadSpec workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  // traced run: where to write the spans JSON
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;  // jobs replayed
  std::uint64_t failed = 0;     // jobs of replays that failed a check
  std::vector<std::string> failures;
  std::string digest;           // SimResult digest of this seed's cell
  std::uint64_t replays = 0;
  std::uint64_t jobs_per_replay = 0;
};

RunReport run_workload(const RunOptions& options);

// Peak resident set (VmHWM) in kB; 0 when unreadable.
std::uint64_t peak_rss_kb();

}  // namespace perfbench
