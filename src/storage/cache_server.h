// Caching server: the dedicated tiering service of the production setup
// (paper section 2.4 / Appendix A), as the consumer of placements the
// event engine (sim::simulate) has already made. Admission, spill and SSD
// release happen once, in the engine; the server books each job's outcome:
// it routes the job's files to the realized tier through the filesystem
// substrate, prices the job, and keeps the framework / non-framework
// savings split of the mixed deployment (paper Figures 13 and 14).
//
// It also estimates application run time per job under the realized
// placement (paper Figure 14): a job's measured lifetime is assumed to have
// been achieved on HDD; moving its I/O to SSD shortens only the I/O phase.
#pragma once

#include <cstdint>
#include <vector>

#include "cost/cost_model.h"
#include "policy/policy.h"
#include "storage/file_system.h"
#include "trace/trace.h"

namespace byom::storage {

struct PlacedJob {
  std::uint64_t job_id = 0;
  policy::Device device = policy::Device::kHdd;
  double spill_fraction = 0.0;
  double runtime_seconds = 0.0;       // realized (placement-aware)
  double runtime_hdd_seconds = 0.0;   // counterfactual all-HDD run time
  double tco = 0.0;
  double tco_hdd = 0.0;
  double tcio_seconds = 0.0;
  double tcio_seconds_hdd = 0.0;
  bool framework_workload = true;
};

class CacheServer {
 public:
  explicit CacheServer(cost::Rates rates = {});

  // Books one placed job: file routing, cost and run-time accounting.
  // `device` is the policy's decision; `ssd_share` is the fraction of the
  // job's peak bytes granted on SSD (0 for HDD jobs) and `ssd_time_share`
  // the fraction of its lifetime resident there, exactly as the engine
  // priced them (sim::JobOutcome). Jobs are recorded in replay order.
  PlacedJob record(const trace::Job& job, policy::Device device,
                   double ssd_share, double ssd_time_share);

  const std::vector<PlacedJob>& placements() const { return placements_; }
  const FileSystem& file_system() const { return fs_; }

  // Aggregate savings across everything recorded so far, in percent
  // relative to the all-HDD baseline.
  double tco_savings_pct(bool framework_only, bool framework_value) const;
  double tcio_savings_pct(bool framework_only, bool framework_value) const;
  double runtime_savings_pct(bool framework_only, bool framework_value) const;

 private:
  double estimate_runtime(const trace::Job& job, double ssd_share) const;

  cost::CostModel cost_model_;
  FileSystem fs_;
  std::vector<PlacedJob> placements_;
  std::uint64_t next_file_id_ = 1;
};

}  // namespace byom::storage
