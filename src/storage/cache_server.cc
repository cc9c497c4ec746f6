#include "storage/cache_server.h"

#include <algorithm>

namespace byom::storage {

CacheServer::CacheServer(cost::Rates rates) : cost_model_(rates) {}

double CacheServer::estimate_runtime(const trace::Job& job,
                                     double ssd_share) const {
  // The trace lifetime is the HDD-placed run time (workloads are written
  // assuming HDD storage, paper section 3). Split it into a compute phase
  // and an I/O phase using the device model, then re-time the I/O phase on
  // the realized placement. Savings are opportunistic, never regressions.
  const double workers = std::max<double>(
      1.0, static_cast<double>(job.resources.bucket_sizing_num_workers));
  const auto inputs = job.cost_inputs();
  Device hdd(DeviceKind::kHdd);
  Device ssd(DeviceKind::kSsd);
  const double bytes = static_cast<double>(job.io.total_bytes());
  const double hdd_io = hdd.service_seconds(inputs.io.disk_ops(), bytes,
                                            workers);
  const double ssd_io =
      ssd.service_seconds(inputs.io.disk_ops(), bytes, workers);
  const double io_phase_hdd = std::min(job.lifetime * 0.9, hdd_io);
  const double compute_phase = job.lifetime - io_phase_hdd;
  const double io_phase =
      io_phase_hdd * (1.0 - ssd_share) +
      (hdd_io > 0.0 ? io_phase_hdd * (ssd_io / hdd_io) : 0.0) * ssd_share;
  return compute_phase + io_phase;
}

PlacedJob CacheServer::record(const trace::Job& job, policy::Device device,
                              double ssd_share, double ssd_time_share) {
  PlacedJob placed;
  placed.job_id = job.job_id;
  placed.device = device;
  placed.spill_fraction =
      device == policy::Device::kSsd ? 1.0 - ssd_share : 0.0;
  placed.framework_workload = job.framework_workload;

  // Route the job's intermediate file through the filesystem substrate so
  // device counters, cache residency, and chunking all see real traffic.
  const std::uint64_t file_id = next_file_id_++;
  const DeviceKind tier = device == policy::Device::kSsd && ssd_share > 0.5
                              ? DeviceKind::kSsd
                              : DeviceKind::kHdd;
  fs_.create(file_id, tier, job.arrival_time);
  const double write_ops =
      job.io.avg_write_block > 0.0
          ? static_cast<double>(job.io.bytes_written) / job.io.avg_write_block
          : 0.0;
  const double read_ops =
      job.io.avg_read_block > 0.0
          ? static_cast<double>(job.io.bytes_read) / job.io.avg_read_block
          : 0.0;
  const double workers = std::max<double>(
      1.0, static_cast<double>(job.resources.bucket_sizing_num_workers));
  fs_.write(file_id, job.io.bytes_written, write_ops, workers);
  fs_.read(file_id, job.io.bytes_read, read_ops, workers);
  fs_.remove(file_id);

  const auto inputs = job.cost_inputs();
  placed.tco_hdd = job.cost_hdd;
  placed.tcio_seconds_hdd = cost_model_.tcio_seconds_hdd(inputs);
  if (device == policy::Device::kSsd) {
    placed.tco = cost_model_.cost_mixed(inputs, ssd_share, ssd_time_share);
    placed.tcio_seconds =
        cost_model_.tcio_seconds_mixed(inputs, ssd_share, ssd_time_share);
  } else {
    placed.tco = placed.tco_hdd;
    placed.tcio_seconds = placed.tcio_seconds_hdd;
  }
  placed.runtime_hdd_seconds = job.lifetime;
  placed.runtime_seconds =
      estimate_runtime(job, ssd_share * ssd_time_share);
  placements_.push_back(placed);
  return placed;
}

namespace {

template <typename Getter>
double savings_pct(const std::vector<PlacedJob>& placements,
                   bool framework_only, bool framework_value,
                   Getter actual, Getter baseline) {
  double total_actual = 0.0;
  double total_baseline = 0.0;
  for (const auto& p : placements) {
    if (framework_only && p.framework_workload != framework_value) continue;
    total_actual += actual(p);
    total_baseline += baseline(p);
  }
  if (total_baseline <= 0.0) return 0.0;
  return 100.0 * (total_baseline - total_actual) / total_baseline;
}

}  // namespace

double CacheServer::tco_savings_pct(bool framework_only,
                                    bool framework_value) const {
  return savings_pct(
      placements_, framework_only, framework_value,
      +[](const PlacedJob& p) { return p.tco; },
      +[](const PlacedJob& p) { return p.tco_hdd; });
}

double CacheServer::tcio_savings_pct(bool framework_only,
                                     bool framework_value) const {
  return savings_pct(
      placements_, framework_only, framework_value,
      +[](const PlacedJob& p) { return p.tcio_seconds; },
      +[](const PlacedJob& p) { return p.tcio_seconds_hdd; });
}

double CacheServer::runtime_savings_pct(bool framework_only,
                                        bool framework_value) const {
  return savings_pct(
      placements_, framework_only, framework_value,
      +[](const PlacedJob& p) { return p.runtime_seconds; },
      +[](const PlacedJob& p) { return p.runtime_hdd_seconds; });
}

}  // namespace byom::storage
