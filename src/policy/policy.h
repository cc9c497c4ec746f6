// Placement-policy interface consumed by the cluster simulator's event
// engine, which also places the prototype path's jobs. A policy sees each
// arriving job (with only pre-execution knowledge), decides a target
// device, and receives feedback about the realized placement (including
// spillover when SSD was full).
#pragma once

#include <cstdint>
#include <string>

#include "trace/job.h"

namespace byom::policy {

enum class Device { kHdd, kSsd };

// What the storage layer actually did with a job.
struct PlacementOutcome {
  Device scheduled = Device::kHdd;   // the policy's decision
  double spill_fraction = 0.0;       // share of an SSD job forced onto HDD
  double ssd_time_share = 1.0;       // share of lifetime resident (eviction)
};

// Read-only view of storage-layer state at decision time.
struct StorageView {
  double now = 0.0;
  std::uint64_t ssd_capacity_bytes = 0;
  std::uint64_t ssd_used_bytes = 0;
  std::uint64_t ssd_free_bytes() const {
    return ssd_capacity_bytes > ssd_used_bytes
               ? ssd_capacity_bytes - ssd_used_bytes
               : 0;
  }
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  virtual std::string name() const = 0;

  // Decide the target device for an arriving job.
  virtual Device decide(const trace::Job& job, const StorageView& view) = 0;

  // Called after the simulator commits the placement.
  virtual void on_placed(const trace::Job& job,
                         const PlacementOutcome& outcome) {
    (void)job;
    (void)outcome;
  }

  // Optional early-eviction deadline in seconds after arrival (<= 0 keeps
  // the job on SSD for its whole lifetime). Used by the lifetime-prediction
  // ML baseline's mu + sigma eviction rule.
  virtual double eviction_ttl(const trace::Job& job) const {
    (void)job;
    return 0.0;
  }
};

}  // namespace byom::policy
