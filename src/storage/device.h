// Storage device models: HDD (IOPS/seek bound) and SSD (bandwidth bound,
// P/E wearout). Used by the storage substrate to account realized I/O and
// by the application-runtime model (paper Figure 14).
#pragma once

#include <cstdint>

namespace byom::storage {

enum class DeviceKind { kHdd, kSsd };

struct HddParams {
  double iops_capacity = 150.0;        // ops/s one spindle sustains
  double seek_seconds = 0.008;         // average positioning time
  double bandwidth_bytes_per_s = 160.0e6;
};

struct SsdParams {
  double iops_capacity = 100000.0;
  double op_latency_seconds = 0.00015;
  double bandwidth_bytes_per_s = 1200.0e6;
  // Total-bytes-written rating; writes beyond this have consumed the drive.
  double endurance_bytes = 3.0e15;
};

// Tracks cumulative traffic against one device and answers service-time
// queries. Value type; the file system owns one per tier.
class Device {
 public:
  explicit Device(DeviceKind kind) : kind_(kind) {}

  DeviceKind kind() const { return kind_; }
  const HddParams& hdd() const { return hdd_; }
  const SsdParams& ssd() const { return ssd_; }

  // Seconds to serve `ops` operations moving `bytes` in total, with
  // `parallelism` concurrent streams (workers) on the client side.
  double service_seconds(double ops, double bytes, double parallelism) const;

  // Account traffic (wearout accrues for SSD writes).
  void record_read(double ops, double bytes);
  void record_write(double ops, double bytes);

  double total_read_bytes() const { return read_bytes_; }
  double total_written_bytes() const { return written_bytes_; }
  double total_ops() const { return read_ops_ + write_ops_; }
  // Fraction of SSD endurance consumed so far (0 for HDD).
  double wearout_fraction() const;

 private:
  DeviceKind kind_;
  HddParams hdd_;
  SsdParams ssd_;
  double read_ops_ = 0.0, write_ops_ = 0.0;
  double read_bytes_ = 0.0, written_bytes_ = 0.0;
};

}  // namespace byom::storage
