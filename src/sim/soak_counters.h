// Per-virtual-period soak counters (bench_soak): ScaleStore-style operator
// telemetry for long-horizon runs. Every SimConfig::counter_period seconds
// of virtual time the engine closes a window and emits one CounterRow of
// deltas to the configured CounterSink — savings, hint timeliness, retrain
// count, SSD occupancy — so a weeks-long soak produces an hour-by-hour CSV
// instead of a single end-of-run aggregate.
//
// Emission is read-only over engine state: enabling counters never changes
// the SimResult (pinned by stream_test).
#pragma once

#include <cstdint>

namespace byom::sim {

// One closed counter window. Monotone totals (jobs, hints, retrains, TCO)
// are window deltas; occupancy fields are instantaneous or running values,
// as noted. Window k covers virtual times (origin + (k-1)*period,
// origin + k*period]; a final partial window flushes whatever remains.
struct CounterRow {
  std::uint64_t index = 0;  // 0-based window index
  double t_end = 0.0;       // virtual time at window close (seconds)

  std::uint64_t jobs = 0;                // arrivals in the window
  std::uint64_t jobs_scheduled_ssd = 0;  // of which scheduled to SSD
  double tco_actual = 0.0;               // TCO accrued in the window
  double tco_all_hdd = 0.0;              // all-HDD baseline for the window
  // Window savings percentage: 100 * (all_hdd - actual) / all_hdd.
  double tco_savings_pct = 0.0;

  // Hint-timeliness deltas (zero when no hint service is wired): on-time
  // and late hints count in the window of their decision, drops in the
  // window of their enqueue.
  std::uint64_t hints_on_time = 0;
  std::uint64_t hints_late = 0;
  std::uint64_t hints_dropped = 0;
  // on_time / (on_time + late + dropped) within the window; 0 if none.
  double hint_on_time_fraction = 0.0;

  std::uint64_t retrain_events = 0;  // retrains fired in the window

  std::uint64_t ssd_used_bytes = 0;       // occupancy at window close
  std::uint64_t peak_ssd_used_bytes = 0;  // running peak (cumulative)
};

// Receives rows as windows close, in index order, during the run.
class CounterSink {
 public:
  virtual ~CounterSink() = default;
  virtual void on_row(const CounterRow& row) = 0;
};

}  // namespace byom::sim
