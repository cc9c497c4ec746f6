// Model-staleness dynamics (paper section 6): how much of the savings
// survives as the deployed category model ages, and how retraining cadence
// restores it.
//
// A StalenessSchedule describes the deployment's retraining policy on the
// *virtual* timeline: the model serving hints was trained at `epoch_start`
// and is retrained (refreshed on current data) every `retrain_period`
// seconds. Between retrains the model's view of the workload drifts; we
// model that drift as a per-hint corruption hazard that grows with the
// model's age — a hint consumed at age A is replaced by the robust hash
// category (the AdaptiveHash floor Algorithm 1 degrades to anyway) with
// probability 1 - 2^(-A / half_life). A retrain resets the age to zero.
//
// The event-driven simulator schedules one retrain event per period on the
// shared virtual clock (sim/sim_clock.h, SimClock::kRetrainPriority, so a
// retrain at time t governs every hint consumed at t); each event calls
// on_retrain(), which swaps the schedule to the fresh epoch.
// make_stale_provider() decorates a category provider so hints read the
// schedule's current age through a caller-supplied TimeFn — core never
// names the simulator's clock type (layer contract, tools/layers.json);
// the harness passes `[clock] { return clock->now(); }`.
//
// Determinism contract: the per-job corruption coin derives only from
// (seed, job_id), so for a fixed decision time the set of corrupted jobs is
// *nested* as the corruption probability grows — sweeps over retrain_period
// degrade smoothly and reproducibly toward the AdaptiveHash floor.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "core/category_provider.h"

namespace byom::core {

// Virtual-time accessor the staleness decorator reads decision times from.
// Deliberately a plain callable: the deterministic core consumes time, it
// never owns a clock (the simulator's SimClock stays above this layer).
using TimeFn = std::function<double()>;

struct StalenessConfig {
  // Virtual time the deployed model was trained (typically the test trace's
  // start — the model saw everything up to the train/test split).
  double epoch_start = 0.0;
  // Seconds between retrains; <= 0 means the model is never retrained and
  // ages for the whole run.
  double retrain_period = 0.0;
  // Hint-accuracy half-life while stale: at age == half_life, half the
  // hints have decayed to the hash floor. <= 0 disables decay entirely.
  double half_life = 21600.0;
  // Seed for the per-job corruption coin.
  std::uint64_t seed = 0;
  // Category count of the robust hash fallback (must match the policy's N).
  int num_categories = 15;
};

// Single-threaded by contract: the schedule advances on the virtual
// timeline of the clock that drives it, and that clock (see sim_clock.h)
// is owned by exactly one thread — callers provide the synchronization.
class BYOM_EXTERNALLY_SYNCHRONIZED StalenessSchedule {
 public:
  explicit StalenessSchedule(const StalenessConfig& config);

  const StalenessConfig& config() const { return config_; }

  // Start of the epoch currently in force (advanced by on_retrain()).
  double current_epoch_start() const { return current_epoch_start_; }
  // Model age at virtual time t under the current epoch (clamped >= 0).
  double age(double t) const;
  // Probability a hint consumed at virtual time t has decayed:
  // 1 - 2^(-age(t) / half_life); 0 when half_life <= 0.
  double corruption_probability(double t) const;

  // Retrain instants in (begin, end] — what the simulator turns into
  // retrain events. Empty when retrain_period <= 0.
  std::vector<double> retrain_times(double begin, double end) const;

  // Retrain event at `t`: runs the installer hook (which reinstalls the
  // deployed backends — see set_retrain_hook), then
  // resets the model age to zero. Times must be non-decreasing (the event
  // timeline guarantees this).
  void on_retrain(double t);
  std::uint64_t retrain_count() const { return retrain_count_; }

  // The deployment side of a retrain: called by on_retrain(t) *before* the
  // age reset, so the hook observes the stale epoch it is replacing. The
  // factory wires this to reinstall the deployed ModelBackends into the
  // serving ModelRegistry (harness/experiment.h) — a retrain goes through
  // the registry's install path instead of only resetting this schedule's
  // counter. In closed-world replay the retrained model is the deployed
  // one, so the same artifacts are reinstalled.
  void set_retrain_hook(std::function<void(double)> hook);

 private:
  StalenessConfig config_;
  double current_epoch_start_ = 0.0;
  std::uint64_t retrain_count_ = 0;
  std::function<void(double)> retrain_hook_;
};

// Decorates `inner` with the schedule's staleness dynamics, reading the
// decision time from `now` (the simulator's virtual time source). Hints
// the inner provider declines pass through untouched — staleness models a
// wrong hint, not a missing one.
CategoryProviderPtr make_stale_provider(CategoryProviderPtr inner,
                                        std::shared_ptr<StalenessSchedule> schedule,
                                        TimeFn now);

}  // namespace byom::core
