// Event-driven cluster placement simulator (paper section 5.1):
// replays a trace against a placement policy under an SSD capacity quota.
// "If a job is placed on SSD but only partially fits, the remaining portion
// of the job spills over to HDD after filling the available SSD capacity."
//
// The simulation core runs on a virtual clock (sim/sim_clock.h): job
// arrivals, SSD capacity releases and model retrains are all events on one
// timeline, and the serving pipeline reads the same clock. A hint produced
// by serving/PlacementService carries its ready time (enqueue time plus its
// serving latency), so it can be ready only *after* the placement decision
// that wanted it — the policy then degrades that one decision to its hash
// fallback, exactly as Algorithm 1 prescribes. The same timeline drives
// the model-staleness dynamics of the paper's section 6.
// With zero hint latency and no staleness schedule the event engine is
// bit-identical to the synchronous reference replay (simulate_synchronous),
// which stays as a deliberately simple reference implementation; the exact
// results of every method are additionally pinned as golden digests
// (tests/golden/sim_digests.txt).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cost/cost_model.h"
#include "policy/policy.h"
#include "sim/hint_service.h"
#include "sim/sim_clock.h"
#include "trace/trace.h"

namespace byom::core {
class StalenessSchedule;  // core/staleness.h
}  // namespace byom::core

namespace byom::trace {
class JobStream;  // trace/job_stream.h
}  // namespace byom::trace

namespace byom::sim {

class CounterSink;  // sim/soak_counters.h

struct SimConfig {
  std::uint64_t ssd_capacity_bytes = 0;
  cost::Rates rates;
  // Record one JobOutcome per job (needed by scatter/series benches and
  // by the prototype path, whose caching server books each outcome).
  bool record_outcomes = false;

  // The virtual clock shared with the serving pipeline and the staleness
  // schedule. Null means the engine runs a private clock (plain replay).
  std::shared_ptr<SimClock> clock;
  // Latency-aware hint pipeline: when set, the engine submits each job's
  // inference request at its arrival event (the online submit path) and,
  // after the run, folds the service's timeliness counters into SimResult.
  // Typed as the sim-layer HintService interface (sim/hint_service.h);
  // the concrete serving::PlacementService must share `clock`
  // (the harness's make_sim_config wires this).
  std::shared_ptr<HintService> hint_service;
  // Retraining cadence: the engine schedules one retrain event per period
  // on the timeline (SimClock::kRetrainPriority) and counts them.
  std::shared_ptr<core::StalenessSchedule> staleness;

  // --- streaming-run extensions (the JobStream overload below) ---
  // Retrain-scheduling window for streamed runs, where the trace horizon
  // cannot be read off a materialized Trace. Fill from a TraceSummary
  // pre-pass (start_time / end_time); the Trace overload fills them from
  // the trace itself. With both zero and no arrivals, no retrains fire.
  double horizon_start = 0.0;
  double horizon_end = 0.0;
  // Pre-sizing hint for streamed runs (event arena, outcome reserve). The
  // Trace overload uses the trace size; 0 falls back to the stream's
  // size_hint().
  std::size_t expected_jobs = 0;

  // Per-virtual-period counter rows (sim/soak_counters.h): every
  // counter_period seconds of virtual time the engine closes a window and
  // emits one CounterRow of deltas to counter_sink. 0 / null disables.
  // Emission only reads engine state — enabling counters never changes the
  // SimResult.
  double counter_period = 0.0;
  CounterSink* counter_sink = nullptr;

  // Submit-ahead mode: issue each job's inference request at
  // arrival_time - min(job.hint_lead, max_hint_lead) instead of at the
  // arrival event, so hint on-time fractions derive from trace-carried
  // scheduler lead times. Requires hint_service; off by default — submit
  // at arrival is the bit-identity baseline regime.
  bool use_trace_leads = false;
  double max_hint_lead = 7200.0;  // clamp on per-job leads (seconds)
};

struct JobOutcome {
  std::uint64_t job_id = 0;
  policy::Device scheduled = policy::Device::kHdd;
  double spill_fraction = 0.0;
  double ssd_time_share = 1.0;
  // Granted SSD bytes over peak bytes (0 for HDD jobs): the share the
  // engine priced the job at. Carried as computed, because 1 -
  // spill_fraction does not round-trip it bit for bit.
  double ssd_share = 0.0;
};

struct SimResult {
  double tco_actual = 0.0;
  double tco_all_hdd = 0.0;
  double tcio_actual_seconds = 0.0;
  double tcio_all_hdd_seconds = 0.0;
  std::size_t jobs_total = 0;
  std::size_t jobs_scheduled_ssd = 0;
  std::uint64_t peak_ssd_used_bytes = 0;
  std::vector<JobOutcome> outcomes;

  // Hint timeliness (populated when SimConfig::hint_service is set):
  // on_time hints reached their decision within the virtual deadline, late
  // ones could not be ready by then (the decision fell back), and dropped
  // requests never entered the serving queue.
  std::uint64_t hints_on_time = 0;
  std::uint64_t hints_late = 0;
  std::uint64_t hints_dropped = 0;
  // Retrain events fired by SimConfig::staleness during the replay.
  std::uint64_t retrain_events = 0;

  // Savings relative to the everything-on-HDD baseline, in percent.
  double tco_savings_pct() const {
    return tco_all_hdd > 0.0
               ? 100.0 * (tco_all_hdd - tco_actual) / tco_all_hdd
               : 0.0;
  }
  double tcio_savings_pct() const {
    return tcio_all_hdd_seconds > 0.0
               ? 100.0 * (tcio_all_hdd_seconds - tcio_actual_seconds) /
                     tcio_all_hdd_seconds
               : 0.0;
  }
};

// Replays `trace` (jobs must be sorted by arrival; Trace guarantees this)
// against `policy` under `config` on the event-driven engine. Delegates to
// the JobStream overload through a MaterializedStream — one engine code
// path serves both worlds, which is what makes streamed and materialized
// replays bit-identical by construction.
SimResult simulate(const trace::Trace& trace, policy::PlacementPolicy& policy,
                   const SimConfig& config);

// Pulls arrivals one at a time from `stream` (arrival-ordered, single
// pass) instead of walking a materialized trace: peak memory is the
// stream's window, not the trace. Consumes the stream. Set
// config.horizon_start/horizon_end (retrain window) and expected_jobs
// from a TraceSummary pre-pass when the backing store can't provide them.
SimResult simulate(trace::JobStream& stream, policy::PlacementPolicy& policy,
                   const SimConfig& config);

// The pre-event-engine synchronous replay: a tight per-job loop with every
// hint instantly available. Ignores clock / hint_service / staleness. Kept
// as the reference implementation the event engine must match bit for bit
// in the zero-latency regime (sim_test, hotpath_test).
SimResult simulate_synchronous(const trace::Trace& trace,
                               policy::PlacementPolicy& policy,
                               const SimConfig& config);

}  // namespace byom::sim
