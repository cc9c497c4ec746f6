#include "sim/simulator.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <queue>

#include "core/staleness.h"
#include "sim/soak_counters.h"
#include "trace/job_stream.h"

namespace byom::sim {

namespace {

// One job's arrival: capacity releases due at or before this instant have
// already fired (kReleasePriority < kArrivalPriority), so the policy sees
// exactly the storage view the synchronous replay computed.
struct Engine {
  const SimConfig* config = nullptr;
  const cost::CostModel* model = nullptr;
  policy::PlacementPolicy* policy = nullptr;
  SimClock* clock = nullptr;
  SimResult* result = nullptr;
  std::uint64_t ssd_used = 0;
  // Submit-ahead mode enqueues inference requests before the arrival event
  // (the lead-time loop below); the arrival then must not re-enqueue.
  bool enqueue_on_arrival = true;

  // Typed release payload: the bytes to hand back at the event instant.
  // A POD push into the clock's flat heap — no closure, no allocation.
  static void on_release(void* ctx, std::uint64_t bytes, double) {
    auto* engine = static_cast<Engine*>(ctx);
    engine->ssd_used -= std::min(engine->ssd_used, bytes);
  }

  void on_arrival(const trace::Job& job) {
    if (config->hint_service && enqueue_on_arrival) {
      // The online submit path: the inference request enters the serving
      // queue at submission time and races the decision below.
      config->hint_service->enqueue(job);
    }

    policy::StorageView view;
    view.now = job.arrival_time;
    view.ssd_capacity_bytes = config->ssd_capacity_bytes;
    view.ssd_used_bytes = ssd_used;

    const policy::Device decision = policy->decide(job, view);

    policy::PlacementOutcome outcome;
    outcome.scheduled = decision;
    double ssd_share = 0.0;
    if (decision == policy::Device::kSsd) {
      const std::uint64_t free_bytes = view.ssd_free_bytes();
      const std::uint64_t placed = std::min(job.peak_bytes, free_bytes);
      ssd_share = job.peak_bytes > 0
                      ? static_cast<double>(placed) /
                            static_cast<double>(job.peak_bytes)
                      : 0.0;
      outcome.spill_fraction = 1.0 - ssd_share;

      // Early eviction (mu + sigma TTL rule of the ML baseline).
      const double ttl = policy->eviction_ttl(job);
      double release_time = job.end_time();
      if (ttl > 0.0 && job.arrival_time + ttl < release_time) {
        release_time = job.arrival_time + ttl;
      }
      outcome.ssd_time_share =
          job.lifetime > 0.0
              ? std::clamp((release_time - job.arrival_time) / job.lifetime,
                           0.0, 1.0)
              : 1.0;

      if (placed > 0) {
        ssd_used += placed;
        clock->schedule_typed(release_time, SimClock::kReleasePriority,
                              &Engine::on_release, this, placed);
        result->peak_ssd_used_bytes =
            std::max(result->peak_ssd_used_bytes, ssd_used);
      }
      ++result->jobs_scheduled_ssd;
    }

    policy->on_placed(job, outcome);

    const auto inputs = job.cost_inputs();
    result->tco_all_hdd += job.cost_hdd;
    result->tcio_all_hdd_seconds += model->tcio_seconds_hdd(inputs);
    if (decision == policy::Device::kSsd) {
      result->tco_actual +=
          model->cost_mixed(inputs, ssd_share, outcome.ssd_time_share);
      result->tcio_actual_seconds +=
          model->tcio_seconds_mixed(inputs, ssd_share, outcome.ssd_time_share);
    } else {
      result->tco_actual += job.cost_hdd;
      result->tcio_actual_seconds += model->tcio_seconds_hdd(inputs);
    }

    if (config->record_outcomes) {
      result->outcomes.push_back({job.job_id, decision,
                                  outcome.spill_fraction,
                                  outcome.ssd_time_share, ssd_share});
    }
  }
};

// Typed retrain payload: swap the model at the event instant, count it.
struct RetrainSink {
  core::StalenessSchedule* schedule = nullptr;
  SimResult* result = nullptr;

  static void on_retrain(void* ctx, std::uint64_t, double time) {
    auto* sink = static_cast<RetrainSink*>(ctx);
    sink->schedule->on_retrain(time);
    ++sink->result->retrain_events;
  }
};

// Closes per-period counter windows against the engine's cumulative state.
// Pure reader: every row is a delta of totals the engine maintains anyway,
// so arming the emitter cannot perturb the simulation.
struct CounterEmitter {
  const SimConfig* config = nullptr;
  const SimResult* result = nullptr;
  const Engine* engine = nullptr;

  double period = 0.0;  // 0 = disarmed
  double next_boundary = 0.0;
  bool initialized = false;
  std::uint64_t index = 0;

  // Cumulative snapshot at the last closed window.
  std::uint64_t prev_jobs = 0;
  std::uint64_t prev_ssd_jobs = 0;
  double prev_tco_actual = 0.0;
  double prev_tco_all_hdd = 0.0;
  HintTimeliness prev_hints;
  std::uint64_t prev_retrains = 0;

  bool armed() const { return period > 0.0 && config->counter_sink; }

  // Window origin: the configured horizon start when known, else the first
  // event instant this emitter observes.
  void init(double t) {
    if (initialized) return;
    const double origin = config->horizon_end > config->horizon_start
                              ? config->horizon_start
                              : t;
    next_boundary = origin + period;
    initialized = true;
  }

  // Fires every window boundary at or before `t`, running the clock up to
  // each boundary first so the row sees all events due by the close.
  void advance(SimClock* clock, double t) {
    if (!armed()) return;
    init(t);
    while (next_boundary <= t) {
      clock->run_until(next_boundary);
      emit(next_boundary);
      next_boundary += period;
    }
  }

  // Final partial window after run_all(); skipped when empty.
  void finish(SimClock* clock) {
    if (!armed() || !initialized) return;
    const HintTimeliness cur = config->hint_service
                                   ? config->hint_service->hint_timeliness()
                                   : HintTimeliness{};
    const bool empty = result->jobs_total == prev_jobs &&
                       cur.on_time == prev_hints.on_time &&
                       cur.late == prev_hints.late &&
                       cur.dropped == prev_hints.dropped &&
                       result->retrain_events == prev_retrains;
    if (!empty) emit(clock->now());
  }

  void emit(double t_end) {
    CounterRow row;
    row.index = index++;
    row.t_end = t_end;
    row.jobs = result->jobs_total - prev_jobs;
    row.jobs_scheduled_ssd = result->jobs_scheduled_ssd - prev_ssd_jobs;
    row.tco_actual = result->tco_actual - prev_tco_actual;
    row.tco_all_hdd = result->tco_all_hdd - prev_tco_all_hdd;
    row.tco_savings_pct =
        row.tco_all_hdd > 0.0
            ? 100.0 * (row.tco_all_hdd - row.tco_actual) / row.tco_all_hdd
            : 0.0;
    const HintTimeliness cur = config->hint_service
                                   ? config->hint_service->hint_timeliness()
                                   : HintTimeliness{};
    row.hints_on_time = cur.on_time - prev_hints.on_time;
    row.hints_late = cur.late - prev_hints.late;
    row.hints_dropped = cur.dropped - prev_hints.dropped;
    const std::uint64_t total =
        row.hints_on_time + row.hints_late + row.hints_dropped;
    row.hint_on_time_fraction =
        total > 0 ? static_cast<double>(row.hints_on_time) /
                        static_cast<double>(total)
                  : 0.0;
    row.retrain_events = result->retrain_events - prev_retrains;
    row.ssd_used_bytes = engine->ssd_used;
    row.peak_ssd_used_bytes = result->peak_ssd_used_bytes;
    config->counter_sink->on_row(row);

    prev_jobs = result->jobs_total;
    prev_ssd_jobs = result->jobs_scheduled_ssd;
    prev_tco_actual = result->tco_actual;
    prev_tco_all_hdd = result->tco_all_hdd;
    prev_hints = cur;
    prev_retrains = result->retrain_events;
  }
};

}  // namespace

SimResult simulate(const trace::Trace& trace, policy::PlacementPolicy& policy,
                   const SimConfig& config) {
  trace::MaterializedStream stream(trace);
  SimConfig cfg = config;
  cfg.horizon_start = trace.start_time();
  cfg.horizon_end = trace.end_time();
  cfg.expected_jobs = trace.size();
  return simulate(stream, policy, cfg);
}

SimResult simulate(trace::JobStream& stream, policy::PlacementPolicy& policy,
                   const SimConfig& config) {
  const cost::CostModel model(config.rates);
  SimResult result;
  const std::size_t expected =
      config.expected_jobs > 0 ? config.expected_jobs : stream.size_hint();
  if (config.record_outcomes) result.outcomes.reserve(expected);

  // Run on the injected clock (shared with the serving pipeline and the
  // staleness schedule) or a private one for plain replays.
  SimClock local_clock;
  SimClock* clock = config.clock ? config.clock.get() : &local_clock;
  // Pre-size the event arena: at most one pending release per live job
  // (retrain events ride on top with room to spare), so the replay itself
  // never reallocates the heap mid-run.
  clock->reserve(expected + 64);

  Engine engine;
  engine.config = &config;
  engine.model = &model;
  engine.policy = &policy;
  engine.clock = clock;
  engine.result = &result;

  // Retrain events: one per period across the replayed window. A retrain at
  // time t swaps the fresh model in before any decision at t
  // (kRetrainPriority < kArrivalPriority).
  RetrainSink retrain_sink{config.staleness.get(), &result};
  if (config.staleness) {
    for (const double t : config.staleness->retrain_times(
             config.horizon_start, config.horizon_end)) {
      clock->schedule_typed(t, SimClock::kRetrainPriority,
                            &RetrainSink::on_retrain, &retrain_sink);
    }
  }

  CounterEmitter counters;
  counters.config = &config;
  counters.result = &result;
  counters.engine = &engine;
  counters.period = config.counter_sink ? config.counter_period : 0.0;

  // The timeline merges two time-ordered event streams: the pulled arrivals
  // (streams are sorted by arrival; pull order breaks ties) and the clock's
  // heap (releases, retrains). Every non-arrival event kind outranks
  // arrivals at equal times (SimClock::EventPriority), which is exactly
  // run_until's inclusive semantics — so consuming arrivals straight from
  // the stream is equivalent to heaping them, without paying per-job heap
  // traffic on the hot path.
  if (config.use_trace_leads && config.hint_service) {
    // Submit-ahead mode: each job's inference request enters the serving
    // queue at arrival - lead. The stream recycles its slot on every
    // next(), so jobs pulled ahead are copied into a bounded window (at
    // most the arrivals within max_hint_lead of virtual time) and their
    // submit instants merged through a min-heap.
    struct PendingSubmit {
      double t = 0.0;
      std::uint64_t seq = 0;  // pull order; deterministic tie-break
      bool operator>(const PendingSubmit& other) const {
        if (t != other.t) return t > other.t;
        return seq > other.seq;
      }
    };
    // The lead loop below submits every job; its arrival must not submit
    // it a second time.
    engine.enqueue_on_arrival = false;
    const double max_lead = std::max(0.0, config.max_hint_lead);
    std::deque<trace::Job> window;
    std::priority_queue<PendingSubmit, std::vector<PendingSubmit>,
                        std::greater<PendingSubmit>>
        submits;
    std::uint64_t base_seq = 0;  // seq of window.front()
    std::uint64_t pull_seq = 0;
    double last_pulled = -std::numeric_limits<double>::infinity();
    bool exhausted = false;
    auto pull = [&] {
      const trace::Job* job = stream.next();
      if (job == nullptr) {
        exhausted = true;
        return;
      }
      window.push_back(*job);
      last_pulled = job->arrival_time;
      const double lead = std::clamp(job->hint_lead, 0.0, max_lead);
      submits.push(PendingSubmit{job->arrival_time - lead, pull_seq++});
    };
    for (;;) {
      if (window.empty() && !exhausted) pull();
      if (window.empty()) break;
      const double next_arrival = window.front().arrival_time;
      // Pull ahead until no unseen job can still submit before the next
      // arrival (unseen arrivals are >= last_pulled; leads are <= max_lead).
      while (!exhausted && last_pulled <= next_arrival + max_lead) pull();
      // Fire submits due before the arrival, in submit-time order.
      while (!submits.empty() && submits.top().t <= next_arrival) {
        const PendingSubmit submit = submits.top();
        submits.pop();
        counters.advance(clock, submit.t);
        clock->run_until(submit.t);
        config.hint_service->enqueue(
            window[static_cast<std::size_t>(submit.seq - base_seq)]);
      }
      counters.advance(clock, next_arrival);
      clock->run_until(next_arrival);
      engine.on_arrival(window.front());
      ++result.jobs_total;
      window.pop_front();
      ++base_seq;
    }
  } else {
    while (const trace::Job* job = stream.next()) {
      counters.advance(clock, job->arrival_time);
      clock->run_until(job->arrival_time);
      engine.on_arrival(*job);
      ++result.jobs_total;
    }
  }

  // Drive the timeline to exhaustion: releases and retrains past the last
  // arrival still fire. Hint timeliness needs no drain: each hint was
  // judged on time or late at its job's decision.
  clock->run_all();
  counters.finish(clock);

  if (config.hint_service) {
    const HintTimeliness timeliness = config.hint_service->hint_timeliness();
    result.hints_on_time = timeliness.on_time;
    result.hints_late = timeliness.late;
    result.hints_dropped = timeliness.dropped;
  }
  return result;
}

SimResult simulate_synchronous(const trace::Trace& trace,
                               policy::PlacementPolicy& policy,
                               const SimConfig& config) {
  struct Release {
    double time;
    std::uint64_t bytes;
    bool operator>(const Release& other) const { return time > other.time; }
  };

  const cost::CostModel model(config.rates);
  SimResult result;
  result.jobs_total = trace.size();
  if (config.record_outcomes) result.outcomes.reserve(trace.size());

  std::priority_queue<Release, std::vector<Release>, std::greater<Release>>
      releases;
  std::uint64_t ssd_used = 0;

  for (const trace::Job& job : trace.jobs()) {
    const double now = job.arrival_time;
    while (!releases.empty() && releases.top().time <= now) {
      ssd_used -= std::min(ssd_used, releases.top().bytes);
      releases.pop();
    }

    policy::StorageView view;
    view.now = now;
    view.ssd_capacity_bytes = config.ssd_capacity_bytes;
    view.ssd_used_bytes = ssd_used;

    const policy::Device decision = policy.decide(job, view);

    policy::PlacementOutcome outcome;
    outcome.scheduled = decision;
    double ssd_share = 0.0;
    if (decision == policy::Device::kSsd) {
      const std::uint64_t free_bytes = view.ssd_free_bytes();
      const std::uint64_t placed = std::min(job.peak_bytes, free_bytes);
      ssd_share = job.peak_bytes > 0
                      ? static_cast<double>(placed) /
                            static_cast<double>(job.peak_bytes)
                      : 0.0;
      outcome.spill_fraction = 1.0 - ssd_share;

      const double ttl = policy.eviction_ttl(job);
      double release_time = job.end_time();
      if (ttl > 0.0 && job.arrival_time + ttl < release_time) {
        release_time = job.arrival_time + ttl;
      }
      outcome.ssd_time_share =
          job.lifetime > 0.0
              ? std::clamp((release_time - job.arrival_time) / job.lifetime,
                           0.0, 1.0)
              : 1.0;

      if (placed > 0) {
        ssd_used += placed;
        releases.push({release_time, placed});
        result.peak_ssd_used_bytes =
            std::max(result.peak_ssd_used_bytes, ssd_used);
      }
      ++result.jobs_scheduled_ssd;
    }

    policy.on_placed(job, outcome);

    const auto inputs = job.cost_inputs();
    result.tco_all_hdd += job.cost_hdd;
    result.tcio_all_hdd_seconds += model.tcio_seconds_hdd(inputs);
    if (decision == policy::Device::kSsd) {
      result.tco_actual +=
          model.cost_mixed(inputs, ssd_share, outcome.ssd_time_share);
      result.tcio_actual_seconds +=
          model.tcio_seconds_mixed(inputs, ssd_share, outcome.ssd_time_share);
    } else {
      result.tco_actual += job.cost_hdd;
      result.tcio_actual_seconds += model.tcio_seconds_hdd(inputs);
    }

    if (config.record_outcomes) {
      result.outcomes.push_back({job.job_id, decision,
                                 outcome.spill_fraction,
                                 outcome.ssd_time_share, ssd_share});
    }
  }
  return result;
}

}  // namespace byom::sim
