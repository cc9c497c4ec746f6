#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/units.h"
#include "policy/first_fit.h"
#include "policy/policy.h"
#include "harness/experiment.h"
#include "harness/experiment_runner.h"
#include "sim/metrics.h"
#include "sim/sim_clock.h"
#include "sim/simulator.h"
#include "trace/generator.h"

namespace byom::sim {
namespace {

using common::kGiB;

trace::Job make_job(double arrival, double lifetime, std::uint64_t bytes,
                    bool dense = true) {
  static std::uint64_t next_id = 1;
  trace::Job j;
  j.job_id = next_id++;
  j.job_key = "pipe/step";
  j.arrival_time = arrival;
  j.lifetime = lifetime;
  j.peak_bytes = bytes;
  j.io.bytes_written = bytes;
  j.io.bytes_read = dense ? 4 * bytes : bytes / 8;
  j.io.avg_read_block = dense ? 8.0 * 1024.0 : 1024.0 * 1024.0;
  j.compute_costs(cost::CostModel{});
  return j;
}

// A policy that always says SSD / HDD.
class AlwaysPolicy final : public policy::PlacementPolicy {
 public:
  explicit AlwaysPolicy(policy::Device device, double ttl = 0.0)
      : device_(device), ttl_(ttl) {}
  std::string name() const override { return "Always"; }
  policy::Device decide(const trace::Job&,
                        const policy::StorageView&) override {
    return device_;
  }
  double eviction_ttl(const trace::Job&) const override { return ttl_; }

 private:
  policy::Device device_;
  double ttl_;
};

// ---------------------------------------------------------------- simulate

TEST(Simulator, AllHddHasZeroSavings) {
  trace::Trace t(0, {make_job(0, 600, kGiB), make_job(100, 600, kGiB)});
  AlwaysPolicy p(policy::Device::kHdd);
  SimConfig cfg;
  cfg.ssd_capacity_bytes = 100 * kGiB;
  const auto r = simulate(t, p, cfg);
  EXPECT_DOUBLE_EQ(r.tco_savings_pct(), 0.0);
  EXPECT_DOUBLE_EQ(r.tcio_savings_pct(), 0.0);
  EXPECT_EQ(r.jobs_scheduled_ssd, 0u);
}

TEST(Simulator, DenseJobsOnSsdSaveMoney) {
  trace::Trace t(0, {make_job(0, 600, kGiB), make_job(100, 600, kGiB)});
  AlwaysPolicy p(policy::Device::kSsd);
  SimConfig cfg;
  cfg.ssd_capacity_bytes = 100 * kGiB;
  const auto r = simulate(t, p, cfg);
  EXPECT_GT(r.tco_savings_pct(), 0.0);
  EXPECT_DOUBLE_EQ(r.tcio_savings_pct(), 100.0);
  EXPECT_EQ(r.jobs_scheduled_ssd, 2u);
}

TEST(Simulator, CapacityForcesSpill) {
  // Two overlapping 1 GiB jobs with capacity for 1.5 GiB: second spills 50%.
  trace::Trace t(0, {make_job(0, 600, kGiB), make_job(10, 600, kGiB)});
  AlwaysPolicy p(policy::Device::kSsd);
  SimConfig cfg;
  cfg.ssd_capacity_bytes = kGiB + kGiB / 2;
  cfg.record_outcomes = true;
  const auto r = simulate(t, p, cfg);
  ASSERT_EQ(r.outcomes.size(), 2u);
  EXPECT_DOUBLE_EQ(r.outcomes[0].spill_fraction, 0.0);
  EXPECT_NEAR(r.outcomes[1].spill_fraction, 0.5, 1e-9);
  EXPECT_LT(r.tcio_savings_pct(), 100.0);
}

TEST(Simulator, CapacityReusedAfterEnd) {
  // Sequential jobs: no spill despite 1 GiB capacity.
  trace::Trace t(0, {make_job(0, 100, kGiB), make_job(200, 100, kGiB)});
  AlwaysPolicy p(policy::Device::kSsd);
  SimConfig cfg;
  cfg.ssd_capacity_bytes = kGiB;
  cfg.record_outcomes = true;
  const auto r = simulate(t, p, cfg);
  EXPECT_DOUBLE_EQ(r.outcomes[1].spill_fraction, 0.0);
}

TEST(Simulator, EvictionTtlShortensResidency) {
  trace::Trace t(0, {make_job(0, 1000, kGiB)});
  AlwaysPolicy p(policy::Device::kSsd, /*ttl=*/250.0);
  SimConfig cfg;
  cfg.ssd_capacity_bytes = 10 * kGiB;
  cfg.record_outcomes = true;
  const auto r = simulate(t, p, cfg);
  EXPECT_NEAR(r.outcomes[0].ssd_time_share, 0.25, 1e-9);
  // TCIO savings only accrue while resident.
  EXPECT_NEAR(r.tcio_savings_pct(), 25.0, 0.1);
}

TEST(Simulator, EvictionFreesCapacityEarly) {
  // First job evicted at t=100; second job arriving at t=150 fits fully.
  trace::Trace t(0, {make_job(0, 1000, kGiB), make_job(150, 100, kGiB)});
  AlwaysPolicy p(policy::Device::kSsd, /*ttl=*/100.0);
  SimConfig cfg;
  cfg.ssd_capacity_bytes = kGiB;
  cfg.record_outcomes = true;
  const auto r = simulate(t, p, cfg);
  EXPECT_DOUBLE_EQ(r.outcomes[1].spill_fraction, 0.0);
}

TEST(Simulator, PeakUsageTracked) {
  trace::Trace t(0, {make_job(0, 600, kGiB), make_job(10, 600, kGiB)});
  AlwaysPolicy p(policy::Device::kSsd);
  SimConfig cfg;
  cfg.ssd_capacity_bytes = 10 * kGiB;
  const auto r = simulate(t, p, cfg);
  EXPECT_EQ(r.peak_ssd_used_bytes, 2 * kGiB);
}

TEST(Simulator, TcoMatchesManualAccounting) {
  const auto job = make_job(0, 600, kGiB);
  trace::Trace t(0, {job});
  AlwaysPolicy p(policy::Device::kSsd);
  SimConfig cfg;
  cfg.ssd_capacity_bytes = 10 * kGiB;
  const auto r = simulate(t, p, cfg);
  EXPECT_NEAR(r.tco_actual, job.cost_ssd, job.cost_ssd * 1e-9);
  EXPECT_NEAR(r.tco_all_hdd, job.cost_hdd, 1e-12);
}

TEST(Simulator, ZeroCapacityMeansFullSpill) {
  trace::Trace t(0, {make_job(0, 600, kGiB)});
  AlwaysPolicy p(policy::Device::kSsd);
  SimConfig cfg;
  cfg.ssd_capacity_bytes = 0;
  const auto r = simulate(t, p, cfg);
  EXPECT_NEAR(r.tco_savings_pct(), 0.0, 1e-9);
  EXPECT_NEAR(r.tcio_savings_pct(), 0.0, 1e-9);
}

// ---------------------------------------------------------------- SimClock

// Test trampoline: schedules closures as typed events. Each closure lives
// in the deque (stable addresses) and the event's ctx points at it.
class Closures {
 public:
  explicit Closures(SimClock& clock) : clock_(&clock) {}
  void at(double time, std::function<void()> fn,
          int priority = SimClock::kDefaultPriority) {
    fns_.push_back(std::move(fn));
    clock_->schedule_typed(time, priority, SimClock::EventKind::kRelease,
                           &Closures::run, &fns_.back());
  }

 private:
  static void run(void* ctx, std::uint64_t, double) {
    (*static_cast<std::function<void()>*>(ctx))();
  }
  SimClock* clock_;
  std::deque<std::function<void()>> fns_;
};

TEST(SimClock, RunsEventsInTimeOrder) {
  SimClock clock;
  Closures events(clock);
  std::vector<int> order;
  events.at(3.0, [&] { order.push_back(3); });
  events.at(1.0, [&] { order.push_back(1); });
  events.at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(clock.run_all(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(clock.now(), 3.0);
}

TEST(SimClock, PriorityBreaksTiesAtEqualTimes) {
  SimClock clock;
  Closures events(clock);
  std::vector<int> order;
  events.at(5.0, [&] { order.push_back(3); }, SimClock::kArrivalPriority);
  events.at(5.0, [&] { order.push_back(2); }, SimClock::kHintReadyPriority);
  events.at(5.0, [&] { order.push_back(0); }, SimClock::kReleasePriority);
  events.at(5.0, [&] { order.push_back(1); }, SimClock::kRetrainPriority);
  clock.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimClock, ScheduleOrderBreaksRemainingTies) {
  SimClock clock;
  Closures events(clock);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    events.at(1.0, [&order, i] { order.push_back(i); },
              SimClock::kArrivalPriority);
  }
  clock.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimClock, PastEventsClampToNow) {
  SimClock clock;
  Closures events(clock);
  clock.advance_to(10.0);
  double fired_at = -1.0;
  events.at(2.0, [&] { fired_at = clock.now(); });
  clock.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);  // time never moves backwards
}

TEST(SimClock, EventsMayScheduleFurtherEvents) {
  SimClock clock;
  Closures events(clock);
  std::vector<double> times;
  events.at(1.0, [&] {
    times.push_back(clock.now());
    events.at(2.0, [&] { times.push_back(clock.now()); });
  });
  EXPECT_EQ(clock.run_all(), 2u);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(clock.processed(), 2u);
}

TEST(SimClock, RunUntilIsInclusiveAndAdvances) {
  SimClock clock;
  Closures events(clock);
  int fired = 0;
  events.at(1.0, [&] { ++fired; });
  events.at(2.0, [&] { ++fired; });
  events.at(2.5, [&] { ++fired; });
  EXPECT_EQ(clock.run_until(2.0), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(clock.now(), 2.0);
  EXPECT_EQ(clock.pending(), 1u);
}

TEST(SimClock, RejectsNullHandler) {
  SimClock clock;
  EXPECT_THROW(clock.schedule_typed(0.0, SimClock::kDefaultPriority,
                                    SimClock::EventKind::kRelease, nullptr,
                                    nullptr),
               std::invalid_argument);
  EXPECT_EQ(clock.pending(), 0u);
}

// ------------------------------------------------- event engine regression

// The event-driven engine must replay byte-for-byte like the synchronous
// reference loop when nothing races (no latency, no staleness).
void expect_bit_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.tco_actual, b.tco_actual);
  EXPECT_EQ(a.tco_all_hdd, b.tco_all_hdd);
  EXPECT_EQ(a.tcio_actual_seconds, b.tcio_actual_seconds);
  EXPECT_EQ(a.tcio_all_hdd_seconds, b.tcio_all_hdd_seconds);
  EXPECT_EQ(a.jobs_total, b.jobs_total);
  EXPECT_EQ(a.jobs_scheduled_ssd, b.jobs_scheduled_ssd);
  EXPECT_EQ(a.peak_ssd_used_bytes, b.peak_ssd_used_bytes);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].job_id, b.outcomes[i].job_id);
    EXPECT_EQ(a.outcomes[i].scheduled, b.outcomes[i].scheduled);
    EXPECT_EQ(a.outcomes[i].spill_fraction, b.outcomes[i].spill_fraction);
    EXPECT_EQ(a.outcomes[i].ssd_time_share, b.outcomes[i].ssd_time_share);
  }
}

TEST(EventEngine, MatchesSynchronousReferenceWithEviction) {
  trace::Trace t(0, {make_job(0, 1000, kGiB), make_job(150, 100, kGiB),
                     make_job(500, 200, kGiB / 2), make_job(500, 50, kGiB)});
  SimConfig cfg;
  cfg.ssd_capacity_bytes = kGiB + kGiB / 2;
  cfg.record_outcomes = true;
  AlwaysPolicy p1(policy::Device::kSsd, /*ttl=*/100.0);
  AlwaysPolicy p2(policy::Device::kSsd, /*ttl=*/100.0);
  expect_bit_identical(simulate(t, p1, cfg), simulate_synchronous(t, p2, cfg));
}

// -------------------------------------------------------------- experiment

TEST(Experiment, MethodNamesAreStable) {
  EXPECT_STREQ(method_name(MethodId::kFirstFit), "FirstFit");
  EXPECT_STREQ(method_name(MethodId::kAdaptiveRanking), "AdaptiveRanking");
  EXPECT_STREQ(method_name(MethodId::kOracleTco), "OracleTCO");
}

TEST(Experiment, QuotaCapacityScalesWithPeak) {
  trace::Trace t(0, {make_job(0, 600, kGiB), make_job(10, 600, kGiB)});
  EXPECT_EQ(quota_capacity(t, 0.5), kGiB);
  EXPECT_EQ(quota_capacity(t, 1.0), 2 * kGiB);
}

class ExperimentFactoryTest : public ::testing::Test {
 protected:
  static trace::TrainTestSplit& split() {
    static trace::TrainTestSplit s = [] {
      trace::GeneratorConfig cfg = trace::canonical_cluster_config(0, 777);
      cfg.num_pipelines = 14;
      cfg.duration = 6.0 * 86400.0;
      return trace::split_train_test(trace::generate_cluster_trace(cfg));
    }();
    return s;
  }
  static MethodFactory& factory() {
    static MethodFactory f = [] {
      core::CategoryModelConfig mc;
      mc.num_categories = 8;
      mc.gbdt.num_rounds = 10;
      return MethodFactory(split().train, cost::Rates{}, mc);
    }();
    return f;
  }
};

TEST_F(ExperimentFactoryTest, BuildsEveryMethod) {
  const auto cap = quota_capacity(split().test, 0.05);
  for (MethodId id :
       {MethodId::kFirstFit, MethodId::kHeuristic, MethodId::kMlBaseline,
        MethodId::kAdaptiveHash, MethodId::kAdaptiveRanking,
        MethodId::kOracleTco, MethodId::kOracleTcio, MethodId::kTrueCategory,
        MethodId::kAdaptiveServed, MethodId::kAdaptiveServedLatency}) {
    const auto context = factory().make_context(id, split().test, cap, {});
    ASSERT_NE(context.policy, nullptr);
    EXPECT_EQ(context.policy->name(), method_name(id));
  }
}

// With zero hint latency and no staleness schedule the event-driven engine
// must be bit-identical to the pre-refactor synchronous simulator for every
// method (the acceptance bar for the refactor).
TEST_F(ExperimentFactoryTest, EventEngineBitIdenticalToSynchronousPath) {
  const auto cap = quota_capacity(split().test, 0.02);
  SimConfig cfg;
  cfg.ssd_capacity_bytes = cap;
  cfg.record_outcomes = true;
  for (MethodId id :
       {MethodId::kFirstFit, MethodId::kHeuristic, MethodId::kMlBaseline,
        MethodId::kAdaptiveHash, MethodId::kAdaptiveRanking,
        MethodId::kOracleTco, MethodId::kOracleTcio, MethodId::kTrueCategory,
        MethodId::kAdaptiveServed}) {
    SCOPED_TRACE(method_name(id));
    const auto event = factory().make_context(id, split().test, cap, {});
    const auto sync = factory().make_context(id, split().test, cap, {});
    expect_bit_identical(simulate(split().test, *event.policy, cfg),
                         simulate_synchronous(split().test, *sync.policy,
                                              cfg));
  }
}

// ------------------------------------------- latency-aware serving method

TEST_F(ExperimentFactoryTest, ServedLatencyZeroLatencyMatchesServed) {
  const auto cap = quota_capacity(split().test, 0.05);
  MakeOptions options;
  options.hint_latency = 0.0;
  const auto latency = run_method(factory(), MethodId::kAdaptiveServedLatency,
                                  split().test, cap, options);
  const auto served =
      run_method(factory(), MethodId::kAdaptiveServed, split().test, cap);
  EXPECT_EQ(latency.tco_actual, served.tco_actual);
  EXPECT_EQ(latency.tcio_actual_seconds, served.tcio_actual_seconds);
  EXPECT_EQ(latency.jobs_scheduled_ssd, served.jobs_scheduled_ssd);
  // Every hint was requested at arrival, served instantly, consumed on time.
  EXPECT_EQ(latency.hints_on_time, split().test.size());
  EXPECT_EQ(latency.hints_late, 0u);
  EXPECT_EQ(latency.hints_dropped, 0u);
}

TEST_F(ExperimentFactoryTest, LateHintsDegradeToHashCategory) {
  // Mean latency astronomically beyond the deadline: every hint arrives
  // after its decision, so Algorithm 1 runs entirely on the hash fallback —
  // exactly the AdaptiveHash ablation.
  const auto cap = quota_capacity(split().test, 0.05);
  MakeOptions options;
  options.hint_latency = 1e12;
  options.hint_deadline = 1.0;
  const auto late = run_method(factory(), MethodId::kAdaptiveServedLatency,
                               split().test, cap, options);
  const auto hash =
      run_method(factory(), MethodId::kAdaptiveHash, split().test, cap);
  EXPECT_EQ(late.tco_actual, hash.tco_actual);
  EXPECT_EQ(late.tcio_actual_seconds, hash.tcio_actual_seconds);
  EXPECT_EQ(late.jobs_scheduled_ssd, hash.jobs_scheduled_ssd);
  EXPECT_EQ(late.hints_on_time, 0u);
  EXPECT_EQ(late.hints_late, split().test.size());
}

TEST_F(ExperimentFactoryTest, ModerateLatencySplitsOnTimeAndLate) {
  const auto cap = quota_capacity(split().test, 0.05);
  MakeOptions options;
  options.hint_latency = 1.0;  // mean == deadline: ~63% on time
  options.hint_deadline = 1.0;
  const auto r = run_method(factory(), MethodId::kAdaptiveServedLatency,
                            split().test, cap, options);
  EXPECT_GT(r.hints_on_time, 0u);
  EXPECT_GT(r.hints_late, 0u);
  EXPECT_EQ(r.hints_on_time + r.hints_late + r.hints_dropped,
            split().test.size());
  // Savings sit between the all-late (hash) floor and the all-on-time
  // (served) regimes, inclusive.
  const auto served =
      run_method(factory(), MethodId::kAdaptiveServed, split().test, cap);
  const auto hash =
      run_method(factory(), MethodId::kAdaptiveHash, split().test, cap);
  const double lo =
      std::min(hash.tco_savings_pct(), served.tco_savings_pct()) - 0.5;
  const double hi =
      std::max(hash.tco_savings_pct(), served.tco_savings_pct()) + 0.5;
  EXPECT_GE(r.tco_savings_pct(), lo);
  EXPECT_LE(r.tco_savings_pct(), hi);
}

TEST_F(ExperimentFactoryTest, ServedLatencyRunsAreBitIdentical) {
  const auto cap = quota_capacity(split().test, 0.05);
  MakeOptions options;
  options.hint_latency = 2.0;
  options.retrain_period = 86400.0;
  options.noise_seed = 1234;
  const auto a = run_method(factory(), MethodId::kAdaptiveServedLatency,
                            split().test, cap, options, true);
  const auto b = run_method(factory(), MethodId::kAdaptiveServedLatency,
                            split().test, cap, options, true);
  expect_bit_identical(a, b);
  EXPECT_EQ(a.hints_on_time, b.hints_on_time);
  EXPECT_EQ(a.hints_late, b.hints_late);
  EXPECT_EQ(a.retrain_events, b.retrain_events);
  EXPECT_GT(a.retrain_events, 0u);
}

TEST_F(ExperimentFactoryTest, ParallelLatencyCellsMatchSerialBitExactly) {
  // Latency + staleness cells through the pool: thread count must not leak
  // into results (per-cell seeds and per-cell clocks keep cells hermetic).
  ExperimentRunner parallel(4);
  ExperimentRunner serial(1);
  const std::size_t pc = parallel.add_cluster(&factory(), &split().test);
  const std::size_t sc = serial.add_cluster(&factory(), &split().test);
  ASSERT_EQ(pc, sc);
  auto cells = parallel.make_grid(
      pc, {MethodId::kAdaptiveServedLatency, MethodId::kAdaptiveRanking},
      {0.01, 0.05});
  for (auto& cell : cells) {
    cell.hint_latency = 0.5;
    cell.retrain_period = 43200.0;
  }
  const auto a = parallel.run(cells);
  const auto b = serial.run_serial(cells);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_bit_identical(a[i].result, b[i].result);
    EXPECT_EQ(a[i].result.hints_on_time, b[i].result.hints_on_time);
    EXPECT_EQ(a[i].result.hints_late, b[i].result.hints_late);
  }
}

TEST_F(ExperimentFactoryTest, StalenessSweepDecaysMonotonically) {
  // The section-6 cadence study: the longer the model serves between
  // retrains, the more hints decay to the hash floor and the lower the
  // savings — monotonically, down to the never-retrained endpoint.
  const auto cap = quota_capacity(split().test, 0.05);
  const double kNever = 1e18;  // longer than any trace: zero retrain events
  const std::vector<double> periods = {3600.0, 6.0 * 3600.0, 86400.0,
                                       3.0 * 86400.0, kNever};
  std::vector<double> savings;
  for (const double period : periods) {
    MakeOptions options;
    options.hint_latency = 0.0;
    options.retrain_period = period;
    options.staleness_half_life = 6.0 * 3600.0;
    const auto r = run_method(factory(), MethodId::kAdaptiveServedLatency,
                              split().test, cap, options);
    savings.push_back(r.tco_savings_pct());
  }
  const auto fresh =
      run_method(factory(), MethodId::kAdaptiveServed, split().test, cap);
  const auto hash =
      run_method(factory(), MethodId::kAdaptiveHash, split().test, cap);
  // Monotone decay across the sweep (small tolerance for ACT-feedback
  // wiggle), strictly below fresh by the end.
  for (std::size_t i = 1; i < savings.size(); ++i) {
    EXPECT_LE(savings[i], savings[i - 1] + 0.25)
        << "period " << periods[i] << " vs " << periods[i - 1];
  }
  EXPECT_LT(savings.back(), fresh.tco_savings_pct());
  // Even fully stale, the hash floor holds (graceful degradation).
  EXPECT_GE(savings.back(), hash.tco_savings_pct() - 1.0);
}

TEST_F(ExperimentFactoryTest, RunMethodProducesSavings) {
  const auto cap = quota_capacity(split().test, 0.05);
  const auto r = run_method(factory(), MethodId::kOracleTco, split().test,
                            cap);
  EXPECT_GT(r.tco_savings_pct(), 0.0);
  EXPECT_EQ(r.jobs_total, split().test.size());
}

TEST_F(ExperimentFactoryTest, OracleBeatsFirstFitAtTightQuota) {
  const auto cap = quota_capacity(split().test, 0.01);
  const auto oracle =
      run_method(factory(), MethodId::kOracleTco, split().test, cap);
  const auto ff =
      run_method(factory(), MethodId::kFirstFit, split().test, cap);
  EXPECT_GT(oracle.tco_savings_pct(), ff.tco_savings_pct());
}

TEST_F(ExperimentFactoryTest, ExternalModelInjection) {
  MethodFactory other(split().train);
  core::CategoryModelConfig mc;
  mc.num_categories = 8;
  mc.gbdt.num_rounds = 5;
  other.set_category_model(
      core::CategoryModel::train(split().train.jobs(), mc));
  EXPECT_EQ(other.category_model().num_categories(), 8);
}

// ----------------------------------------------------------------- metrics

TEST(SweepTable, CsvFormat) {
  SweepTable table("quota", {"A", "B"});
  table.add_row(0.1, {1.0, 2.0});
  table.add_row(0.2, {3.0, 4.0});
  const auto csv = table.to_csv(1);
  EXPECT_NE(csv.find("quota,A,B"), std::string::npos);
  EXPECT_NE(csv.find("0.1,1.0,2.0"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(table.value(1, 0), 3.0);
}

TEST(SweepTable, RowWidthValidated) {
  SweepTable table("x", {"A"});
  EXPECT_THROW(table.add_row(0.0, {1.0, 2.0}), std::invalid_argument);
}

TEST(ImprovementFactor, Formats) {
  EXPECT_EQ(improvement_factor(3.47, 1.0), "3.47x");
  EXPECT_EQ(improvement_factor(1.0, 0.0), "infx");
}

}  // namespace
}  // namespace byom::sim
