#include <gtest/gtest.h>

#include <cmath>

#include "common/units.h"
#include "core/category_provider.h"
#include "policy/adaptive.h"
#include "policy/cachesack.h"
#include "policy/first_fit.h"
#include "policy/lifetime_ml.h"
#include "policy/oracle_replay.h"
#include "trace/generator.h"

namespace byom::policy {
namespace {

using common::kGiB;

trace::Job make_job(double arrival, double lifetime, std::uint64_t bytes,
                    const std::string& key = "pipe/step") {
  static std::uint64_t next_id = 1;
  trace::Job j;
  j.job_id = next_id++;
  j.job_key = key;
  j.pipeline_name = "pipe";
  j.step_name = "step";
  j.arrival_time = arrival;
  j.lifetime = lifetime;
  j.peak_bytes = bytes;
  j.io.bytes_written = bytes;
  j.io.bytes_read = 4 * bytes;
  j.io.avg_read_block = 8.0 * 1024.0;
  j.compute_costs(cost::CostModel{});
  return j;
}

StorageView view_with(std::uint64_t capacity, std::uint64_t used,
                      double now = 0.0) {
  StorageView v;
  v.now = now;
  v.ssd_capacity_bytes = capacity;
  v.ssd_used_bytes = used;
  return v;
}

// ---------------------------------------------------------------- FirstFit

TEST(FirstFit, AdmitsWhenItFits) {
  FirstFitPolicy p;
  EXPECT_EQ(p.decide(make_job(0, 60, kGiB), view_with(2 * kGiB, 0)),
            Device::kSsd);
}

TEST(FirstFit, RejectsWhenFull) {
  FirstFitPolicy p;
  EXPECT_EQ(p.decide(make_job(0, 60, kGiB), view_with(2 * kGiB, 2 * kGiB)),
            Device::kHdd);
}

TEST(FirstFit, ZeroCapacityPicksHdd) {
  FirstFitPolicy p;
  EXPECT_EQ(p.decide(make_job(0, 60, kGiB), view_with(0, 0)), Device::kHdd);
}

TEST(FirstFit, ExactFitAdmits) {
  FirstFitPolicy p;
  EXPECT_EQ(p.decide(make_job(0, 60, kGiB), view_with(2 * kGiB, kGiB)),
            Device::kSsd);
}

TEST(FirstFit, IgnoresJobValue) {
  // FirstFit admits even negative-saving jobs - that is its flaw.
  FirstFitPolicy p;
  auto j = make_job(0, 6 * 3600.0, kGiB);
  j.io.bytes_read = 0;
  j.io.bytes_written = kGiB;
  j.compute_costs(cost::CostModel{});
  ASSERT_LT(j.tco_saving(), 0.0);
  EXPECT_EQ(p.decide(j, view_with(4 * kGiB, 0)), Device::kSsd);
}

TEST(FirstFit, Name) { EXPECT_EQ(FirstFitPolicy{}.name(), "FirstFit"); }

// --------------------------------------------------------------- CacheSack

TEST(CacheSack, AdmitsHighSavingCategory) {
  std::vector<trace::Job> history;
  for (int i = 0; i < 20; ++i) {
    history.push_back(make_job(i * 100.0, 600, kGiB, "good/step"));
  }
  CacheSackPolicy p(history, 10 * kGiB);
  EXPECT_TRUE(p.admits("good/step"));
  EXPECT_EQ(p.decide(make_job(0, 60, kGiB, "good/step"),
                     view_with(10 * kGiB, 0)),
            Device::kSsd);
}

TEST(CacheSack, RejectsNegativeSavingCategory) {
  std::vector<trace::Job> history;
  for (int i = 0; i < 20; ++i) {
    auto j = make_job(i * 100.0, 6 * 3600.0, 8 * kGiB, "cold/step");
    j.io.bytes_read = 0;
    j.compute_costs(cost::CostModel{});
    history.push_back(j);
  }
  ASSERT_LT(history[0].tco_saving(), 0.0);
  CacheSackPolicy p(history, 100 * kGiB);
  EXPECT_FALSE(p.admits("cold/step"));
}

TEST(CacheSack, UnknownCategoryGoesToHdd) {
  std::vector<trace::Job> history{make_job(0, 600, kGiB, "known/step")};
  CacheSackPolicy p(history, 10 * kGiB);
  EXPECT_EQ(p.decide(make_job(0, 60, kGiB, "never/seen"),
                     view_with(10 * kGiB, 0)),
            Device::kHdd);
}

TEST(CacheSack, CapacityLimitsAdmissionSet) {
  // Two categories, each averaging ~1 GiB occupancy; capacity for one.
  std::vector<trace::Job> history;
  for (int i = 0; i < 50; ++i) {
    history.push_back(make_job(i * 600.0, 600, kGiB, "cat_a/step"));
    auto b = make_job(i * 600.0, 600, kGiB, "cat_b/step");
    b.io.bytes_read = 2 * kGiB;  // lower savings than cat_a
    b.compute_costs(cost::CostModel{});
    history.push_back(b);
  }
  CacheSackPolicy p(history, static_cast<std::uint64_t>(1.2 * kGiB));
  EXPECT_TRUE(p.admits("cat_a/step"));
  EXPECT_FALSE(p.admits("cat_b/step"));
  EXPECT_EQ(p.admission_set_size(), 1u);
}

TEST(CacheSack, EmptyHistoryAdmitsNothing) {
  CacheSackPolicy p({}, 10 * kGiB);
  EXPECT_EQ(p.admission_set_size(), 0u);
}

// ------------------------------------------------------------- LifetimeML

class LifetimeMlTest : public ::testing::Test {
 protected:
  static std::vector<trace::Job> train_jobs() {
    std::vector<trace::Job> jobs;
    for (int i = 0; i < 300; ++i) {
      // Short-lived pipeline: 5 min. Long-lived pipeline: 10 h.
      auto s = make_job(i * 60.0, 300.0, kGiB, "short/step");
      s.resources.bucket_sizing_num_workers = 4;
      jobs.push_back(s);
      auto l = make_job(i * 60.0, 36000.0, kGiB, "long/step");
      l.pipeline_name = "longpipe";
      l.resources.bucket_sizing_num_workers = 400;
      jobs.push_back(l);
    }
    return jobs;
  }
};

TEST_F(LifetimeMlTest, AdmitsShortLivedJobs) {
  LifetimeMlConfig cfg;
  cfg.ttl_seconds = 3600.0;
  cfg.gbdt.num_rounds = 15;
  LifetimeMlPolicy p(train_jobs(), cfg);
  auto probe = make_job(0, 300.0, kGiB, "short/step");
  probe.resources.bucket_sizing_num_workers = 4;
  EXPECT_LT(p.predicted_lifetime_bound(probe), 3600.0);
  EXPECT_EQ(p.decide(probe, view_with(10 * kGiB, 0)), Device::kSsd);
}

TEST_F(LifetimeMlTest, RejectsLongLivedJobs) {
  LifetimeMlConfig cfg;
  cfg.ttl_seconds = 3600.0;
  cfg.gbdt.num_rounds = 15;
  LifetimeMlPolicy p(train_jobs(), cfg);
  auto probe = make_job(0, 36000.0, kGiB, "long/step");
  probe.pipeline_name = "longpipe";
  probe.resources.bucket_sizing_num_workers = 400;
  EXPECT_GT(p.predicted_lifetime_bound(probe), 3600.0);
  EXPECT_EQ(p.decide(probe, view_with(10 * kGiB, 0)), Device::kHdd);
}

TEST_F(LifetimeMlTest, EvictionTtlIsMuPlusSigma) {
  LifetimeMlConfig cfg;
  cfg.gbdt.num_rounds = 10;
  LifetimeMlPolicy p(train_jobs(), cfg);
  auto probe = make_job(0, 300.0, kGiB, "short/step");
  probe.resources.bucket_sizing_num_workers = 4;
  EXPECT_DOUBLE_EQ(p.eviction_ttl(probe), p.predicted_lifetime_bound(probe));
  EXPECT_GT(p.eviction_ttl(probe), 0.0);
}

// --------------------------------------------------------------- Adaptive

AdaptiveConfig fast_config(int n = 5) {
  AdaptiveConfig cfg;
  cfg.num_categories = n;
  cfg.lookback_window = 600.0;
  cfg.decision_interval = 100.0;
  cfg.spillover_lower = 0.01;
  cfg.spillover_upper = 0.15;
  return cfg;
}

// Provider that always answers `category` (the old CategoryFn-lambda tests).
core::CategoryProviderPtr const_category(int category) {
  return core::make_function_provider("const", [category](const trace::Job&) {
    return std::optional<int>(category);
  });
}

TEST(Adaptive, AdmitsByCategoryThreshold) {
  AdaptiveCategoryPolicy p(
      "t", const_category(3), fast_config());
  EXPECT_EQ(p.decide(make_job(0, 60, kGiB), view_with(kGiB, 0)),
            Device::kSsd);  // 3 >= ACT(1)
}

TEST(Adaptive, RejectsCategoryZero) {
  // Category 0 = negative savings; ACT >= 1 always, so never admitted.
  AdaptiveCategoryPolicy p(
      "t", const_category(0), fast_config());
  EXPECT_EQ(p.decide(make_job(0, 60, kGiB), view_with(kGiB, 0)),
            Device::kHdd);
}

TEST(Adaptive, ActRisesUnderSpillover) {
  auto cfg = fast_config();
  AdaptiveCategoryPolicy p("t", const_category(2), cfg);
  // Feed jobs that were scheduled to SSD but fully spilled.
  double t = 0.0;
  int act_before = p.current_act();
  for (int i = 0; i < 30; ++i) {
    t += 150.0;
    auto j = make_job(t, 300.0, kGiB);
    p.decide(j, view_with(kGiB, kGiB));
    PlacementOutcome out;
    out.scheduled = Device::kSsd;
    out.spill_fraction = 1.0;
    p.on_placed(j, out);
  }
  EXPECT_GT(p.current_act(), act_before);
  EXPECT_LE(p.current_act(), cfg.num_categories - 1);
}

TEST(Adaptive, ActFallsWhenIdle) {
  auto cfg = fast_config();
  cfg.initial_act = 4;
  AdaptiveCategoryPolicy p("t", const_category(2), cfg);
  double t = 0.0;
  for (int i = 0; i < 30; ++i) {
    t += 150.0;
    auto j = make_job(t, 300.0, kGiB);
    p.decide(j, view_with(100 * kGiB, 0));
    PlacementOutcome out;
    out.scheduled = Device::kSsd;
    out.spill_fraction = 0.0;  // no spillover: SSD has room
    p.on_placed(j, out);
  }
  EXPECT_EQ(p.current_act(), 1);
}

TEST(Adaptive, ActStableInsideToleranceRange) {
  auto cfg = fast_config();
  cfg.initial_act = 2;
  AdaptiveCategoryPolicy p("t", const_category(2), cfg);
  double t = 0.0;
  for (int i = 0; i < 30; ++i) {
    t += 150.0;
    auto j = make_job(t, 300.0, kGiB);
    p.decide(j, view_with(10 * kGiB, 0));
    PlacementOutcome out;
    out.scheduled = Device::kSsd;
    out.spill_fraction = 0.05;  // inside [0.01, 0.15]
    p.on_placed(j, out);
  }
  EXPECT_EQ(p.current_act(), 2);
}

TEST(Adaptive, DecisionIntervalThrottlesUpdates) {
  auto cfg = fast_config();
  cfg.decision_interval = 10000.0;
  AdaptiveCategoryPolicy p("t", const_category(2), cfg);
  double t = 0.0;
  for (int i = 0; i < 50; ++i) {
    t += 10.0;  // all within one interval after the first decision
    p.decide(make_job(t, 60.0, kGiB), view_with(kGiB, 0));
  }
  EXPECT_LE(p.decision_log().size(), 2u);
}

TEST(Adaptive, WindowExpiryForgetsOldSpills) {
  auto cfg = fast_config();
  cfg.lookback_window = 300.0;
  AdaptiveCategoryPolicy p("t", const_category(2), cfg);
  // One fully-spilled job early on.
  auto early = make_job(0.0, 100.0, kGiB);
  p.decide(early, view_with(kGiB, kGiB));
  PlacementOutcome out;
  out.scheduled = Device::kSsd;
  out.spill_fraction = 1.0;
  p.on_placed(early, out);
  // Much later, a clean job: the old spill must have left the window.
  auto late = make_job(10000.0, 100.0, kGiB);
  p.decide(late, view_with(kGiB, 0));
  ASSERT_FALSE(p.decision_log().empty());
  EXPECT_DOUBLE_EQ(p.decision_log().back().spillover_pct, 0.0);
}

TEST(Adaptive, CategoryClamped) {
  AdaptiveCategoryPolicy p(
      "t", const_category(99), fast_config());
  p.decide(make_job(0, 60, kGiB), view_with(kGiB, 0));
  EXPECT_EQ(p.last_category(), 4);  // clamped to N-1
}

TEST(Adaptive, RejectsBadConfig) {
  AdaptiveConfig cfg;
  cfg.num_categories = 1;
  EXPECT_THROW(
      AdaptiveCategoryPolicy("t", const_category(0), cfg),
      std::invalid_argument);
  AdaptiveConfig inverted;
  inverted.spillover_lower = 0.5;
  inverted.spillover_upper = 0.1;
  EXPECT_THROW(AdaptiveCategoryPolicy(
                   "t", const_category(0), inverted),
               std::invalid_argument);
}

TEST(Adaptive, HashProviderDeterministicAndInRange) {
  const auto provider = core::make_hash_provider(15);
  auto j = make_job(0, 60, kGiB, "some/pipeline");
  const int c = provider->category(j).value();
  EXPECT_EQ(provider->category(j).value(), c);
  EXPECT_GE(c, 1);
  EXPECT_LE(c, 14);
}

TEST(Adaptive, HashProviderSpreadsAcrossBins) {
  const auto provider = core::make_hash_provider(15);
  std::vector<int> counts(15, 0);
  for (int i = 0; i < 2000; ++i) {
    auto j = make_job(0, 60, kGiB, "pipe" + std::to_string(i) + "/step");
    ++counts[static_cast<std::size_t>(provider->category(j).value())];
  }
  EXPECT_EQ(counts[0], 0);  // hash never assigns the negative class
  for (int c = 1; c < 15; ++c) EXPECT_GT(counts[static_cast<std::size_t>(c)], 50);
}

// ------------------------------------------------------------ OracleReplay

TEST(OracleReplay, ReplaysDecisions) {
  std::vector<trace::Job> jobs{make_job(0, 60, kGiB),
                               make_job(10, 60, kGiB)};
  oracle::Result solution;
  solution.on_ssd = {true, false};
  OracleReplayPolicy p("oracle", jobs, solution);
  EXPECT_EQ(p.decide(jobs[0], view_with(kGiB, 0)), Device::kSsd);
  EXPECT_EQ(p.decide(jobs[1], view_with(kGiB, 0)), Device::kHdd);
}

TEST(OracleReplay, UnknownJobDefaultsToHdd) {
  std::vector<trace::Job> jobs{make_job(0, 60, kGiB)};
  oracle::Result solution;
  solution.on_ssd = {true};
  OracleReplayPolicy p("oracle", jobs, solution);
  EXPECT_EQ(p.decide(make_job(99, 60, kGiB), view_with(kGiB, 0)),
            Device::kHdd);
}

TEST(OracleReplay, SizeMismatchThrows) {
  std::vector<trace::Job> jobs{make_job(0, 60, kGiB)};
  oracle::Result solution;
  solution.on_ssd = {true, false};
  EXPECT_THROW(OracleReplayPolicy("oracle", jobs, solution),
               std::invalid_argument);
}

TEST(StorageView, FreeBytesSaturates) {
  EXPECT_EQ(view_with(kGiB, 2 * kGiB).ssd_free_bytes(), 0u);
  EXPECT_EQ(view_with(2 * kGiB, kGiB).ssd_free_bytes(), kGiB);
}

}  // namespace
}  // namespace byom::policy
