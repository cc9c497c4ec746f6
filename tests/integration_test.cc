// End-to-end tests: generate a cluster, train the BYOM model on week 1,
// place week 2 under various policies, and assert the paper's qualitative
// findings hold on the synthetic substrate.
#include <gtest/gtest.h>

#include <memory>

#include "core/byom.h"
#include "policy/byom_policy.h"
#include "harness/experiment.h"
#include "storage/cache_server.h"
#include "trace/generator.h"

namespace byom {
namespace {

struct ClusterFixture {
  trace::TrainTestSplit split;
  std::unique_ptr<sim::MethodFactory> factory;

  explicit ClusterFixture(std::uint32_t cluster_id, std::uint64_t seed,
                          int pipelines = 18, int categories = 10) {
    trace::GeneratorConfig cfg =
        trace::canonical_cluster_config(cluster_id, seed);
    cfg.num_pipelines = pipelines;
    cfg.duration = 8.0 * 86400.0;
    split = trace::split_train_test(trace::generate_cluster_trace(cfg));
    core::CategoryModelConfig mc;
    mc.num_categories = categories;
    mc.gbdt.num_rounds = 12;
    factory = std::make_unique<sim::MethodFactory>(split.train,
                                                   cost::Rates{}, mc);
  }

  sim::SimResult run(sim::MethodId id, double quota) const {
    const auto cap = sim::quota_capacity(split.test, quota);
    return sim::run_method(*factory, id, split.test, cap);
  }
};

const ClusterFixture& fixture() {
  static const ClusterFixture f(0, 31337);
  return f;
}

TEST(EndToEnd, OracleDominatesEveryMethodAtTightQuota) {
  const double quota = 0.01;
  const auto oracle = fixture().run(sim::MethodId::kOracleTco, quota);
  for (auto id : {sim::MethodId::kFirstFit, sim::MethodId::kHeuristic,
                  sim::MethodId::kMlBaseline, sim::MethodId::kAdaptiveHash,
                  sim::MethodId::kAdaptiveRanking}) {
    const auto r = fixture().run(id, quota);
    EXPECT_GE(oracle.tco_savings_pct(), r.tco_savings_pct() - 0.2)
        << sim::method_name(id);
  }
}

TEST(EndToEnd, AdaptiveRankingBeatsFirstFitAtTightQuota) {
  // The paper's headline regime: limited SSD (1% of peak usage).
  const auto ours = fixture().run(sim::MethodId::kAdaptiveRanking, 0.01);
  const auto ff = fixture().run(sim::MethodId::kFirstFit, 0.01);
  EXPECT_GT(ours.tco_savings_pct(), ff.tco_savings_pct());
}

TEST(EndToEnd, AdaptiveRankingBeatsAdaptiveHash) {
  // The ML model matters: ranking categories beat hash categories
  // (paper Figure 7's AdaptiveRanking vs AdaptiveHash gap).
  const auto ranking = fixture().run(sim::MethodId::kAdaptiveRanking, 0.01);
  const auto hash = fixture().run(sim::MethodId::kAdaptiveHash, 0.01);
  EXPECT_GT(ranking.tco_savings_pct(), hash.tco_savings_pct());
}

TEST(EndToEnd, TrueCategoryIsNoWorseThanPredicted) {
  // Figure 11: perfect category prediction gives similar (slightly better)
  // end-to-end savings - diminishing returns from accuracy.
  const auto predicted = fixture().run(sim::MethodId::kAdaptiveRanking, 0.05);
  const auto true_cat = fixture().run(sim::MethodId::kTrueCategory, 0.05);
  EXPECT_GE(true_cat.tco_savings_pct(),
            predicted.tco_savings_pct() * 0.8);
}

TEST(EndToEnd, TcioSavingsGrowWithQuota) {
  // Paper 5.3: "TCIO savings increase with SSD quota because SSD cost is
  // not considered".
  const auto small = fixture().run(sim::MethodId::kOracleTcio, 0.02);
  const auto large = fixture().run(sim::MethodId::kOracleTcio, 0.5);
  EXPECT_GT(large.tcio_savings_pct(), small.tcio_savings_pct());
}

TEST(EndToEnd, OracleTcoBeatsOracleTcioOnTco) {
  const auto tco = fixture().run(sim::MethodId::kOracleTco, 0.05);
  const auto tcio = fixture().run(sim::MethodId::kOracleTcio, 0.05);
  EXPECT_GE(tco.tco_savings_pct(), tcio.tco_savings_pct() - 0.2);
}

TEST(EndToEnd, ModelAccuracyIsInPaperRegime) {
  // Paper Figure 9b: average top-1 accuracy ~0.36 for 15 classes; with 10
  // classes on synthetic data we expect something comparable, i.e. clearly
  // above chance and clearly below perfect.
  const auto& model = fixture().factory->category_model();
  const double acc = model.top1_accuracy(fixture().split.test.jobs());
  EXPECT_GT(acc, 0.2);
  EXPECT_LT(acc, 0.98);
}

TEST(EndToEnd, SavingsPercentagesAreSane) {
  for (auto id : {sim::MethodId::kFirstFit, sim::MethodId::kAdaptiveRanking,
                  sim::MethodId::kOracleTco}) {
    const auto r = fixture().run(id, 0.1);
    EXPECT_GE(r.tco_savings_pct(), -100.0);
    EXPECT_LE(r.tco_savings_pct(), 100.0);
    EXPECT_GE(r.tcio_savings_pct(), 0.0);
    EXPECT_LE(r.tcio_savings_pct(), 100.0);
  }
}

TEST(EndToEnd, CrossClusterModelStillWorks) {
  // Figure 8: a model trained on another (non-degenerate) cluster achieves
  // savings on this cluster in the same ballpark as the home model.
  const ClusterFixture& home = fixture();
  ClusterFixture other(1, 808);
  // Deploy other-cluster model on home cluster: the factory trains on the
  // other cluster's history, and Algorithm 1 uses that model's category
  // count.
  core::CategoryModelConfig mc;
  mc.num_categories = 10;
  mc.gbdt.num_rounds = 12;
  sim::MethodFactory cross(other.split.train, cost::Rates{}, mc);
  const auto cap = sim::quota_capacity(home.split.test, 0.05);
  const auto cross_result = sim::run_method(
      cross, sim::MethodId::kAdaptiveRanking, home.split.test, cap);
  const auto home_result = home.run(sim::MethodId::kAdaptiveRanking, 0.05);
  EXPECT_GT(cross_result.tco_savings_pct(), 0.0);
  EXPECT_GT(cross_result.tco_savings_pct(),
            home_result.tco_savings_pct() * 0.4);
}

TEST(EndToEnd, ByomRegistryPolicyMatchesAdaptiveRanking) {
  // The multi-model registry with a single cluster-default model must
  // behave exactly like the AdaptiveRanking policy built by the factory.
  const auto& f = fixture();
  auto model = std::make_shared<core::CategoryModel>(
      f.factory->category_model());
  auto registry = std::make_shared<core::ModelRegistry>();
  registry->set_default_model(model);
  policy::AdaptiveConfig cfg = f.factory->adaptive_config();
  auto byom_policy = policy::make_byom_policy(registry, cfg);

  const auto cap = sim::quota_capacity(f.split.test, 0.01);
  sim::SimConfig sim_cfg;
  sim_cfg.ssd_capacity_bytes = cap;
  const auto byom_result = sim::simulate(f.split.test, *byom_policy, sim_cfg);
  const auto ranking_result = f.run(sim::MethodId::kAdaptiveRanking, 0.01);
  EXPECT_NEAR(byom_result.tco_savings_pct(),
              ranking_result.tco_savings_pct(), 1e-9);
}

TEST(EndToEnd, PrototypePathAgreesWithSimulator) {
  // The prototype path books the event engine's per-job outcomes on the
  // storage-substrate CacheServer, which prices each job itself. Its
  // savings must equal the simulator's exactly (the paper's section 5.2
  // validation of the simulation methodology), adaptive ranking's
  // on_placed feedback included.
  const auto& f = fixture();
  const auto cap = sim::quota_capacity(f.split.test, 0.05);
  for (const auto id :
       {sim::MethodId::kFirstFit, sim::MethodId::kAdaptiveRanking}) {
    SCOPED_TRACE(sim::method_name(id));
    const auto replay = sim::run_method(*f.factory, id, f.split.test, cap,
                                        {}, /*record_outcomes=*/true);
    ASSERT_EQ(replay.outcomes.size(), f.split.test.size());
    storage::CacheServer server;
    for (std::size_t i = 0; i < f.split.test.size(); ++i) {
      const sim::JobOutcome& o = replay.outcomes[i];
      server.record(f.split.test.jobs()[i], o.scheduled, o.ssd_share,
                    o.ssd_time_share);
    }
    const auto sim_result = f.run(id, 0.05);
    EXPECT_EQ(server.tco_savings_pct(false, false),
              sim_result.tco_savings_pct());
    EXPECT_EQ(server.tcio_savings_pct(false, false),
              sim_result.tcio_savings_pct());
  }
}

}  // namespace
}  // namespace byom
