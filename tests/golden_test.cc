// Golden simulation digests: every placement method's exact SimResult,
// pinned as an FNV-1a digest committed in tests/golden/sim_digests.txt.
//
// A digest covers the exact bits of every SimResult scalar plus every
// recorded JobOutcome, so any change to a method's decisions, its hint
// timeliness, or the engine's arithmetic shows up as a mismatch. The cells
// cover all ten MethodIds at a 5% quota, the registry-routed ranking and
// offline-served chains over a per-pipeline bring-your-own-model fleet, and
// the served-latency cell with real latency and daily retrains, alone and
// over the fleet.
//
// A second file, tests/golden/gbdt_score_digests.txt, pins the raw score
// bits of the cells' GBDT model over a fixed row set, through both compiled
// batch entry points (strided block and row pointers) at batch sizes
// around the kernel's 64-row block, single rows included.
//
// A third file, tests/golden/prototype_digests.txt, pins the prototype
// path: the caching server's per-job records (every PlacedJob field) and
// its framework-split savings over the same split.
//
// On a mismatch the test prints the actual digest in the file's format.
// There is no regeneration switch: updating a digest means editing the
// committed file, in a change that argues why the results moved.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/category_model.h"
#include "core/model_backend.h"
#include "features/feature_matrix.h"
#include "harness/experiment.h"
#include "ml/gbdt.h"
#include "sim/simulator.h"
#include "storage/cache_server.h"
#include "trace/generator.h"
#include "trace/trace.h"

namespace byom::sim {
namespace {

class Fnv1a {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char byte : bytes) {
      hash_ ^= byte;
      hash_ *= 1099511628211ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

std::uint64_t digest(const SimResult& r) {
  Fnv1a h;
  h.add(r.tco_actual);
  h.add(r.tco_all_hdd);
  h.add(r.tcio_actual_seconds);
  h.add(r.tcio_all_hdd_seconds);
  h.add(static_cast<std::uint64_t>(r.jobs_total));
  h.add(static_cast<std::uint64_t>(r.jobs_scheduled_ssd));
  h.add(r.peak_ssd_used_bytes);
  h.add(r.hints_on_time);
  h.add(r.hints_late);
  h.add(r.hints_dropped);
  h.add(r.retrain_events);
  h.add(static_cast<std::uint64_t>(r.outcomes.size()));
  for (const JobOutcome& o : r.outcomes) {
    h.add(o.job_id);
    h.add(static_cast<std::int32_t>(o.scheduled));
    h.add(o.spill_fraction);
    h.add(o.ssd_time_share);
  }
  return h.value();
}

std::string hex(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

// `name digest` per line; '#' starts a comment line.
std::map<std::string, std::string> load_digests(const std::string& file) {
  const std::string source = __FILE__;
  const std::string path =
      source.substr(0, source.find_last_of('/')) + "/golden/" + file;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::map<std::string, std::string> digests;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::string value;
    fields >> name >> value;
    digests[name] = value;
  }
  return digests;
}

class GoldenDigestTest : public ::testing::Test {
 protected:
  // The sim_test split and factory: canonical cluster 0, 14 pipelines, six
  // days, an 8-category model with 10 boosting rounds.
  static trace::TrainTestSplit& split() {
    static trace::TrainTestSplit s = [] {
      trace::GeneratorConfig cfg = trace::canonical_cluster_config(0, 777);
      cfg.num_pipelines = 14;
      cfg.duration = 6.0 * 86400.0;
      return trace::split_train_test(trace::generate_cluster_trace(cfg));
    }();
    return s;
  }
  static core::CategoryModelConfig model_config() {
    core::CategoryModelConfig mc;
    mc.num_categories = 8;
    mc.gbdt.num_rounds = 10;
    return mc;
  }
  static MethodFactory& factory() {
    static MethodFactory f(split().train, cost::Rates{}, model_config());
    return f;
  }
  static const std::map<std::string, std::string>& golden() {
    static const std::map<std::string, std::string> digests =
        load_digests("sim_digests.txt");
    return digests;
  }
  static const std::map<std::string, std::string>& gbdt_golden() {
    static const std::map<std::string, std::string> digests =
        load_digests("gbdt_score_digests.txt");
    return digests;
  }

  static void expect_line(const std::map<std::string, std::string>& digests,
                          const std::string& name, std::uint64_t value) {
    const std::string actual = hex(value);
    const auto it = digests.find(name);
    const std::string expected = it == digests.end() ? "<missing>"
                                                     : it->second;
    EXPECT_EQ(actual, expected) << "actual digest line:\n"
                                << name << " " << actual;
  }

  static void expect_digest(const std::string& name, MethodId id,
                            const MakeOptions& options) {
    SCOPED_TRACE(name);
    const std::uint64_t cap = quota_capacity(split().test, 0.05);
    const SimResult r = run_method(factory(), id, split().test, cap, options,
                                   /*record_outcomes=*/true);
    ASSERT_EQ(r.outcomes.size(), split().test.size());
    expect_line(golden(), name, digest(r));
  }

  // GBDT, logistic and frequency backends assigned round-robin over the
  // training split's pipelines.
  static MakeOptions fleet_options() {
    const core::BackendKind kinds[] = {core::BackendKind::kGbdt,
                                       core::BackendKind::kLogistic,
                                       core::BackendKind::kFrequency};
    const std::vector<std::string> pipelines =
        trace::distinct_pipelines(split().train);
    MakeOptions options;
    for (std::size_t p = 0; p < pipelines.size(); ++p) {
      options.pipeline_backends.emplace_back(pipelines[p], kinds[p % 3]);
    }
    return options;
  }
};

TEST_F(GoldenDigestTest, EveryMethodAtFivePercentQuota) {
  for (const MethodId id :
       {MethodId::kFirstFit, MethodId::kHeuristic, MethodId::kMlBaseline,
        MethodId::kAdaptiveHash, MethodId::kAdaptiveRanking,
        MethodId::kOracleTco, MethodId::kOracleTcio, MethodId::kTrueCategory,
        MethodId::kAdaptiveServed, MethodId::kAdaptiveServedLatency}) {
    expect_digest(method_name(id), id, MakeOptions{});
  }
}

TEST_F(GoldenDigestTest, RankingOverBackendFleet) {
  expect_digest("AdaptiveRanking/fleet", MethodId::kAdaptiveRanking,
                fleet_options());
}

TEST_F(GoldenDigestTest, ServedOverBackendFleet) {
  expect_digest("AdaptiveServed/fleet", MethodId::kAdaptiveServed,
                fleet_options());
}

TEST_F(GoldenDigestTest, ServedLatencyWithDailyRetrain) {
  MakeOptions options;
  options.hint_latency = 0.5;
  options.hint_deadline = 1.0;
  options.retrain_period = 86400.0;
  options.noise_seed = 2025;
  expect_digest("AdaptiveServedLatency/latency0.5-retrain1d",
                MethodId::kAdaptiveServedLatency, options);
}

// The same served cell over the backend fleet: retrain events reinstall
// logistic and frequency backends as well as GBDT ones.
TEST_F(GoldenDigestTest, ServedLatencyFleetWithDailyRetrain) {
  MakeOptions options = fleet_options();
  options.hint_latency = 0.5;
  options.hint_deadline = 1.0;
  options.retrain_period = 86400.0;
  options.noise_seed = 2025;
  expect_digest("AdaptiveServedLatency/fleet-latency0.5-retrain1d",
                MethodId::kAdaptiveServedLatency, options);
}

// The factory's GBDT model scores every row of the test split's feature
// matrix in consecutive batches of n rows. Scores do not depend on batch
// composition, so all lines carry one digest; a line per (path, n) still
// pins each block-boundary case, n == 1 included, on its own.
TEST_F(GoldenDigestTest, GbdtScoreBitsAcrossBatchSizes) {
  const core::CategoryModel& model = factory().category_model();
  const ml::GbdtClassifier& classifier = model.classifier();
  const features::FeatureMatrix matrix(model.extractor(), split().test.jobs());
  const std::size_t rows = matrix.num_rows();
  const auto k = static_cast<std::size_t>(classifier.num_classes());
  std::vector<const float*> pointers(rows);
  for (std::size_t r = 0; r < rows; ++r) pointers[r] = matrix.row(r);

  std::vector<double> scores(rows * k);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 130u}) {
    for (const bool strided : {true, false}) {
      std::fill(scores.begin(), scores.end(),
                std::numeric_limits<double>::quiet_NaN());
      for (std::size_t r0 = 0; r0 < rows; r0 += n) {
        const std::size_t m = std::min(n, rows - r0);
        double* out = scores.data() + r0 * k;
        if (strided) {
          classifier.scores_batch(matrix.row(r0), matrix.row_stride(), m,
                                  out);
        } else {
          classifier.scores_batch(pointers.data() + r0, m, out);
        }
      }
      Fnv1a h;
      h.add(static_cast<std::uint64_t>(rows));
      h.add(static_cast<std::uint64_t>(k));
      for (const double score : scores) h.add(score);
      expect_line(gbdt_golden(),
                  (strided ? "strided/n" : "rows/n") + std::to_string(n),
                  h.value());
    }
  }
}

std::uint64_t digest(const core::CategoryModel& model) {
  std::ostringstream out;
  model.save(out);
  Fnv1a h;
  for (const char c : out.str()) h.add(c);
  return h.value();
}

// The serialized models: the factory's cluster model, and the first
// pipeline fleet_options() assigns a GBDT, trained on its own history the
// way MethodFactory::backend trains a per-pipeline backend.
TEST_F(GoldenDigestTest, TrainedModelBits) {
  const auto models = load_digests("model_digests.txt");
  expect_line(models, "cluster", digest(factory().category_model()));

  const MakeOptions fleet = fleet_options();
  const auto gbdt = std::find_if(
      fleet.pipeline_backends.begin(), fleet.pipeline_backends.end(),
      [](const auto& p) { return p.second == core::BackendKind::kGbdt; });
  ASSERT_NE(gbdt, fleet.pipeline_backends.end());
  std::vector<trace::Job> history;
  for (const auto& job : split().train.jobs()) {
    if (job.pipeline_name == gbdt->first) history.push_back(job);
  }
  ASSERT_GE(history.size(), 32u) << "pipeline would fall back to the cluster "
                                    "model";
  expect_line(models, "pipeline/" + gbdt->first,
              digest(core::CategoryModel::train(history, model_config())));
}

std::uint64_t digest(const storage::CacheServer& server) {
  Fnv1a h;
  h.add(static_cast<std::uint64_t>(server.placements().size()));
  for (const storage::PlacedJob& p : server.placements()) {
    h.add(p.job_id);
    h.add(static_cast<std::int32_t>(p.device));
    h.add(p.spill_fraction);
    h.add(p.runtime_seconds);
    h.add(p.runtime_hdd_seconds);
    h.add(p.tco);
    h.add(p.tco_hdd);
    h.add(p.tcio_seconds);
    h.add(p.tcio_seconds_hdd);
    h.add(static_cast<std::uint8_t>(p.framework_workload));
  }
  // All jobs, framework jobs only, non-framework jobs only.
  const bool splits[3][2] = {{false, false}, {true, true}, {true, false}};
  for (const auto& split : splits) {
    h.add(server.tco_savings_pct(split[0], split[1]));
    h.add(server.tcio_savings_pct(split[0], split[1]));
    h.add(server.runtime_savings_pct(split[0], split[1]));
  }
  return h.value();
}

// The prototype path at a 5% quota: the caching server books the replay's
// per-job outcomes for FirstFit and adaptive ranking.
TEST_F(GoldenDigestTest, PrototypePathAtFivePercentQuota) {
  const auto prototype = load_digests("prototype_digests.txt");
  const trace::Trace& test = split().test;
  const std::uint64_t cap = quota_capacity(test, 0.05);
  for (const MethodId id : {MethodId::kFirstFit, MethodId::kAdaptiveRanking}) {
    SCOPED_TRACE(method_name(id));
    const SimResult r = run_method(factory(), id, test, cap, MakeOptions{},
                                   /*record_outcomes=*/true);
    ASSERT_EQ(r.outcomes.size(), test.size());
    storage::CacheServer server;
    for (std::size_t i = 0; i < test.size(); ++i) {
      const JobOutcome& o = r.outcomes[i];
      server.record(test.jobs()[i], o.scheduled, o.ssd_share,
                    o.ssd_time_share);
    }
    expect_line(prototype, method_name(id), digest(server));
  }
}

}  // namespace
}  // namespace byom::sim
