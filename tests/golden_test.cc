// Golden simulation digests: every placement method's exact SimResult,
// pinned as an FNV-1a digest committed in tests/golden/sim_digests.txt.
//
// A digest covers the exact bits of every SimResult scalar plus every
// recorded JobOutcome, so any change to a method's decisions, its hint
// timeliness, or the engine's arithmetic shows up as a mismatch. The cells
// cover all ten MethodIds at a 5% quota, the registry-routed ranking and
// offline-served chains over a per-pipeline bring-your-own-model fleet, and
// the served-latency cell with real latency and daily retrains.
//
// On a mismatch the test prints the actual digest in the file's format.
// There is no regeneration switch: updating a digest means editing the
// committed file, in a change that argues why the results moved.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/model_backend.h"
#include "harness/experiment.h"
#include "sim/simulator.h"
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
std::map<std::string, std::string> load_digests() {
  const std::string source = __FILE__;
  const std::string path =
      source.substr(0, source.find_last_of('/')) + "/golden/sim_digests.txt";
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
  static MethodFactory& factory() {
    static MethodFactory f = [] {
      core::CategoryModelConfig mc;
      mc.num_categories = 8;
      mc.gbdt.num_rounds = 10;
      return MethodFactory(split().train, cost::Rates{}, mc);
    }();
    return f;
  }
  static const std::map<std::string, std::string>& golden() {
    static const std::map<std::string, std::string> digests = load_digests();
    return digests;
  }

  static void expect_digest(const std::string& name, MethodId id,
                            const MakeOptions& options) {
    SCOPED_TRACE(name);
    const std::uint64_t cap = quota_capacity(split().test, 0.05);
    const SimResult r = run_method(factory(), id, split().test, cap, options,
                                   /*record_outcomes=*/true);
    ASSERT_EQ(r.outcomes.size(), split().test.size());
    const std::string actual = hex(digest(r));
    const auto it = golden().find(name);
    const std::string expected = it == golden().end() ? "<missing>"
                                                      : it->second;
    EXPECT_EQ(actual, expected) << "actual digest line:\n"
                                << name << " " << actual;
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

}  // namespace
}  // namespace byom::sim
