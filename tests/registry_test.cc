// ModelRegistry + ModelBackend suite: pluggable backends
// trained from the same job history, batched-vs-per-job parity through
// precompute_categories, threaded hot-swap and backend-cache safety (run
// under the CI ThreadSanitizer job), and retrain events reinstalling the
// deployed backends on the virtual timeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/byom.h"
#include "core/model_backend.h"
#include "core/model_registry.h"
#include "harness/experiment.h"
#include "sim/simulator.h"
#include "trace/generator.h"

namespace byom::core {
namespace {

trace::Trace cluster_trace(std::uint32_t cluster, std::uint64_t seed,
                           int pipelines = 14, double days = 6.0) {
  trace::GeneratorConfig cfg = trace::canonical_cluster_config(cluster, seed);
  cfg.num_pipelines = pipelines;
  cfg.duration = days * 86400.0;
  return trace::generate_cluster_trace(cfg);
}

BackendConfig small_backend_config(int categories = 8) {
  BackendConfig cfg;
  cfg.model.num_categories = categories;
  cfg.model.gbdt.num_rounds = 10;
  cfg.model.gbdt.max_trees_total = categories * 10;
  return cfg;
}

const std::vector<BackendKind> kAllKinds = {
    BackendKind::kGbdt, BackendKind::kLogistic, BackendKind::kFrequency};

// One trained fixture shared across tests (training the GBDT once).
struct BackendFixture {
  trace::TrainTestSplit split;
  std::vector<ModelBackendPtr> backends;  // one per kAllKinds entry

  BackendFixture() {
    split = trace::split_train_test(cluster_trace(0, 616));
    for (const BackendKind kind : kAllKinds) {
      backends.push_back(
          train_backend(kind, split.train.jobs(), small_backend_config()));
    }
  }
};

BackendFixture& fixture() {
  static BackendFixture f;
  return f;
}

// ------------------------------------------------------------ ModelBackend

TEST(ModelBackend, KindsTrainAndPredictInRange) {
  auto& f = fixture();
  for (std::size_t k = 0; k < kAllKinds.size(); ++k) {
    const auto& backend = f.backends[k];
    EXPECT_EQ(backend->name(), backend_kind_name(kAllKinds[k]));
    EXPECT_EQ(backend->num_categories(), 8);
    for (const auto& job : f.split.test.jobs()) {
      const int c = backend->predict_category(job);
      EXPECT_GE(c, 0);
      EXPECT_LT(c, backend->num_categories());
    }
  }
}

TEST(ModelBackend, BatchMatchesPerJobForEveryKind) {
  auto& f = fixture();
  const auto& jobs = f.split.test.jobs();
  for (const auto& backend : f.backends) {
    const auto batched = backend->predict_batch(jobs);
    ASSERT_EQ(batched.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(batched[i], backend->predict_category(jobs[i]))
          << backend->name() << " diverges at job " << i;
    }
  }
}

// Each backend must carry real signal: clearly better than uniform guessing
// against the (shared) labeler's ground truth. This is what makes the
// fig18 backend-mix sweep land between the hash floor and the oracle.
TEST(ModelBackend, EveryKindBeatsRandomGuessing) {
  auto& f = fixture();
  const auto truth =
      CategoryLabeler::fit(f.split.train.jobs(), 8);
  for (const auto& backend : f.backends) {
    std::size_t hits = 0;
    for (const auto& job : f.split.test.jobs()) {
      if (backend->predict_category(job) == truth.category_of(job)) ++hits;
    }
    const double accuracy = static_cast<double>(hits) /
                            static_cast<double>(f.split.test.size());
    // Uniform guessing over 8 classes sits at 0.125; every backend must
    // clear it by a wide margin on this held-out split.
    EXPECT_GT(accuracy, 0.19) << backend->name();
  }
}

TEST(ModelBackend, TrainingRejectsEmptyHistory) {
  for (const BackendKind kind : kAllKinds) {
    EXPECT_THROW(train_backend(kind, {}, small_backend_config()),
                 std::invalid_argument);
  }
  EXPECT_THROW(make_gbdt_backend(nullptr), std::invalid_argument);
}

// ----------------------------------------------- precompute_categories parity

// The ISSUE-4 acceptance parity: every backend kind round-trips through the
// registry-grouped batched path bit-identically to its per-job path.
TEST(PrecomputeParity, EveryBackendRoundTripsBitIdentically) {
  auto& f = fixture();
  const auto& jobs = f.split.test.jobs();
  for (const auto& backend : f.backends) {
    auto registry = std::make_shared<ModelRegistry>();
    registry->set_default_model(backend);
    const auto hints = precompute_categories(*registry, jobs, 8);
    ASSERT_EQ(hints.size(), jobs.size());
    for (const auto& job : jobs) {
      EXPECT_EQ(hints.at(job.job_id), backend->predict_category(job))
          << backend->name();
    }
  }
}

// A heterogeneous registry: each pipeline override answers its own jobs,
// the default answers the rest, and the batched pass groups per backend.
TEST(PrecomputeParity, MixedFleetGroupsPerBackend) {
  auto& f = fixture();
  const auto& jobs = f.split.test.jobs();
  ASSERT_GE(jobs.size(), 2u);
  const std::string pipe_a = jobs.front().pipeline_name;

  auto registry = std::make_shared<ModelRegistry>();
  registry->set_default_model(f.backends[0]);   // gbdt default
  registry->register_model(pipe_a, f.backends[2]);  // frequency override

  const auto hints = precompute_categories(*registry, jobs, 8);
  for (const auto& job : jobs) {
    const auto& expected =
        job.pipeline_name == pipe_a ? f.backends[2] : f.backends[0];
    EXPECT_EQ(hints.at(job.job_id), expected->predict_category(job));
  }
}

// predict_categories, the primitive under precompute_categories and the
// serving lane: jobs interleaved across backends (A, B, A, no model, ...)
// come back in job order, each equal to its own backend's per-job
// prediction (the hash fallback for the job without a model), across
// several 64-job grouping chunks.
TEST(PrecomputeParity, InterleavedBackendsPredictInJobOrder) {
  auto& f = fixture();
  std::vector<std::string> pipelines;
  std::map<std::string, std::vector<const trace::Job*>> by_pipeline;
  for (const auto& job : f.split.test.jobs()) {
    auto& list = by_pipeline[job.pipeline_name];
    if (list.empty()) pipelines.push_back(job.pipeline_name);
    list.push_back(&job);
  }
  ASSERT_GE(pipelines.size(), 3u);
  auto registry = std::make_shared<ModelRegistry>();
  registry->register_model(pipelines[0], f.backends[1]);  // A: logistic
  registry->register_model(pipelines[1], f.backends[2]);  // B: frequency
  // pipelines[2] has no model and there is no default.

  const std::string pattern[] = {pipelines[0], pipelines[1], pipelines[0],
                                 pipelines[2]};
  std::vector<const trace::Job*> jobs;
  jobs.reserve(150);
  for (std::size_t i = 0; i < 150; ++i) {
    const auto& list = by_pipeline[pattern[i % 4]];
    jobs.push_back(list[(i / 4) % list.size()]);
  }
  std::vector<int> out(jobs.size(), -1);
  predict_categories(*registry, jobs, 8, nullptr, out);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ModelBackendPtr backend = registry->lookup(*jobs[i]);
    const int expected = backend ? backend->predict_category(*jobs[i])
                                 : hash_category(*jobs[i], 8);
    EXPECT_EQ(out[i], expected) << "job " << i << " of " << pattern[i % 4];
  }

  // One backend for every job takes the single-group path: same answers.
  std::vector<const trace::Job*> only_a(by_pipeline[pipelines[0]]);
  std::vector<int> out_a(only_a.size(), -1);
  predict_categories(*registry, only_a, 8, nullptr, out_a);
  for (std::size_t i = 0; i < only_a.size(); ++i) {
    EXPECT_EQ(out_a[i], f.backends[1]->predict_category(*only_a[i]));
  }

  std::vector<int> short_out(jobs.size() - 1);
  EXPECT_THROW(predict_categories(*registry, jobs, 8, nullptr, short_out),
               std::invalid_argument);
}

// --------------------------------------------------------- threaded hot-swap

// Readers lookup()+predict while a writer re-registers every pipeline over
// and over: no torn reads, every resolved backend stays alive and answers
// in range. TSan (CI job `tsan`) verifies the data-race freedom claim.
TEST(ModelRegistryThreaded, LookupsRaceRegistrationsSafely) {
  auto& f = fixture();
  const auto& jobs = f.split.test.jobs();

  // The distinct pipelines of the trace, each hot-swapped every round.
  const std::vector<std::string> pipelines =
      trace::distinct_pipelines(f.split.train);
  ASSERT_GE(pipelines.size(), 4u);

  ModelRegistry registry;
  registry.set_default_model(f.backends[0]);
  for (const auto& pipeline : pipelines) {
    registry.register_model(pipeline, f.backends[1]);
  }

  constexpr int kRounds = 200;
  std::atomic<bool> writer_done{false};
  std::atomic<std::uint64_t> lookups{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      std::size_t i = static_cast<std::size_t>(r);
      // A minimum iteration count keeps the race meaningful (and the
      // lookups > 0 assertion sound) even if the writer finishes before
      // this reader is first scheduled — a real risk on a loaded
      // single-core CI runner under TSan.
      std::size_t iterations = 0;
      // atomic: acquire — pairs with the writer's release store below
      while (!writer_done.load(std::memory_order_acquire) ||
             iterations < 64) {
        const auto& job = jobs[i % jobs.size()];
        const ModelBackendPtr backend = registry.lookup(job);
        ++iterations;
        if (!backend) {
          failures.fetch_add(1);
          continue;
        }
        const int c = backend->predict_category(job);
        if (c < 0 || c >= backend->num_categories()) failures.fetch_add(1);
        lookups.fetch_add(1);
        i += 7;  // stride so readers resolve different pipelines
      }
    });
  }

  std::thread writer([&] {
    for (int round = 0; round < kRounds; ++round) {
      const auto& fresh = f.backends[static_cast<std::size_t>(round) % 3];
      for (const auto& pipeline : pipelines) {
        registry.register_model(pipeline, fresh);
      }
      registry.set_default_model(fresh);
    }
    // atomic: release — pairs with the readers' acquire loop above
    writer_done.store(true, std::memory_order_release);
  });

  writer.join();
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(lookups.load(), 0u);
  EXPECT_EQ(registry.epoch(),
            1 + pipelines.size() +
                static_cast<std::uint64_t>(kRounds) * (pipelines.size() + 1));
  EXPECT_EQ(registry.num_models(), pipelines.size());
}

// A cold factory's backend cache under concurrent first use: threads that
// race to train the same (kind, pipeline) entry all get the one instance
// that won the insert. TSan (CI job `tsan`) checks the cache's locking.
TEST(BackendCacheThreaded, RacingFirstUsesShareOneInstance) {
  auto& f = fixture();
  const sim::MethodFactory factory(f.split.train, cost::Rates{},
                                   small_backend_config().model);
  // The busiest training pipeline, so its logistic backend is trained on
  // its own history rather than falling back to the cluster default.
  std::map<std::string, std::size_t> runs;
  for (const auto& job : f.split.train.jobs()) ++runs[job.pipeline_name];
  const auto busiest = std::max_element(
      runs.begin(), runs.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  ASSERT_GE(busiest->second, 32u);
  const std::string& pipeline = busiest->first;

  constexpr std::size_t kThreads = 4;
  std::vector<ModelBackendPtr> logistic(kThreads);
  std::vector<ModelBackendPtr> gbdt(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Alternate the call order so both keys see racing first uses.
      if (t % 2 == 0) {
        logistic[t] = factory.backend(BackendKind::kLogistic, pipeline);
        gbdt[t] = factory.backend(BackendKind::kGbdt, "");
      } else {
        gbdt[t] = factory.backend(BackendKind::kGbdt, "");
        logistic[t] = factory.backend(BackendKind::kLogistic, pipeline);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  ASSERT_NE(logistic[0], nullptr);
  ASSERT_NE(gbdt[0], nullptr);
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(logistic[t], logistic[0]) << "thread " << t;
    EXPECT_EQ(gbdt[t], gbdt[0]) << "thread " << t;
  }
  EXPECT_EQ(factory.backend(BackendKind::kLogistic, pipeline), logistic[0]);
  EXPECT_EQ(factory.backend(BackendKind::kGbdt, ""), gbdt[0]);
  EXPECT_NE(factory.backend(BackendKind::kLogistic, ""), logistic[0]);
}

// ------------------------------------------------------ epoch publication

// Every successful installation — per-pipeline or default — advances the
// epoch, so readers can detect "registry changed since I looked".
TEST(EpochPublication, EpochAdvancesOnEveryInstall) {
  auto& f = fixture();
  ModelRegistry registry;
  EXPECT_EQ(registry.epoch(), 0u);
  registry.set_default_model(f.backends[0]);
  EXPECT_EQ(registry.epoch(), 1u);
  registry.register_model("pipeline-a", f.backends[1]);
  EXPECT_EQ(registry.epoch(), 2u);
  // Re-registering the same pipeline is still a publication.
  registry.register_model("pipeline-a", f.backends[2]);
  EXPECT_EQ(registry.epoch(), 3u);
}

// The reader-lifetime contract: a reader that resolved a backend before a
// hot-swap keeps a live handle until it drops it — the superseded backend
// (the canary, tracked by weak_ptr) is reclaimed only after the last
// in-flight reader releases it, never under the reader's feet.
TEST(EpochPublication, HotSwapReclaimsOldBackendAfterLastReaderDrops) {
  auto& f = fixture();
  ModelRegistry registry;

  // A canary backend owned only by the registry once registered.
  ModelBackendPtr canary = train_backend(
      BackendKind::kFrequency, f.split.train.jobs(), small_backend_config());
  std::weak_ptr<const ModelBackend> watch = canary;
  trace::Job job = f.split.test.jobs().front();
  const std::string pipeline = job.pipeline_name;
  registry.register_model(pipeline, std::move(canary));

  const std::uint64_t epoch_before = registry.epoch();
  ModelBackendPtr in_flight = registry.lookup(job);
  ASSERT_TRUE(in_flight);
  ASSERT_EQ(in_flight.get(), watch.lock().get());

  // Hot-swap while the reader still holds its handle.
  registry.register_model(pipeline, f.backends[0]);
  EXPECT_GT(registry.epoch(), epoch_before);  // publication is observable
  // New lookups resolve the replacement immediately...
  EXPECT_EQ(registry.lookup(job).get(), f.backends[0].get());
  // ...while the in-flight reader's backend is alive and still answers.
  ASSERT_FALSE(watch.expired());
  const int category = in_flight->predict_category(job);
  EXPECT_GE(category, 0);
  EXPECT_LT(category, in_flight->num_categories());

  // Grace period ends when the last reader drops the handle: the canary is
  // reclaimed (nothing else references it).
  in_flight.reset();
  EXPECT_TRUE(watch.expired());
}

// ------------------------------------- retrain reinstalls deployed backends

// A retrain event on the virtual timeline must *install* a backend into the
// serving registry (hot-swap observable via epoch()) and reset the
// staleness age — not merely bump a counter. In closed-world replay the
// retrained model is the deployed one, so the same artifact is reinstalled.
TEST(RetrainInstallation, EventsHotSwapFreshBackendsIntoRegistry) {
  auto& f = fixture();
  sim::MethodFactory factory(f.split.train, cost::Rates{},
                             small_backend_config().model);

  sim::MakeOptions options;
  options.backend = BackendKind::kFrequency;  // cheap genuine retrains
  options.hint_latency = 0.0;
  options.retrain_period = 86400.0;  // daily over a multi-day test split
  const auto capacity = sim::quota_capacity(f.split.test, 0.05);
  const auto context = factory.make_context(
      sim::MethodId::kAdaptiveServedLatency, f.split.test, capacity, options);
  ASSERT_NE(context.registry, nullptr);
  ASSERT_NE(context.staleness, nullptr);

  const std::uint64_t epoch_before = context.registry->epoch();
  trace::Job probe = f.split.test.jobs().front();
  const ModelBackendPtr deployed = context.registry->lookup(probe);
  ASSERT_NE(deployed, nullptr);

  sim::SimConfig config;
  config.ssd_capacity_bytes = capacity;
  config.clock = context.clock;
  config.hint_service = context.hint_service;
  config.staleness = context.staleness;
  const auto result = sim::simulate(f.split.test, *context.policy, config);

  EXPECT_GT(result.retrain_events, 0u);
  EXPECT_EQ(context.staleness->retrain_count(), result.retrain_events);
  // Every retrain event installed exactly one default backend.
  EXPECT_EQ(context.registry->epoch(),
            epoch_before + result.retrain_events);
  const ModelBackendPtr now_serving = context.registry->lookup(probe);
  ASSERT_NE(now_serving, nullptr);
  EXPECT_EQ(now_serving, deployed) << "retrain installed a new artifact";
  EXPECT_EQ(now_serving->num_categories(), deployed->num_categories());
  // And the age really restarted: the current epoch is the last retrain,
  // not the deployment epoch.
  EXPECT_GT(context.staleness->current_epoch_start(),
            f.split.test.start_time());
}

// Per-pipeline overrides get reinstalled too, and the heterogeneous cell
// stays deterministic: two identical runs produce identical placements.
TEST(RetrainInstallation, HeterogeneousFleetRetrainsDeterministically) {
  auto& f = fixture();
  sim::MethodFactory factory(f.split.train, cost::Rates{},
                             small_backend_config().model);

  std::vector<std::string> pipelines =
      trace::distinct_pipelines(f.split.train);
  ASSERT_GE(pipelines.size(), 2u);
  pipelines.resize(2);

  sim::MakeOptions options;
  options.backend = BackendKind::kFrequency;
  options.pipeline_backends = {
      {pipelines[0], BackendKind::kLogistic},
      {pipelines[1], BackendKind::kFrequency}};
  options.retrain_period = 2.0 * 86400.0;
  const auto capacity = sim::quota_capacity(f.split.test, 0.05);

  const auto run = [&] {
    const auto context =
        factory.make_context(sim::MethodId::kAdaptiveServedLatency,
                             f.split.test, capacity, options);
    sim::SimConfig config;
    config.ssd_capacity_bytes = capacity;
    config.clock = context.clock;
    config.hint_service = context.hint_service;
    config.staleness = context.staleness;
    const auto result = sim::simulate(f.split.test, *context.policy, config);
    // default + 2 overrides at build, then one full reinstall per retrain.
    EXPECT_EQ(context.registry->epoch(), 3 + result.retrain_events * 3);
    return result;
  };

  const auto first = run();
  const auto second = run();
  EXPECT_GT(first.retrain_events, 0u);
  EXPECT_EQ(first.tco_actual, second.tco_actual);
  EXPECT_EQ(first.jobs_scheduled_ssd, second.jobs_scheduled_ssd);
  EXPECT_EQ(first.retrain_events, second.retrain_events);
}

}  // namespace
}  // namespace byom::core
