#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/units.h"
#include "core/byom.h"
#include "policy/byom_policy.h"
#include "core/category_model.h"
#include "core/labeler.h"
#include "trace/generator.h"

namespace byom::core {
namespace {

using common::kGiB;

trace::Job job_with(double saving_sign, double density) {
  static std::uint64_t next_id = 1;
  trace::Job j;
  j.job_id = next_id++;
  j.peak_bytes = kGiB;
  j.lifetime = 600.0;
  j.cost_hdd = 1.0;
  j.cost_ssd = 1.0 - saving_sign * 0.1;
  j.io_density = density;
  return j;
}

std::vector<trace::Job> labeler_population() {
  std::vector<trace::Job> jobs;
  // 100 cost-saving jobs with densities 1..100, plus 20 negative jobs.
  for (int i = 1; i <= 100; ++i) {
    jobs.push_back(job_with(+1.0, static_cast<double>(i)));
  }
  for (int i = 0; i < 20; ++i) {
    jobs.push_back(job_with(-1.0, 50.0));
  }
  return jobs;
}

trace::Trace cluster_trace(std::uint32_t cluster, std::uint64_t seed,
                           int pipelines = 14, double days = 6.0) {
  trace::GeneratorConfig cfg = trace::canonical_cluster_config(cluster, seed);
  cfg.num_pipelines = pipelines;
  cfg.duration = days * 86400.0;
  return trace::generate_cluster_trace(cfg);
}

CategoryModelConfig small_model_config(int categories = 8) {
  CategoryModelConfig cfg;
  cfg.num_categories = categories;
  cfg.gbdt.num_rounds = 10;
  cfg.gbdt.max_trees_total = categories * 10;
  return cfg;
}

// ---------------------------------------------------------------- labeler

TEST(Labeler, NegativeSavingIsCategoryZero) {
  const auto labeler = CategoryLabeler::fit(labeler_population(), 5);
  EXPECT_EQ(labeler.category_of(job_with(-1.0, 99.0)), 0);
}

TEST(Labeler, DensityRankOrdersCategories) {
  const auto labeler = CategoryLabeler::fit(labeler_population(), 5);
  const int low = labeler.category_of(job_with(+1.0, 5.0));
  const int mid = labeler.category_of(job_with(+1.0, 50.0));
  const int high = labeler.category_of(job_with(+1.0, 99.0));
  EXPECT_LT(low, mid);
  EXPECT_LT(mid, high);
  EXPECT_GE(low, 1);
  EXPECT_LE(high, 4);
}

TEST(Labeler, EquiDepthBalance) {
  const auto jobs = labeler_population();
  const int n = 5;
  const auto labeler = CategoryLabeler::fit(jobs, n);
  std::vector<int> counts(static_cast<std::size_t>(n), 0);
  for (const auto& j : jobs) {
    ++counts[static_cast<std::size_t>(labeler.category_of(j))];
  }
  // 100 positive jobs over 4 density buckets: each ~25.
  for (int c = 1; c < n; ++c) {
    EXPECT_NEAR(counts[static_cast<std::size_t>(c)], 25, 4);
  }
  EXPECT_EQ(counts[0], 20);
}

TEST(Labeler, LabelVectorMatchesPerJob) {
  const auto jobs = labeler_population();
  const auto labeler = CategoryLabeler::fit(jobs, 6);
  const auto labels = labeler.label(jobs);
  ASSERT_EQ(labels.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(labels[i], labeler.category_of(jobs[i]));
  }
}

TEST(Labeler, SerializationRoundTrip) {
  const auto labeler = CategoryLabeler::fit(labeler_population(), 7);
  std::stringstream ss;
  labeler.save(ss);
  const auto loaded = CategoryLabeler::load(ss);
  EXPECT_EQ(loaded.num_categories(), 7);
  for (double d : {1.0, 20.0, 50.0, 80.0, 99.0}) {
    EXPECT_EQ(loaded.category_of(job_with(1.0, d)),
              labeler.category_of(job_with(1.0, d)));
  }
}

TEST(Labeler, LoadRejectsHugeThresholdCount) {
  // Header: num_categories count, then the thresholds. Sizing the vector
  // from a count of 10^9 would allocate ~8 GB before the stream check.
  std::stringstream huge("category_labeler v1\n7 1000000000\n0.5\n");
  EXPECT_THROW(CategoryLabeler::load(huge), std::runtime_error);
}

TEST(Labeler, RejectsBadInput) {
  EXPECT_THROW(CategoryLabeler::fit(labeler_population(), 1),
               std::invalid_argument);
  CategoryLabeler unfitted;
  EXPECT_THROW(unfitted.category_of(job_with(1.0, 1.0)), std::logic_error);
}

TEST(Labeler, UnseenExtremeDensityClampsToTopCategory) {
  const auto labeler = CategoryLabeler::fit(labeler_population(), 5);
  EXPECT_EQ(labeler.category_of(job_with(+1.0, 1e12)), 4);
}

// ------------------------------------------------------------ CategoryModel

class CategoryModelTest : public ::testing::Test {
 protected:
  static const CategoryModel& model() {
    static const CategoryModel m = [] {
      const auto t = cluster_trace(0, 404);
      const auto split = trace::split_train_test(t);
      return CategoryModel::train(split.train.jobs(), small_model_config());
    }();
    return m;
  }
};

TEST_F(CategoryModelTest, TrainsAndPredictsInRange) {
  const auto t = cluster_trace(0, 405);
  for (const auto& j : t.jobs()) {
    const int c = model().predict_category(j);
    EXPECT_GE(c, 0);
    EXPECT_LT(c, model().num_categories());
  }
}

TEST_F(CategoryModelTest, BeatsRandomGuessing) {
  const auto t = cluster_trace(0, 404);
  const auto split = trace::split_train_test(t);
  const double acc = model().top1_accuracy(split.test.jobs());
  // Random over 8 classes would be 0.125; the model must beat it clearly.
  EXPECT_GT(acc, 0.25);
}

TEST_F(CategoryModelTest, PredictedCorrelatesWithTrueCategory) {
  const auto t = cluster_trace(0, 404);
  const auto split = trace::split_train_test(t);
  // Mean |predicted - true| must be far below the random-guess distance.
  double mean_abs = 0.0;
  for (const auto& j : split.test.jobs()) {
    mean_abs += std::abs(model().predict_category(j) -
                         model().true_category(j));
  }
  mean_abs /= static_cast<double>(split.test.size());
  EXPECT_LT(mean_abs, 2.0);
}

TEST_F(CategoryModelTest, FileRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "byom_model_test.txt";
  model().save_file(path.string());
  const auto loaded = CategoryModel::load_file(path.string());
  const auto t = cluster_trace(0, 406, 6, 2.0);
  for (const auto& j : t.jobs()) {
    EXPECT_EQ(loaded.predict_category(j), model().predict_category(j));
    EXPECT_EQ(loaded.true_category(j), model().true_category(j));
  }
  std::filesystem::remove(path);
}

// A model file whose split names feature 60 would make predict_category
// read past its 60-float feature row; load must reject it.
TEST_F(CategoryModelTest, LoadRejectsSplitFeatureOutsideTheRow) {
  const std::size_t width = model().extractor().num_features();
  ASSERT_EQ(width, 60u);
  std::stringstream saved;
  model().save(saved);
  std::ostringstream edited;
  bool in_classifier = false;
  bool rewritten = false;
  for (std::string line; std::getline(saved, line);) {
    in_classifier = in_classifier || line.rfind("gbdt_classifier", 0) == 0;
    std::istringstream fields(line);
    std::vector<std::string> f{std::istream_iterator<std::string>(fields),
                               std::istream_iterator<std::string>()};
    // Tree node lines read "leaf feature threshold left right value".
    if (in_classifier && !rewritten && f.size() == 6 && f[0] == "0") {
      f[1] = std::to_string(width);
      line = f[0] + ' ' + f[1] + ' ' + f[2] + ' ' + f[3] + ' ' + f[4] + ' ' +
             f[5];
      rewritten = true;
    }
    edited << line << '\n';
  }
  ASSERT_TRUE(rewritten);
  std::istringstream corrupt(edited.str());
  EXPECT_THROW(CategoryModel::load(corrupt), std::runtime_error);
}

TEST(CategoryModel, EmptyTrainingThrows) {
  EXPECT_THROW(CategoryModel::train({}, small_model_config()),
               std::invalid_argument);
}

TEST(CategoryModel, PaperDefaultsAre15Categories) {
  CategoryModelConfig cfg;
  EXPECT_EQ(cfg.num_categories, 15);
  EXPECT_LE(cfg.gbdt.max_trees_total, 300);
  EXPECT_LE(cfg.gbdt.tree.max_depth, 6);
}

// ------------------------------------------------------------- ModelRegistry

TEST(ModelRegistry, LookupPrefersPipelineModel) {
  const auto pipe_a_backend =
      make_gbdt_backend(std::make_shared<CategoryModel>());
  const auto default_backend =
      make_gbdt_backend(std::make_shared<CategoryModel>());
  ModelRegistry registry;
  registry.register_model("pipe_a", pipe_a_backend);
  registry.set_default_model(default_backend);
  trace::Job j;
  j.pipeline_name = "pipe_a";
  EXPECT_EQ(registry.lookup(j), pipe_a_backend);
  j.pipeline_name = "pipe_b";
  EXPECT_EQ(registry.lookup(j), default_backend);
}

TEST(ModelRegistry, LookupWithoutAnyModelIsNull) {
  ModelRegistry registry;
  trace::Job j;
  j.pipeline_name = "anything";
  EXPECT_EQ(registry.lookup(j), nullptr);
}

TEST(ModelRegistry, CountsModelsAndInstalls) {
  ModelRegistry registry;
  registry.register_model("a", std::make_shared<CategoryModel>());
  registry.register_model("b", std::make_shared<CategoryModel>());
  registry.register_model("a", std::make_shared<CategoryModel>());  // replace
  EXPECT_EQ(registry.num_models(), 2u);
  EXPECT_FALSE(registry.has_default());
  EXPECT_EQ(registry.epoch(), 3u);  // every installation counts
}

TEST(ModelRegistry, HotSwapReplacesBackendForNextLookup) {
  ModelRegistry registry;
  const auto old_backend = make_gbdt_backend(std::make_shared<CategoryModel>());
  const auto new_backend = make_gbdt_backend(std::make_shared<CategoryModel>());
  registry.register_model("pipe", old_backend);
  trace::Job j;
  j.pipeline_name = "pipe";
  const auto held = registry.lookup(j);  // an in-flight reader's handle
  EXPECT_EQ(held, old_backend);
  registry.register_model("pipe", new_backend);
  EXPECT_EQ(registry.lookup(j), new_backend);
  // The reader that resolved before the swap still holds a live backend.
  EXPECT_EQ(held, old_backend);
  EXPECT_EQ(registry.num_models(), 1u);
}

TEST(ByomPolicy, UsesWorkloadModelAndFallback) {
  const auto t = cluster_trace(0, 407);
  const auto split = trace::split_train_test(t);
  auto model = std::make_shared<CategoryModel>(
      CategoryModel::train(split.train.jobs(), small_model_config()));
  auto registry = std::make_shared<ModelRegistry>();
  registry->set_default_model(model);
  policy::AdaptiveConfig cfg;
  cfg.num_categories = model->num_categories();
  auto policy = policy::make_byom_policy(registry, cfg);
  EXPECT_EQ(policy->name(), "BYOM");
  // Drive a few decisions; jobs with a model follow the model's category.
  policy::StorageView view;
  view.ssd_capacity_bytes = 100 * kGiB;
  const auto& probe = split.test.jobs().front();
  policy->decide(probe, view);
  EXPECT_EQ(policy->last_category(), model->predict_category(probe));
}

TEST(ByomPolicy, MissingModelFallsBackToHash) {
  auto registry = std::make_shared<ModelRegistry>();  // no models at all
  policy::AdaptiveConfig cfg;
  cfg.num_categories = 15;
  auto policy = policy::make_byom_policy(registry, cfg);
  trace::Job j;
  j.job_key = "some/job";
  j.arrival_time = 0.0;
  j.lifetime = 60.0;
  j.peak_bytes = kGiB;
  policy::StorageView view;
  view.ssd_capacity_bytes = 100 * kGiB;
  policy->decide(j, view);
  EXPECT_EQ(policy->last_category(),
            make_hash_provider(15)->category(j).value());
}

TEST(PrecomputeCategories, MatchesPerJobRegistryLookup) {
  const auto t = cluster_trace(0, 409);
  const auto split = trace::split_train_test(t);
  auto model = std::make_shared<CategoryModel>(
      CategoryModel::train(split.train.jobs(), small_model_config()));
  auto registry = std::make_shared<ModelRegistry>();
  registry->set_default_model(model);
  const auto& jobs = split.test.jobs();
  const auto hints =
      precompute_categories(*registry, jobs, model->num_categories());
  ASSERT_EQ(hints.size(), jobs.size());
  for (const auto& j : jobs) {
    const auto it = hints.find(j.job_id);
    ASSERT_NE(it, hints.end());
    EXPECT_EQ(it->second, model->predict_category(j));
  }
}

TEST(PrecomputeCategories, ModellessJobsGetHashFallback) {
  ModelRegistry registry;  // no models at all
  trace::Job j;
  j.job_id = 99;
  j.job_key = "some/job";
  const auto hints = precompute_categories(registry, {j}, 15);
  ASSERT_EQ(hints.size(), 1u);
  EXPECT_EQ(hints.at(99), make_hash_provider(15)->category(j).value());
}

TEST(ByomPolicyBatched, MatchesUnbatchedDecisions) {
  const auto t = cluster_trace(0, 410);
  const auto split = trace::split_train_test(t);
  auto model = std::make_shared<CategoryModel>(
      CategoryModel::train(split.train.jobs(), small_model_config()));
  auto registry = std::make_shared<ModelRegistry>();
  registry->set_default_model(model);
  policy::ByomPolicyOptions batched_options;
  batched_options.adaptive.num_categories = model->num_categories();
  batched_options.precompute_jobs = &split.test.jobs();
  auto batched = policy::make_byom_policy(registry, batched_options);
  policy::AdaptiveConfig cfg;
  cfg.num_categories = model->num_categories();
  auto unbatched = policy::make_byom_policy(registry, cfg);
  policy::StorageView view;
  view.ssd_capacity_bytes = 100 * kGiB;
  for (const auto& j : split.test.jobs()) {
    batched->decide(j, view);
    unbatched->decide(j, view);
    EXPECT_EQ(batched->last_category(), unbatched->last_category());
  }
}

// --------------------------------------------------------- CategoryProvider

TEST(CategoryProvider, HashProviderDeterministicAndInRange) {
  const auto provider = make_hash_provider(15);
  for (const char* key : {"a/b", "org_ads.pipe.step", "x", "pipe/step/7"}) {
    trace::Job j;
    j.job_key = key;
    const auto c = provider->category(j);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(*c, provider->category(j).value());
    EXPECT_GE(*c, 1);
    EXPECT_LT(*c, 15);
  }
}

// ISSUE-4 range audit: the hash fallback deliberately emits N-1 of the N
// buckets. Category kDoNotAdmitCategory (0) is the labeler's reserved
// negative-saving class — Algorithm 1 never admits it (ACT >= 1), so a
// *guessed* category 0 would permanently bar a job from SSD. This test pins
// the decision: every admittable category [1, N-1] is reachable, and 0 (or
// anything >= N) never appears.
TEST(CategoryProvider, HashProviderCoversExactlyTheAdmittableRange) {
  const int n = 7;
  const auto provider = make_hash_provider(n);
  std::vector<int> seen(static_cast<std::size_t>(n) + 1, 0);
  for (int i = 0; i < 4096; ++i) {
    trace::Job j;
    j.job_key = "pipeline_" + std::to_string(i) + "/step";
    const auto c = provider->category(j);
    ASSERT_TRUE(c.has_value());
    ASSERT_GE(*c, 0);
    ASSERT_LE(*c, n);
    ++seen[static_cast<std::size_t>(*c)];
  }
  EXPECT_EQ(seen[static_cast<std::size_t>(kDoNotAdmitCategory)], 0);
  EXPECT_EQ(seen[static_cast<std::size_t>(n)], 0);  // N itself: unreachable
  for (int c = 1; c < n; ++c) {
    EXPECT_GT(seen[static_cast<std::size_t>(c)], 0)
        << "admittable category " << c << " unreachable from the hash";
  }
}

TEST(CategoryProvider, FallbackChainFirstOpinionWins) {
  const auto declines = make_function_provider(
      "declines", [](const trace::Job&) { return std::optional<int>(); });
  const auto three = make_function_provider(
      "three", [](const trace::Job&) { return std::optional<int>(3); });
  const auto seven = make_function_provider(
      "seven", [](const trace::Job&) { return std::optional<int>(7); });
  trace::Job j;

  const auto chain = make_fallback_chain({declines, three, seven});
  EXPECT_EQ(chain->category(j), 3);
  const auto all_decline = make_fallback_chain({declines, declines});
  EXPECT_FALSE(all_decline->category(j).has_value());
  const auto empty = make_fallback_chain({});
  EXPECT_FALSE(empty->category(j).has_value());
}

TEST(CategoryProvider, PrecomputedDeclinesOutsideTable) {
  auto hints = std::make_shared<CategoryHints>();
  (*hints)[7] = 4;
  const auto provider = make_precomputed_provider(std::move(hints));
  trace::Job j;
  j.job_id = 7;
  EXPECT_EQ(provider->category(j), 4);
  j.job_id = 8;
  EXPECT_FALSE(provider->category(j).has_value());
}

TEST(NoisyProvider, ZeroNoiseIsIdentity) {
  const auto t = cluster_trace(0, 412, 6, 2.0);
  const auto inner = make_hash_provider(15);
  const auto noisy = make_noisy_provider(inner, 0.0, 99, 15);
  for (const auto& j : t.jobs()) {
    EXPECT_EQ(noisy->category(j), inner->category(j));
  }
}

TEST(NoisyProvider, SeededFlipsAreDeterministicAndAlwaysWrong) {
  const auto t = cluster_trace(0, 413);
  const auto inner = make_hash_provider(15);
  const auto noisy_a = make_noisy_provider(inner, 0.3, 42, 15);
  const auto noisy_b = make_noisy_provider(inner, 0.3, 42, 15);
  const auto noisy_c = make_noisy_provider(inner, 0.3, 43, 15);
  std::size_t flipped = 0, differs_by_seed = 0;
  for (const auto& j : t.jobs()) {
    const auto original = inner->category(j);
    const auto a = noisy_a->category(j);
    EXPECT_EQ(a, noisy_b->category(j));  // same seed: same flips
    ASSERT_TRUE(a.has_value());
    EXPECT_GE(*a, 0);
    EXPECT_LT(*a, 15);
    if (a != original) ++flipped;             // a flip always changes the hint
    if (a != noisy_c->category(j)) ++differs_by_seed;
  }
  // ~30% of hints flipped (binomial; generous tolerance).
  const double fraction =
      static_cast<double>(flipped) / static_cast<double>(t.size());
  EXPECT_NEAR(fraction, 0.3, 0.07);
  EXPECT_GT(differs_by_seed, 0u);  // a different seed flips different jobs
}

TEST(NoisyProvider, PassesThroughDeclines) {
  const auto declines = make_function_provider(
      "declines", [](const trace::Job&) { return std::optional<int>(); });
  const auto noisy = make_noisy_provider(declines, 1.0, 1, 15);
  trace::Job j;
  EXPECT_FALSE(noisy->category(j).has_value());
}

// -------------------------------------------------- unified make_byom_policy

TEST(ByomPolicyOptions, PrecomputedMatchesSyncDecisions) {
  const auto t = cluster_trace(0, 414);
  const auto split = trace::split_train_test(t);
  auto model = std::make_shared<CategoryModel>(
      CategoryModel::train(split.train.jobs(), small_model_config()));
  auto registry = std::make_shared<ModelRegistry>();
  registry->set_default_model(model);

  policy::ByomPolicyOptions sync_options;
  sync_options.adaptive.num_categories = model->num_categories();
  auto sync = policy::make_byom_policy(registry, sync_options);

  policy::ByomPolicyOptions batched_options = sync_options;
  batched_options.precompute_jobs = &split.test.jobs();
  auto batched = policy::make_byom_policy(registry, batched_options);

  policy::StorageView view;
  view.ssd_capacity_bytes = 100 * kGiB;
  for (const auto& j : split.test.jobs()) {
    sync->decide(j, view);
    batched->decide(j, view);
    EXPECT_EQ(batched->last_category(), sync->last_category());
  }
}

TEST(ByomPolicyOptions, CustomProviderFrontsTheChain) {
  auto registry = std::make_shared<ModelRegistry>();  // no models
  policy::ByomPolicyOptions options;
  options.custom_provider = make_function_provider(
      "const", [](const trace::Job&) { return std::optional<int>(9); });
  options.name = "custom";
  auto policy = policy::make_byom_policy(registry, options);
  EXPECT_EQ(policy->name(), "custom");
  trace::Job j;
  j.job_key = "some/job";
  j.lifetime = 60.0;
  j.peak_bytes = kGiB;
  policy::StorageView view;
  view.ssd_capacity_bytes = 100 * kGiB;
  policy->decide(j, view);
  EXPECT_EQ(policy->last_category(), 9);
}

// The chain is derived from what the options supply: the custom provider
// first, then the table precomputed at construction, then the live
// registry for jobs outside the table.
TEST(ByomPolicyOptions, ChainAsksCustomThenPrecomputedThenRegistry) {
  class ConstantBackend final : public ModelBackend {
   public:
    explicit ConstantBackend(int category) : category_(category) {}
    std::string name() const override { return "constant"; }
    int num_categories() const override { return 15; }
    int predict_category(const trace::Job&) const override {
      return category_;
    }

   private:
    int category_;
  };
  std::vector<trace::Job> jobs(3);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].job_id = i + 1;
    jobs[i].job_key = "job/" + std::to_string(i);
    jobs[i].lifetime = 60.0;
    jobs[i].peak_bytes = kGiB;
  }
  const std::vector<trace::Job> upcoming(jobs.begin(), jobs.begin() + 2);
  auto registry = std::make_shared<ModelRegistry>();
  registry->set_default_model(std::make_shared<ConstantBackend>(3));
  policy::ByomPolicyOptions options;
  options.precompute_jobs = &upcoming;
  options.custom_provider = make_function_provider(
      "first-only", [](const trace::Job& j) {
        return j.job_id == 1 ? std::optional<int>(9) : std::nullopt;
      });
  auto policy = policy::make_byom_policy(registry, options);
  // Swapped after construction: only the registry leg sees the new default.
  registry->set_default_model(std::make_shared<ConstantBackend>(5));
  policy::StorageView view;
  view.ssd_capacity_bytes = 100 * kGiB;
  const int expected[] = {9, 3, 5};
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    policy->decide(jobs[i], view);
    EXPECT_EQ(policy->last_category(), expected[i]) << "job " << i;
  }
}

TEST(ByomPolicyOptions, NullRegistryThrows) {
  EXPECT_THROW(policy::make_byom_policy(nullptr, policy::ByomPolicyOptions{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace byom::core
