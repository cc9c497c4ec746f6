#include "core/byom.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

namespace byom::core {

namespace {

class RegistryProvider final : public CategoryProvider {
 public:
  explicit RegistryProvider(std::shared_ptr<const ModelRegistry> registry)
      : registry_(std::move(registry)) {
    if (!registry_) {
      throw std::invalid_argument("make_registry_provider: null registry");
    }
  }

  std::string name() const override { return "registry"; }

  std::optional<int> category(const trace::Job& job) override {
    // The resolved handle keeps the backend alive through the prediction
    // even if a retrain hot-swaps the registration concurrently.
    if (const ModelBackendPtr backend = registry_->lookup(job)) {
      return backend->predict_category(job);
    }
    return std::nullopt;  // no model for this workload: consumer falls back
  }

 private:
  std::shared_ptr<const ModelRegistry> registry_;
};

}  // namespace

CategoryProviderPtr make_registry_provider(
    std::shared_ptr<const ModelRegistry> registry) {
  return std::make_shared<RegistryProvider>(std::move(registry));
}

CategoryHints precompute_categories(const ModelRegistry& registry,
                                    const std::vector<trace::Job>& jobs,
                                    int fallback_num_categories,
                                    const features::FeatureMatrix* matrix) {
  CategoryHints hints;
  hints.reserve(jobs.size());

  // Group job indices by responsible backend so each backend sees one
  // batch. The group holds a shared_ptr: a concurrent hot-swap cannot
  // destroy a backend this pass is still predicting with.
  struct Group {
    ModelBackendPtr backend;
    std::vector<std::size_t> indices;
  };
  std::unordered_map<const ModelBackend*, Group> groups;
  // Built on the first job without a backend: a served one-job batch
  // routed to a model never pays for it.
  CategoryProviderPtr fallback;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (ModelBackendPtr backend = registry.lookup(jobs[i])) {
      Group& group = groups[backend.get()];
      if (!group.backend) group.backend = std::move(backend);
      group.indices.push_back(i);
    } else {
      if (!fallback) fallback = make_hash_provider(fallback_num_categories);
      hints.emplace(jobs[i].job_id, fallback->category(jobs[i]).value_or(0));
    }
  }
  for (const auto& [key, group] : groups) {
    (void)key;
    std::vector<const trace::Job*> batch;
    batch.reserve(group.indices.size());
    for (const std::size_t index : group.indices) {
      batch.push_back(&jobs[index]);
    }
    const auto categories = group.backend->predict_batch(
        common::Span<const trace::Job* const>(batch.data(), batch.size()),
        matrix);
    for (std::size_t b = 0; b < group.indices.size(); ++b) {
      hints.emplace(jobs[group.indices[b]].job_id, categories[b]);
    }
  }
  return hints;
}

}  // namespace byom::core
