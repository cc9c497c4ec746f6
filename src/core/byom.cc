#include "core/byom.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
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

namespace {

// Jobs grouped per pass: the grouping scratch for this many lives on the
// stack.
constexpr std::size_t kGroupChunk = 64;

// predict_categories over at most kGroupChunk jobs.
void predict_chunk(const ModelRegistry& registry,
                   common::Span<const trace::Job* const> jobs,
                   int fallback_num_categories,
                   const features::FeatureMatrix* matrix, int* out) {
  const std::size_t n = jobs.size();
  // Each job's backend (null: hash fallback). Holding the handle keeps a
  // backend that a concurrent hot-swap replaces alive through this pass.
  std::array<ModelBackendPtr, kGroupChunk> owner;
  bool one_owner = true;
  for (std::size_t i = 0; i < n; ++i) {
    owner[i] = registry.lookup(*jobs[i]);
    one_owner = one_owner && owner[i] == owner[0];
  }
  if (one_owner && owner[0]) {
    owner[0]->predict_into(jobs, matrix, common::Span<int>(out, n));
    return;
  }
  // The distinct backends in first-seen order: group leader i gathers
  // every later job with the same backend and marks it grouped.
  std::array<const trace::Job*, kGroupChunk> members;
  std::array<int, kGroupChunk> categories;
  std::array<std::size_t, kGroupChunk> slot;
  std::uint64_t grouped = 0;  // bit i: job i already predicted
  for (std::size_t i = 0; i < n; ++i) {
    if ((grouped >> i) & 1U) continue;
    if (!owner[i]) {
      out[i] = hash_category(*jobs[i], fallback_num_categories);
      continue;
    }
    std::size_t m = 0;
    for (std::size_t j = i; j < n; ++j) {
      if (owner[j] != owner[i]) continue;
      members[m] = jobs[j];
      slot[m++] = j;
      grouped |= std::uint64_t{1} << j;
    }
    owner[i]->predict_into(
        common::Span<const trace::Job* const>(members.data(), m), matrix,
        common::Span<int>(categories.data(), m));
    for (std::size_t g = 0; g < m; ++g) out[slot[g]] = categories[g];
  }
}

}  // namespace

// hotpath: one call per served batch; groups on the stack, no hash maps.
void predict_categories(const ModelRegistry& registry,
                        common::Span<const trace::Job* const> jobs,
                        int fallback_num_categories,
                        const features::FeatureMatrix* matrix,
                        common::Span<int> out) {
  if (out.size() != jobs.size()) {
    throw std::invalid_argument("predict_categories: out.size() != jobs");
  }
  for (std::size_t first = 0; first < jobs.size(); first += kGroupChunk) {
    const std::size_t n = std::min(kGroupChunk, jobs.size() - first);
    predict_chunk(registry, jobs.subspan(first, n), fallback_num_categories,
                  matrix, out.data() + first);
  }
}

CategoryHints precompute_categories(const ModelRegistry& registry,
                                    const std::vector<trace::Job>& jobs,
                                    int fallback_num_categories,
                                    const features::FeatureMatrix* matrix) {
  std::vector<const trace::Job*> pointers;
  pointers.reserve(jobs.size());
  for (const auto& job : jobs) pointers.push_back(&job);
  std::vector<int> categories(jobs.size());
  predict_categories(registry, pointers, fallback_num_categories, matrix,
                     categories);
  CategoryHints hints;
  hints.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    hints.emplace(jobs[i].job_id, categories[i]);
  }
  return hints;
}

}  // namespace byom::core
