#include "policy/byom_policy.h"

#include <stdexcept>
#include <utility>

namespace byom::policy {

std::unique_ptr<AdaptiveCategoryPolicy> make_byom_policy(
    std::shared_ptr<const core::ModelRegistry> registry,
    const ByomPolicyOptions& options) {
  if (!registry) {
    throw std::invalid_argument("make_byom_policy: null registry");
  }
  std::vector<core::CategoryProviderPtr> chain;
  if (options.custom_provider) chain.push_back(options.custom_provider);
  if (options.precompute_jobs != nullptr) {
    chain.push_back(core::make_precomputed_provider(
        std::make_shared<const core::CategoryHints>(core::precompute_categories(
            *registry, *options.precompute_jobs,
            options.adaptive.num_categories))));
  }
  chain.push_back(core::make_registry_provider(registry));
  core::CategoryProviderPtr provider =
      chain.size() == 1 ? chain.front()
                        : core::make_fallback_chain(std::move(chain));
  return std::make_unique<AdaptiveCategoryPolicy>(
      options.name, std::move(provider), options.adaptive);
}

std::unique_ptr<AdaptiveCategoryPolicy> make_byom_policy(
    std::shared_ptr<const core::ModelRegistry> registry,
    const AdaptiveConfig& config) {
  ByomPolicyOptions options;
  options.adaptive = config;
  return make_byom_policy(std::move(registry), options);
}

}  // namespace byom::policy
