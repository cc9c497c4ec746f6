// The storage-layer end of the BYOM contract (paper Figure 3): wires a
// registry of per-workload application models (core/model_registry.h) into
// the Algorithm-1 adaptive category policy through the CategoryProvider
// API. The registry provider declines for workloads without any model, and
// the policy degrades those decisions to a hash category — a missing or
// broken model degrades one workload instead of the whole cluster (paper
// section 2.3: "a model failure only affects one workload").
//
// The provider chain follows from what ByomPolicyOptions supplies, asked in
// this order until one answers:
//   custom_provider  a caller-supplied provider, e.g.
//                    serving::make_served_provider() for the async
//                    request-queue -> batcher -> model serving loop
//   precompute_jobs  one batched core::precompute_categories pass over
//                    known upcoming jobs, consumed as a hint table
//                    (offline sweeps)
//   the registry     per-job synchronous inference (always last)
//
// make_byom_policy(registry, AdaptiveConfig) is a convenience overload for
// the sync-only chain; everything else goes through ByomPolicyOptions.
//
// This lives in policy/ (not core/) by the layer contract
// (tools/layers.json): core publishes models and providers; the policy
// layer composes them into placement policies, never the other way around.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/byom.h"
#include "core/category_provider.h"
#include "core/model_registry.h"
#include "policy/adaptive.h"
#include "trace/job.h"

namespace byom::policy {

struct ByomPolicyOptions {
  AdaptiveConfig adaptive;
  // If set, the known upcoming jobs, pre-categorized in one batched pass at
  // construction time (borrowed only for the make_byom_policy call). Jobs
  // outside the set still take the sync per-job path.
  const std::vector<trace::Job>* precompute_jobs = nullptr;
  // If set, consulted first (e.g. a served or noisy provider); when it
  // declines, the rest of the chain answers.
  core::CategoryProviderPtr custom_provider;
  std::string name = "BYOM";
};

// The one constructor: builds the storage-layer Algorithm-1 policy for a
// registry of application models, with the provider chain derived from
// `options` (see header comment).
std::unique_ptr<AdaptiveCategoryPolicy> make_byom_policy(
    std::shared_ptr<const core::ModelRegistry> registry,
    const ByomPolicyOptions& options = {});

// Convenience: make_byom_policy with sync registry hints only.
std::unique_ptr<AdaptiveCategoryPolicy> make_byom_policy(
    std::shared_ptr<const core::ModelRegistry> registry,
    const AdaptiveConfig& config);

}  // namespace byom::policy
