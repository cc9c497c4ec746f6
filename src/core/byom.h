// End-to-end BYOM API.
//
// The cross-layer contract (paper Figure 3): each *workload* trains its own
// category model at the application layer; at run time every job carries a
// category hint produced by its workload's model; the storage layer runs
// the adaptive category selection algorithm over those hints.
//
// The registry (core/model_registry.h: ModelRegistry, holding
// pluggable ModelBackend instances — GBDT, logistic regression, frequency
// table, core/model_backend.h) keeps one backend per workload (keyed by
// pipeline name) plus an optional cluster-default backend. The registry
// provider built here declines for workloads without any model, so a
// missing/broken model degrades one workload instead of the whole cluster
// (paper section 2.3: "a model failure only affects one workload").
//
// The storage-layer composition — wiring a registry provider into the
// Algorithm-1 adaptive policy — lives one layer up in
// policy/byom_policy.h (make_byom_policy, ByomPolicyOptions): by the layer
// contract (tools/layers.json) core publishes models and providers and
// never names policy types.
#pragma once

#include <memory>
#include <vector>

#include "core/category_model.h"
#include "core/category_provider.h"
#include "core/model_registry.h"
#include "features/feature_matrix.h"

namespace byom::core {

// Synchronous per-job registry inference as a provider; declines for jobs
// whose workload has no model (compose with a fallback, or let the policy's
// hash fallback take over). The provider resolves the backend per call, so
// a hot-swapped registration takes effect on the very next decision.
CategoryProviderPtr make_registry_provider(
    std::shared_ptr<const ModelRegistry> registry);

// Batched hint precomputation: groups `jobs` by their responsible backend
// and runs one ModelBackend::predict_batch per backend (the GBDT backend's
// node-block traversal instead of one tree-walk per job). Jobs with no
// backend get the hash fallback so the resulting table covers every job.
// Categories are identical to per-job registry lookup. This is also the
// batch-execution path of serving::PlacementService, which is what makes
// served hints bit-identical to offline-batched ones. When `matrix` (the
// trace's shared features::FeatureMatrix) is non-null, feature-driven
// backends read its pre-extracted rows instead of re-tokenizing each job —
// bit-identical either way.
CategoryHints precompute_categories(
    const ModelRegistry& registry, const std::vector<trace::Job>& jobs,
    int fallback_num_categories,
    const features::FeatureMatrix* matrix = nullptr);

}  // namespace byom::core
