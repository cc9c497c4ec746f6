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

#include "common/span.h"
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

// Batched inference through the registry: out[i] becomes jobs[i]'s
// category (out.size() == jobs.size()). Jobs are grouped by their
// responsible backend — a small linear list of the distinct backends, on
// the stack, a chunk of jobs at a time — and each group runs one
// ModelBackend::predict_into, so a backend sees its jobs as one batch.
// Jobs with no backend get the hash fallback over
// `fallback_num_categories` (hash_category). Categories are identical to
// per-job registry lookup and independent of batch composition. This is
// the batch-execution path of serving::PlacementService, which is what
// makes served hints bit-identical to offline-batched ones; it allocates
// nothing beyond what the backends' predict_into do. When `matrix` (the
// trace's shared features::FeatureMatrix) is non-null, feature-driven
// backends read its pre-extracted rows instead of re-tokenizing each job —
// bit-identical either way.
void predict_categories(const ModelRegistry& registry,
                        common::Span<const trace::Job* const> jobs,
                        int fallback_num_categories,
                        const features::FeatureMatrix* matrix,
                        common::Span<int> out);

// predict_categories over a materialized vector, as a job_id -> category
// table covering every job (the offline precomputation).
CategoryHints precompute_categories(
    const ModelRegistry& registry, const std::vector<trace::Job>& jobs,
    int fallback_num_categories,
    const features::FeatureMatrix* matrix = nullptr);

}  // namespace byom::core
