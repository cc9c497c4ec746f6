// ModelBackend — the pluggable application-layer model behind the BYOM
// contract (paper section 2.3, Figure 3): each workload trains *whatever*
// model it likes; the storage layer only ever consumes the category hint.
// The registry (core/model_registry.h) stores backends, not GBDTs, so a
// workload can bring a gradient-boosted forest, a logistic regression, a
// plain frequency table — or anything else that implements this interface —
// without the serving pipeline or Algorithm 1 noticing.
//
// Backends in this file (all trainable from the same trace::Job history, so
// per-pipeline backend choice is a config knob):
//   kGbdt       the paper's 15-class gradient-boosted-trees CategoryModel,
//               adapted; batches run the compiled flat-forest kernel
//               (ml/flat_forest.h) over a strided feature block
//   kLogistic   multinomial logistic regression over the same Table-2
//               feature vector: cheaper to (re)train, smaller, a little less
//               accurate — the "simple model" a small workload would bring
//   kFrequency  per-job-key majority-category table: no features at all,
//               just the recurring job identity; the cheapest useful model
//               and the natural baseline for recurring analytics pipelines
//
// Determinism contract: training and inference are pure functions of
// (history, config) — no wall clock, no global RNG — so parallel experiment
// cells that train backends stay bit-reproducible.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/span.h"
#include "core/category_model.h"
#include "features/feature_matrix.h"
#include "trace/job.h"

namespace byom::core {

class ModelBackend {
 public:
  virtual ~ModelBackend() = default;

  virtual std::string name() const = 0;
  virtual int num_categories() const = 0;

  // Category hint for one job, in [0, num_categories()).
  virtual int predict_category(const trace::Job& job) const = 0;

  // Batched inference over a group of jobs. Must be bit-identical to
  // calling predict_category per job; the default implementation is
  // exactly that loop. Backends with a cheaper batch layout (the GBDT's
  // compiled forest) override it.
  virtual std::vector<int> predict_batch(
      common::Span<const trace::Job* const> jobs) const;

  // Same, with a shared pre-extracted feature matrix. `matrix` may be null
  // (plain predict_batch); feature-driven backends override this to read
  // the matrix's contiguous rows (by job id) instead of re-extracting, and
  // fall back to extraction for jobs outside the matrix or when the matrix
  // width does not match their extractor's schema. Must be bit-identical to
  // predict_batch without the matrix.
  virtual std::vector<int> predict_batch(
      common::Span<const trace::Job* const> jobs,
      const features::FeatureMatrix* matrix) const;

  // Convenience for callers holding a materialized vector.
  std::vector<int> predict_batch(const std::vector<trace::Job>& jobs) const;

  // The same batched inference into a caller span: out[i] is jobs[i]'s
  // category (out.size() == jobs.size()), bit-identical to predict_batch.
  // This is what the serving lane calls (core::predict_categories). The
  // default forwards to predict_batch(jobs, matrix) and copies, so a
  // wrapper that overrides only predict_batch still sees every row;
  // backends override it to predict without allocating in steady state.
  virtual void predict_into(common::Span<const trace::Job* const> jobs,
                            const features::FeatureMatrix* matrix,
                            common::Span<int> out) const;
};

using ModelBackendPtr = std::shared_ptr<const ModelBackend>;

enum class BackendKind { kGbdt, kLogistic, kFrequency };

const char* backend_kind_name(BackendKind kind);

struct BackendConfig {
  // Category count and (for kGbdt) the forest parameters. Every backend
  // fits its own CategoryLabeler with model.num_categories classes, so the
  // label space is identical across kinds.
  CategoryModelConfig model;
  // kLogistic: full-batch gradient-descent epochs and learning rate, plus a
  // deterministic stride-subsample cap on training rows (0 = no cap).
  int logistic_epochs = 80;
  double logistic_learning_rate = 0.3;
  std::size_t logistic_max_rows = 4096;
};

// Wraps an already-trained CategoryModel (shared, not copied) as a backend.
ModelBackendPtr make_gbdt_backend(std::shared_ptr<const CategoryModel> model);

// Trains a backend of `kind` on one workload/cluster history. Deterministic
// in (kind, history, config).
ModelBackendPtr train_backend(BackendKind kind,
                              const std::vector<trace::Job>& history,
                              const BackendConfig& config = {});

}  // namespace byom::core
