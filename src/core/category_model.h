// The application-layer BYOM category model: feature extraction + label
// design + gradient-boosted-trees classifier, bundled with (de)serialization
// so each workload can ship its model alongside its binary (paper section
// 2.3: "workloads bring their own model").
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/span.h"
#include "core/labeler.h"
#include "features/feature_extractor.h"
#include "features/feature_matrix.h"
#include "ml/gbdt.h"
#include "trace/job.h"

namespace byom::core {

// One pre-extracted feature vector, as consumed by the caller-staged
// batched inference path. `values` must point at
// extractor().num_features() floats that stay alive for the duration of
// the predict_batch call.
struct FeatureRow {
  const float* values = nullptr;
};

// One contiguous strided block of feature rows: row r of the batch starts
// at base + r * stride. This is what the compiled flat-forest kernel
// consumes — no per-row pointer staging.
struct FeatureBlock {
  const float* base = nullptr;
  std::size_t stride = 0;
  std::size_t num_rows = 0;
};

// Gathers the jobs' feature rows into one strided block: when every job
// resolves to consecutive rows of `matrix` (and the matrix width matches
// the extractor's schema) the matrix storage is aliased directly — zero
// copy, zero staging; otherwise rows are packed into `scratch` (matrix
// rows copied, jobs outside the matrix extracted). `scratch` must outlive
// the returned block. Shared by every matrix-aware batch-inference path so
// the fallback rules cannot diverge.
FeatureBlock gather_feature_block(const features::FeatureExtractor& extractor,
                                  common::Span<const trace::Job* const> jobs,
                                  const features::FeatureMatrix* matrix,
                                  std::vector<float>& scratch);

struct CategoryModelConfig {
  int num_categories = 15;  // paper default: 15-class model
  ml::GbdtParams gbdt;      // paper defaults: <= 300 trees, depth <= 6
};

class CategoryModel {
 public:
  CategoryModel() = default;

  // Trains the labeler and classifier on one cluster's training split.
  static CategoryModel train(const std::vector<trace::Job>& train_jobs,
                             const CategoryModelConfig& config = {});

  bool trained() const { return classifier_.trained(); }
  int num_categories() const { return labeler_.num_categories(); }

  // Model inference: importance category from pre-execution features only.
  int predict_category(const trace::Job& job) const;
  // Ground-truth category from post-execution measurements.
  int true_category(const trace::Job& job) const;

  // Batched inference over caller-staged feature rows. Bit-identical to
  // calling predict_category per row; routed through the compiled
  // flat-forest kernel.
  std::vector<int> predict_batch(common::Span<const FeatureRow> rows) const;
  // Convenience: extracts features for every job, then predicts in one
  // batch. This is the sweep/serving fast path.
  std::vector<int> predict_categories(
      const std::vector<trace::Job>& jobs) const;
  // Same, reading rows out of a shared pre-extracted matrix (jobs outside
  // the matrix, or a schema-mismatched matrix, fall back to extraction).
  // Bit-identical to the overload above.
  std::vector<int> predict_categories(
      const std::vector<trace::Job>& jobs,
      const features::FeatureMatrix* matrix) const;

  // Top-1 accuracy of the model on a held-out population.
  double top1_accuracy(const std::vector<trace::Job>& test_jobs) const;

  const features::FeatureExtractor& extractor() const { return extractor_; }
  const CategoryLabeler& labeler() const { return labeler_; }
  const ml::GbdtClassifier& classifier() const { return classifier_; }

  void save(std::ostream& out) const;
  static CategoryModel load(std::istream& in);
  void save_file(const std::string& path) const;
  static CategoryModel load_file(const std::string& path);

 private:
  features::FeatureExtractor extractor_;
  CategoryLabeler labeler_;
  ml::GbdtClassifier classifier_;
};

}  // namespace byom::core
