// The application-layer BYOM category model: feature extraction + label
// design + gradient-boosted-trees classifier, bundled with (de)serialization
// so each workload can ship its model alongside its binary (paper section
// 2.3: "workloads bring their own model").
//
// A CategoryModel trains, saves and scores one job. Batched inference is
// the GBDT ModelBackend's (core/model_backend.h), reached through a
// ModelRegistry and core::predict_categories (core/byom.h).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/labeler.h"
#include "features/feature_extractor.h"
#include "ml/gbdt.h"
#include "trace/job.h"

namespace byom::core {

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
