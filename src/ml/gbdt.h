// Gradient-boosted trees: multiclass softmax classifier and least-squares
// regressor, both built on the histogram RegressionTree.
//
// This stands in for the Yggdrasil Decision Forests models the paper uses
// (15-class categorical pointwise ranking model, <= 300 trees, depth <= 6).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ml/dataset.h"
#include "ml/flat_forest.h"
#include "ml/tree.h"

namespace byom::ml {

struct GbdtParams {
  // Boosting stops when either rounds or the total tree budget is reached
  // (the paper caps total trees at 300 for its 15-class models).
  int num_rounds = 40;
  int max_trees_total = 300;
  double learning_rate = 0.15;
  double row_subsample = 0.8;
  int max_bins = 64;
  std::uint64_t seed = 7;
  TreeParams tree;
};

// Multiclass classifier with softmax cross-entropy Newton boosting: each
// round fits one tree per class on (p_k - y_k, p_k (1 - p_k)).
class GbdtClassifier {
 public:
  GbdtClassifier() = default;

  // Fits each round's class trees in parallel on a framework::ThreadPool of
  // min(num_classes, hardware cores) threads; the trees are bit-identical
  // at any thread count.
  void train(const Dataset& data, const std::vector<int>& labels,
             int num_classes, const GbdtParams& params = GbdtParams{});

  int num_classes() const { return num_classes_; }
  std::size_t num_trees() const;
  bool trained() const { return num_classes_ > 0; }

  // Raw per-class scores and softmax probabilities for one feature row.
  std::vector<double> scores(const float* features) const;
  std::vector<double> predict_proba(const float* features) const;
  int predict(const float* features) const;

  // Zero-allocation single-row scoring through the compiled forest:
  // fills out[0 .. num_classes()) with the raw per-class scores,
  // bit-identical to scores().
  void scores_into(const float* features, double* out) const;

  // Batched inference over n feature rows through the compiled FlatForest
  // (blocked SoA traversal; see ml/flat_forest.h). Produces exactly the
  // same classes as per-row predict() and scores bit-identical to the
  // node-block reference below. scores_batch fills
  // out[r * num_classes() + k]; out must hold n * num_classes() doubles.
  void scores_batch(const float* const* rows, std::size_t n,
                    double* out) const;
  std::vector<int> predict_batch(const float* const* rows,
                                 std::size_t n) const;
  // Strided overloads reading row r at base + r * row_stride — the
  // zero-staging path for contiguous feature blocks (FeatureMatrix
  // storage, gathered scratch blocks).
  void scores_batch(const float* base, std::size_t row_stride, std::size_t n,
                    double* out) const;
  std::vector<int> predict_batch(const float* base, std::size_t row_stride,
                                 std::size_t n) const;
  // The same classes into caller buffers, allocation-free: `scores` is
  // scratch for n * num_classes() doubles and out[r] receives row r's
  // class.
  void predict_batch(const float* base, std::size_t row_stride, std::size_t n,
                     double* scores, int* out) const;

  // The original node-block tree traversal (trees outer, rows inner over
  // the 40-byte training nodes), kept as the bit-identity reference oracle
  // for the compiled kernels — the same role simulate_synchronous plays
  // for the event engine.
  void scores_batch_nodeblock(const float* const* rows, std::size_t n,
                              double* out) const;

  const FlatForest& compiled_forest() const { return forest_; }

  // Text (de)serialization; the format is stable and human-inspectable.
  void save(std::ostream& out) const;
  static GbdtClassifier load(std::istream& in);
  void save_file(const std::string& path) const;
  static GbdtClassifier load_file(const std::string& path);

  // Number of splits using each feature, summed over all trees.
  std::vector<int> split_counts(std::size_t num_features) const;

 private:
  void recompile();

  int num_classes_ = 0;
  double learning_rate_ = 0.15;
  // trees_[round * num_classes_ + k]
  std::vector<RegressionTree> trees_;
  // Compiled once per train()/load(); all inference routes through it.
  FlatForest forest_;
};

// Scalar regressor with squared loss (grad = pred - target, hess = 1).
class GbdtRegressor {
 public:
  GbdtRegressor() = default;

  void train(const Dataset& data, const std::vector<double>& targets,
             const GbdtParams& params = GbdtParams{});

  bool trained() const { return !trees_.empty() || base_ != 0.0; }
  double predict(const float* features) const;
  std::size_t num_trees() const { return trees_.size(); }

  // Compiled batch prediction over a contiguous strided block: fills
  // out[0 .. n) with per-row predictions, bit-identical to predict().
  void predict_batch(const float* base, std::size_t row_stride,
                     std::size_t n, double* out) const;

  // The original per-tree accumulation loop, kept as the bit-identity
  // reference oracle for the compiled path.
  double predict_nodeblock(const float* features) const;

  void save(std::ostream& out) const;
  static GbdtRegressor load(std::istream& in);

 private:
  void recompile();

  double base_ = 0.0;
  double learning_rate_ = 0.15;
  std::vector<RegressionTree> trees_;
  FlatForest forest_;
};

}  // namespace byom::ml
