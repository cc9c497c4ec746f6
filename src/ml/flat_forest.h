// FlatForest — the compiled inference form of a boosted forest.
//
// The training-side RegressionTree stores 40-byte heterogeneous nodes
// (bool + int feature + float threshold + two child ints + double leaf
// value) in per-tree std::vectors; batch inference walks them by
// pointer-chasing with a data-dependent leaf branch per node. That layout
// is right for building trees and wrong for serving them: every node visit
// drags a whole cache line of mostly-unused fields, and the forest for one
// model is scattered across hundreds of allocations.
//
// FlatForest re-lays the whole forest out once, at train()/load() time,
// into one contiguous SoA arena:
//
//   threshold_[i]    float      split threshold of node i
//   feature_[i]      uint16_t   split feature of node i
//   left_[i]         int32_t    left-child slot, or, when negative,
//                               ~leaf: -left_[i]-1 indexes leaf_value_
//   leaf_value_[j]   double     leaf weights, separate array
//
// Trees are re-numbered breadth-first so the two children of any internal
// node occupy adjacent slots: the traversal step becomes the branch-light
//   idx = left + (x[feature] > threshold)
// (spelled !(x <= threshold) so NaN handling matches the reference
// traversal exactly), and the only branch left is the leaf test. Roots are
// grouped per class, in boosting order within the class, so per-accumulator
// addition order — and therefore every score bit — is identical to the
// node-block reference GbdtClassifier::scores_batch_nodeblock.
//
// The batch kernels are blocked AND depth-stepped: row blocks of kRowBlock
// rows stay hot in L1 while the whole arena streams through once per block
// (instead of the node-block scheme streaming the full feature set once
// per tree), and each tree is walked depth-level by depth-level across the
// whole block with a branch-free conditional-move step (rows parked on a
// leaf stay parked). A single row's walk is a serial chain of dependent
// loads; stepping 64 independent walks per instruction stream hides that
// latency and removes the per-row loop-exit mispredict. That only pays off
// on real blocks: a one-row batch (every served hint) goes to the serial
// walk, which exits at each leaf instead of stepping the tree's full
// depth. Measured 2.6x faster per row than a one-row blocked pass. Even
// on full blocks the gain is small on a 4-vCPU Xeon: over a 2,606-row
// batch the blocked kernel took 3.5-5.3 us/row against 4.2-4.8 us/row
// for the serial walk, and was no cheaper in 8 of 10 runs.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/tree.h"

namespace byom::ml {

class FlatForest {
 public:
  // Rows per block of the batch kernels: 64 rows x ~30 features x 4 B
  // ~= 8 KB of feature data held in L1 while the arena streams.
  static constexpr std::size_t kRowBlock = 64;

  FlatForest() = default;

  // Compiles `trees` into the arena. Tree t contributes to class
  // (t % num_classes), matching GbdtClassifier's round-major tree layout;
  // a regressor is the num_classes == 1 case. `base_score` seeds every
  // accumulator (the regressor's mean target; 0 for the classifier).
  // Throws std::invalid_argument when a split feature does not fit the
  // packed uint16_t feature index, or a tree is more than 0xFFFF levels
  // deep (node levels are uint16_t).
  static FlatForest compile(const std::vector<RegressionTree>& trees,
                            int num_classes, double learning_rate,
                            double base_score = 0.0);

  bool compiled() const { return num_classes_ > 0; }
  int num_classes() const { return num_classes_; }
  std::size_t num_trees() const { return roots_.size(); }
  std::size_t num_nodes() const { return left_.size(); }
  std::size_t num_leaves() const { return leaf_value_.size(); }
  // Floats a scored row must hold: one past the largest split feature
  // (leaf slots carry feature 0); 0 for an empty forest.
  std::size_t row_width() const;

  // Raw per-class scores for one row: out[0 .. num_classes). Bit-identical
  // to GbdtClassifier::scores(); allocation-free.
  void score_into(const float* row, double* out) const;

  // Blocked batch scoring over n rows read straight off a contiguous
  // strided block (row r at base + r * row_stride); fills
  // out[r * num_classes + k]. Bit-identical to the node-block reference.
  // n == 1 takes score_into's serial walk (same bits, ~2.6x cheaper than
  // a one-row blocked pass).
  void score_strided(const float* base, std::size_t row_stride,
                     std::size_t n, double* out) const;

  // Same kernel over caller-staged row pointers (rows that do not live in
  // one contiguous block), with the same n == 1 dispatch.
  void score_rows(const float* const* rows, std::size_t n,
                  double* out) const;

 private:
  // Compiles one tree into the arena; returns its root slot and writes the
  // tree's depth (internal levels on the longest root-to-leaf path) to
  // *depth — the fixed trip count of the batch kernels' level loop.
  int compile_tree(const std::vector<RegressionTree::Node>& nodes,
                   std::uint16_t* depth);

  int num_classes_ = 0;
  double learning_rate_ = 0.0;
  double base_score_ = 0.0;
  // SoA node arena; slot i of the three arrays is one packed node.
  std::vector<float> threshold_;
  std::vector<std::uint16_t> feature_;
  std::vector<std::int32_t> left_;
  std::vector<double> leaf_value_;
  // Root slots grouped per class: class c's trees (boosting order) are
  // roots_[class_offset_[c] .. class_offset_[c + 1]); depth_[j] is the
  // depth of the tree rooted at roots_[j].
  std::vector<std::int32_t> roots_;
  std::vector<std::uint16_t> depth_;
  std::vector<std::uint32_t> class_offset_;
};

}  // namespace byom::ml
