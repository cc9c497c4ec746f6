#include "ml/flat_forest.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace byom::ml {

// Appends one node slot to the SoA arena and returns its index.
namespace {
constexpr std::int32_t kMaxFeature = 0xFFFF;
// Node levels and the kernels' depth loop count are uint16_t.
constexpr std::uint16_t kMaxLevel = 0xFFFF;
}  // namespace

int FlatForest::compile_tree(const std::vector<RegressionTree::Node>& nodes,
                             std::uint16_t* depth) {
  const auto alloc_slot = [this] {
    threshold_.push_back(0.0f);
    feature_.push_back(0);
    left_.push_back(0);
    return static_cast<std::int32_t>(left_.size() - 1);
  };
  const auto seal_leaf = [this](std::int32_t slot, double value) {
    left_[static_cast<std::size_t>(slot)] =
        -(static_cast<std::int32_t>(leaf_value_.size()) + 1);
    leaf_value_.push_back(value);
  };

  const std::int32_t root = alloc_slot();
  *depth = 0;
  if (nodes.empty()) {
    // A default-constructed tree predicts 0.0; a 0.0 leaf contributes
    // scale * 0.0, which cannot change any finite accumulator, so the
    // reference paths (which skip empty trees) stay bit-identical.
    seal_leaf(root, 0.0);
    return root;
  }

  // Breadth-first re-numbering: both children of an internal node are
  // allocated together, so right child == left child + 1 and the traversal
  // step is pure index arithmetic.
  struct Pending {
    std::int32_t orig;
    std::int32_t slot;
    std::uint16_t level;
  };
  std::vector<Pending> queue;
  queue.reserve(nodes.size());
  queue.push_back({0, root, 0});
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto [orig, slot, level] = queue[head];
    const RegressionTree::Node& node = nodes[static_cast<std::size_t>(orig)];
    if (node.leaf) {
      seal_leaf(slot, node.value);
      *depth = std::max(*depth, level);
      continue;
    }
    if (node.feature < 0 || node.feature > kMaxFeature) {
      throw std::invalid_argument(
          "FlatForest::compile: split feature exceeds the packed uint16 "
          "index");
    }
    if (level == kMaxLevel) {
      // A deeper child would wrap depth_, and the batch kernels would stop
      // on an internal node and read a leaf through its child index.
      throw std::invalid_argument(
          "FlatForest::compile: tree deeper than the packed uint16 level "
          "count");
    }
    threshold_[static_cast<std::size_t>(slot)] = node.threshold;
    feature_[static_cast<std::size_t>(slot)] =
        static_cast<std::uint16_t>(node.feature);
    const std::int32_t left_slot = alloc_slot();
    alloc_slot();  // right child: left_slot + 1 by construction
    left_[static_cast<std::size_t>(slot)] = left_slot;
    queue.push_back({node.left, left_slot,
                     static_cast<std::uint16_t>(level + 1)});
    queue.push_back({node.right, left_slot + 1,
                     static_cast<std::uint16_t>(level + 1)});
  }
  return root;
}

FlatForest FlatForest::compile(const std::vector<RegressionTree>& trees,
                               int num_classes, double learning_rate,
                               double base_score) {
  if (num_classes < 1) {
    throw std::invalid_argument("FlatForest::compile: need >= 1 class");
  }
  FlatForest forest;
  forest.num_classes_ = num_classes;
  forest.learning_rate_ = learning_rate;
  forest.base_score_ = base_score;

  std::size_t total_nodes = 0;
  for (const auto& tree : trees) {
    total_nodes += std::max<std::size_t>(tree.num_nodes(), 1);
  }
  forest.threshold_.reserve(total_nodes);
  forest.feature_.reserve(total_nodes);
  forest.left_.reserve(total_nodes);

  // Group roots per class (tree t belongs to class t % k, matching the
  // classifier's round-major layout) while preserving boosting order
  // within each class — the accumulation-order half of the bit-identity
  // contract.
  const auto k = static_cast<std::size_t>(num_classes);
  forest.class_offset_.assign(k + 1, 0);
  for (std::size_t t = 0; t < trees.size(); ++t) {
    ++forest.class_offset_[t % k + 1];
  }
  for (std::size_t c = 0; c < k; ++c) {
    forest.class_offset_[c + 1] += forest.class_offset_[c];
  }
  forest.roots_.resize(trees.size());
  forest.depth_.resize(trees.size());
  std::vector<std::uint32_t> cursor(forest.class_offset_.begin(),
                                    forest.class_offset_.end() - 1);
  for (std::size_t t = 0; t < trees.size(); ++t) {
    const std::uint32_t at = cursor[t % k]++;
    forest.roots_[at] = static_cast<std::int32_t>(
        forest.compile_tree(trees[t].nodes(), &forest.depth_[at]));
  }
  return forest;
}

std::size_t FlatForest::row_width() const {
  if (feature_.empty()) return 0;
  return std::size_t{*std::max_element(feature_.begin(), feature_.end())} + 1;
}

// hotpath: compiled single-row scoring — zero allocation; the traversal
// step is branch-light index arithmetic over the SoA arena.
void FlatForest::score_into(const float* row, double* out) const {
  const auto k = static_cast<std::size_t>(num_classes_);
  const float* const thr = threshold_.data();
  const std::uint16_t* const feat = feature_.data();
  const std::int32_t* const child = left_.data();
  const double* const leaf = leaf_value_.data();
  const double scale = learning_rate_;
  for (std::size_t c = 0; c < k; ++c) {
    double acc = base_score_;
    for (std::uint32_t j = class_offset_[c]; j < class_offset_[c + 1]; ++j) {
      std::int32_t idx = roots_[j];
      std::int32_t l = child[idx];
      while (l >= 0) {
        // !(x <= thr) rather than (x > thr): identical to the reference
        // node-block traversal for every input, NaN included.
        idx = l + static_cast<std::int32_t>(!(row[feat[idx]] <= thr[idx]));
        l = child[idx];
      }
      acc += scale * leaf[-l - 1];
    }
    out[c] = acc;
  }
}

// hotpath: compiled blocked batch scoring over a contiguous strided row
// block — zero allocation, no pointer staging. Row blocks stay hot in L1
// while the node arena streams through once per block, and each tree is
// walked level by level across the whole block: the conditional-move step
// parks rows that reached a leaf (left child < 0 leaves idx unchanged;
// leaf slots carry feature 0 / threshold 0 so the discarded probe read is
// always in bounds), so the level loop runs a fixed depth_[j] trips with
// no data-dependent branch — 64 independent walks per stream instead of
// one serial pointer chase. Per-accumulator addition order equals the
// node-block reference, so scores are bit-identical. A single row takes
// the serial walk instead (same bits; see flat_forest.h for why).
void FlatForest::score_strided(const float* base, std::size_t row_stride,
                               std::size_t n, double* out) const {
  if (n == 1) {
    score_into(base, out);
    return;
  }
  const auto k = static_cast<std::size_t>(num_classes_);
  std::fill(out, out + n * k, base_score_);
  const float* const thr = threshold_.data();
  const std::uint16_t* const feat = feature_.data();
  const std::int32_t* const child = left_.data();
  const double* const leaf = leaf_value_.data();
  const double scale = learning_rate_;
  std::int32_t idx[kRowBlock];
  for (std::size_t r0 = 0; r0 < n; r0 += kRowBlock) {
    const std::size_t nb = std::min(n - r0, kRowBlock);
    const float* const block = base + r0 * row_stride;
    for (std::size_t c = 0; c < k; ++c) {
      for (std::uint32_t j = class_offset_[c]; j < class_offset_[c + 1];
           ++j) {
        const std::int32_t root = roots_[j];
        for (std::size_t r = 0; r < nb; ++r) idx[r] = root;
        for (std::uint16_t d = 0; d < depth_[j]; ++d) {
          std::int32_t any_live = 0;
          for (std::size_t r = 0; r < nb; ++r) {
            const std::int32_t i = idx[r];
            const std::int32_t l = child[i];
            const std::int32_t step =
                l + static_cast<std::int32_t>(
                        !(block[r * row_stride + feat[i]] <= thr[i]));
            // Sign-mask select, not ?: — the ternary compiles to a
            // data-dependent branch that mispredicts once per row per
            // tree; the mask keeps the level loop branch-free.
            const std::int32_t live = ~(l >> 31);
            any_live |= live;
            idx[r] = i + ((step - i) & live);
          }
          // One predictable branch per level: once every row in the block
          // is parked on a leaf the remaining levels are all no-ops.
          if (any_live == 0) break;
        }
        double* acc = out + r0 * k + c;
        for (std::size_t r = 0; r < nb; ++r, acc += k) {
          *acc += scale * leaf[-child[idx[r]] - 1];
        }
      }
    }
  }
}

// hotpath: compiled blocked batch scoring over caller-staged row pointers
// (the non-contiguous fallback); same blocking, level-stepping, and
// accumulation order as score_strided, and the same single-row dispatch.
void FlatForest::score_rows(const float* const* rows, std::size_t n,
                            double* out) const {
  if (n == 1) {
    score_into(rows[0], out);
    return;
  }
  const auto k = static_cast<std::size_t>(num_classes_);
  std::fill(out, out + n * k, base_score_);
  const float* const thr = threshold_.data();
  const std::uint16_t* const feat = feature_.data();
  const std::int32_t* const child = left_.data();
  const double* const leaf = leaf_value_.data();
  const double scale = learning_rate_;
  std::int32_t idx[kRowBlock];
  for (std::size_t r0 = 0; r0 < n; r0 += kRowBlock) {
    const std::size_t nb = std::min(n - r0, kRowBlock);
    const float* const* const block = rows + r0;
    for (std::size_t c = 0; c < k; ++c) {
      for (std::uint32_t j = class_offset_[c]; j < class_offset_[c + 1];
           ++j) {
        const std::int32_t root = roots_[j];
        for (std::size_t r = 0; r < nb; ++r) idx[r] = root;
        for (std::uint16_t d = 0; d < depth_[j]; ++d) {
          std::int32_t any_live = 0;
          for (std::size_t r = 0; r < nb; ++r) {
            const std::int32_t i = idx[r];
            const std::int32_t l = child[i];
            const std::int32_t step =
                l + static_cast<std::int32_t>(
                        !(block[r][feat[i]] <= thr[i]));
            // Sign-mask select + early level exit; see score_strided.
            const std::int32_t live = ~(l >> 31);
            any_live |= live;
            idx[r] = i + ((step - i) & live);
          }
          if (any_live == 0) break;
        }
        double* acc = out + r0 * k + c;
        for (std::size_t r = 0; r < nb; ++r, acc += k) {
          *acc += scale * leaf[-child[idx[r]] - 1];
        }
      }
    }
  }
}

}  // namespace byom::ml
