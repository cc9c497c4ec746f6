#include "ml/tree.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace byom::ml {

namespace {

struct SplitChoice {
  double gain = 0.0;
  int feature = -1;
  int bin = -1;  // rows with code <= bin go left
};

double leaf_objective(double g, double h, double lambda) {
  return g * g / (h + lambda);
}

constexpr int kMaxBins = 256;  // codes are uint8

// One histogram bin's gradient and hessian sums: a row's update to a
// feature touches one 16-byte pair.
struct BinSums {
  double g;
  double h;
};

// Features whose histograms one pass over a node's rows fills. A row's
// gradient pair is loaded once and added into each feature of the block;
// adds on different features are independent, so they overlap instead of
// each waiting on the previous store to the same low-cardinality bin.
// Eight 256-bin histograms with their counts (40 KB) fit on a worker's
// stack; a block of sixteen measured no faster.
constexpr std::size_t kFeatureBlock = 8;

}  // namespace

RegressionTree::Scratch::Scratch(std::size_t max_rows,
                                 const TreeParams& params)
    : right_(max_rows) {
  rows.reserve(max_rows);
  // Every split leaves both sides non-empty, so a tree is at most
  // max_rows - 1 levels deep and has at most one leaf per row.
  const auto depth = static_cast<std::size_t>(std::max(params.max_depth, 0));
  const std::size_t levels = std::min(depth, max_rows);
  stack_.reserve(levels + 1);
  const std::size_t by_rows = 2 * std::max<std::size_t>(max_rows, 1) - 1;
  max_nodes_ = levels >= 62 ? by_rows
                            : std::min((std::size_t{2} << levels) - 1, by_rows);
}

RegressionTree RegressionTree::fit(
    const std::vector<std::vector<std::uint8_t>>& codes, const Binner& binner,
    const std::vector<double>& grad, const std::vector<double>& hess,
    const std::vector<std::uint32_t>& rows, const TreeParams& params) {
  Scratch scratch(rows.size(), params);
  scratch.rows = rows;
  RegressionTree tree;
  tree.reserve(scratch.max_nodes());
  tree.fit_in_place(codes, binner, grad, hess, params, scratch);
  return tree;
}

// hotpath: the tree builder — runs on the training pool's workers, whose
// allocations would each cost a malloc arena of resident memory.
void RegressionTree::fit_in_place(
    const std::vector<std::vector<std::uint8_t>>& codes, const Binner& binner,
    const std::vector<double>& grad, const std::vector<double>& hess,
    const TreeParams& params, Scratch& scratch) {
  constexpr int kMaxBins = 256;  // codes are uint8
  if (scratch.rows.size() > scratch.right_.size()) {
    // The partition would stage right rows past the staging buffer.
    throw std::invalid_argument(
        "RegressionTree::fit_in_place: more rows than the scratch holds");
  }
  std::uint32_t* const rows = scratch.rows.data();
  nodes_.clear();
  scratch.stack_.clear();
  scratch.stack_.push_back(
      {0, static_cast<std::uint32_t>(scratch.rows.size()), 0, -1});
  // Popping the left child before the right one numbers nodes in preorder:
  // a split node's left child is the next node emitted.
  while (!scratch.stack_.empty()) {
    const Scratch::Frame frame = scratch.stack_.back();
    scratch.stack_.pop_back();
    const std::size_t count = frame.end - frame.begin;
    const int node_index = static_cast<int>(nodes_.size());
    if (frame.parent >= 0) {
      nodes_[static_cast<std::size_t>(frame.parent)].right = node_index;
    }

    double g_total = 0.0, h_total = 0.0;
    for (std::uint32_t i = frame.begin; i < frame.end; ++i) {
      g_total += grad[rows[i]];
      h_total += hess[rows[i]];
    }
    nodes_.push_back(Node{});
    nodes_.back().value = -g_total / (h_total + params.lambda);

    if (frame.depth >= params.max_depth ||
        count < 2 * static_cast<std::size_t>(params.min_samples_leaf)) {
      continue;
    }

    // Histogram scan: find the best (feature, bin) split, kFeatureBlock
    // splittable features per pass over the node's rows.
    SplitChoice best;
    const double parent_obj = leaf_objective(g_total, h_total, params.lambda);
    BinSums bins[kFeatureBlock * kMaxBins];
    int bin_n[kFeatureBlock * kMaxBins];
    std::size_t f = 0;
    while (f < codes.size()) {
      // The block's histograms sit back to back, each num_bins(f) long.
      std::size_t block_feature[kFeatureBlock];
      const std::uint8_t* block_col[kFeatureBlock];
      std::size_t block_offset[kFeatureBlock];
      std::size_t width = 0, used = 0;
      for (; f < codes.size() && width < kFeatureBlock; ++f) {
        const int nbins = binner.num_bins(f);
        if (nbins < 2) continue;
        block_feature[width] = f;
        block_col[width] = codes[f].data();
        block_offset[width] = used;
        used += static_cast<std::size_t>(nbins);
        ++width;
      }
      if (width == 0) break;  // only one-bin features were left
      std::fill_n(bins, used, BinSums{0.0, 0.0});
      std::fill_n(bin_n, used, 0);
      // Rows in partition order, as a feature-at-a-time scan would visit
      // them: every bin's sums are the same additions in the same order.
      // A full block's width is a constant, so its feature loop unrolls.
      const auto accumulate = [&](auto block_width) {
        for (std::uint32_t i = frame.begin; i < frame.end; ++i) {
          const std::uint32_t r = rows[i];
          const double g = grad[r];
          const double h = hess[r];
          for (std::size_t j = 0; j < block_width; ++j) {
            const std::size_t b = block_offset[j] + block_col[j][r];
            bins[b].g += g;
            bins[b].h += h;
            ++bin_n[b];
          }
        }
      };
      if (width == kFeatureBlock) {
        accumulate(std::integral_constant<std::size_t, kFeatureBlock>{});
      } else {
        accumulate(width);
      }
      for (std::size_t j = 0; j < width; ++j) {
        const BinSums* const fb = bins + block_offset[j];
        const int* const fn = bin_n + block_offset[j];
        const int nbins = binner.num_bins(block_feature[j]);
        double gl = 0.0, hl = 0.0;
        int nl = 0;
        for (int b = 0; b < nbins - 1; ++b) {
          gl += fb[b].g;
          hl += fb[b].h;
          nl += fn[b];
          const int nr = static_cast<int>(count) - nl;
          if (nl < params.min_samples_leaf || nr < params.min_samples_leaf) {
            continue;
          }
          const double gr = g_total - gl;
          const double hr = h_total - hl;
          if (hl < params.min_child_hessian || hr < params.min_child_hessian) {
            continue;
          }
          const double gain = leaf_objective(gl, hl, params.lambda) +
                              leaf_objective(gr, hr, params.lambda) -
                              parent_obj;
          if (gain > best.gain) {
            best = {gain, static_cast<int>(block_feature[j]), b};
          }
        }
      }
    }
    if (best.feature < 0 || best.gain < params.min_split_gain) continue;

    // Stable partition of the node's range around the chosen split: left
    // rows compact in place, right rows stage in scratch and follow them.
    const std::uint8_t* const col =
        codes[static_cast<std::size_t>(best.feature)].data();
    const auto split_bin = static_cast<std::uint8_t>(best.bin);
    std::uint32_t* const right = scratch.right_.data();
    std::uint32_t mid = frame.begin;
    std::size_t num_right = 0;
    for (std::uint32_t i = frame.begin; i < frame.end; ++i) {
      const std::uint32_t r = rows[i];
      if (col[r] <= split_bin) {
        rows[mid++] = r;
      } else {
        right[num_right++] = r;
      }
    }
    if (mid == frame.begin || mid == frame.end) {
      continue;  // should not happen given min_samples_leaf guards
    }
    std::copy_n(right, num_right, rows + mid);

    Node& node = nodes_.back();
    node.leaf = false;
    node.feature = best.feature;
    node.threshold =
        binner.upper_edge(static_cast<std::size_t>(best.feature), best.bin);
    node.left = node_index + 1;
    scratch.stack_.push_back({mid, frame.end, frame.depth + 1, node_index});
    scratch.stack_.push_back({frame.begin, mid, frame.depth + 1, -1});
  }
}

double RegressionTree::predict(const float* features) const {
  if (nodes_.empty()) return 0.0;
  std::size_t i = 0;
  while (!nodes_[i].leaf) {
    const Node& n = nodes_[i];
    i = static_cast<std::size_t>(
        features[n.feature] <= n.threshold ? n.left : n.right);
  }
  return nodes_[i].value;
}

void RegressionTree::predict_many(const float* const* rows, std::size_t n,
                                  double scale, double* out,
                                  std::size_t out_stride) const {
  if (nodes_.empty()) return;
  const Node* nodes = nodes_.data();
  for (std::size_t r = 0; r < n; ++r) {
    const float* features = rows[r];
    std::size_t i = 0;
    while (!nodes[i].leaf) {
      const Node& node = nodes[i];
      i = static_cast<std::size_t>(
          features[node.feature] <= node.threshold ? node.left : node.right);
    }
    out[r * out_stride] += scale * nodes[i].value;
  }
}

int RegressionTree::depth() const {
  // Iterative depth computation over the implicit tree structure.
  if (nodes_.empty()) return 0;
  std::vector<std::pair<std::size_t, int>> stack{{0, 1}};
  int best = 0;
  while (!stack.empty()) {
    auto [i, d] = stack.back();
    stack.pop_back();
    best = std::max(best, d);
    if (!nodes_[i].leaf) {
      stack.push_back({static_cast<std::size_t>(nodes_[i].left), d + 1});
      stack.push_back({static_cast<std::size_t>(nodes_[i].right), d + 1});
    }
  }
  return best;
}

void RegressionTree::save(std::ostream& out) const {
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << nodes_.size() << '\n';
  for (const Node& n : nodes_) {
    out << n.leaf << ' ' << n.feature << ' ' << n.threshold << ' ' << n.left
        << ' ' << n.right << ' ' << n.value << '\n';
  }
}

RegressionTree RegressionTree::load(std::istream& in) {
  RegressionTree tree;
  std::size_t count = 0;
  in >> count;
  // Node by node, never sized from the header: a corrupt count fails at
  // the first missing node instead of allocating the count up front.
  for (std::size_t i = 0; in && i < count; ++i) {
    Node n;
    in >> n.leaf >> n.feature >> n.threshold >> n.left >> n.right >> n.value;
    tree.nodes_.push_back(n);
  }
  if (!in) throw std::runtime_error("RegressionTree::load: malformed input");
  // fit() emits every child after its parent, so a child index outside
  // (i, count) is corrupt and would send a walk out of bounds or into a
  // cycle.
  const long long n = static_cast<long long>(count);
  for (long long i = 0; i < n; ++i) {
    const Node& node = tree.nodes_[static_cast<std::size_t>(i)];
    if (node.leaf) continue;
    if (node.feature < 0 || node.left <= i || node.left >= n ||
        node.right <= i || node.right >= n) {
      throw std::runtime_error(
          "RegressionTree::load: bad split at node " + std::to_string(i));
    }
  }
  return tree;
}

void RegressionTree::add_split_counts(std::vector<int>& counts) const {
  for (const Node& n : nodes_) {
    if (!n.leaf && n.feature >= 0 &&
        static_cast<std::size_t>(n.feature) < counts.size()) {
      ++counts[static_cast<std::size_t>(n.feature)];
    }
  }
}

}  // namespace byom::ml
