#include "ml/tree.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

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

}  // namespace

RegressionTree RegressionTree::fit(
    const std::vector<std::vector<std::uint8_t>>& codes, const Binner& binner,
    const std::vector<double>& grad, const std::vector<double>& hess,
    const std::vector<std::uint32_t>& rows, const TreeParams& params) {
  RegressionTree tree;
  std::vector<std::uint32_t> mutable_rows = rows;
  tree.build(codes, binner, grad, hess, mutable_rows, params, 0);
  return tree;
}

// Recursively builds the subtree over `rows` (which it may reorder) and
// returns the node index.
int RegressionTree::build(const std::vector<std::vector<std::uint8_t>>& codes,
                          const Binner& binner,
                          const std::vector<double>& grad,
                          const std::vector<double>& hess,
                          std::vector<std::uint32_t>& rows,
                          const TreeParams& params, int depth) {
  double g_total = 0.0, h_total = 0.0;
  for (std::uint32_t r : rows) {
    g_total += grad[r];
    h_total += hess[r];
  }

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[static_cast<std::size_t>(node_index)].value =
      -g_total / (h_total + params.lambda);

  if (depth >= params.max_depth ||
      rows.size() < 2 * static_cast<std::size_t>(params.min_samples_leaf)) {
    return node_index;
  }

  // Histogram scan: find the best (feature, bin) split.
  SplitChoice best;
  const double parent_obj = leaf_objective(g_total, h_total, params.lambda);
  std::vector<double> bin_g, bin_h;
  std::vector<int> bin_n;
  for (std::size_t f = 0; f < codes.size(); ++f) {
    const int nbins = binner.num_bins(f);
    if (nbins < 2) continue;
    bin_g.assign(static_cast<std::size_t>(nbins), 0.0);
    bin_h.assign(static_cast<std::size_t>(nbins), 0.0);
    bin_n.assign(static_cast<std::size_t>(nbins), 0);
    const auto& col = codes[f];
    for (std::uint32_t r : rows) {
      const std::uint8_t b = col[r];
      bin_g[b] += grad[r];
      bin_h[b] += hess[r];
      ++bin_n[b];
    }
    double gl = 0.0, hl = 0.0;
    int nl = 0;
    for (int b = 0; b < nbins - 1; ++b) {
      gl += bin_g[static_cast<std::size_t>(b)];
      hl += bin_h[static_cast<std::size_t>(b)];
      nl += bin_n[static_cast<std::size_t>(b)];
      const int nr = static_cast<int>(rows.size()) - nl;
      if (nl < params.min_samples_leaf || nr < params.min_samples_leaf) {
        continue;
      }
      const double gr = g_total - gl;
      const double hr = h_total - hl;
      if (hl < params.min_child_hessian || hr < params.min_child_hessian) {
        continue;
      }
      const double gain = leaf_objective(gl, hl, params.lambda) +
                          leaf_objective(gr, hr, params.lambda) - parent_obj;
      if (gain > best.gain) {
        best = {gain, static_cast<int>(f), b};
      }
    }
  }

  if (best.feature < 0 || best.gain < params.min_split_gain) {
    return node_index;
  }

  // Partition rows in place around the chosen split.
  const auto& col = codes[static_cast<std::size_t>(best.feature)];
  auto mid_it = std::stable_partition(
      rows.begin(), rows.end(), [&](std::uint32_t r) {
        return col[r] <= static_cast<std::uint8_t>(best.bin);
      });
  std::vector<std::uint32_t> left_rows(rows.begin(), mid_it);
  std::vector<std::uint32_t> right_rows(mid_it, rows.end());
  if (left_rows.empty() || right_rows.empty()) {
    return node_index;  // should not happen given min_samples_leaf guards
  }

  const int left = build(codes, binner, grad, hess, left_rows, params,
                         depth + 1);
  const int right = build(codes, binner, grad, hess, right_rows, params,
                          depth + 1);

  Node& node = nodes_[static_cast<std::size_t>(node_index)];
  node.leaf = false;
  node.feature = best.feature;
  node.threshold =
      binner.upper_edge(static_cast<std::size_t>(best.feature), best.bin);
  node.left = left;
  node.right = right;
  return node_index;
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
