// Single regression tree trained on histogram (binned) features with
// Newton gradients (XGBoost-style gain), plus its prediction path.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "ml/dataset.h"

namespace byom::ml {

struct TreeParams {
  int max_depth = 6;
  double lambda = 1.0;          // L2 regularization on leaf weights
  double min_split_gain = 1e-6;
  int min_samples_leaf = 20;
  double min_child_hessian = 1e-3;
};

class RegressionTree {
 public:
  // Tree nodes in build order (node 0 is the root). Exposed read-only so
  // the compiled flat-forest arena (ml/flat_forest.h) can re-lay the tree
  // out without this class knowing about the compiled format.
  struct Node {
    bool leaf = true;
    int feature = -1;
    float threshold = 0.0f;  // go left when value <= threshold
    int left = -1;
    int right = -1;
    double value = 0.0;  // leaf weight
  };

  // Working memory of fit_in_place, sized once on the constructing thread
  // for trees over up to `max_rows` rows and reused across fits, so a
  // build touches no heap.
  class Scratch {
   public:
    Scratch(std::size_t max_rows, const TreeParams& params);
    // Node capacity a tree over `max_rows` rows needs: a full binary tree
    // of params.max_depth levels, capped by one leaf per row.
    std::size_t max_nodes() const { return max_nodes_; }

    // The tree's training rows (a subset of the code columns' rows, at most
    // max_rows): assign before each fit; the build reorders them.
    std::vector<std::uint32_t> rows;

   private:
    friend class RegressionTree;
    struct Frame {
      std::uint32_t begin;  // the node's rows: rows[begin, end)
      std::uint32_t end;
      int depth;
      int parent;  // right children: the node whose .right this is; else -1
    };
    std::vector<std::uint32_t> right_;  // stable-partition staging
    std::vector<Frame> stack_;          // pending nodes, depth-first
    std::size_t max_nodes_ = 1;
  };

  // Trains on binned columns: codes[f][r] in [0, num_bins(f)), at most
  // 256 bins per feature (Binner::fit's cap). grad/hess are per-row first
  // and second order gradients; `rows` selects the training subset
  // (supports row subsampling). A thin wrapper over fit_in_place that
  // owns its scratch.
  static RegressionTree fit(
      const std::vector<std::vector<std::uint8_t>>& codes,
      const Binner& binner, const std::vector<double>& grad,
      const std::vector<double>& hess, const std::vector<std::uint32_t>& rows,
      const TreeParams& params);

  // Replaces this tree with one trained on scratch.rows; throws
  // std::invalid_argument past the scratch's max_rows. Allocation-free
  // once reserve(scratch.max_nodes()) has sized the node array: nodes are
  // emitted depth-first (a child always after its parent), each node's
  // rows are a stably partitioned range of scratch.rows, and split
  // histograms live on the stack.
  void fit_in_place(const std::vector<std::vector<std::uint8_t>>& codes,
                    const Binner& binner, const std::vector<double>& grad,
                    const std::vector<double>& hess, const TreeParams& params,
                    Scratch& scratch);
  void reserve(std::size_t num_nodes) { nodes_.reserve(num_nodes); }

  // Predicts from raw (unbinned) feature values.
  double predict(const float* features) const;

  // Node-block batch traversal: accumulates scale * predict(rows[i]) into
  // out[i * out_stride] for all n rows. Walking the whole batch through one
  // tree keeps its node array hot in cache, unlike per-row prediction that
  // streams every tree's nodes for every row.
  void predict_many(const float* const* rows, std::size_t n, double scale,
                    double* out, std::size_t out_stride) const;

  std::size_t num_nodes() const { return nodes_.size(); }
  const std::vector<Node>& nodes() const { return nodes_; }
  int depth() const;

  // Text (de)serialization: one line per node.
  void save(std::ostream& out) const;
  static RegressionTree load(std::istream& in);

  // Whether feature f is used by any split (for cheap split-count
  // importance).
  void add_split_counts(std::vector<int>& counts) const;

 private:
  std::vector<Node> nodes_;
};

}  // namespace byom::ml
