#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "ml/dataset.h"
#include "ml/gbdt.h"
#include "ml/importance.h"
#include "ml/metrics.h"
#include "ml/tree.h"

namespace byom::ml {
namespace {

using common::Rng;

Dataset xor_like_dataset(std::vector<int>& labels, int n, std::uint64_t seed) {
  // Nonlinear 2-class problem: label = (x0 > 0) XOR (x1 > 0), plus a noise
  // feature trees should ignore.
  Dataset data({"x0", "x1", "noise"});
  Rng rng(seed);
  labels.clear();
  for (int i = 0; i < n; ++i) {
    const float x0 = static_cast<float>(rng.uniform(-1, 1));
    const float x1 = static_cast<float>(rng.uniform(-1, 1));
    const float nz = static_cast<float>(rng.uniform(-1, 1));
    data.add_row({x0, x1, nz});
    labels.push_back(((x0 > 0) ^ (x1 > 0)) ? 1 : 0);
  }
  return data;
}

Dataset three_class_dataset(std::vector<int>& labels, int n,
                            std::uint64_t seed) {
  // Classes are bands of x0 + 0.5 * x1; solvable by axis splits.
  Dataset data({"x0", "x1"});
  Rng rng(seed);
  labels.clear();
  for (int i = 0; i < n; ++i) {
    const float x0 = static_cast<float>(rng.uniform(0, 3));
    const float x1 = static_cast<float>(rng.uniform(0, 1));
    data.add_row({x0, x1});
    const double s = x0 + 0.5 * x1;
    labels.push_back(s < 1.0 ? 0 : (s < 2.0 ? 1 : 2));
  }
  return data;
}

// ---------------------------------------------------------------- dataset

TEST(Dataset, AddAndAccessRows) {
  Dataset d({"a", "b"});
  d.add_row({1.0f, 2.0f});
  d.add_row({3.0f, 4.0f});
  EXPECT_EQ(d.num_rows(), 2u);
  EXPECT_EQ(d.num_features(), 2u);
  EXPECT_FLOAT_EQ(d.at(1, 0), 3.0f);
  EXPECT_FLOAT_EQ(d.row(0)[1], 2.0f);
}

TEST(Dataset, WrongRowWidthThrows) {
  Dataset d({"a", "b"});
  EXPECT_THROW(d.add_row({1.0f}), std::invalid_argument);
}

TEST(Dataset, FeatureIndexLookup) {
  Dataset d({"alpha", "beta"});
  EXPECT_EQ(d.feature_index("beta"), 1u);
  EXPECT_THROW(d.feature_index("gamma"), std::out_of_range);
}

TEST(Dataset, SetMutates) {
  Dataset d({"a"});
  d.add_row({1.0f});
  d.set(0, 0, 9.0f);
  EXPECT_FLOAT_EQ(d.at(0, 0), 9.0f);
}

// ---------------------------------------------------------------- binner

TEST(Binner, BinsAreMonotone) {
  Dataset d({"x"});
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    d.add_row({static_cast<float>(rng.uniform(0, 100))});
  }
  const Binner binner = Binner::fit(d, 16);
  EXPECT_LE(binner.bin_of(0, 0.0f), binner.bin_of(0, 50.0f));
  EXPECT_LE(binner.bin_of(0, 50.0f), binner.bin_of(0, 100.0f));
}

TEST(Binner, LowCardinalityFeatureGetsFewBins) {
  Dataset d({"flag"});
  for (int i = 0; i < 100; ++i) {
    d.add_row({static_cast<float>(i % 2)});
  }
  const Binner binner = Binner::fit(d, 64);
  EXPECT_LE(binner.num_bins(0), 3);
  EXPECT_NE(binner.bin_of(0, 0.0f), binner.bin_of(0, 1.0f));
}

TEST(Binner, QuantileBinsRoughlyBalanced) {
  Dataset d({"x"});
  Rng rng(4);
  for (int i = 0; i < 4000; ++i) {
    d.add_row({static_cast<float>(rng.lognormal(0, 2))});
  }
  const Binner binner = Binner::fit(d, 16);
  const auto codes = binner.transform(d);
  std::vector<int> counts(static_cast<std::size_t>(binner.num_bins(0)), 0);
  for (auto code : codes[0]) ++counts[code];
  for (int c : counts) EXPECT_GT(c, 4000 / 16 / 4);
}

TEST(Binner, RejectsTooFewBins) {
  Dataset d({"x"});
  d.add_row({1.0f});
  EXPECT_THROW(Binner::fit(d, 1), std::invalid_argument);
}

TEST(Binner, RejectsMoreBinsThanUint8Codes) {
  Dataset d({"x"});
  d.add_row({1.0f});
  EXPECT_NO_THROW(Binner::fit(d, 256));
  EXPECT_THROW(Binner::fit(d, 257), std::invalid_argument);
}

// ---------------------------------------------------------------- tree

TEST(RegressionTree, FitsAStep) {
  // grad = pred - target with pred = 0: grad = -target. One split at x=0
  // should produce leaves near target means.
  Dataset d({"x"});
  std::vector<double> grad, hess;
  std::vector<std::uint32_t> rows;
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    const double x = rng.uniform(-1, 1);
    d.add_row({static_cast<float>(x)});
    const double target = x < 0 ? -2.0 : 3.0;
    grad.push_back(-target);
    hess.push_back(1.0);
    rows.push_back(static_cast<std::uint32_t>(i));
  }
  const Binner binner = Binner::fit(d, 32);
  const auto codes = binner.transform(d);
  TreeParams params;
  params.max_depth = 2;
  const auto tree = RegressionTree::fit(codes, binner, grad, hess, rows,
                                        params);
  const float neg = -0.5f, pos = 0.5f;
  EXPECT_NEAR(tree.predict(&neg), -2.0, 0.3);
  EXPECT_NEAR(tree.predict(&pos), 3.0, 0.3);
}

TEST(RegressionTree, RespectsMaxDepth) {
  Dataset d({"x"});
  std::vector<double> grad, hess;
  std::vector<std::uint32_t> rows;
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(0, 1);
    d.add_row({static_cast<float>(x)});
    grad.push_back(-std::sin(20 * x));
    hess.push_back(1.0);
    rows.push_back(static_cast<std::uint32_t>(i));
  }
  const Binner binner = Binner::fit(d, 64);
  const auto codes = binner.transform(d);
  TreeParams params;
  params.max_depth = 3;
  params.min_samples_leaf = 5;
  const auto tree =
      RegressionTree::fit(codes, binner, grad, hess, rows, params);
  EXPECT_LE(tree.depth(), 4);  // root at depth 1
}

TEST(RegressionTree, MinSamplesLeafBlocksTinySplits) {
  Dataset d({"x"});
  std::vector<double> grad = {-1, -1, 1, 1};
  std::vector<double> hess = {1, 1, 1, 1};
  std::vector<std::uint32_t> rows = {0, 1, 2, 3};
  for (float x : {0.0f, 0.1f, 0.9f, 1.0f}) d.add_row({x});
  const Binner binner = Binner::fit(d, 8);
  const auto codes = binner.transform(d);
  TreeParams params;
  params.min_samples_leaf = 20;  // more than available
  const auto tree =
      RegressionTree::fit(codes, binner, grad, hess, rows, params);
  EXPECT_EQ(tree.num_nodes(), 1u);  // no split possible
}

TEST(RegressionTree, SerializationRoundTrip) {
  Dataset d({"x", "y"});
  std::vector<double> grad, hess;
  std::vector<std::uint32_t> rows;
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    const float x = static_cast<float>(rng.uniform(-1, 1));
    const float y = static_cast<float>(rng.uniform(-1, 1));
    d.add_row({x, y});
    grad.push_back(-(x > 0 ? 1.0 : -1.0) * (y > 0 ? 1.0 : 2.0));
    hess.push_back(1.0);
    rows.push_back(static_cast<std::uint32_t>(i));
  }
  const Binner binner = Binner::fit(d, 32);
  const auto tree = RegressionTree::fit(binner.transform(d), binner, grad,
                                        hess, rows, TreeParams{});
  std::stringstream ss;
  tree.save(ss);
  const auto loaded = RegressionTree::load(ss);
  for (int i = 0; i < 50; ++i) {
    const float probe[2] = {static_cast<float>(std::sin(i)),
                            static_cast<float>(std::cos(i))};
    EXPECT_DOUBLE_EQ(tree.predict(probe), loaded.predict(probe));
  }
}

TEST(RegressionTree, LoadRejectsBadSplits) {
  // Node format: leaf feature threshold left right value. The root's right
  // child (99) is out of range, so compiling or walking it would read past
  // the node array.
  std::stringstream out_of_range(
      "3\n0 0 0.5 1 99 0\n1 -1 0 -1 -1 1\n1 -1 0 -1 -1 2\n");
  EXPECT_THROW(RegressionTree::load(out_of_range), std::runtime_error);
  // A child at or before its parent would loop a walk.
  std::stringstream backward(
      "3\n0 0 0.5 0 2 0\n1 -1 0 -1 -1 1\n1 -1 0 -1 -1 2\n");
  EXPECT_THROW(RegressionTree::load(backward), std::runtime_error);
  std::stringstream negative_feature(
      "3\n0 -1 0.5 1 2 0\n1 -1 0 -1 -1 1\n1 -1 0 -1 -1 2\n");
  EXPECT_THROW(RegressionTree::load(negative_feature), std::runtime_error);
  // The same tree with valid indices loads and walks.
  std::stringstream valid(
      "3\n0 0 0.5 1 2 0\n1 -1 0 -1 -1 1\n1 -1 0 -1 -1 2\n");
  const auto tree = RegressionTree::load(valid);
  const float low[1] = {0.25f};
  const float high[1] = {0.75f};
  EXPECT_EQ(tree.predict(low), 1.0);
  EXPECT_EQ(tree.predict(high), 2.0);
}

TEST(RegressionTree, LoadRejectsNonFiniteThresholdsAndLeaves) {
  // Node format: leaf feature threshold left right value. Extraction of
  // nan, inf or an out-of-range literal sets failbit, so the loader throws
  // instead of admitting a split no feature value can reach consistently.
  for (const std::string bad : {"nan", "inf", "-inf", "1e999"}) {
    SCOPED_TRACE(bad);
    std::stringstream threshold("3\n0 0 " + bad +
                                " 1 2 0\n1 -1 0 -1 -1 1\n1 -1 0 -1 -1 2\n");
    EXPECT_THROW(RegressionTree::load(threshold), std::runtime_error);
    std::stringstream leaf("1\n1 -1 0 -1 -1 " + bad + "\n");
    EXPECT_THROW(RegressionTree::load(leaf), std::runtime_error);
  }
}

TEST(RegressionTree, LoadRejectsHugeNodeCountWithoutAllocatingIt) {
  // A header claiming 10^9 nodes followed by one: sizing the node array
  // from the header would allocate ~40 GB before the stream check.
  std::stringstream huge("1000000000\n1 -1 0 -1 -1 1\n");
  EXPECT_THROW(RegressionTree::load(huge), std::runtime_error);
}

// The feature-at-a-time histogram builder: one feature's histogram per
// pass over a node's rows. Kept as the reference fit_in_place's blocked
// pass must reproduce node for node; nodes come out in the same preorder.
class ReferenceTreeBuilder {
 public:
  ReferenceTreeBuilder(const std::vector<std::vector<std::uint8_t>>& codes,
                       const Binner& binner, const std::vector<double>& grad,
                       const std::vector<double>& hess,
                       const TreeParams& params)
      : codes_(codes), binner_(binner), grad_(grad), hess_(hess),
        params_(params) {}

  std::vector<RegressionTree::Node> fit(
      const std::vector<std::uint32_t>& rows) {
    nodes_.clear();
    build(rows, 0);
    return nodes_;
  }

 private:
  static double objective(double g, double h, double lambda) {
    return g * g / (h + lambda);
  }

  int build(const std::vector<std::uint32_t>& rows, int depth) {
    const int index = static_cast<int>(nodes_.size());
    double g_total = 0.0, h_total = 0.0;
    for (const std::uint32_t r : rows) {
      g_total += grad_[r];
      h_total += hess_[r];
    }
    nodes_.emplace_back();
    nodes_.back().value = -g_total / (h_total + params_.lambda);
    const std::size_t count = rows.size();
    if (depth >= params_.max_depth ||
        count < 2 * static_cast<std::size_t>(params_.min_samples_leaf)) {
      return index;
    }
    double best_gain = 0.0;
    int best_feature = -1, best_bin = -1;
    const double parent_obj = objective(g_total, h_total, params_.lambda);
    double bin_g[256];
    double bin_h[256];
    int bin_n[256];
    for (std::size_t f = 0; f < codes_.size(); ++f) {
      const int nbins = binner_.num_bins(f);
      if (nbins < 2) continue;
      std::fill_n(bin_g, nbins, 0.0);
      std::fill_n(bin_h, nbins, 0.0);
      std::fill_n(bin_n, nbins, 0);
      for (const std::uint32_t r : rows) {
        const std::uint8_t b = codes_[f][r];
        bin_g[b] += grad_[r];
        bin_h[b] += hess_[r];
        ++bin_n[b];
      }
      double gl = 0.0, hl = 0.0;
      int nl = 0;
      for (int b = 0; b < nbins - 1; ++b) {
        gl += bin_g[b];
        hl += bin_h[b];
        nl += bin_n[b];
        const int nr = static_cast<int>(count) - nl;
        if (nl < params_.min_samples_leaf || nr < params_.min_samples_leaf) {
          continue;
        }
        const double gr = g_total - gl;
        const double hr = h_total - hl;
        if (hl < params_.min_child_hessian || hr < params_.min_child_hessian) {
          continue;
        }
        const double gain = objective(gl, hl, params_.lambda) +
                            objective(gr, hr, params_.lambda) - parent_obj;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(f);
          best_bin = b;
        }
      }
    }
    if (best_feature < 0 || best_gain < params_.min_split_gain) return index;
    std::vector<std::uint32_t> left, right;
    for (const std::uint32_t r : rows) {
      const auto code = codes_[static_cast<std::size_t>(best_feature)][r];
      (code <= best_bin ? left : right).push_back(r);
    }
    if (left.empty() || right.empty()) return index;
    nodes_[static_cast<std::size_t>(index)].leaf = false;
    nodes_[static_cast<std::size_t>(index)].feature = best_feature;
    nodes_[static_cast<std::size_t>(index)].threshold = binner_.upper_edge(
        static_cast<std::size_t>(best_feature), best_bin);
    const int left_index = build(left, depth + 1);
    const int right_index = build(right, depth + 1);
    nodes_[static_cast<std::size_t>(index)].left = left_index;
    nodes_[static_cast<std::size_t>(index)].right = right_index;
    return index;
  }

  const std::vector<std::vector<std::uint8_t>>& codes_;
  const Binner& binner_;
  const std::vector<double>& grad_;
  const std::vector<double>& hess_;
  const TreeParams& params_;
  std::vector<RegressionTree::Node> nodes_;
};

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

// Feature f's kind cycles through 256 distinct quantiles, a binary flag
// (one bit of the row index, so an even row count splits exactly in half),
// a constant (one bin, never split), three values and forty values.
Dataset mixed_cardinality_dataset(std::size_t num_features,
                                  std::size_t num_rows, Rng& rng) {
  std::vector<std::string> names;
  for (std::size_t f = 0; f < num_features; ++f) {
    names.push_back("f" + std::to_string(f));
  }
  Dataset data(names);
  std::vector<float> row(num_features);
  for (std::size_t r = 0; r < num_rows; ++r) {
    for (std::size_t f = 0; f < num_features; ++f) {
      switch (f % 5) {
        case 0: row[f] = static_cast<float>(rng.uniform(-1, 1)); break;
        case 1: row[f] = static_cast<float>((r >> (f / 5)) & 1); break;
        case 2: row[f] = 7.0f; break;
        case 3: row[f] = static_cast<float>(rng.uniform_index(3)); break;
        default: row[f] = static_cast<float>(rng.uniform_index(40)); break;
      }
    }
    data.add_row(row);
  }
  return data;
}

TEST(RegressionTree, BlockedHistogramsMatchFeatureAtATimeReference) {
  // Feature counts around the histogram pass's block of eight (the
  // constants aside, 1, 6, 6, 7, 8, 9 and 49 splittable features), all
  // rows and a subsample, and min_samples_leaf at the root's split
  // boundary (rows/2 admits only an even split; rows/2 + 1 admits none).
  constexpr std::size_t kRows = 1500;
  Rng rng(25);
  std::size_t checked_splits = 0, even_root_splits = 0;
  for (const std::size_t num_features : {1u, 7u, 8u, 9u, 10u, 11u, 61u}) {
    const Dataset data = mixed_cardinality_dataset(num_features, kRows, rng);
    const Binner binner = Binner::fit(data, 256);
    const auto codes = binner.transform(data);
    EXPECT_EQ(binner.num_bins(0), 256);
    if (num_features >= 3) {
      EXPECT_EQ(binner.num_bins(1), 2);
      EXPECT_EQ(binner.num_bins(2), 1);
    }
    // Gradients with a step of similar size on every feature, so each
    // feature's histogram decides splits somewhere in the tree; hessians
    // that differ from row counts.
    std::vector<double> weight(num_features);
    for (double& w : weight) w = rng.uniform(0.5, 1.0);
    std::vector<double> grad(kRows), hess(kRows);
    for (std::size_t r = 0; r < kRows; ++r) {
      double signal = 0.0;
      for (std::size_t f = 0; f < num_features; ++f) {
        if (2 * codes[f][r] >= binner.num_bins(f)) signal += weight[f];
      }
      grad[r] = signal + rng.normal(0.0, 0.1);
      hess[r] = rng.uniform(0.05, 1.0);
    }
    std::vector<std::uint32_t> subsample;
    for (std::uint32_t r = 0; r < kRows; ++r) {
      if (rng.bernoulli(0.6)) subsample.push_back(r);
    }
    std::vector<std::uint32_t> all(kRows);
    for (std::uint32_t r = 0; r < kRows; ++r) all[r] = r;

    for (const auto* rows : {&all, &subsample}) {
      const int half = static_cast<int>(rows->size() / 2);
      for (const int min_leaf : {1, 20, half, half + 1}) {
        SCOPED_TRACE("features " + std::to_string(num_features) + ", rows " +
                     std::to_string(rows->size()) + ", min_samples_leaf " +
                     std::to_string(min_leaf));
        TreeParams params;
        params.min_samples_leaf = min_leaf;
        RegressionTree::Scratch scratch(kRows, params);
        scratch.rows = *rows;
        RegressionTree tree;
        tree.reserve(scratch.max_nodes());
        tree.fit_in_place(codes, binner, grad, hess, params, scratch);
        const auto reference =
            ReferenceTreeBuilder(codes, binner, grad, hess, params)
                .fit(*rows);
        ASSERT_EQ(tree.num_nodes(), reference.size());
        if (min_leaf > half) {
          EXPECT_EQ(tree.num_nodes(), 1u);
        }
        if (min_leaf == half && tree.num_nodes() > 1) ++even_root_splits;
        for (std::size_t i = 0; i < reference.size(); ++i) {
          const auto& a = tree.nodes()[i];
          const auto& b = reference[i];
          EXPECT_EQ(a.leaf, b.leaf) << "node " << i;
          EXPECT_EQ(a.feature, b.feature) << "node " << i;
          EXPECT_EQ(a.threshold, b.threshold) << "node " << i;
          EXPECT_EQ(a.left, b.left) << "node " << i;
          EXPECT_EQ(a.right, b.right) << "node " << i;
          EXPECT_EQ(double_bits(a.value), double_bits(b.value))
              << "node " << i;
          if (!a.leaf) ++checked_splits;
        }
      }
    }
  }
  // The cases grew real trees, not just stumps, and the binary features
  // split the full row set exactly at the boundary.
  EXPECT_GT(checked_splits, 200u);
  EXPECT_GT(even_root_splits, 0u);
}

// ---------------------------------------------------------------- GBDT

TEST(GbdtClassifier, LearnsXor) {
  std::vector<int> labels;
  const auto data = xor_like_dataset(labels, 2000, 11);
  GbdtClassifier model;
  GbdtParams params;
  params.num_rounds = 30;
  model.train(data, labels, 2, params);

  std::vector<int> test_labels;
  const auto test = xor_like_dataset(test_labels, 500, 12);
  std::vector<int> pred;
  for (std::size_t r = 0; r < test.num_rows(); ++r) {
    pred.push_back(model.predict(test.row(r)));
  }
  EXPECT_GT(accuracy(pred, test_labels), 0.9);
}

TEST(GbdtClassifier, LearnsThreeClasses) {
  std::vector<int> labels;
  const auto data = three_class_dataset(labels, 3000, 13);
  GbdtClassifier model;
  GbdtParams params;
  params.num_rounds = 25;
  model.train(data, labels, 3, params);
  std::vector<int> test_labels;
  const auto test = three_class_dataset(test_labels, 600, 14);
  std::vector<int> pred;
  for (std::size_t r = 0; r < test.num_rows(); ++r) {
    pred.push_back(model.predict(test.row(r)));
  }
  EXPECT_GT(accuracy(pred, test_labels), 0.9);
}

TEST(GbdtClassifier, ProbabilitiesSumToOne) {
  std::vector<int> labels;
  const auto data = three_class_dataset(labels, 500, 15);
  GbdtClassifier model;
  GbdtParams params;
  params.num_rounds = 5;
  model.train(data, labels, 3, params);
  const auto p = model.predict_proba(data.row(0));
  double sum = 0.0;
  for (double v : p) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(GbdtClassifier, BatchPredictionMatchesPerRow) {
  std::vector<int> labels;
  const auto data = three_class_dataset(labels, 1500, 21);
  GbdtClassifier model;
  GbdtParams params;
  params.num_rounds = 15;
  model.train(data, labels, 3, params);

  std::vector<const float*> rows(data.num_rows());
  for (std::size_t r = 0; r < data.num_rows(); ++r) rows[r] = data.row(r);

  // Classes from the node-block batch traversal must be identical to the
  // per-row path, and the raw scores bit-identical.
  const auto batched = model.predict_batch(rows.data(), rows.size());
  std::vector<double> batch_scores(rows.size() * 3);
  model.scores_batch(rows.data(), rows.size(), batch_scores.data());
  ASSERT_EQ(batched.size(), rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(batched[r], model.predict(rows[r]));
    const auto expected = model.scores(rows[r]);
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_DOUBLE_EQ(batch_scores[r * 3 + k], expected[k]);
    }
  }
}

TEST(GbdtClassifier, RespectsTreeBudget) {
  std::vector<int> labels;
  const auto data = three_class_dataset(labels, 400, 16);
  GbdtClassifier model;
  GbdtParams params;
  params.num_rounds = 1000;      // would be 3000 trees...
  params.max_trees_total = 30;   // ...but the budget caps at 30
  model.train(data, labels, 3, params);
  EXPECT_LE(model.num_trees(), 30u);
}

TEST(GbdtClassifier, ValidatesInputs) {
  Dataset d({"x"});
  d.add_row({0.0f});
  GbdtClassifier model;
  EXPECT_THROW(model.train(d, {0, 1}, 2), std::invalid_argument);   // size
  EXPECT_THROW(model.train(d, {5}, 2), std::invalid_argument);      // range
  EXPECT_THROW(model.train(d, {0}, 1), std::invalid_argument);      // classes
}

TEST(GbdtClassifier, SerializationRoundTrip) {
  std::vector<int> labels;
  const auto data = three_class_dataset(labels, 800, 17);
  GbdtClassifier model;
  GbdtParams params;
  params.num_rounds = 10;
  model.train(data, labels, 3, params);
  std::stringstream ss;
  model.save(ss);
  const auto loaded = GbdtClassifier::load(ss);
  EXPECT_EQ(loaded.num_classes(), 3);
  EXPECT_EQ(loaded.num_trees(), model.num_trees());
  for (std::size_t r = 0; r < 100; ++r) {
    EXPECT_EQ(model.predict(data.row(r)), loaded.predict(data.row(r)));
  }
}

TEST(GbdtClassifier, LoadRejectsGarbage) {
  std::stringstream ss("not_a_model at all");
  EXPECT_THROW(GbdtClassifier::load(ss), std::runtime_error);
}

TEST(GbdtClassifier, LoadRejectsHugeTreeCountAndZeroClasses) {
  // Header: num_classes num_trees learning_rate, then the trees.
  const std::string one_tree = "1\n1 -1 0 -1 -1 1\n";
  std::stringstream huge("gbdt_classifier v1\n3 1000000000 0.1\n" +
                         one_tree);
  EXPECT_THROW(GbdtClassifier::load(huge), std::runtime_error);
  // Zero classes would reach a `% k` with k = 0 in batch scoring.
  std::stringstream zero_classes("gbdt_classifier v1\n0 1 0.1\n" + one_tree);
  EXPECT_THROW(GbdtClassifier::load(zero_classes), std::runtime_error);
  std::stringstream negative_classes("gbdt_classifier v1\n-2 1 0.1\n" +
                                     one_tree);
  EXPECT_THROW(GbdtClassifier::load(negative_classes), std::runtime_error);
  // The same single tree as a one-class model loads.
  std::stringstream valid("gbdt_classifier v1\n1 1 0.1\n" + one_tree);
  EXPECT_EQ(GbdtClassifier::load(valid).num_trees(), 1u);
}

// A one-tree classifier whose tree is a chain of `levels` splits on
// feature 0: node 2j splits at 0.5 into leaf 2j + 1 (value 1) and node
// 2j + 2; the last node is a leaf of value 2 at depth `levels`.
std::string chain_classifier(int levels) {
  std::ostringstream text;
  text << "gbdt_classifier v1\n1 1 1\n" << 2 * levels + 1 << '\n';
  for (int j = 0; j < levels; ++j) {
    text << "0 0 0.5 " << 2 * j + 1 << ' ' << 2 * j + 2 << " 0\n"
         << "1 -1 0 -1 -1 1\n";
  }
  text << "1 -1 0 -1 -1 2\n";
  return text.str();
}

TEST(GbdtClassifier, LoadRejectsTreesDeeperThanUint16Levels) {
  // 0xFFFF levels is the deepest the compiled forest can count: it loads,
  // and the blocked kernel walks one row off the first split and one down
  // the whole chain to the last leaf.
  std::stringstream deepest(chain_classifier(0xFFFF));
  const auto model = GbdtClassifier::load(deepest);
  const float rows[2] = {0.25f, 1.0f};
  double scores[2] = {0.0, 0.0};
  model.scores_batch(rows, 1, 2, scores);
  EXPECT_EQ(scores[0], 1.0);
  EXPECT_EQ(scores[1], 2.0);
  // One level more would wrap the uint16 depth count.
  std::stringstream too_deep(chain_classifier(0x10000));
  EXPECT_THROW(GbdtClassifier::load(too_deep), std::invalid_argument);
}

TEST(GbdtRegressor, LoadRejectsHugeTreeCount) {
  std::stringstream huge(
      "gbdt_regressor v1\n1000000000 0 0.1\n1\n1 -1 0 -1 -1 1\n");
  EXPECT_THROW(GbdtRegressor::load(huge), std::runtime_error);
}

TEST(GbdtClassifier, SplitCountsFavorInformativeFeatures) {
  std::vector<int> labels;
  const auto data = xor_like_dataset(labels, 2000, 18);
  GbdtClassifier model;
  GbdtParams params;
  params.num_rounds = 20;
  model.train(data, labels, 2, params);
  const auto counts = model.split_counts(3);
  // x0 and x1 carry all signal; the noise feature should be split on less.
  EXPECT_GT(counts[0] + counts[1], counts[2] * 3);
}

// ------------------------------------------------------------ flat forest
//
// The compiled SoA kernel must be bit-identical to the node-block
// traversal it replaced (scores_batch_nodeblock, the reference oracle):
// same float comparison semantics, same per-accumulator double addition
// order. These tests compare with EXPECT_EQ on doubles — exact equality,
// not tolerance.

TEST(FlatForest, CompiledScoresBitIdenticalToNodeBlock) {
  std::vector<int> labels;
  const auto data = three_class_dataset(labels, 1500, 23);
  GbdtClassifier model;
  GbdtParams params;
  params.num_rounds = 15;
  model.train(data, labels, 3, params);
  ASSERT_TRUE(model.compiled_forest().compiled());

  std::vector<const float*> rows(data.num_rows());
  for (std::size_t r = 0; r < data.num_rows(); ++r) rows[r] = data.row(r);

  // The same rows packed into a padded block (stride wider than the row)
  // for the strided entry point.
  const std::size_t width = data.num_features();
  const std::size_t stride = width + 3;
  std::vector<float> block(rows.size() * stride, -99.0f);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::copy(rows[r], rows[r] + width, block.data() + r * stride);
  }

  // Edge batch sizes around the kernel's row-block boundary (64): empty,
  // single row (the serial-walk dispatch), one-off-the-block, exact block,
  // block+1, two-blocks+2 — on both batch entry points.
  for (const std::size_t n : {0u, 1u, 63u, 64u, 65u, 130u}) {
    ASSERT_LE(n, rows.size());
    std::vector<double> compiled(n * 3, -1.0);
    std::vector<double> reference(n * 3, -2.0);
    std::vector<double> strided(n * 3, -3.0);
    model.scores_batch(rows.data(), n, compiled.data());
    model.scores_batch_nodeblock(rows.data(), n, reference.data());
    model.scores_batch(block.data(), stride, n, strided.data());
    for (std::size_t i = 0; i < n * 3; ++i) {
      EXPECT_EQ(compiled[i], reference[i]) << "n=" << n << " i=" << i;
      EXPECT_EQ(strided[i], reference[i]) << "n=" << n << " i=" << i;
    }
    double single[3];
    for (std::size_t r = 0; r < n; ++r) {
      model.scores_into(rows[r], single);
      for (std::size_t k = 0; k < 3; ++k) {
        EXPECT_EQ(strided[r * 3 + k], single[k]) << "n=" << n << " r=" << r;
      }
    }
    const auto classes = model.predict_batch(rows.data(), n);
    ASSERT_EQ(classes.size(), n);
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_EQ(classes[r], model.predict(rows[r])) << "n=" << n;
    }
  }
}

TEST(FlatForest, StridedMatchesRowPointers) {
  std::vector<int> labels;
  const auto data = three_class_dataset(labels, 200, 24);
  GbdtClassifier model;
  GbdtParams params;
  params.num_rounds = 8;
  model.train(data, labels, 3, params);

  // Pack the rows into a padded block: stride wider than the row so the
  // kernel's base + r * stride arithmetic is actually exercised.
  const std::size_t width = data.num_features();
  const std::size_t stride = width + 3;
  const std::size_t n = data.num_rows();
  std::vector<float> block(n * stride, -99.0f);
  std::vector<const float*> rows(n);
  for (std::size_t r = 0; r < n; ++r) {
    std::copy(data.row(r), data.row(r) + width, block.data() + r * stride);
    rows[r] = data.row(r);
  }

  std::vector<double> strided(n * 3), pointer(n * 3);
  model.scores_batch(block.data(), stride, n, strided.data());
  model.scores_batch(rows.data(), n, pointer.data());
  for (std::size_t i = 0; i < n * 3; ++i) {
    EXPECT_EQ(strided[i], pointer[i]);
  }
  EXPECT_EQ(model.predict_batch(block.data(), stride, n),
            model.predict_batch(rows.data(), n));
}

TEST(FlatForest, ScoresIntoMatchesScores) {
  std::vector<int> labels;
  const auto data = three_class_dataset(labels, 300, 25);
  GbdtClassifier model;
  GbdtParams params;
  params.num_rounds = 8;
  model.train(data, labels, 3, params);
  double out[3];
  for (std::size_t r = 0; r < 50; ++r) {
    model.scores_into(data.row(r), out);
    const auto expected = model.scores(data.row(r));
    for (std::size_t k = 0; k < 3; ++k) EXPECT_EQ(out[k], expected[k]);
  }
}

TEST(FlatForest, RecompiledAfterLoadBitIdentical) {
  std::vector<int> labels;
  const auto data = three_class_dataset(labels, 600, 26);
  GbdtClassifier model;
  GbdtParams params;
  params.num_rounds = 10;
  model.train(data, labels, 3, params);

  std::stringstream ss;
  model.save(ss);
  const auto loaded = GbdtClassifier::load(ss);
  ASSERT_TRUE(loaded.compiled_forest().compiled());

  // Serialization round-trips doubles exactly (max_digits10), so the
  // recompiled forest must score bit-identically to the original.
  double a[3], b[3];
  for (std::size_t r = 0; r < 100; ++r) {
    model.scores_into(data.row(r), a);
    loaded.scores_into(data.row(r), b);
    for (std::size_t k = 0; k < 3; ++k) EXPECT_EQ(a[k], b[k]);
  }
}

TEST(FlatForest, UntrainedLoadStaysUncompiled) {
  // A default-constructed classifier saved and reloaded has no classes and
  // no trees; recompile() must not throw and the forest stays uncompiled.
  GbdtClassifier empty;
  EXPECT_FALSE(empty.compiled_forest().compiled());
  std::vector<double> none;
  EXPECT_NO_THROW({
    const auto classes = empty.predict_batch(
        static_cast<const float* const*>(nullptr), 0);
    EXPECT_TRUE(classes.empty());
  });
}

TEST(FlatForest, RegressorCompiledMatchesNodeBlock) {
  Dataset data({"x", "y"});
  std::vector<double> targets;
  Rng rng(27);
  for (int i = 0; i < 800; ++i) {
    const double x = rng.uniform(-2, 2);
    const double y = rng.uniform(-1, 1);
    data.add_row({static_cast<float>(x), static_cast<float>(y)});
    targets.push_back(x * x + 0.5 * y);
  }
  GbdtRegressor model;
  GbdtParams params;
  params.num_rounds = 25;
  model.train(data, targets, params);

  // Per-row: compiled predict vs the reference accumulation loop.
  for (std::size_t r = 0; r < 200; ++r) {
    EXPECT_EQ(model.predict(data.row(r)), model.predict_nodeblock(data.row(r)));
  }

  // Strided batch (Dataset storage is row-major contiguous) across the
  // same block-boundary edge sizes as the classifier suite.
  for (const std::size_t n : {0u, 1u, 64u, 65u, 130u}) {
    std::vector<double> batch(n, -1.0);
    model.predict_batch(data.row(0), data.num_features(), n, batch.data());
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_EQ(batch[r], model.predict(data.row(r))) << "n=" << n;
    }
  }

  // Round-trip: the recompiled forest predicts bit-identically.
  std::stringstream ss;
  model.save(ss);
  const auto loaded = GbdtRegressor::load(ss);
  for (std::size_t r = 0; r < 100; ++r) {
    EXPECT_EQ(model.predict(data.row(r)), loaded.predict(data.row(r)));
  }
}

TEST(GbdtRegressor, FitsQuadratic) {
  Dataset data({"x"});
  std::vector<double> targets;
  Rng rng(19);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(-2, 2);
    data.add_row({static_cast<float>(x)});
    targets.push_back(x * x);
  }
  GbdtRegressor model;
  GbdtParams params;
  params.num_rounds = 60;
  model.train(data, targets, params);
  double mse = 0.0;
  for (int i = 0; i < 100; ++i) {
    const float x = static_cast<float>(-2.0 + 4.0 * i / 99.0);
    const double err = model.predict(&x) - x * x;
    mse += err * err;
  }
  EXPECT_LT(mse / 100.0, 0.05);
}

TEST(GbdtRegressor, ConstantTargetGivesBase) {
  Dataset data({"x"});
  std::vector<double> targets;
  for (int i = 0; i < 50; ++i) {
    data.add_row({static_cast<float>(i)});
    targets.push_back(7.5);
  }
  GbdtRegressor model;
  model.train(data, targets);
  const float probe = 25.0f;
  EXPECT_NEAR(model.predict(&probe), 7.5, 1e-6);
}

TEST(GbdtRegressor, SerializationRoundTrip) {
  Dataset data({"x"});
  std::vector<double> targets;
  Rng rng(20);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(0, 1);
    data.add_row({static_cast<float>(x)});
    targets.push_back(3.0 * x);
  }
  GbdtRegressor model;
  model.train(data, targets);
  std::stringstream ss;
  model.save(ss);
  const auto loaded = GbdtRegressor::load(ss);
  const float probe = 0.5f;
  EXPECT_DOUBLE_EQ(model.predict(&probe), loaded.predict(&probe));
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, AccuracyBasics) {
  EXPECT_DOUBLE_EQ(accuracy({1, 2, 3}, {1, 2, 3}), 1.0);
  EXPECT_DOUBLE_EQ(accuracy({1, 0, 3}, {1, 2, 3}), 2.0 / 3.0);
  EXPECT_THROW(accuracy({1}, {1, 2}), std::invalid_argument);
}

TEST(Metrics, TopKAccuracy) {
  const std::vector<std::vector<double>> scores{
      {0.5, 0.3, 0.2},  // label 1: second-best -> top-2 hit
      {0.1, 0.2, 0.7},  // label 2: best -> top-1 hit
  };
  const std::vector<int> labels{1, 2};
  EXPECT_DOUBLE_EQ(top_k_accuracy(scores, labels, 1), 0.5);
  EXPECT_DOUBLE_EQ(top_k_accuracy(scores, labels, 2), 1.0);
}

TEST(Metrics, AucPerfectSeparation) {
  EXPECT_DOUBLE_EQ(binary_auc({0.1, 0.2, 0.8, 0.9}, {0, 0, 1, 1}), 1.0);
}

TEST(Metrics, AucInverted) {
  EXPECT_DOUBLE_EQ(binary_auc({0.9, 0.8, 0.2, 0.1}, {0, 0, 1, 1}), 0.0);
}

TEST(Metrics, AucRandomIsHalf) {
  Rng rng(21);
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 20000; ++i) {
    scores.push_back(rng.uniform());
    labels.push_back(rng.bernoulli(0.5) ? 1 : 0);
  }
  EXPECT_NEAR(binary_auc(scores, labels), 0.5, 0.02);
}

TEST(Metrics, AucDegenerateClasses) {
  EXPECT_DOUBLE_EQ(binary_auc({0.1, 0.9}, {1, 1}), 0.5);
  EXPECT_DOUBLE_EQ(binary_auc({0.1, 0.9}, {0, 0}), 0.5);
}

TEST(Metrics, AucHandlesTies) {
  // All scores equal: AUC must be 0.5 by symmetry.
  EXPECT_DOUBLE_EQ(binary_auc({0.5, 0.5, 0.5, 0.5}, {0, 1, 0, 1}), 0.5);
}

TEST(Metrics, ConfusionMatrixCounts) {
  const auto m = confusion_matrix({0, 1, 1, 2}, {0, 1, 2, 2}, 3);
  EXPECT_EQ(m[0][0], 1);
  EXPECT_EQ(m[1][1], 1);
  EXPECT_EQ(m[2][1], 1);
  EXPECT_EQ(m[2][2], 1);
}

TEST(Metrics, LogLossPerfect) {
  const std::vector<std::vector<double>> p{{1.0, 0.0}, {0.0, 1.0}};
  EXPECT_NEAR(log_loss(p, {0, 1}), 0.0, 1e-9);
}

// -------------------------------------------------------------- importance

TEST(Importance, InformativeFeatureDominates) {
  std::vector<int> labels;
  const auto data = xor_like_dataset(labels, 1500, 22);
  GbdtClassifier model;
  GbdtParams params;
  params.num_rounds = 20;
  model.train(data, labels, 2, params);
  Rng rng(23);
  const auto imp = auc_decrease_importance(model, data, labels, rng);
  ASSERT_EQ(imp.size(), 2u);
  for (const auto& ci : imp) {
    // x0 + x1 importance dwarfs the noise feature.
    EXPECT_GT(ci.auc_decrease[0] + ci.auc_decrease[1],
              5.0 * ci.auc_decrease[2]);
  }
}

TEST(Importance, NormalizedPerCategory) {
  std::vector<int> labels;
  const auto data = three_class_dataset(labels, 1200, 24);
  GbdtClassifier model;
  GbdtParams params;
  params.num_rounds = 15;
  model.train(data, labels, 3, params);
  Rng rng(25);
  const auto imp = auc_decrease_importance(model, data, labels, rng);
  for (const auto& ci : imp) {
    double sum = 0.0;
    for (double v : ci.auc_decrease) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

TEST(Importance, GroupAggregation) {
  std::vector<CategoryImportance> imp(1);
  imp[0].category = 0;
  imp[0].auc_decrease = {0.6, 0.2, 0.2};
  const auto groups = group_importance(imp, {0, 1, 1}, 2);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_NEAR(groups[0][0], 0.6, 1e-12);        // single-feature group
  EXPECT_NEAR(groups[1][0], 0.2, 1e-12);        // mean of two features
}

}  // namespace
}  // namespace byom::ml
