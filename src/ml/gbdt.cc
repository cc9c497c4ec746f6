#include "ml/gbdt.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/rng.h"
#include "framework/thread_pool.h"

namespace byom::ml {

namespace {

// Numerically stable softmax over raw scores.
void softmax_inplace(std::vector<double>& scores) {
  double m = scores[0];
  for (double s : scores) m = std::max(m, s);
  double sum = 0.0;
  for (double& s : scores) {
    s = std::exp(s - m);
    sum += s;
  }
  for (double& s : scores) s /= sum;
}

// predict() scores into this much stack before falling back to the heap;
// class counts beyond it are far outside the paper's 15-class regime.
constexpr int kStackClasses = 64;

std::vector<std::uint32_t> subsample_rows(std::size_t n, double fraction,
                                          common::Rng& rng) {
  std::vector<std::uint32_t> rows;
  if (fraction >= 1.0) {
    rows.resize(n);
    for (std::size_t i = 0; i < n; ++i) rows[i] = static_cast<std::uint32_t>(i);
    return rows;
  }
  rows.reserve(static_cast<std::size_t>(static_cast<double>(n) * fraction) + 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(fraction)) rows.push_back(static_cast<std::uint32_t>(i));
  }
  if (rows.empty() && n > 0) rows.push_back(0);
  return rows;
}

}  // namespace

void GbdtClassifier::train(const Dataset& data, const std::vector<int>& labels,
                           int num_classes, const GbdtParams& params) {
  if (labels.size() != data.num_rows()) {
    throw std::invalid_argument("GbdtClassifier: labels/rows mismatch");
  }
  if (num_classes < 2) {
    throw std::invalid_argument("GbdtClassifier: need >= 2 classes");
  }
  for (int y : labels) {
    if (y < 0 || y >= num_classes) {
      throw std::invalid_argument("GbdtClassifier: label out of range");
    }
  }
  num_classes_ = num_classes;
  learning_rate_ = params.learning_rate;
  trees_.clear();

  const std::size_t n = data.num_rows();
  const auto k = static_cast<std::size_t>(num_classes);
  if (n == 0) return;

  const Binner binner = Binner::fit(data, params.max_bins);
  const auto codes = binner.transform(data);

  // Raw scores F[k * n + i], plus each row's softmax max and normaliser
  // over the round's starting scores: p_k = exp(F_k - max) / sum, the same
  // bits softmax_inplace produces.
  std::vector<double> scores(k * n, 0.0);
  std::vector<double> row_max(n), row_sum(n);
  common::Rng rng(params.seed);

  // A round's class trees are independent: class c's gradients read only
  // the round's starting scores, and its tree updates only F_c. So one
  // worker per class stride fits them in parallel, with the same bits at
  // any worker count. Everything a worker touches is sized here, on the
  // calling thread: a worker that allocated would get its own malloc arena
  // and grow resident memory for nothing.
  struct Worker {
    Worker(std::size_t n, const TreeParams& tree)
        : grad(n), hess(n), scratch(n, tree) {}
    std::vector<double> grad, hess;
    RegressionTree::Scratch scratch;
  };
  const std::size_t num_workers =
      std::min(k, framework::resolve_shard_count(0));
  std::vector<Worker> workers;
  workers.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    workers.emplace_back(n, params.tree);
  }
  std::vector<RegressionTree> round_trees(k);
  for (auto& tree : round_trees) {
    tree.reserve(workers.front().scratch.max_nodes());
  }
  std::vector<std::uint32_t> rows;
  const auto fit_class = [&](std::size_t c, Worker& worker) {
    double* const f = scores.data() + c * n;
    for (std::size_t i = 0; i < n; ++i) {
      const double p = std::exp(f[i] - row_max[i]) / row_sum[i];
      const double y = labels[i] == static_cast<int>(c) ? 1.0 : 0.0;
      worker.grad[i] = p - y;
      worker.hess[i] = std::max(p * (1.0 - p), 1e-6);
    }
    worker.scratch.rows.assign(rows.begin(), rows.end());
    RegressionTree& tree = round_trees[c];
    tree.fit_in_place(codes, binner, worker.grad, worker.hess, params.tree,
                      worker.scratch);
    for (std::size_t i = 0; i < n; ++i) {
      f[i] += learning_rate_ * tree.predict(data.row(i));
    }
  };
  // Row i's softmax max and normaliser over the round's starting scores.
  // Rows are independent, so the pool's workers split them.
  const auto normalise_row = [&](std::size_t i) {
    double m = scores[i];
    for (std::size_t j = 0; j < k; ++j) m = std::max(m, scores[j * n + i]);
    double sum = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      sum += std::exp(scores[j * n + i] - m);
    }
    row_max[i] = m;
    row_sum[i] = sum;
  };
  framework::ThreadPool pool(num_workers);

  const int max_rounds =
      std::min(params.num_rounds,
               std::max(1, params.max_trees_total / num_classes));
  for (int round = 0; round < max_rounds; ++round) {
    rows = subsample_rows(n, params.row_subsample, rng);
    pool.parallel_for(0, n, normalise_row);
    pool.parallel_for(0, num_workers, [&](std::size_t w) {
      for (std::size_t c = w; c < k; c += num_workers) {
        fit_class(c, workers[w]);
      }
    });
    trees_.insert(trees_.end(), round_trees.begin(), round_trees.end());
  }
  recompile();
}

void GbdtClassifier::recompile() {
  forest_ = num_classes_ > 0
                ? FlatForest::compile(trees_, num_classes_, learning_rate_)
                : FlatForest{};
}

std::size_t GbdtClassifier::num_trees() const { return trees_.size(); }

std::vector<double> GbdtClassifier::scores(const float* features) const {
  std::vector<double> out(static_cast<std::size_t>(num_classes_), 0.0);
  if (forest_.compiled()) {
    forest_.score_into(features, out.data());
  }
  return out;
}

void GbdtClassifier::scores_into(const float* features, double* out) const {
  forest_.score_into(features, out);
}

std::vector<double> GbdtClassifier::predict_proba(
    const float* features) const {
  auto s = scores(features);
  softmax_inplace(s);
  return s;
}

int GbdtClassifier::predict(const float* features) const {
  const auto k = static_cast<std::size_t>(num_classes_);
  double stack[kStackClasses];
  std::vector<double> heap;
  double* buf = stack;
  if (num_classes_ > kStackClasses) {
    heap.resize(k);
    buf = heap.data();
  }
  forest_.score_into(features, buf);
  return static_cast<int>(std::max_element(buf, buf + k) - buf);
}

void GbdtClassifier::scores_batch(const float* const* rows, std::size_t n,
                                  double* out) const {
  if (!forest_.compiled()) {
    scores_batch_nodeblock(rows, n, out);
    return;
  }
  forest_.score_rows(rows, n, out);
}

void GbdtClassifier::scores_batch(const float* base, std::size_t row_stride,
                                  std::size_t n, double* out) const {
  forest_.score_strided(base, row_stride, n, out);
}

void GbdtClassifier::scores_batch_nodeblock(const float* const* rows,
                                            std::size_t n,
                                            double* out) const {
  const auto k = static_cast<std::size_t>(num_classes_);
  std::fill(out, out + n * k, 0.0);
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    trees_[t].predict_many(rows, n, learning_rate_, out + t % k, k);
  }
}

namespace {

// Deterministic per-row argmax over a scores block (ties break toward the
// lower class id, like std::max_element).
void argmax_rows(const double* scores, std::size_t n, std::size_t k,
                 int* out) {
  for (std::size_t r = 0; r < n; ++r) {
    const double* row = scores + r * k;
    out[r] = static_cast<int>(std::max_element(row, row + k) - row);
  }
}

}  // namespace

std::vector<int> GbdtClassifier::predict_batch(const float* const* rows,
                                               std::size_t n) const {
  const auto k = static_cast<std::size_t>(num_classes_);
  std::vector<double> scores(n * k);
  scores_batch(rows, n, scores.data());
  std::vector<int> out(n);
  argmax_rows(scores.data(), n, k, out.data());
  return out;
}

std::vector<int> GbdtClassifier::predict_batch(const float* base,
                                               std::size_t row_stride,
                                               std::size_t n) const {
  std::vector<double> scores(n * static_cast<std::size_t>(num_classes_));
  std::vector<int> out(n);
  predict_batch(base, row_stride, n, scores.data(), out.data());
  return out;
}

void GbdtClassifier::predict_batch(const float* base, std::size_t row_stride,
                                   std::size_t n, double* scores,
                                   int* out) const {
  scores_batch(base, row_stride, n, scores);
  argmax_rows(scores, n, static_cast<std::size_t>(num_classes_), out);
}

void GbdtClassifier::save(std::ostream& out) const {
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "gbdt_classifier v1\n";
  out << num_classes_ << ' ' << trees_.size() << ' ' << learning_rate_ << '\n';
  for (const auto& t : trees_) t.save(out);
}

GbdtClassifier GbdtClassifier::load(std::istream& in) {
  std::string tag, version;
  in >> tag >> version;
  if (tag != "gbdt_classifier" || version != "v1") {
    throw std::runtime_error("GbdtClassifier::load: bad header");
  }
  GbdtClassifier model;
  std::size_t num_trees = 0;
  in >> model.num_classes_ >> num_trees >> model.learning_rate_;
  if (!in || model.num_classes_ <= 0) {
    throw std::runtime_error("GbdtClassifier::load: bad header");
  }
  // Tree by tree, never reserved from the header: each RegressionTree::load
  // throws at the first missing tree.
  for (std::size_t i = 0; i < num_trees; ++i) {
    model.trees_.push_back(RegressionTree::load(in));
  }
  model.recompile();
  return model;
}

void GbdtClassifier::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write model file: " + path);
  save(out);
}

GbdtClassifier GbdtClassifier::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read model file: " + path);
  return load(in);
}

std::vector<int> GbdtClassifier::split_counts(
    std::size_t num_features) const {
  std::vector<int> counts(num_features, 0);
  for (const auto& t : trees_) t.add_split_counts(counts);
  return counts;
}

void GbdtRegressor::train(const Dataset& data,
                          const std::vector<double>& targets,
                          const GbdtParams& params) {
  if (targets.size() != data.num_rows()) {
    throw std::invalid_argument("GbdtRegressor: targets/rows mismatch");
  }
  trees_.clear();
  learning_rate_ = params.learning_rate;
  const std::size_t n = data.num_rows();
  if (n == 0) {
    base_ = 0.0;
    return;
  }
  double sum = 0.0;
  for (double t : targets) sum += t;
  base_ = sum / static_cast<double>(n);

  const Binner binner = Binner::fit(data, params.max_bins);
  const auto codes = binner.transform(data);

  std::vector<double> pred(n, base_), grad(n), hess(n, 1.0);
  common::Rng rng(params.seed ^ 0xA5A5A5A5ULL);
  const int rounds = std::min(params.num_rounds, params.max_trees_total);
  for (int round = 0; round < rounds; ++round) {
    const auto rows = subsample_rows(n, params.row_subsample, rng);
    for (std::size_t i = 0; i < n; ++i) grad[i] = pred[i] - targets[i];
    RegressionTree tree =
        RegressionTree::fit(codes, binner, grad, hess, rows, params.tree);
    for (std::size_t i = 0; i < n; ++i) {
      pred[i] += learning_rate_ * tree.predict(data.row(i));
    }
    trees_.push_back(std::move(tree));
  }
  recompile();
}

void GbdtRegressor::recompile() {
  // A regressor is the single-class forest with the mean target as base.
  forest_ = FlatForest::compile(trees_, 1, learning_rate_, base_);
}

double GbdtRegressor::predict(const float* features) const {
  if (!forest_.compiled()) return predict_nodeblock(features);
  double out = 0.0;
  forest_.score_into(features, &out);
  return out;
}

double GbdtRegressor::predict_nodeblock(const float* features) const {
  double out = base_;
  for (const auto& t : trees_) out += learning_rate_ * t.predict(features);
  return out;
}

void GbdtRegressor::predict_batch(const float* base, std::size_t row_stride,
                                  std::size_t n, double* out) const {
  if (!forest_.compiled()) {
    for (std::size_t r = 0; r < n; ++r) {
      out[r] = predict_nodeblock(base + r * row_stride);
    }
    return;
  }
  forest_.score_strided(base, row_stride, n, out);
}

void GbdtRegressor::save(std::ostream& out) const {
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "gbdt_regressor v1\n";
  out << trees_.size() << ' ' << base_ << ' ' << learning_rate_ << '\n';
  for (const auto& t : trees_) t.save(out);
}

GbdtRegressor GbdtRegressor::load(std::istream& in) {
  std::string tag, version;
  in >> tag >> version;
  if (tag != "gbdt_regressor" || version != "v1") {
    throw std::runtime_error("GbdtRegressor::load: bad header");
  }
  GbdtRegressor model;
  std::size_t num_trees = 0;
  in >> num_trees >> model.base_ >> model.learning_rate_;
  if (!in) throw std::runtime_error("GbdtRegressor::load: bad header");
  // Tree by tree, never reserved from the header (see GbdtClassifier).
  for (std::size_t i = 0; i < num_trees; ++i) {
    model.trees_.push_back(RegressionTree::load(in));
  }
  model.recompile();
  return model;
}

}  // namespace byom::ml
