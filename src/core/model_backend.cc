#include "core/model_backend.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/labeler.h"
#include "features/feature_extractor.h"

namespace byom::core {

std::vector<int> ModelBackend::predict_batch(
    common::Span<const trace::Job* const> jobs) const {
  std::vector<int> categories;
  categories.reserve(jobs.size());
  for (const trace::Job* job : jobs) {
    categories.push_back(predict_category(*job));
  }
  return categories;
}

std::vector<int> ModelBackend::predict_batch(
    common::Span<const trace::Job* const> jobs,
    const features::FeatureMatrix* /*matrix*/) const {
  // Backends that do not consume Table-2 features (the frequency table)
  // have nothing to gain from the matrix: identical to the plain batch.
  return predict_batch(jobs);
}

std::vector<int> ModelBackend::predict_batch(
    const std::vector<trace::Job>& jobs) const {
  std::vector<const trace::Job*> pointers;
  pointers.reserve(jobs.size());
  for (const auto& job : jobs) pointers.push_back(&job);
  return predict_batch(common::Span<const trace::Job* const>(
      pointers.data(), pointers.size()));
}

void ModelBackend::predict_into(common::Span<const trace::Job* const> jobs,
                                const features::FeatureMatrix* matrix,
                                common::Span<int> out) const {
  const std::vector<int> categories = predict_batch(jobs, matrix);
  std::copy(categories.begin(), categories.end(), out.begin());
}

const char* backend_kind_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kGbdt: return "gbdt";
    case BackendKind::kLogistic: return "logistic";
    case BackendKind::kFrequency: return "frequency";
  }
  return "unknown";
}

namespace {

// Per-thread inference scratch for predict_into: it grows to the largest
// batch the thread has predicted and then stays, so steady-state serving
// predicts without allocating. Per thread, not per backend, because one
// backend serves every shard and worker concurrently.
struct InferenceScratch {
  std::vector<float> features;
  std::vector<double> values;
};

InferenceScratch& thread_scratch() {
  thread_local InferenceScratch scratch;
  return scratch;
}

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
// the returned block.
FeatureBlock gather_feature_block(const features::FeatureExtractor& extractor,
                                  common::Span<const trace::Job* const> jobs,
                                  const features::FeatureMatrix* matrix,
                                  std::vector<float>& scratch) {
  const std::size_t width = extractor.num_features();
  const std::size_t n = jobs.size();
  if (matrix != nullptr && matrix->num_features() != width) {
    matrix = nullptr;
  }
  if (n == 0) return FeatureBlock{nullptr, width, 0};

  if (matrix != nullptr) {
    // Alias fast path: a batch that is exactly a run of consecutive matrix
    // rows (the common shape — a trace scored against the matrix built
    // from it) reads the matrix storage in place, zero copies.
    const std::ptrdiff_t first = matrix->row_index(jobs[0]->job_id);
    if (first >= 0) {
      std::size_t run = 1;
      while (run < n &&
             matrix->row_index(jobs[run]->job_id) ==
                 first + static_cast<std::ptrdiff_t>(run)) {
        ++run;
      }
      if (run == n) {
        return FeatureBlock{matrix->row(static_cast<std::size_t>(first)),
                            matrix->row_stride(), n};
      }
    }
  }

  // Packed path: one contiguous scratch block, matrix rows copied in, jobs
  // outside the matrix extracted in place.
  scratch.resize(n * width);
  for (std::size_t i = 0; i < n; ++i) {
    float* row = scratch.data() + i * width;
    const float* from =
        matrix != nullptr ? matrix->find(jobs[i]->job_id) : nullptr;
    if (from != nullptr) {
      std::copy(from, from + width, row);
    } else {
      extractor.extract_into(*jobs[i], common::Span<float>(row, width));
    }
  }
  return FeatureBlock{scratch.data(), width, n};
}

// ------------------------------------------------------------------- GBDT

class GbdtBackend final : public ModelBackend {
 public:
  explicit GbdtBackend(std::shared_ptr<const CategoryModel> model)
      : model_(std::move(model)) {
    if (!model_) {
      throw std::invalid_argument("make_gbdt_backend: null model");
    }
  }

  std::string name() const override { return "gbdt"; }
  int num_categories() const override { return model_->num_categories(); }

  int predict_category(const trace::Job& job) const override {
    return model_->predict_category(job);
  }

  // The compiled flat-forest batched traversal; bit-identical to per-job
  // prediction by CategoryModel's own contract.
  std::vector<int> predict_batch(
      common::Span<const trace::Job* const> jobs) const override {
    return predict_batch(jobs, nullptr);
  }

  std::vector<int> predict_batch(
      common::Span<const trace::Job* const> jobs,
      const features::FeatureMatrix* matrix) const override {
    std::vector<int> categories(jobs.size());
    predict_into(jobs, matrix, categories);
    return categories;
  }

  // hotpath: the served GBDT batch. With a shared matrix, the gatherer
  // aliases the contiguous matrix block when the jobs resolve to
  // consecutive rows (zero copies) and otherwise packs the thread's
  // scratch block; either way the compiled kernel reads a strided block
  // into the thread's score scratch — no per-row staging, no allocation.
  void predict_into(common::Span<const trace::Job* const> jobs,
                    const features::FeatureMatrix* matrix,
                    common::Span<int> out) const override {
    InferenceScratch& scratch = thread_scratch();
    const FeatureBlock block = gather_feature_block(
        model_->extractor(), jobs, matrix, scratch.features);
    const ml::GbdtClassifier& classifier = model_->classifier();
    scratch.values.resize(jobs.size() *
                          static_cast<std::size_t>(classifier.num_classes()));
    classifier.predict_batch(block.base, block.stride, block.num_rows,
                             scratch.values.data(), out.data());
  }

 private:
  std::shared_ptr<const CategoryModel> model_;
};

// --------------------------------------------------------------- logistic

// Multinomial logistic regression over the Table-2 feature vector:
// standardized features, full-batch gradient descent on the softmax
// cross-entropy. Everything a small workload needs from a model it can
// retrain in milliseconds.
class LogisticBackend final : public ModelBackend {
 public:
  LogisticBackend(const std::vector<trace::Job>& history,
                  const BackendConfig& config) {
    if (history.empty()) {
      throw std::invalid_argument("train_backend: empty training history");
    }
    labeler_ = CategoryLabeler::fit(history, config.model.num_categories);
    num_categories_ = labeler_.num_categories();
    num_features_ = extractor_.num_features();

    // Deterministic subsample: exactly min(cap, |history|) evenly spaced
    // rows — bounded training cost on big histories, no seed-dependent row
    // choice, and no undershoot just above the cap boundary.
    std::vector<const trace::Job*> rows;
    const std::size_t cap =
        config.logistic_max_rows > 0 ? config.logistic_max_rows
                                     : history.size();
    const std::size_t n = std::min(cap, history.size());
    rows.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      rows.push_back(&history[i * history.size() / n]);
    }

    std::vector<float> features(n * num_features_);
    std::vector<int> labels(n);
    for (std::size_t r = 0; r < n; ++r) {
      extractor_.extract_into(
          *rows[r], common::Span<float>(features.data() + r * num_features_,
                                        num_features_));
      labels[r] = labeler_.category_of(*rows[r]);
    }

    fit_standardization(features, n);
    for (std::size_t r = 0; r < n; ++r) {
      standardize(features.data() + r * num_features_);
    }

    // Weights: per class, num_features_ coefficients + bias.
    const std::size_t stride_w = num_features_ + 1;
    weights_.assign(static_cast<std::size_t>(num_categories_) * stride_w,
                    0.0);
    std::vector<double> logits(static_cast<std::size_t>(num_categories_));
    std::vector<double> gradient(weights_.size());
    const double scale = 1.0 / static_cast<double>(n);
    for (int epoch = 0; epoch < config.logistic_epochs; ++epoch) {
      std::fill(gradient.begin(), gradient.end(), 0.0);
      for (std::size_t r = 0; r < n; ++r) {
        const float* x = features.data() + r * num_features_;
        scores(x, logits.data());
        softmax_in_place(logits.data());
        for (int k = 0; k < num_categories_; ++k) {
          const double err =
              logits[static_cast<std::size_t>(k)] - (labels[r] == k ? 1.0 : 0.0);
          double* g = gradient.data() + static_cast<std::size_t>(k) * stride_w;
          for (std::size_t f = 0; f < num_features_; ++f) {
            g[f] += err * static_cast<double>(x[f]);
          }
          g[num_features_] += err;  // bias
        }
      }
      for (std::size_t w = 0; w < weights_.size(); ++w) {
        weights_[w] -= config.logistic_learning_rate * scale * gradient[w];
      }
    }
  }

  std::string name() const override { return "logistic"; }
  int num_categories() const override { return num_categories_; }

  int predict_category(const trace::Job& job) const override {
    const trace::Job* const one = &job;
    int category = 0;
    predict_into(common::Span<const trace::Job* const>(&one, 1), nullptr,
                 common::Span<int>(&category, 1));
    return category;
  }

  std::vector<int> predict_batch(
      common::Span<const trace::Job* const> jobs) const override {
    return predict_batch(jobs, nullptr);
  }

  std::vector<int> predict_batch(
      common::Span<const trace::Job* const> jobs,
      const features::FeatureMatrix* matrix) const override {
    std::vector<int> categories(jobs.size());
    predict_into(jobs, matrix, categories);
    return categories;
  }

  // hotpath: one scratch row and one logits row, both the thread's: matrix
  // rows (immutable, shared) are copied into the row before
  // standardization, jobs outside the matrix are extracted into it; then
  // standardize -> score -> argmax, the same arithmetic for every caller.
  void predict_into(common::Span<const trace::Job* const> jobs,
                    const features::FeatureMatrix* matrix,
                    common::Span<int> out) const override {
    if (matrix != nullptr && matrix->num_features() != num_features_) {
      matrix = nullptr;
    }
    InferenceScratch& scratch = thread_scratch();
    scratch.features.resize(num_features_);
    scratch.values.resize(static_cast<std::size_t>(num_categories_));
    float* x = scratch.features.data();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const float* row =
          matrix != nullptr ? matrix->find(jobs[i]->job_id) : nullptr;
      if (row != nullptr) {
        std::copy(row, row + num_features_, x);
      } else {
        extractor_.extract_into(*jobs[i],
                                common::Span<float>(x, num_features_));
      }
      out[i] = predict_in_place(x, scratch.values.data());
    }
  }

 private:
  // Standardizes `x` in place, scores every class into `logits`, and
  // returns the deterministic argmax (ties break toward the lower id).
  int predict_in_place(float* x, double* logits) const {
    standardize(x);
    scores(x, logits);
    int best = 0;
    for (int k = 1; k < num_categories_; ++k) {
      if (logits[static_cast<std::size_t>(k)] >
          logits[static_cast<std::size_t>(best)]) {
        best = k;
      }
    }
    return best;
  }

  void fit_standardization(const std::vector<float>& features,
                           std::size_t n) {
    means_.assign(num_features_, 0.0);
    scales_.assign(num_features_, 1.0);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t f = 0; f < num_features_; ++f) {
        means_[f] += static_cast<double>(features[r * num_features_ + f]);
      }
    }
    for (auto& m : means_) m /= static_cast<double>(n);
    std::vector<double> variance(num_features_, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t f = 0; f < num_features_; ++f) {
        const double d =
            static_cast<double>(features[r * num_features_ + f]) - means_[f];
        variance[f] += d * d;
      }
    }
    for (std::size_t f = 0; f < num_features_; ++f) {
      const double stddev = std::sqrt(variance[f] / static_cast<double>(n));
      scales_[f] = stddev > 1e-12 ? 1.0 / stddev : 0.0;  // constant: drop
    }
  }

  void standardize(float* x) const {
    for (std::size_t f = 0; f < num_features_; ++f) {
      x[f] = static_cast<float>((static_cast<double>(x[f]) - means_[f]) *
                                scales_[f]);
    }
  }

  void scores(const float* x, double* out) const {
    const std::size_t stride = num_features_ + 1;
    for (int k = 0; k < num_categories_; ++k) {
      const double* w = weights_.data() + static_cast<std::size_t>(k) * stride;
      double s = w[num_features_];
      for (std::size_t f = 0; f < num_features_; ++f) {
        s += w[f] * static_cast<double>(x[f]);
      }
      out[static_cast<std::size_t>(k)] = s;
    }
  }

  void softmax_in_place(double* logits) const {
    double max = logits[0];
    for (int k = 1; k < num_categories_; ++k) {
      max = std::max(max, logits[static_cast<std::size_t>(k)]);
    }
    double sum = 0.0;
    for (int k = 0; k < num_categories_; ++k) {
      auto& v = logits[static_cast<std::size_t>(k)];
      v = std::exp(v - max);
      sum += v;
    }
    for (int k = 0; k < num_categories_; ++k) {
      logits[static_cast<std::size_t>(k)] /= sum;
    }
  }

  features::FeatureExtractor extractor_;
  CategoryLabeler labeler_;
  int num_categories_ = 0;
  std::size_t num_features_ = 0;
  std::vector<double> means_;
  std::vector<double> scales_;
  std::vector<double> weights_;  // [class][feature..., bias]
};

// -------------------------------------------------------------- frequency

// Majority-category table over the recurring job identity: job_key first,
// then pipeline, then the global majority. No features, no iteration — the
// cheapest model a workload can bring, and a strong one for recurring
// analytics pipelines whose steps behave alike run after run.
class FrequencyBackend final : public ModelBackend {
 public:
  FrequencyBackend(const std::vector<trace::Job>& history,
                   const BackendConfig& config) {
    if (history.empty()) {
      throw std::invalid_argument("train_backend: empty training history");
    }
    labeler_ = CategoryLabeler::fit(history, config.model.num_categories);

    std::unordered_map<std::string, std::vector<int>> key_counts;
    std::unordered_map<std::string, std::vector<int>> pipeline_counts;
    std::vector<int> global_counts(
        static_cast<std::size_t>(labeler_.num_categories()), 0);
    const auto bump = [&](std::vector<int>& counts, int category) {
      if (counts.empty()) {
        counts.assign(static_cast<std::size_t>(labeler_.num_categories()), 0);
      }
      ++counts[static_cast<std::size_t>(category)];
    };
    for (const auto& job : history) {
      const int category = labeler_.category_of(job);
      bump(key_counts[job.job_key], category);
      bump(pipeline_counts[job.pipeline_name], category);
      ++global_counts[static_cast<std::size_t>(category)];
    }
    for (const auto& [key, counts] : key_counts) {
      by_key_.emplace(key, majority(counts));
    }
    for (const auto& [pipeline, counts] : pipeline_counts) {
      by_pipeline_.emplace(pipeline, majority(counts));
    }
    global_ = majority(global_counts);
  }

  std::string name() const override { return "frequency"; }
  int num_categories() const override { return labeler_.num_categories(); }

  int predict_category(const trace::Job& job) const override {
    if (const auto it = by_key_.find(job.job_key); it != by_key_.end()) {
      return it->second;
    }
    if (const auto it = by_pipeline_.find(job.pipeline_name);
        it != by_pipeline_.end()) {
      return it->second;
    }
    return global_;
  }

  // hotpath: table probes only (string-keyed finds, no allocation).
  void predict_into(common::Span<const trace::Job* const> jobs,
                    const features::FeatureMatrix* /*matrix*/,
                    common::Span<int> out) const override {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      out[i] = predict_category(*jobs[i]);
    }
  }

 private:
  // Deterministic majority: ties break toward the lower category id.
  static int majority(const std::vector<int>& counts) {
    int best = 0;
    for (int k = 1; k < static_cast<int>(counts.size()); ++k) {
      if (counts[static_cast<std::size_t>(k)] >
          counts[static_cast<std::size_t>(best)]) {
        best = k;
      }
    }
    return best;
  }

  CategoryLabeler labeler_;
  std::unordered_map<std::string, int> by_key_;
  std::unordered_map<std::string, int> by_pipeline_;
  int global_ = 0;
};

}  // namespace

ModelBackendPtr make_gbdt_backend(
    std::shared_ptr<const CategoryModel> model) {
  return std::make_shared<GbdtBackend>(std::move(model));
}

ModelBackendPtr train_backend(BackendKind kind,
                              const std::vector<trace::Job>& history,
                              const BackendConfig& config) {
  switch (kind) {
    case BackendKind::kGbdt:
      return make_gbdt_backend(std::make_shared<const CategoryModel>(
          CategoryModel::train(history, config.model)));
    case BackendKind::kLogistic:
      return std::make_shared<LogisticBackend>(history, config);
    case BackendKind::kFrequency:
      return std::make_shared<FrequencyBackend>(history, config);
  }
  throw std::invalid_argument("train_backend: unknown backend kind");
}

}  // namespace byom::core
