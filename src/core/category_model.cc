#include "core/category_model.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <string>

#include "ml/dataset_builder.h"
#include "ml/metrics.h"

namespace byom::core {

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

CategoryModel CategoryModel::train(const std::vector<trace::Job>& train_jobs,
                                   const CategoryModelConfig& config) {
  if (train_jobs.empty()) {
    throw std::invalid_argument("CategoryModel::train: empty training set");
  }
  CategoryModel model;
  model.labeler_ = CategoryLabeler::fit(train_jobs, config.num_categories);
  const auto labels = model.labeler_.label(train_jobs);
  const auto data = ml::make_dataset(model.extractor_, train_jobs);
  model.classifier_.train(data, labels, config.num_categories, config.gbdt);
  return model;
}

namespace {

// Per-thread feature row for single-job prediction: it grows to the
// widest extractor the thread has used and then stays, so per-job
// inference extracts without allocating (the synchronous registry
// provider predicts every job through here).
const float* extract_row(const features::FeatureExtractor& extractor,
                         const trace::Job& job) {
  thread_local std::vector<float> row;
  row.resize(extractor.num_features());
  extractor.extract_into(job, common::Span<float>(row.data(), row.size()));
  return row.data();
}

}  // namespace

// hotpath: per-job synchronous inference.
int CategoryModel::predict_category(const trace::Job& job) const {
  return classifier_.predict(extract_row(extractor_, job));
}

int CategoryModel::true_category(const trace::Job& job) const {
  return labeler_.category_of(job);
}

std::vector<int> CategoryModel::predict_batch(
    common::Span<const FeatureRow> rows) const {
  std::vector<const float*> pointers(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) pointers[i] = rows[i].values;
  return classifier_.predict_batch(pointers.data(), pointers.size());
}

std::vector<int> CategoryModel::predict_categories(
    const std::vector<trace::Job>& jobs) const {
  return predict_categories(jobs, nullptr);
}

std::vector<int> CategoryModel::predict_categories(
    const std::vector<trace::Job>& jobs,
    const features::FeatureMatrix* matrix) const {
  std::vector<const trace::Job*> pointers;
  pointers.reserve(jobs.size());
  for (const auto& job : jobs) pointers.push_back(&job);
  std::vector<float> scratch;
  const auto block = gather_feature_block(
      extractor_,
      common::Span<const trace::Job* const>(pointers.data(), pointers.size()),
      matrix, scratch);
  return classifier_.predict_batch(block.base, block.stride, block.num_rows);
}

double CategoryModel::top1_accuracy(
    const std::vector<trace::Job>& test_jobs) const {
  if (test_jobs.empty()) return 0.0;
  std::size_t hits = 0;
  for (const auto& j : test_jobs) {
    if (predict_category(j) == true_category(j)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(test_jobs.size());
}

void CategoryModel::save(std::ostream& out) const {
  out << "category_model v1\n";
  labeler_.save(out);
  classifier_.save(out);
}

CategoryModel CategoryModel::load(std::istream& in) {
  std::string tag, version;
  in >> tag >> version;
  if (tag != "category_model" || version != "v1") {
    throw std::runtime_error("CategoryModel::load: bad header");
  }
  CategoryModel model;
  model.labeler_ = CategoryLabeler::load(in);
  model.classifier_ = ml::GbdtClassifier::load(in);
  // predict_category scores a num_features()-float row; a split past it
  // would read out of bounds.
  const std::size_t width = model.extractor_.num_features();
  if (model.classifier_.compiled_forest().row_width() > width) {
    throw std::runtime_error("CategoryModel::load: split feature outside the " +
                             std::to_string(width) + "-feature row");
  }
  return model;
}

void CategoryModel::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write model file: " + path);
  save(out);
}

CategoryModel CategoryModel::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read model file: " + path);
  return load(in);
}

}  // namespace byom::core
