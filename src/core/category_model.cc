#include "core/category_model.h"

#include <fstream>
#include <stdexcept>
#include <string>

#include "ml/dataset_builder.h"
#include "ml/metrics.h"

namespace byom::core {

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
