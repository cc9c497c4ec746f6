#include "core/labeler.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/stats.h"

namespace byom::core {

namespace {

std::vector<double> equal_width_thresholds(const std::vector<double>& values,
                                           int buckets, bool log_space) {
  std::vector<double> cuts;
  if (values.empty() || buckets < 2) return cuts;
  auto transform = [log_space](double v) {
    return log_space ? std::log(std::max(v, 1e-12)) : v;
  };
  double lo = transform(values.front());
  double hi = lo;
  for (double v : values) {
    lo = std::min(lo, transform(v));
    hi = std::max(hi, transform(v));
  }
  if (!(hi > lo)) return cuts;
  cuts.reserve(static_cast<std::size_t>(buckets) - 1);
  for (int b = 1; b < buckets; ++b) {
    const double t =
        lo + (hi - lo) * static_cast<double>(b) / static_cast<double>(buckets);
    cuts.push_back(log_space ? std::exp(t) : t);
  }
  return cuts;
}

}  // namespace

CategoryLabeler CategoryLabeler::fit(const std::vector<trace::Job>& train_jobs,
                                     int num_categories,
                                     LabelSpacing spacing) {
  if (num_categories < 2) {
    throw std::invalid_argument("CategoryLabeler: need >= 2 categories");
  }
  CategoryLabeler labeler;
  labeler.num_categories_ = num_categories;
  std::vector<double> densities;
  densities.reserve(train_jobs.size());
  for (const auto& j : train_jobs) {
    if (j.tco_saving() >= 0.0) densities.push_back(j.io_density);
  }
  switch (spacing) {
    case LabelSpacing::kEquiDepth:
      labeler.density_thresholds_ = common::equi_depth_thresholds(
          std::move(densities), num_categories - 1);
      break;
    case LabelSpacing::kLinear:
      labeler.density_thresholds_ =
          equal_width_thresholds(densities, num_categories - 1, false);
      break;
    case LabelSpacing::kLogarithmic:
      labeler.density_thresholds_ =
          equal_width_thresholds(densities, num_categories - 1, true);
      break;
  }
  return labeler;
}

int CategoryLabeler::category_of(const trace::Job& job) const {
  if (num_categories_ < 2) {
    throw std::logic_error("CategoryLabeler: not fitted");
  }
  if (job.tco_saving() < 0.0) return 0;
  return 1 + common::bucket_of(job.io_density, density_thresholds_);
}

std::vector<int> CategoryLabeler::label(
    const std::vector<trace::Job>& jobs) const {
  std::vector<int> out;
  out.reserve(jobs.size());
  for (const auto& j : jobs) out.push_back(category_of(j));
  return out;
}

std::vector<int> CategoryLabeler::category_histogram(
    const std::vector<trace::Job>& jobs) const {
  std::vector<int> counts(static_cast<std::size_t>(num_categories_), 0);
  for (const auto& j : jobs) {
    ++counts[static_cast<std::size_t>(category_of(j))];
  }
  return counts;
}

void CategoryLabeler::save(std::ostream& out) const {
  out << "category_labeler v1\n";
  out << num_categories_ << ' ' << density_thresholds_.size() << '\n';
  for (double t : density_thresholds_) out << t << ' ';
  out << '\n';
}

CategoryLabeler CategoryLabeler::load(std::istream& in) {
  std::string tag, version;
  in >> tag >> version;
  if (tag != "category_labeler" || version != "v1") {
    throw std::runtime_error("CategoryLabeler::load: bad header");
  }
  CategoryLabeler labeler;
  std::size_t count = 0;
  in >> labeler.num_categories_ >> count;
  // One threshold at a time, never sized from the header: a corrupt count
  // fails at the first missing value instead of allocating the count.
  for (std::size_t i = 0; in && i < count; ++i) {
    double t = 0.0;
    in >> t;
    labeler.density_thresholds_.push_back(t);
  }
  if (!in) throw std::runtime_error("CategoryLabeler::load: malformed input");
  return labeler;
}

}  // namespace byom::core
