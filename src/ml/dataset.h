// Feature matrix for the GBDT: dense row-major floats with named columns,
// plus quantile binning used by the histogram tree learner.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace byom::ml {

class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::vector<std::string> feature_names);

  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_features() const { return feature_names_.size(); }
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }

  // Appends one row; `row` must have num_features() entries.
  void add_row(const std::vector<float>& row);

  const float* row(std::size_t r) const {
    return values_.data() + r * num_features();
  }
  float at(std::size_t r, std::size_t f) const { return row(r)[f]; }
  void set(std::size_t r, std::size_t f, float v) {
    values_[r * num_features() + f] = v;
  }

  // Index of a named feature; throws std::out_of_range if absent.
  std::size_t feature_index(const std::string& name) const;

 private:
  std::vector<std::string> feature_names_;
  std::vector<float> values_;  // row-major
  std::size_t num_rows_ = 0;
};

// Quantile binner: maps raw feature values to small integer bins. Bin
// `b` covers (upper_edge[b-1], upper_edge[b]]; values above the last edge
// land in the last bin.
class Binner {
 public:
  // Builds <= max_bins quantile bins per feature from the dataset;
  // max_bins must lie in [2, 256].
  static Binner fit(const Dataset& data, int max_bins);

  int num_bins(std::size_t feature) const {
    return static_cast<int>(edges_[feature].size()) + 1;
  }
  // Upper edge separating bin b from b+1 (the raw threshold a tree split
  // on bin b should store).
  float upper_edge(std::size_t feature, int bin) const {
    return edges_[feature][static_cast<std::size_t>(bin)];
  }
  std::uint8_t bin_of(std::size_t feature, float value) const;

  // Bin codes for the whole dataset, column-major: codes[f][r].
  std::vector<std::vector<std::uint8_t>> transform(const Dataset& data) const;

 private:
  std::vector<std::vector<float>> edges_;  // per feature, ascending
};

}  // namespace byom::ml
