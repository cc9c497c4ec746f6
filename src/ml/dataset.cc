#include "ml/dataset.h"

#include <algorithm>
#include <stdexcept>

namespace byom::ml {

Dataset::Dataset(std::vector<std::string> feature_names)
    : feature_names_(std::move(feature_names)) {}

void Dataset::add_row(const std::vector<float>& row) {
  if (row.size() != num_features()) {
    throw std::invalid_argument("Dataset::add_row: wrong feature count");
  }
  values_.insert(values_.end(), row.begin(), row.end());
  ++num_rows_;
}

std::size_t Dataset::feature_index(const std::string& name) const {
  for (std::size_t i = 0; i < feature_names_.size(); ++i) {
    if (feature_names_[i] == name) return i;
  }
  throw std::out_of_range("Dataset: unknown feature " + name);
}

Binner Binner::fit(const Dataset& data, int max_bins) {
  if (max_bins < 2) throw std::invalid_argument("Binner: max_bins >= 2");
  // Codes are uint8, and the tree builder's histograms hold 256 bins.
  if (max_bins > 256) throw std::invalid_argument("Binner: max_bins <= 256");
  Binner binner;
  binner.edges_.resize(data.num_features());
  std::vector<float> column(data.num_rows());
  for (std::size_t f = 0; f < data.num_features(); ++f) {
    for (std::size_t r = 0; r < data.num_rows(); ++r) {
      column[r] = data.at(r, f);
    }
    std::sort(column.begin(), column.end());
    auto& edges = binner.edges_[f];
    edges.clear();
    if (column.empty()) continue;
    // Candidate edges at quantile positions; dedup keeps bins well-defined
    // for low-cardinality features.
    for (int b = 1; b < max_bins; ++b) {
      const std::size_t pos =
          std::min(column.size() - 1,
                   static_cast<std::size_t>(
                       static_cast<double>(b) * static_cast<double>(column.size()) /
                       static_cast<double>(max_bins)));
      const float edge = column[pos];
      if (edges.empty() || edge > edges.back()) edges.push_back(edge);
    }
    // Drop a trailing edge equal to the max so the last bin is non-empty.
    while (!edges.empty() && edges.back() >= column.back()) edges.pop_back();
  }
  return binner;
}

std::uint8_t Binner::bin_of(std::size_t feature, float value) const {
  const auto& edges = edges_[feature];
  // Bin b covers (edge[b-1], edge[b]]: the first edge >= value names the bin.
  const auto it = std::lower_bound(edges.begin(), edges.end(), value);
  const auto bin = static_cast<std::size_t>(it - edges.begin());
  return static_cast<std::uint8_t>(std::min<std::size_t>(bin, 255));
}

std::vector<std::vector<std::uint8_t>> Binner::transform(
    const Dataset& data) const {
  std::vector<std::vector<std::uint8_t>> codes(data.num_features());
  for (std::size_t f = 0; f < data.num_features(); ++f) {
    codes[f].resize(data.num_rows());
    for (std::size_t r = 0; r < data.num_rows(); ++r) {
      codes[f][r] = bin_of(f, data.at(r, f));
    }
  }
  return codes;
}

}  // namespace byom::ml
