// CategoryProvider — the single seam between category *production* (models,
// precomputed hint tables, served inference, hashes) and category
// *consumption* (Algorithm 1 and anything else that ranks jobs).
//
// The paper's cross-layer contract deliberately decouples the two sides:
// the storage layer consumes whatever hint is ready at decision time and
// falls back gracefully when none is (section 2.3, section 6 dynamics).
// A provider therefore returns std::optional<int>: a category in
// [0, num_categories) when it has an opinion, std::nullopt when it
// declines (no model, hint not computed yet, deadline missed). Composition
// is explicit via make_fallback_chain(); the terminal robust fallback is
// make_hash_provider(), which never declines.
//
// Provider hierarchy:
//   make_hash_provider         uniform hash onto [1, N-1]; never declines
//   make_precomputed_provider  lookup into a batched-inference hint table
//   make_function_provider     adapter for ad-hoc closures
//   make_fallback_chain        first provider with an opinion wins
//   make_noisy_provider        decorator flipping a seeded fraction of
//                              hints (noisy-hint sensitivity studies)
//   SwappableHintsProvider     a window's precomputed hint table, swapped
//                              per window by a streaming cell
//   core::make_registry_provider  synchronous per-job inference through a
//                              ModelRegistry (see core/byom.h)
//   serving::make_served_provider  async hints from a PlacementService
//                              (see serving/placement_service.h)
//
// Model inference reaches a provider only through a ModelRegistry: the
// registry provider per job, or a table that core::precompute_categories
// filled in one batched pass.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/job.h"

namespace byom::core {

// Precomputed per-job category hints (job_id -> category), typically filled
// by one core::precompute_categories pass so the online decision loop never
// touches the model.
using CategoryHints = std::unordered_map<std::uint64_t, int>;

class CategoryProvider {
 public:
  virtual ~CategoryProvider() = default;

  virtual std::string name() const = 0;

  // The category hint for `job`, or std::nullopt when this provider has no
  // opinion (consumer falls back). Implementations must be safe to call
  // concurrently from multiple simulation cells unless documented otherwise.
  virtual std::optional<int> category(const trace::Job& job) = 0;
};

using CategoryProviderPtr = std::shared_ptr<CategoryProvider>;

// Uniform hash of the job key onto [1, N-1] (the Adaptive Hash ablation and
// the terminal robust fallback). Never declines. The range is deliberately
// N-1 of the N buckets: category core::kDoNotAdmitCategory (0) is the
// labeler's reserved negative-saving class, which Algorithm 1 never admits
// (ACT >= 1), so a fallback that hashed onto it would permanently bar the
// affected jobs from SSD instead of degrading gracefully. Audited in
// ISSUE 4; the full reachable range is pinned by
// CategoryProvider.HashProviderCoversExactlyTheAdmittableRange.
CategoryProviderPtr make_hash_provider(int num_categories);
// The hash provider's category for `job`, as a plain function (throws
// std::invalid_argument unless num_categories >= 2).
int hash_category(const trace::Job& job, int num_categories);

// Lookup into a precomputed hint table; declines on jobs outside the table
// (late arrivals, jobs from another trace).
CategoryProviderPtr make_precomputed_provider(
    std::shared_ptr<const CategoryHints> hints, std::string name = "hints");

// Adapter for ad-hoc closures. The function may decline by returning
// std::nullopt.
CategoryProviderPtr make_function_provider(
    std::string name,
    std::function<std::optional<int>(const trace::Job&)> fn);

// Composes providers: the first one returning a category wins; declines only
// when every link declines. An empty chain always declines.
CategoryProviderPtr make_fallback_chain(
    std::vector<CategoryProviderPtr> chain);

// Decorator that flips a seeded fraction of the inner provider's hints to a
// different uniformly-chosen category. The flip decision and replacement
// depend only on (seed, job_id), so results are deterministic regardless of
// call order or thread count — parallel sweeps stay bit-reproducible.
// Declined hints pass through untouched (noise models a wrong hint, not a
// missing one).
CategoryProviderPtr make_noisy_provider(CategoryProviderPtr inner,
                                        double flip_fraction,
                                        std::uint64_t seed,
                                        int num_categories);

// Window-swappable hint table: the streaming cell's equivalent of one big
// precomputed table. The windowing driver precomputes hints for each chunk
// of jobs and swaps the table in before the chunk is consumed; lookups hit
// whatever table is currently installed and decline outside it (the chain's
// synchronous fallback answers those). Because batched precompute is
// bit-identical to per-job lookup regardless of batch composition
// (core::precompute_categories' contract), chunked tables yield the same
// hints as one whole-trace table. NOT thread-safe: swap and lookup must
// happen on the simulation thread (streaming cells are single-threaded).
class SwappableHintsProvider final : public CategoryProvider {
 public:
  explicit SwappableHintsProvider(std::string name = "window-hints")
      : name_(std::move(name)) {}

  std::string name() const override { return name_; }

  std::optional<int> category(const trace::Job& job) override {
    if (!hints_) return std::nullopt;
    const auto it = hints_->find(job.job_id);
    if (it == hints_->end()) return std::nullopt;
    return it->second;
  }

  // Installs the next window's table (null clears: every lookup declines).
  void set_hints(std::shared_ptr<const CategoryHints> hints) {
    hints_ = std::move(hints);
  }

 private:
  std::shared_ptr<const CategoryHints> hints_;
  std::string name_;
};

}  // namespace byom::core
