#include "core/category_provider.h"

#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "core/labeler.h"

namespace byom::core {

namespace {

class HashProvider final : public CategoryProvider {
 public:
  explicit HashProvider(int num_categories)
      : num_categories_(num_categories) {
    if (num_categories < 2) {
      throw std::invalid_argument("make_hash_provider: N >= 2 required");
    }
  }

  std::string name() const override { return "hash"; }

  std::optional<int> category(const trace::Job& job) override {
    return hash_category(job, num_categories_);
  }

 private:
  int num_categories_;
};

class PrecomputedProvider final : public CategoryProvider {
 public:
  PrecomputedProvider(std::shared_ptr<const CategoryHints> hints,
                      std::string name)
      : hints_(std::move(hints)), name_(std::move(name)) {
    if (!hints_) {
      throw std::invalid_argument("make_precomputed_provider: null table");
    }
  }

  std::string name() const override { return name_; }

  std::optional<int> category(const trace::Job& job) override {
    const auto it = hints_->find(job.job_id);
    if (it == hints_->end()) return std::nullopt;
    return it->second;
  }

 private:
  std::shared_ptr<const CategoryHints> hints_;
  std::string name_;
};

class FunctionProvider final : public CategoryProvider {
 public:
  FunctionProvider(std::string name,
                   std::function<std::optional<int>(const trace::Job&)> fn)
      : name_(std::move(name)), fn_(std::move(fn)) {
    if (!fn_) {
      throw std::invalid_argument("make_function_provider: null function");
    }
  }

  std::string name() const override { return name_; }

  std::optional<int> category(const trace::Job& job) override {
    return fn_(job);
  }

 private:
  std::string name_;
  std::function<std::optional<int>(const trace::Job&)> fn_;
};

class FallbackChainProvider final : public CategoryProvider {
 public:
  explicit FallbackChainProvider(std::vector<CategoryProviderPtr> chain)
      : chain_(std::move(chain)) {
    for (const auto& link : chain_) {
      if (!link) {
        throw std::invalid_argument("make_fallback_chain: null link");
      }
    }
  }

  std::string name() const override {
    std::string name = "chain(";
    for (std::size_t i = 0; i < chain_.size(); ++i) {
      if (i > 0) name += " -> ";
      name += chain_[i]->name();
    }
    return name + ")";
  }

  std::optional<int> category(const trace::Job& job) override {
    for (const auto& link : chain_) {
      if (const auto c = link->category(job)) return c;
    }
    return std::nullopt;
  }

 private:
  std::vector<CategoryProviderPtr> chain_;
};

class NoisyProvider final : public CategoryProvider {
 public:
  NoisyProvider(CategoryProviderPtr inner, double flip_fraction,
                std::uint64_t seed, int num_categories)
      : inner_(std::move(inner)),
        flip_fraction_(flip_fraction),
        seed_(seed),
        num_categories_(num_categories) {
    if (!inner_) {
      throw std::invalid_argument("make_noisy_provider: null inner provider");
    }
    if (flip_fraction < 0.0 || flip_fraction > 1.0) {
      throw std::invalid_argument(
          "make_noisy_provider: flip_fraction outside [0, 1]");
    }
    if (num_categories < 2) {
      throw std::invalid_argument("make_noisy_provider: N >= 2 required");
    }
  }

  std::string name() const override { return "noisy(" + inner_->name() + ")"; }

  std::optional<int> category(const trace::Job& job) override {
    const auto hint = inner_->category(job);
    if (!hint || flip_fraction_ <= 0.0) return hint;
    // Per-job coin and replacement derive only from (seed, job_id): the
    // same cell seed flips the same jobs no matter which thread asks.
    std::uint64_t state = seed_ ^ (job.job_id * 0x9E3779B97F4A7C15ULL);
    const std::uint64_t coin = common::split_mix64(state);
    const double u =
        static_cast<double>(coin >> 11) * 0x1.0p-53;  // uniform [0, 1)
    if (u >= flip_fraction_) return hint;
    // Shift by a nonzero seeded offset so a flipped hint is always wrong.
    const std::uint64_t jump = common::split_mix64(state);
    const int offset = 1 + static_cast<int>(jump % static_cast<std::uint64_t>(
                                                       num_categories_ - 1));
    return (*hint + offset) % num_categories_;
  }

 private:
  CategoryProviderPtr inner_;
  double flip_fraction_;
  std::uint64_t seed_;
  int num_categories_;
};

}  // namespace

int hash_category(const trace::Job& job, int num_categories) {
  if (num_categories < 2) {
    throw std::invalid_argument("make_hash_provider: N >= 2 required");
  }
  // Uniform over the admittable categories [1, N-1] only: category 0 is
  // the labeler's reserved do-not-admit class (kDoNotAdmitCategory), and a
  // guessed hint must never bar a job from SSD outright.
  const std::uint64_t h = common::fnv1a(job.job_key);
  return kDoNotAdmitCategory + 1 +
         static_cast<int>(h % static_cast<std::uint64_t>(num_categories - 1));
}

CategoryProviderPtr make_hash_provider(int num_categories) {
  return std::make_shared<HashProvider>(num_categories);
}

CategoryProviderPtr make_precomputed_provider(
    std::shared_ptr<const CategoryHints> hints, std::string name) {
  return std::make_shared<PrecomputedProvider>(std::move(hints),
                                               std::move(name));
}

CategoryProviderPtr make_function_provider(
    std::string name,
    std::function<std::optional<int>(const trace::Job&)> fn) {
  return std::make_shared<FunctionProvider>(std::move(name), std::move(fn));
}

CategoryProviderPtr make_fallback_chain(
    std::vector<CategoryProviderPtr> chain) {
  return std::make_shared<FallbackChainProvider>(std::move(chain));
}

CategoryProviderPtr make_noisy_provider(CategoryProviderPtr inner,
                                        double flip_fraction,
                                        std::uint64_t seed,
                                        int num_categories) {
  return std::make_shared<NoisyProvider>(std::move(inner), flip_fraction, seed,
                                         num_categories);
}

}  // namespace byom::core
