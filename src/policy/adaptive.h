// Adaptive Category Selection (paper Algorithm 1) — the storage-layer half
// of the cross-layer BYOM design.
//
// Jobs arrive with an importance category (from each workload's own model,
// from a hash for the non-ML ablation, or from ground-truth labels for the
// Figure 11 study). The policy maintains an Admission Category Threshold
// (ACT) in [1, N-1] and admits a job to SSD iff its category >= ACT.
// The ACT slides based on the observed spillover-TCIO percentage over a
// look-back window:
//   * spillover below the tolerance range -> SSD has room -> ACT decreases
//     (admit more categories),
//   * spillover above the range -> SSD is nearly full -> ACT increases
//     (admit only the most important categories).
// Updates happen at most once per decision interval t_l, and only at job
// arrivals.
//
// Category consumption goes through the core::CategoryProvider API
// (core/category_provider.h): the policy asks the provider at decision time
// and, when the provider declines (no model, hint not ready, deadline
// missed), falls back to the robust hash category — Algorithm 1 never
// blocks on inference. Providers compose (fallback chains, precomputed
// tables, async serving, staleness decay, noise injection) without touching
// this file. (The pre-provider CategoryFn shims — a function-taking
// constructor, hash_category_fn, hinted_category_fn — are gone; build a
// provider with core::make_function_provider / make_hash_provider /
// make_precomputed_provider instead.)
//
// NOTE on the published pseudocode: Algorithm 1 lines 7-8 print
// `ACT = max(N-1, ACT+1)` for low spillover and `ACT = min(1, ACT-1)` for
// high spillover, which contradicts both the prose and the notation table
// (ACT <= N-1). We implement the semantically consistent version described
// in the prose (see DESIGN.md).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/category_provider.h"
#include "policy/policy.h"

namespace byom::policy {

struct AdaptiveConfig {
  int num_categories = 15;           // N
  double lookback_window = 900.0;    // t_w seconds
  double decision_interval = 900.0;  // t_l seconds
  double spillover_lower = 0.01;     // T_l
  double spillover_upper = 0.15;     // T_u
  int initial_act = 1;
  // Ablation (paper 4.3): consider jobs *starting within* the look-back
  // window (default, what the paper found superior) vs jobs *overlapping*
  // the window.
  bool window_by_overlap = false;
};

// Snapshot of the controller state at a decision point (Figure 16 series).
struct AdaptiveDecisionRecord {
  double time = 0.0;
  int act = 1;
  double spillover_pct = 0.0;  // observed P_SPILLOVER_TCIO in [0, 1]
};

class AdaptiveCategoryPolicy final : public PlacementPolicy {
 public:
  // `provider` yields the job's importance category in [0, N-1]; when it
  // declines, the policy degrades to the hash category (robust fallback).
  AdaptiveCategoryPolicy(std::string name,
                         core::CategoryProviderPtr provider,
                         const AdaptiveConfig& config = {});

  std::string name() const override { return name_; }
  Device decide(const trace::Job& job, const StorageView& view) override;
  void on_placed(const trace::Job& job,
                 const PlacementOutcome& outcome) override;

  int current_act() const { return act_; }
  const std::vector<AdaptiveDecisionRecord>& decision_log() const {
    return decision_log_;
  }
  // Last predicted category (exposed for the dynamics bench).
  int last_category() const { return last_category_; }
  // Decisions the provider declined and the hash fallback answered.
  std::uint64_t provider_fallbacks() const { return provider_fallbacks_; }
  const core::CategoryProviderPtr& provider() const { return provider_; }

 private:
  struct HistoryEntry {
    double arrival = 0.0;
    double end = 0.0;
    double tcio_seconds_hdd = 0.0;  // full-lifetime TCIO if on HDD
    double lifetime = 1.0;
    double spill_fraction = 0.0;
    bool scheduled_ssd = false;
  };

  // P_SPILLOVER_TCIO over the current history at time t.
  double spillover_percentage(double t) const;
  void expire_history(double t);

  std::string name_;
  core::CategoryProviderPtr provider_;
  core::CategoryProviderPtr fallback_;  // hash; answers declined lookups
  AdaptiveConfig config_;
  int act_ = 1;
  double last_decision_time_ = -1e300;  // t_d
  std::deque<HistoryEntry> history_;    // X_h, ordered by arrival
  std::vector<AdaptiveDecisionRecord> decision_log_;
  int last_category_ = 0;
  std::uint64_t provider_fallbacks_ = 0;
};

}  // namespace byom::policy
