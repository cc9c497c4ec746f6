// Forwarding wrappers that time the calls into each layer's public
// functions, and a traced twin of harness::run_method_streaming built from
// them.
//
// Every wrapper forwards to the wrapped object unchanged, so a traced
// replay runs the same program as an untraced one: the benchmark checks
// that both give a field-for-field identical SimResult (same_result).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/span.h"
#include "core/model_backend.h"
#include "core/model_registry.h"
#include "harness/experiment.h"
#include "harness/streaming.h"
#include "policy/policy.h"
#include "serving/placement_service.h"
#include "sim/hint_service.h"
#include "sim/simulator.h"
#include "spans.h"
#include "trace/job_stream.h"

namespace perfbench {

// Times each inner next() as trace.next.
class TracedStream final : public byom::trace::JobStream {
 public:
  TracedStream(byom::trace::JobStream& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer) {}

  const byom::trace::Job* next() override {
    Scope span(*tracer_, SpanName::kNext);
    return inner_->next();
  }
  std::size_t size_hint() const override { return inner_->size_hint(); }
  std::uint32_t cluster_id() const override { return inner_->cluster_id(); }

 private:
  byom::trace::JobStream* inner_;
  Tracer* tracer_;
};

// Times ModelBackend::predict_batch (wall and thread CPU) and counts the
// rows it predicts: feature extraction plus model inference of one serving
// batch, inside the serving lookup.
class TracedBackend final : public byom::core::ModelBackend {
 public:
  TracedBackend(byom::core::ModelBackendPtr inner, Tracer& tracer,
                std::uint64_t& rows)
      : inner_(std::move(inner)), tracer_(&tracer), rows_(&rows) {}

  using byom::core::ModelBackend::predict_batch;
  std::string name() const override { return inner_->name(); }
  int num_categories() const override { return inner_->num_categories(); }
  int predict_category(const byom::trace::Job& job) const override {
    return inner_->predict_category(job);
  }
  std::vector<int> predict_batch(
      byom::common::Span<const byom::trace::Job* const> jobs) const override {
    Scope span(*tracer_, SpanName::kPredict, /*cpu=*/true);
    *rows_ += jobs.size();
    return inner_->predict_batch(jobs);
  }
  std::vector<int> predict_batch(
      byom::common::Span<const byom::trace::Job* const> jobs,
      const byom::features::FeatureMatrix* matrix) const override {
    Scope span(*tracer_, SpanName::kPredict, /*cpu=*/true);
    *rows_ += jobs.size();
    return inner_->predict_batch(jobs, matrix);
  }

 private:
  byom::core::ModelBackendPtr inner_;
  Tracer* tracer_;
  std::uint64_t* rows_;
};

// Keeps every backend of a cell's serving registry (the default and one per
// listed pipeline) wrapped in a TracedBackend. Retrain events hot-swap
// fresh backends in, so refresh() re-wraps whenever the registry's epoch
// has moved; the traced policy and hint service call it before every call
// that may run inference.
class TracedRegistry {
 public:
  TracedRegistry(std::shared_ptr<byom::core::ShardedModelRegistry> registry,
                 std::vector<std::string> pipelines, Tracer& tracer)
      : registry_(std::move(registry)),
        pipelines_(std::move(pipelines)),
        tracer_(&tracer) {
    wrap();
  }

  void refresh() {
    if (registry_->epoch() != epoch_) wrap();
  }
  std::uint64_t rows() const { return rows_; }

 private:
  void wrap();

  std::shared_ptr<byom::core::ShardedModelRegistry> registry_;
  std::vector<std::string> pipelines_;
  Tracer* tracer_;
  std::uint64_t epoch_ = 0;
  std::uint64_t rows_ = 0;
};

// Times decide (wall and thread CPU, every duration kept for percentiles)
// and on_placed, and counts calls and SSD decisions. `registry` (may be
// null) is refreshed before each decide.
class TracedPolicy final : public byom::policy::PlacementPolicy {
 public:
  TracedPolicy(byom::policy::PlacementPolicy& inner, Tracer& tracer,
               TracedRegistry* registry)
      : inner_(&inner), tracer_(&tracer), registry_(registry) {}

  std::string name() const override { return inner_->name(); }
  byom::policy::Device decide(const byom::trace::Job& job,
                              const byom::policy::StorageView& view) override;
  void on_placed(const byom::trace::Job& job,
                 const byom::policy::PlacementOutcome& outcome) override;
  double eviction_ttl(const byom::trace::Job& job) const override {
    return inner_->eviction_ttl(job);
  }

  std::uint64_t decide_calls() const { return decide_calls_; }
  std::uint64_t on_placed_calls() const { return on_placed_calls_; }
  std::uint64_t ssd_decisions() const { return ssd_decisions_; }

 private:
  byom::policy::PlacementPolicy* inner_;
  Tracer* tracer_;
  TracedRegistry* registry_;
  std::uint64_t decide_calls_ = 0;
  std::uint64_t on_placed_calls_ = 0;
  std::uint64_t ssd_decisions_ = 0;
};

// Times the engine's request submissions (wall and thread CPU).
// `registry` (may be null) is refreshed before each enqueue.
class TracedHintService final : public byom::sim::HintService {
 public:
  TracedHintService(std::shared_ptr<byom::sim::HintService> inner,
                    Tracer& tracer, TracedRegistry* registry)
      : inner_(std::move(inner)), tracer_(&tracer), registry_(registry) {}

  bool enqueue(const byom::trace::Job& job) override {
    if (registry_ != nullptr) registry_->refresh();
    Scope span(*tracer_, SpanName::kEnqueue, /*cpu=*/true);
    return inner_->enqueue(job);
  }
  byom::sim::HintTimeliness hint_timeliness() const override {
    return inner_->hint_timeliness();
  }

 private:
  std::shared_ptr<byom::sim::HintService> inner_;
  Tracer* tracer_;
  TracedRegistry* registry_;
};

struct TracedReplay {
  byom::sim::SimResult result;
  std::int64_t replay_wall_ns = 0;  // the sim::simulate call alone
  std::uint64_t decide_calls = 0;
  std::uint64_t on_placed_calls = 0;
  std::uint64_t ssd_decisions = 0;
  std::uint64_t clock_events = 0;  // SimClock::processed(); served cells
  std::uint64_t predicted_rows = 0;  // rows through the traced backends
  byom::serving::ServingStats serving;  // zero when no service was used
  std::uint64_t serving_pending = 0;  // requests still queued at the end
};

// harness::run_method_streaming with the stream, policy and hint service
// wrapped, and the backends of the cell's serving registry wrapped in
// place. Cells with window hooks (custom-backend ranking, offline-served)
// and methods that need a materialized trace (the oracles) are not
// supported: no workload runs them.
TracedReplay traced_replay(const byom::sim::MethodFactory& factory,
                           byom::sim::MethodId id,
                           byom::trace::JobStream& stream,
                           const byom::trace::TraceSummary& summary,
                           std::uint64_t ssd_capacity_bytes,
                           const byom::harness::StreamingRunOptions& options,
                           Tracer& tracer);

// Bit-exact comparison of every SimResult field, outcomes included.
// On mismatch, *diff names the first differing field.
bool same_result(const byom::sim::SimResult& a, const byom::sim::SimResult& b,
                 std::string* diff = nullptr);
// FNV-1a over the exact bits of every SimResult field, as 16 hex digits.
std::string result_digest(const byom::sim::SimResult& result);

}  // namespace perfbench
