#include "traced.h"

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace sim = byom::sim;
namespace trace = byom::trace;

void TracedRegistry::wrap() {
  const auto wrapped = [this](byom::core::ModelBackendPtr backend) {
    if (!backend || dynamic_cast<const TracedBackend*>(backend.get())) {
      return byom::core::ModelBackendPtr();
    }
    return byom::core::ModelBackendPtr(
        std::make_shared<TracedBackend>(std::move(backend), *tracer_, rows_));
  };
  // Registered pipeline names are non-empty, so an empty name resolves to
  // the default backend.
  trace::Job job;
  if (auto backend = wrapped(registry_->lookup(job))) {
    registry_->set_default_model(std::move(backend));
  }
  for (const std::string& pipeline : pipelines_) {
    job.pipeline_name = pipeline;
    if (auto backend = wrapped(registry_->lookup(job))) {
      registry_->register_model(pipeline, std::move(backend));
    }
  }
  epoch_ = registry_->epoch();
}

byom::policy::Device TracedPolicy::decide(
    const trace::Job& job, const byom::policy::StorageView& view) {
  if (registry_ != nullptr) registry_->refresh();
  byom::policy::Device device;
  {
    Scope span(*tracer_, SpanName::kDecide, /*cpu=*/true);
    device = inner_->decide(job, view);
  }
  ++decide_calls_;
  if (device == byom::policy::Device::kSsd) ++ssd_decisions_;
  return device;
}

void TracedPolicy::on_placed(const trace::Job& job,
                             const byom::policy::PlacementOutcome& outcome) {
  {
    Scope span(*tracer_, SpanName::kOnPlaced);
    inner_->on_placed(job, outcome);
  }
  ++on_placed_calls_;
}

TracedReplay traced_replay(const sim::MethodFactory& factory,
                           sim::MethodId id, trace::JobStream& stream,
                           const trace::TraceSummary& summary,
                           std::uint64_t ssd_capacity_bytes,
                           const byom::harness::StreamingRunOptions& options,
                           Tracer& tracer) {
  sim::StreamingCell cell;
  {
    Scope span(tracer, SpanName::kCellBuild);
    cell = factory.make_streaming_cell(id, summary, options.chunk_jobs,
                                       ssd_capacity_bytes, options.make);
  }
  if (cell.needs_materialized || cell.window_hints || cell.window_enqueue) {
    throw std::invalid_argument(
        "traced_replay: cells with window hooks or a materialized trace are "
        "not supported");
  }

  // The same SimConfig run_method_streaming builds.
  sim::SimConfig config;
  config.ssd_capacity_bytes = ssd_capacity_bytes;
  config.rates = factory.cost_model().rates();
  config.record_outcomes = options.record_outcomes;
  config.counter_period = options.counter_period;
  config.counter_sink = options.counter_sink;
  config.use_trace_leads = options.use_trace_leads;
  config.max_hint_lead = options.max_hint_lead;
  config.clock = cell.context.clock;
  config.staleness = cell.context.staleness;
  config.horizon_start = summary.start_time;
  config.horizon_end = summary.end_time;
  config.expected_jobs = summary.job_count;
  std::unique_ptr<TracedRegistry> registry;
  if (cell.context.registry) {
    std::vector<std::string> pipelines;
    for (const auto& entry : options.make.pipeline_backends) {
      pipelines.push_back(entry.first);
    }
    registry = std::make_unique<TracedRegistry>(
        cell.context.registry, std::move(pipelines), tracer);
  }
  if (cell.context.hint_service) {
    config.hint_service = std::make_shared<TracedHintService>(
        cell.context.hint_service, tracer, registry.get());
  }

  TracedPolicy policy(*cell.context.policy, tracer, registry.get());
  TracedReplay out;
  {
    const std::int64_t start = wall_ns();
    Scope span(tracer, SpanName::kReplay);
    TracedStream traced(stream, tracer);
    out.result = sim::simulate(traced, policy, config);
    out.replay_wall_ns = wall_ns() - start;
  }
  if (registry) out.predicted_rows = registry->rows();
  out.decide_calls = policy.decide_calls();
  out.on_placed_calls = policy.on_placed_calls();
  out.ssd_decisions = policy.ssd_decisions();
  if (cell.context.clock) out.clock_events = cell.context.clock->processed();
  if (cell.context.hint_service) {
    out.serving = cell.context.hint_service->stats();
    out.serving_pending = cell.context.hint_service->pending_requests();
  }
  return out;
}

namespace {

template <typename T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

class Fnv1a {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char byte : bytes) {
      hash_ ^= byte;
      hash_ *= 1099511628211ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

}  // namespace

bool same_result(const sim::SimResult& a, const sim::SimResult& b,
                 std::string* diff) {
  const auto fail = [diff](const char* field) {
    if (diff != nullptr) *diff = field;
    return false;
  };
#define PERFBENCH_FIELD(f) \
  if (!same_bits(a.f, b.f)) return fail(#f)
  PERFBENCH_FIELD(tco_actual);
  PERFBENCH_FIELD(tco_all_hdd);
  PERFBENCH_FIELD(tcio_actual_seconds);
  PERFBENCH_FIELD(tcio_all_hdd_seconds);
  PERFBENCH_FIELD(jobs_total);
  PERFBENCH_FIELD(jobs_scheduled_ssd);
  PERFBENCH_FIELD(peak_ssd_used_bytes);
  PERFBENCH_FIELD(hints_on_time);
  PERFBENCH_FIELD(hints_late);
  PERFBENCH_FIELD(hints_dropped);
  PERFBENCH_FIELD(retrain_events);
#undef PERFBENCH_FIELD
  if (a.outcomes.size() != b.outcomes.size()) return fail("outcomes.size");
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const sim::JobOutcome& x = a.outcomes[i];
    const sim::JobOutcome& y = b.outcomes[i];
    if (!same_bits(x.job_id, y.job_id) || !same_bits(x.scheduled, y.scheduled) ||
        !same_bits(x.spill_fraction, y.spill_fraction) ||
        !same_bits(x.ssd_time_share, y.ssd_time_share)) {
      return fail("outcomes");
    }
  }
  return true;
}

std::string result_digest(const sim::SimResult& r) {
  Fnv1a h;
  h.add(r.tco_actual);
  h.add(r.tco_all_hdd);
  h.add(r.tcio_actual_seconds);
  h.add(r.tcio_all_hdd_seconds);
  h.add(static_cast<std::uint64_t>(r.jobs_total));
  h.add(static_cast<std::uint64_t>(r.jobs_scheduled_ssd));
  h.add(r.peak_ssd_used_bytes);
  h.add(r.hints_on_time);
  h.add(r.hints_late);
  h.add(r.hints_dropped);
  h.add(r.retrain_events);
  for (const sim::JobOutcome& o : r.outcomes) {
    h.add(o.job_id);
    h.add(static_cast<int>(o.scheduled));
    h.add(o.spill_fraction);
    h.add(o.ssd_time_share);
  }
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(h.value()));
  return text;
}

}  // namespace perfbench
