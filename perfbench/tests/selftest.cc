// Self-tests for the benchmark: span arithmetic, the percentile rule, and
// the forwarding wrappers leaving a simulation result unchanged.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/streaming.h"
#include "spans.h"
#include "trace/generator.h"
#include "trace/job_stream.h"
#include "trace/trace.h"
#include "traced.h"

namespace {

using perfbench::SpanName;
using perfbench::Tracer;

TEST(Spans, SelfTimeIsSpanMinusChildren) {
  Tracer tracer;
  tracer.begin_at(SpanName::kReplay, 0, -1);
  tracer.begin_at(SpanName::kOnPlaced, 10, -1);
  tracer.end_at(40, -1);  // 30
  tracer.begin_at(SpanName::kDecide, 50, -1);
  tracer.begin_at(SpanName::kPredict, 55, -1);
  tracer.end_at(65, -1);  // 10, a grandchild of the replay
  tracer.end_at(70, -1);  // 20
  tracer.end_at(100, -1);
  EXPECT_EQ(tracer.open_spans(), 0u);

  const auto& replay = tracer.totals(SpanName::kReplay);
  EXPECT_EQ(replay.wall_ns, 100);
  EXPECT_EQ(replay.child_ns, 50);  // direct children only
  EXPECT_EQ(replay.self_ns(), 50);
  EXPECT_EQ(tracer.totals(SpanName::kDecide).self_ns(), 10);
  EXPECT_EQ(tracer.totals(SpanName::kPredict).self_ns(), 10);

  ASSERT_EQ(tracer.spans().size(), 4u);
  EXPECT_EQ(tracer.spans()[0].parent, -1);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[3].parent, 2);
  EXPECT_EQ(tracer.spans()[3].end_ns, 65);
}

TEST(Spans, ResidualNeverNegative) {
  EXPECT_EQ(perfbench::self_time_ns(100, 130), 0);
  EXPECT_EQ(perfbench::self_time_ns(100, 100), 0);
  EXPECT_EQ(perfbench::self_time_ns(100, 40), 60);
  // Children reported past their parent's end (clock skew) clamp too.
  Tracer tracer;
  tracer.begin_at(SpanName::kReplay, 0, -1);
  tracer.begin_at(SpanName::kDecide, 0, -1);
  tracer.end_at(120, -1);
  tracer.end_at(100, -1);
  EXPECT_EQ(tracer.totals(SpanName::kReplay).self_ns(), 0);
}

TEST(Spans, OffCpuClampedAtZero) {
  EXPECT_EQ(perfbench::off_cpu_ns(100, 130), 0);
  EXPECT_EQ(perfbench::off_cpu_ns(100, 30), 70);
  Tracer tracer;
  tracer.begin_at(SpanName::kDecide, 0, 1000);
  tracer.end_at(50, 1040);  // 50 wall, 40 CPU
  tracer.begin_at(SpanName::kDecide, 100, 2000);
  tracer.end_at(110, 2030);  // 10 wall, 30 CPU
  const auto& decide = tracer.totals(SpanName::kDecide);
  EXPECT_EQ(decide.wall_ns, 60);
  EXPECT_EQ(decide.cpu_ns, 70);
  EXPECT_EQ(decide.offcpu_ns(), 0);
  // Spans opened without a CPU reading add no CPU time.
  tracer.begin_at(SpanName::kDecide, 200, -1);
  tracer.end_at(300, -1);
  EXPECT_EQ(tracer.totals(SpanName::kDecide).cpu_ns, 70);
  EXPECT_EQ(tracer.totals(SpanName::kDecide).offcpu_ns(), 90);
}

TEST(Spans, PercentileKeepsTenSamplesBeyond) {
  EXPECT_EQ(perfbench::tail_quantile(0), 0.0);
  EXPECT_EQ(perfbench::tail_quantile(19), 0.0);
  EXPECT_EQ(perfbench::tail_quantile(20), 0.5);
  EXPECT_EQ(perfbench::tail_quantile(99), 0.5);
  EXPECT_EQ(perfbench::tail_quantile(100), 0.9);
  EXPECT_EQ(perfbench::tail_quantile(1000), 0.99);
  EXPECT_EQ(perfbench::tail_quantile(9999), 0.99);
  EXPECT_EQ(perfbench::tail_quantile(10000), 0.999);
  EXPECT_EQ(perfbench::tail_quantile(100000), 0.9999);
  for (const std::size_t n : {20u, 100u, 1000u, 10000u, 123457u}) {
    EXPECT_GE(perfbench::samples_beyond(n, perfbench::tail_quantile(n)), 10u);
  }

  std::vector<std::int64_t> sorted;
  for (std::int64_t i = 1; i <= 1000; ++i) sorted.push_back(i);
  EXPECT_EQ(perfbench::quantile(sorted, 0.5), 500);
  EXPECT_EQ(perfbench::quantile(sorted, 0.99), 990);
  EXPECT_EQ(perfbench::quantile(sorted, 0.999), 999);
  EXPECT_EQ(perfbench::quantile(sorted, 1.0), 1000);
  EXPECT_EQ(perfbench::quantile({}, 0.5), 0);
}

TEST(Spans, KeepsSamplesOnlyForChosenNames) {
  Tracer tracer(/*max_recorded=*/1);
  tracer.keep_samples(SpanName::kDecide, 4);
  for (std::int64_t t = 0; t < 3; ++t) {
    tracer.begin_at(SpanName::kDecide, 10 * t, -1);
    tracer.end_at(10 * t + t + 1, -1);
    tracer.begin_at(SpanName::kOnPlaced, 10 * t, -1);
    tracer.end_at(10 * t + 5, -1);
  }
  EXPECT_EQ(tracer.samples(SpanName::kDecide),
            (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_TRUE(tracer.samples(SpanName::kOnPlaced).empty());
  EXPECT_EQ(tracer.spans().size(), 1u);  // the rest are aggregated only
  EXPECT_EQ(tracer.totals(SpanName::kOnPlaced).count, 3u);
}

// A tiny cluster: six pipelines, a three-day training span and two test
// days, so every method trains and replays in well under a second.
struct TinyCluster {
  byom::trace::GeneratorConfig cfg;
  double boundary = 3 * 86400.0;
  std::unique_ptr<byom::sim::MethodFactory> factory;
  byom::trace::TraceSummary summary;
  std::uint64_t capacity = 0;

  TinyCluster() {
    cfg = byom::trace::canonical_cluster_config(0, 11);
    cfg.num_pipelines = 6;
    cfg.duration = 5 * 86400.0;
    const byom::trace::Trace whole = byom::trace::generate_cluster_trace(cfg);
    byom::core::CategoryModelConfig model;
    model.num_categories = 6;
    model.gbdt.num_rounds = 3;
    factory = std::make_unique<byom::sim::MethodFactory>(
        whole.slice(0, boundary), cfg.rates, model);
    summary = byom::trace::summarize_generated(cfg, boundary);
    capacity = byom::sim::quota_capacity(summary.peak_concurrent_bytes, 0.05);
  }
};

perfbench::TracedReplay expect_wrappers_transparent(
    byom::sim::MethodId id, byom::harness::StreamingRunOptions options) {
  static const TinyCluster tiny;
  options.record_outcomes = true;
  options.chunk_jobs = 97;  // several generator chunks, a partial last one

  byom::trace::GeneratedStream plain_gen(tiny.cfg, options.chunk_jobs);
  byom::trace::SkipUntilStream plain(plain_gen, tiny.boundary);
  const byom::sim::SimResult expected = byom::harness::run_method_streaming(
      *tiny.factory, id, plain, tiny.summary, tiny.capacity, options);

  Tracer tracer;
  byom::trace::GeneratedStream traced_gen(tiny.cfg, options.chunk_jobs);
  byom::trace::SkipUntilStream traced(traced_gen, tiny.boundary);
  const perfbench::TracedReplay got =
      perfbench::traced_replay(*tiny.factory, id, traced, tiny.summary,
                               tiny.capacity, options, tracer);

  EXPECT_GT(expected.jobs_total, 100u);
  std::string diff;
  EXPECT_TRUE(perfbench::same_result(got.result, expected, &diff)) << diff;
  EXPECT_EQ(perfbench::result_digest(got.result),
            perfbench::result_digest(expected));
  EXPECT_EQ(got.decide_calls, expected.jobs_total);
  EXPECT_EQ(got.on_placed_calls, expected.jobs_total);
  EXPECT_EQ(tracer.totals(SpanName::kDecide).count, expected.jobs_total);
  EXPECT_EQ(tracer.totals(SpanName::kReplay).count, 1u);
  EXPECT_EQ(tracer.open_spans(), 0u);
  // Every served request ran inference through a traced backend.
  EXPECT_EQ(got.predicted_rows + got.serving_pending, got.serving.enqueued);
  if (got.serving.enqueued > 0) {
    EXPECT_GT(tracer.totals(SpanName::kPredict).count, 0u);
  }
  return got;
}

TEST(Wrappers, HeuristicReplayUnchanged) {
  expect_wrappers_transparent(byom::sim::MethodId::kHeuristic, {});
}

TEST(Wrappers, ServedLatencyReplayUnchanged) {
  byom::harness::StreamingRunOptions options;
  options.make.hint_latency = 0.5;
  options.make.retrain_period = 86400.0;
  options.make.noise_seed = 3;
  const perfbench::TracedReplay arrival = expect_wrappers_transparent(
      byom::sim::MethodId::kAdaptiveServedLatency, options);
  // Retrains hot-swapped fresh backends in; the wrappers followed them.
  EXPECT_GT(arrival.result.retrain_events, 0u);
  EXPECT_GT(arrival.predicted_rows, 0u);
  options.use_trace_leads = true;
  expect_wrappers_transparent(byom::sim::MethodId::kAdaptiveServedLatency,
                              options);
}

std::vector<std::pair<std::string, byom::core::BackendKind>> fleet_backends(
    const byom::trace::Trace& train) {
  const byom::core::BackendKind kinds[] = {
      byom::core::BackendKind::kGbdt, byom::core::BackendKind::kLogistic,
      byom::core::BackendKind::kFrequency};
  std::vector<std::pair<std::string, byom::core::BackendKind>> out;
  const std::vector<std::string> pipelines =
      byom::trace::distinct_pipelines(train);
  for (std::size_t p = 0; p < pipelines.size(); ++p) {
    out.emplace_back(pipelines[p], kinds[p % 3]);
  }
  return out;
}

TEST(Wrappers, ServedFleetReplayUnchanged) {
  const TinyCluster tiny;
  byom::harness::StreamingRunOptions options;
  options.make.hint_latency = 0.5;
  options.make.noise_seed = 3;
  options.make.pipeline_backends = fleet_backends(tiny.factory->train_trace());
  expect_wrappers_transparent(byom::sim::MethodId::kAdaptiveServedLatency,
                              options);
  // With retrains, every per-pipeline backend is re-fitted and swapped.
  options.make.retrain_period = 86400.0;
  const perfbench::TracedReplay retrained = expect_wrappers_transparent(
      byom::sim::MethodId::kAdaptiveServedLatency, options);
  EXPECT_GT(retrained.result.retrain_events, 0u);
}

TEST(Wrappers, WindowedCellsRejected) {
  const TinyCluster tiny;
  byom::harness::StreamingRunOptions options;
  options.make.pipeline_backends = fleet_backends(tiny.factory->train_trace());
  for (const byom::sim::MethodId id :
       {byom::sim::MethodId::kAdaptiveRanking,
        byom::sim::MethodId::kAdaptiveServed}) {
    Tracer tracer;
    byom::trace::GeneratedStream generated(tiny.cfg, options.chunk_jobs);
    byom::trace::SkipUntilStream test(generated, tiny.boundary);
    EXPECT_THROW(perfbench::traced_replay(*tiny.factory, id, test,
                                          tiny.summary, tiny.capacity,
                                          options, tracer),
                 std::invalid_argument);
  }
}

TEST(Digest, SensitiveToEveryOutcomeBit) {
  byom::sim::SimResult a;
  a.tco_actual = 1.5;
  a.jobs_total = 2;
  a.outcomes.resize(2);
  byom::sim::SimResult b = a;
  EXPECT_TRUE(perfbench::same_result(a, b));
  EXPECT_EQ(perfbench::result_digest(a), perfbench::result_digest(b));
  b.outcomes[1].spill_fraction = 1e-300;
  std::string diff;
  EXPECT_FALSE(perfbench::same_result(a, b, &diff));
  EXPECT_EQ(diff, "outcomes");
  EXPECT_NE(perfbench::result_digest(a), perfbench::result_digest(b));
}

}  // namespace
