// Streaming generation/simulation contracts (trace/job_stream.h,
// sim::simulate(JobStream&), harness/streaming.h):
//   * GeneratedStream yields the byte-for-byte identical job sequence to
//     generate_cluster_trace across chunk sizes, including chunk sizes
//     that split every RNG-coupled structure (history accumulators, the
//     shared synthesis RNG) mid-trace;
//   * TraceSummary's one-pass pre-pass equals the Trace accessors exactly;
//   * streaming replay is bit-identical to the materialized replay for
//     every MethodId, including the windowed-precompute and serving-backed
//     cells;
//   * soak counter rows telescope to the run totals and never perturb the
//     simulation; submit-ahead lead times only improve hint timeliness.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/category_model.h"
#include "core/model_backend.h"
#include "harness/experiment.h"
#include "harness/streaming.h"
#include "serving/placement_service.h"
#include "sim/simulator.h"
#include "sim/soak_counters.h"
#include "trace/generator.h"
#include "trace/job_stream.h"
#include "trace/trace.h"
#include "trace/trace_io.h"

namespace byom {
namespace {

constexpr double kDay = 86400.0;

trace::GeneratorConfig small_config(std::uint32_t cluster_id,
                                    std::uint64_t seed) {
  trace::GeneratorConfig cfg = trace::canonical_cluster_config(cluster_id,
                                                               seed);
  cfg.num_pipelines = 10;
  cfg.duration = 8.0 * kDay;
  return cfg;
}

// Every field, every time: the stream's contract is byte identity, so
// doubles are compared with EXPECT_EQ, not any tolerance.
void expect_job_eq(const trace::Job& a, const trace::Job& b,
                   std::size_t index) {
  SCOPED_TRACE("job index " + std::to_string(index));
  EXPECT_EQ(a.job_id, b.job_id);
  EXPECT_EQ(a.cluster_id, b.cluster_id);
  EXPECT_EQ(a.job_key, b.job_key);
  EXPECT_EQ(a.owner, b.owner);
  EXPECT_EQ(a.build_target_name, b.build_target_name);
  EXPECT_EQ(a.execution_name, b.execution_name);
  EXPECT_EQ(a.pipeline_name, b.pipeline_name);
  EXPECT_EQ(a.step_name, b.step_name);
  EXPECT_EQ(a.user_name, b.user_name);
  EXPECT_EQ(a.arrival_time, b.arrival_time);
  EXPECT_EQ(a.lifetime, b.lifetime);
  EXPECT_EQ(a.hint_lead, b.hint_lead);
  EXPECT_EQ(a.peak_bytes, b.peak_bytes);
  EXPECT_EQ(a.resources.bucket_sizing_initial_num_stripes,
            b.resources.bucket_sizing_initial_num_stripes);
  EXPECT_EQ(a.resources.bucket_sizing_num_shards,
            b.resources.bucket_sizing_num_shards);
  EXPECT_EQ(a.resources.bucket_sizing_num_worker_threads,
            b.resources.bucket_sizing_num_worker_threads);
  EXPECT_EQ(a.resources.bucket_sizing_num_workers,
            b.resources.bucket_sizing_num_workers);
  EXPECT_EQ(a.resources.initial_num_buckets, b.resources.initial_num_buckets);
  EXPECT_EQ(a.resources.num_buckets, b.resources.num_buckets);
  EXPECT_EQ(a.resources.records_written, b.resources.records_written);
  EXPECT_EQ(a.resources.requested_num_shards,
            b.resources.requested_num_shards);
  EXPECT_EQ(a.history.average_tcio, b.history.average_tcio);
  EXPECT_EQ(a.history.average_size, b.history.average_size);
  EXPECT_EQ(a.history.average_lifetime, b.history.average_lifetime);
  EXPECT_EQ(a.history.average_io_density, b.history.average_io_density);
  EXPECT_EQ(a.io.bytes_written, b.io.bytes_written);
  EXPECT_EQ(a.io.bytes_read, b.io.bytes_read);
  EXPECT_EQ(a.io.avg_read_block, b.io.avg_read_block);
  EXPECT_EQ(a.io.avg_write_block, b.io.avg_write_block);
  EXPECT_EQ(a.io.dram_cache_hit_fraction, b.io.dram_cache_hit_fraction);
  EXPECT_EQ(a.tcio_hdd, b.tcio_hdd);
  EXPECT_EQ(a.io_density, b.io_density);
  EXPECT_EQ(a.cost_hdd, b.cost_hdd);
  EXPECT_EQ(a.cost_ssd, b.cost_ssd);
  EXPECT_EQ(a.framework_workload, b.framework_workload);
}

void expect_stream_matches_trace(const trace::GeneratorConfig& cfg,
                                 std::size_t chunk_jobs) {
  SCOPED_TRACE("chunk_jobs " + std::to_string(chunk_jobs));
  const trace::Trace materialized = trace::generate_cluster_trace(cfg);
  trace::GeneratedStream stream(cfg, chunk_jobs);
  EXPECT_EQ(stream.cluster_id(), materialized.cluster_id());
  std::size_t index = 0;
  while (const trace::Job* job = stream.next()) {
    ASSERT_LT(index, materialized.size());
    expect_job_eq(*job, materialized.jobs()[index], index);
    if (::testing::Test::HasFailure()) return;  // don't spam
    ++index;
  }
  EXPECT_EQ(index, materialized.size());
  // Exhausted streams stay exhausted.
  EXPECT_EQ(stream.next(), nullptr);
}

TEST(GeneratedStream, ByteForByteAcrossChunkSizes) {
  const trace::GeneratorConfig cfg = small_config(0, 20250809);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{1} << 20}) {
    expect_stream_matches_trace(cfg, chunk);
  }
}

TEST(GeneratedStream, ByteForByteAcrossCanonicalClusterMixes) {
  // Every canonical archetype mix, including the rare-workload special
  // cluster (3) and the ML/simulation-heavy one (4) whose diurnal
  // concentration stresses the lookahead bound hardest.
  for (std::uint32_t cluster_id = 0; cluster_id < 5; ++cluster_id) {
    SCOPED_TRACE("cluster " + std::to_string(cluster_id));
    trace::GeneratorConfig cfg = small_config(cluster_id, 777);
    expect_stream_matches_trace(cfg, 64);
  }
}

TEST(GeneratedStream, LongerHorizonAndWiderClusterStaysIdentical) {
  trace::GeneratorConfig cfg = small_config(2, 4242);
  cfg.num_pipelines = 25;
  cfg.duration = 21.0 * kDay;  // several diurnal cycles past the window
  expect_stream_matches_trace(cfg, 512);
}

TEST(GeneratedStream, RestartsAreDeterministic) {
  const trace::GeneratorConfig cfg = small_config(1, 99);
  trace::GeneratedStream a(cfg, 64);
  trace::GeneratedStream b(cfg, 64);
  std::size_t index = 0;
  for (;;) {
    const trace::Job* ja = a.next();
    const trace::Job* jb = b.next();
    ASSERT_EQ(ja == nullptr, jb == nullptr);
    if (ja == nullptr) break;
    expect_job_eq(*ja, *jb, index++);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(index, 0u);
}

// ---------------------------------------------------------------- summary

TEST(TraceSummary, MatchesTraceAccessorsExactly) {
  const trace::GeneratorConfig cfg = small_config(0, 555);
  const trace::Trace t = trace::generate_cluster_trace(cfg);
  const trace::TraceSummary s = trace::summarize(t);
  EXPECT_EQ(s.job_count, t.size());
  EXPECT_EQ(s.start_time, t.start_time());
  EXPECT_EQ(s.end_time, t.end_time());
  EXPECT_EQ(s.peak_concurrent_bytes, t.peak_concurrent_bytes());
  EXPECT_EQ(s.total_cost_all_hdd, t.total_cost_all_hdd());
}

TEST(TraceSummary, GeneratedPrePassMatchesMaterializedSlice) {
  const trace::GeneratorConfig cfg = small_config(1, 31415);
  const trace::Trace t = trace::generate_cluster_trace(cfg);

  const trace::TraceSummary whole = trace::summarize_generated(cfg);
  EXPECT_EQ(whole.job_count, t.size());
  EXPECT_EQ(whole.peak_concurrent_bytes, t.peak_concurrent_bytes());
  EXPECT_EQ(whole.total_cost_all_hdd, t.total_cost_all_hdd());

  const double boundary = 7.0 * kDay;
  const trace::Trace test = t.slice(boundary, 1e18);
  const trace::TraceSummary sliced =
      trace::summarize_generated(cfg, boundary);
  EXPECT_EQ(sliced.job_count, test.size());
  EXPECT_EQ(sliced.start_time, test.start_time());
  EXPECT_EQ(sliced.end_time, test.end_time());
  EXPECT_EQ(sliced.peak_concurrent_bytes, test.peak_concurrent_bytes());
  EXPECT_EQ(sliced.total_cost_all_hdd, test.total_cost_all_hdd());
}

// ------------------------------------------------------- simulate parity

struct StreamFixture {
  trace::GeneratorConfig cfg;
  trace::Trace train;
  trace::Trace test;
  trace::TraceSummary summary;
  std::unique_ptr<sim::MethodFactory> factory;

  StreamFixture() : cfg(small_config(0, 123457)) {
    const trace::Trace whole = trace::generate_cluster_trace(cfg);
    const double boundary = 7.0 * kDay;
    train = whole.slice(-1e18, boundary);
    test = whole.slice(boundary, 1e18);
    summary = trace::summarize_generated(cfg, boundary);
    core::CategoryModelConfig mc;
    mc.num_categories = 8;
    mc.gbdt.num_rounds = 8;
    factory = std::make_unique<sim::MethodFactory>(train, cost::Rates{}, mc);
  }
};

StreamFixture& fixture() {
  static StreamFixture f;
  return f;
}

void expect_result_eq(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.tco_actual, b.tco_actual);
  EXPECT_EQ(a.tco_all_hdd, b.tco_all_hdd);
  EXPECT_EQ(a.tcio_actual_seconds, b.tcio_actual_seconds);
  EXPECT_EQ(a.tcio_all_hdd_seconds, b.tcio_all_hdd_seconds);
  EXPECT_EQ(a.jobs_total, b.jobs_total);
  EXPECT_EQ(a.jobs_scheduled_ssd, b.jobs_scheduled_ssd);
  EXPECT_EQ(a.peak_ssd_used_bytes, b.peak_ssd_used_bytes);
  EXPECT_EQ(a.hints_on_time, b.hints_on_time);
  EXPECT_EQ(a.hints_late, b.hints_late);
  EXPECT_EQ(a.hints_dropped, b.hints_dropped);
  EXPECT_EQ(a.retrain_events, b.retrain_events);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].job_id, b.outcomes[i].job_id) << i;
    EXPECT_EQ(a.outcomes[i].scheduled, b.outcomes[i].scheduled) << i;
    EXPECT_EQ(a.outcomes[i].spill_fraction, b.outcomes[i].spill_fraction)
        << i;
    EXPECT_EQ(a.outcomes[i].ssd_time_share, b.outcomes[i].ssd_time_share)
        << i;
  }
}

sim::MakeOptions cell_options(sim::MethodId id) {
  sim::MakeOptions options;
  if (id == sim::MethodId::kAdaptiveServedLatency) {
    options.hint_latency = 0.05;
    options.hint_deadline = 0.2;
    options.retrain_period = 12.0 * 3600.0;
    options.noise_seed = 42;
  }
  return options;
}

void expect_streaming_matches_materialized(sim::MethodId id,
                                           const sim::MakeOptions& options,
                                           std::size_t chunk_jobs) {
  auto& f = fixture();
  const std::uint64_t cap = sim::quota_capacity(f.test, 0.05);
  ASSERT_EQ(cap, sim::quota_capacity(f.summary.peak_concurrent_bytes, 0.05));

  const sim::SimResult materialized = sim::run_method(
      *f.factory, id, f.test, cap, options, /*record_outcomes=*/true);

  trace::GeneratedStream generated(f.cfg, chunk_jobs);
  trace::SkipUntilStream test_stream(generated, 7.0 * kDay);
  harness::StreamingRunOptions run;
  run.chunk_jobs = chunk_jobs;
  run.record_outcomes = true;
  run.make = options;
  const sim::SimResult streamed = harness::run_method_streaming(
      *f.factory, id, test_stream, f.summary, cap, run);

  expect_result_eq(streamed, materialized);
}

TEST(StreamingSimulate, BitIdenticalForEveryMethod) {
  for (const sim::MethodId id :
       {sim::MethodId::kFirstFit, sim::MethodId::kHeuristic,
        sim::MethodId::kMlBaseline, sim::MethodId::kAdaptiveHash,
        sim::MethodId::kAdaptiveRanking, sim::MethodId::kOracleTco,
        sim::MethodId::kOracleTcio, sim::MethodId::kTrueCategory,
        sim::MethodId::kAdaptiveServed,
        sim::MethodId::kAdaptiveServedLatency}) {
    SCOPED_TRACE(sim::method_name(id));
    expect_streaming_matches_materialized(id, cell_options(id), 256);
  }
}

TEST(StreamingSimulate, BitIdenticalWithCustomBackendWindowedPrecompute) {
  // The registry-routed ranking chain: materialized mode precomputes one
  // whole-trace hint table; streaming mode precomputes per 128-job window
  // through chunk-sized feature matrices and swaps tables between chunks.
  sim::MakeOptions options;
  options.backend = core::BackendKind::kLogistic;
  expect_streaming_matches_materialized(sim::MethodId::kAdaptiveRanking,
                                        options, 128);
}

TEST(StreamingSimulate, BitIdenticalAcrossWindowSizes) {
  // Window size is an implementation knob, not a semantic one.
  sim::MakeOptions options;
  options.backend = core::BackendKind::kFrequency;
  for (const std::size_t chunk : {std::size_t{33}, std::size_t{4096}}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    expect_streaming_matches_materialized(sim::MethodId::kAdaptiveRanking,
                                          options, chunk);
  }
}

// ------------------------------------------------------------- counters

struct CollectingSink final : public sim::CounterSink {
  std::vector<sim::CounterRow> rows;
  void on_row(const sim::CounterRow& row) override { rows.push_back(row); }
};

TEST(SoakCounters, RowsTelescopeToTotalsAndNeverPerturbTheRun) {
  auto& f = fixture();
  const sim::MethodId id = sim::MethodId::kAdaptiveServedLatency;
  const sim::MakeOptions options = cell_options(id);
  const std::uint64_t cap = sim::quota_capacity(f.test, 0.05);

  harness::StreamingRunOptions plain;
  plain.make = options;
  trace::GeneratedStream g1(f.cfg);
  trace::SkipUntilStream s1(g1, 7.0 * kDay);
  const sim::SimResult without = harness::run_method_streaming(
      *f.factory, id, s1, f.summary, cap, plain);

  CollectingSink sink;
  harness::StreamingRunOptions with = plain;
  with.counter_period = 3600.0;
  with.counter_sink = &sink;
  trace::GeneratedStream g2(f.cfg);
  trace::SkipUntilStream s2(g2, 7.0 * kDay);
  const sim::SimResult counted = harness::run_method_streaming(
      *f.factory, id, s2, f.summary, cap, with);

  expect_result_eq(counted, without);

  // A >1-day test window at hourly cadence.
  ASSERT_GE(sink.rows.size(), 24u);
  std::uint64_t jobs = 0;
  std::uint64_t ssd_jobs = 0;
  std::uint64_t on_time = 0;
  std::uint64_t late = 0;
  std::uint64_t dropped = 0;
  std::uint64_t retrains = 0;
  double tco_actual = 0.0;
  double tco_all_hdd = 0.0;
  double last_t = -1e18;
  for (std::size_t i = 0; i < sink.rows.size(); ++i) {
    const sim::CounterRow& row = sink.rows[i];
    EXPECT_EQ(row.index, i);
    EXPECT_GT(row.t_end, last_t);
    last_t = row.t_end;
    jobs += row.jobs;
    ssd_jobs += row.jobs_scheduled_ssd;
    on_time += row.hints_on_time;
    late += row.hints_late;
    dropped += row.hints_dropped;
    retrains += row.retrain_events;
    tco_actual += row.tco_actual;
    tco_all_hdd += row.tco_all_hdd;
  }
  EXPECT_EQ(jobs, counted.jobs_total);
  EXPECT_EQ(ssd_jobs, counted.jobs_scheduled_ssd);
  EXPECT_EQ(on_time, counted.hints_on_time);
  EXPECT_EQ(late, counted.hints_late);
  EXPECT_EQ(dropped, counted.hints_dropped);
  EXPECT_EQ(retrains, counted.retrain_events);
  EXPECT_NEAR(tco_actual, counted.tco_actual,
              1e-9 * (1.0 + counted.tco_actual));
  EXPECT_NEAR(tco_all_hdd, counted.tco_all_hdd,
              1e-9 * (1.0 + counted.tco_all_hdd));
}

// ------------------------------------------------------------ lead times

TEST(LeadTimes, GeneratorEmitsBoundedLeadsAndScaleZeroDisables) {
  auto& f = fixture();
  ASSERT_FALSE(f.test.empty());
  bool any_positive = false;
  for (const trace::Job& j : f.test.jobs()) {
    EXPECT_GE(j.hint_lead, 0.0);
    EXPECT_LE(j.hint_lead, 2.0 * 3600.0);
    if (j.hint_lead > 0.0) any_positive = true;
  }
  EXPECT_TRUE(any_positive);

  trace::GeneratorConfig no_leads = f.cfg;
  no_leads.hint_lead_scale = 0.0;
  trace::GeneratedStream stream(no_leads, 64);
  std::size_t checked = 0;
  while (const trace::Job* job = stream.next()) {
    ASSERT_EQ(job->hint_lead, 0.0);
    if (++checked >= 500) break;
  }
  EXPECT_GT(checked, 0u);
}

TEST(LeadTimes, SubmitAheadImprovesTimelinessDeterministically) {
  auto& f = fixture();
  const sim::MethodId id = sim::MethodId::kAdaptiveServedLatency;
  sim::MakeOptions options;
  // Latency far beyond the consumer deadline: without leads every hint is
  // late; with trace leads (>= 1 s by construction) they arrive on time.
  options.hint_latency = 0.5;
  options.hint_deadline = 0.01;
  options.noise_seed = 7;
  const std::uint64_t cap = sim::quota_capacity(f.test, 0.05);

  auto run = [&](bool leads) {
    trace::GeneratedStream g(f.cfg);
    trace::SkipUntilStream s(g, 7.0 * kDay);
    harness::StreamingRunOptions ro;
    ro.make = options;
    ro.use_trace_leads = leads;
    return harness::run_method_streaming(*f.factory, id, s, f.summary, cap,
                                         ro);
  };

  const sim::SimResult without = run(false);
  const sim::SimResult with = run(true);
  const sim::SimResult with_again = run(true);
  expect_result_eq(with, with_again);

  EXPECT_GT(with.hints_on_time, without.hints_on_time);
  EXPECT_LT(with.hints_late, without.hints_late);
  EXPECT_EQ(with.jobs_total, without.jobs_total);
}

// Submit-ahead mode submits each job once, at arrival - lead: the arrival
// event must not submit it again. The replay result is pinned to the
// figures of the engine that still re-enqueued at arrival — duplicates
// were absorbed by the first-publication rule, so removing them changes
// no decision, only the request count.
TEST(SubmitAhead, EachJobIsEnqueuedOnce) {
  auto& f = fixture();
  const sim::MethodId id = sim::MethodId::kAdaptiveServedLatency;
  sim::MakeOptions options;
  options.hint_latency = 0.5;
  options.hint_deadline = 0.01;
  options.noise_seed = 7;
  const std::uint64_t cap = sim::quota_capacity(f.test, 0.05);

  sim::StreamingCell cell = f.factory->make_streaming_cell(
      id, f.summary, trace::GeneratedStream::kDefaultChunkJobs, cap, options);
  ASSERT_TRUE(cell.context.hint_service);
  sim::SimConfig config =
      sim::make_sim_config(*f.factory, cell.context, cap);
  config.use_trace_leads = true;
  config.horizon_start = f.summary.start_time;
  config.horizon_end = f.summary.end_time;
  config.expected_jobs = f.summary.job_count;
  trace::GeneratedStream g(f.cfg);
  trace::SkipUntilStream s(g, 7.0 * kDay);
  const sim::SimResult result =
      sim::simulate(s, *cell.context.policy, config);

  const serving::ServingStats stats = cell.context.hint_service->stats();
  EXPECT_EQ(stats.enqueued, result.jobs_total);
  EXPECT_EQ(stats.enqueued + stats.dropped, f.test.size());
  EXPECT_EQ(result.jobs_total, 322u);
  EXPECT_EQ(result.jobs_scheduled_ssd, 205u);
  EXPECT_EQ(result.hints_on_time, 322u);
  EXPECT_EQ(result.hints_late, 0u);
  EXPECT_EQ(result.hints_dropped, 0u);
  EXPECT_EQ(result.peak_ssd_used_bytes, 17629846531u);
  EXPECT_EQ(result.tco_actual, 0x1.7bb555e99c80ap+3);
  EXPECT_EQ(result.tcio_actual_seconds, 0x1.18ec36645d1bep+20);
}

// --------------------------------------------------------------- csv io

TEST(TraceIo, HintLeadRoundTripsAndOldCsvLoadsWithZeroLeads) {
  auto& f = fixture();
  const trace::Trace small = f.test.slice(7.0 * kDay, 7.1 * kDay);
  ASSERT_FALSE(small.empty());

  common::CsvTable table = trace::to_csv(small);
  const trace::Trace reloaded = trace::from_csv(table);
  ASSERT_EQ(reloaded.size(), small.size());
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(reloaded.jobs()[i].hint_lead, small.jobs()[i].hint_lead) << i;
  }

  // Pre-lead exports lack the trailing column entirely.
  ASSERT_EQ(table.header.back(), "hint_lead");
  table.header.pop_back();
  for (auto& row : table.rows) row.pop_back();
  const trace::Trace legacy = trace::from_csv(table);
  ASSERT_EQ(legacy.size(), small.size());
  for (const trace::Job& j : legacy.jobs()) {
    EXPECT_EQ(j.hint_lead, 0.0);
  }
}

}  // namespace
}  // namespace byom
