// Component microbenchmarks (google-benchmark): throughput of the pieces
// that sit on the online path (feature extraction, GBDT inference,
// Algorithm 1 decisions, simulator replay), the offline oracle, and the
// parallel experiment engine (serial vs sharded quota sweep, per-job vs
// batched model inference).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "core/model_backend.h"
#include "features/feature_extractor.h"
#include "features/feature_matrix.h"
#include "features/tokenizer.h"
#include "oracle/greedy_oracle.h"
#include "policy/first_fit.h"
#include "serving/placement_service.h"
#include "harness/experiment_runner.h"
#include "sim/sim_clock.h"
#include "storage/dram_cache.h"
#include "trace/job_stream.h"

using namespace byom;

namespace {

// Mirrors fig07: one trained factory; every AdaptiveRanking cell the sweep
// benches build predicts its test window through its own model registry.
struct Fixture {
  bench::BenchCluster cluster = bench::make_bench_cluster(0, 14, 6.0);

  // Trains the category model here, outside every timed region: the sweep
  // benches time the cells, not the factory's one-time training.
  Fixture() { cluster.factory->warm(sim::MethodId::kAdaptiveRanking); }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

// At least 1k jobs for the inference-latency comparison (paper Figure 9a's
// axis), replicating the test trace when it is smaller.
const std::vector<trace::Job>& inference_jobs() {
  static const std::vector<trace::Job> jobs = [] {
    const auto& test = fixture().cluster.split.test.jobs();
    std::vector<trace::Job> out;
    while (out.size() < 1024) {
      out.insert(out.end(), test.begin(), test.end());
    }
    return out;
  }();
  return jobs;
}

// The fig07 grid the speedup benches shard: all seven methods across a
// representative half of the quota axis.
std::vector<sim::ExperimentCell> sweep_cells(
    const sim::ExperimentRunner& runner, std::size_t cluster_index) {
  const std::vector<sim::MethodId> methods = {
      sim::MethodId::kAdaptiveRanking, sim::MethodId::kAdaptiveHash,
      sim::MethodId::kMlBaseline,      sim::MethodId::kFirstFit,
      sim::MethodId::kHeuristic,       sim::MethodId::kOracleTco,
      sim::MethodId::kOracleTcio};
  const std::vector<double> quotas = {0.01, 0.05, 0.1, 0.35, 0.75};
  return runner.make_grid(cluster_index, methods, quotas);
}

void BM_TokenizeMetadata(benchmark::State& state) {
  const std::string value = "org_adslogs.streamshuffle-p3-prod.dataimporter";
  for (auto _ : state) {
    benchmark::DoNotOptimize(features::tokenize_metadata(value));
  }
}
BENCHMARK(BM_TokenizeMetadata);

// ---- feature pipeline: allocating vs in-place vs shared-matrix lookup ----

void BM_FeatureExtract(benchmark::State& state) {
  const features::FeatureExtractor fx;
  const auto& jobs = fixture().cluster.split.test.jobs();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.extract(jobs[i]));
    i = (i + 1) % jobs.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FeatureExtract);

void BM_FeatureExtractInto(benchmark::State& state) {
  const features::FeatureExtractor fx;
  const auto& jobs = fixture().cluster.split.test.jobs();
  std::vector<float> row(fx.num_features());
  const common::Span<float> out(row.data(), row.size());
  std::size_t i = 0;
  for (auto _ : state) {
    fx.extract_into(jobs[i], out);
    benchmark::DoNotOptimize(row.data());
    i = (i + 1) % jobs.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FeatureExtractInto);

void BM_FeatureMatrixLookup(benchmark::State& state) {
  const features::FeatureExtractor fx;
  const auto& jobs = fixture().cluster.split.test.jobs();
  const features::FeatureMatrix matrix(fx, jobs);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matrix.find(jobs[i].job_id));
    i = (i + 1) % jobs.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FeatureMatrixLookup);

// ---- event engine: typed event scheduling ---------------------------------

void BM_EventScheduleTyped(benchmark::State& state) {
  sim::SimClock clock;
  clock.reserve(1024);
  static std::uint64_t sink = 0;
  const auto handler = [](void*, std::uint64_t arg, double) { sink += arg; };
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      clock.schedule_typed(clock.now() + static_cast<double>(i & 7),
                           sim::SimClock::kReleasePriority, +handler, nullptr,
                           static_cast<std::uint64_t>(i));
    }
    clock.run_all();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 64));
}
BENCHMARK(BM_EventScheduleTyped);

void BM_AdaptivePolicyDecision(benchmark::State& state) {
  const auto& cluster = fixture().cluster;
  const auto& jobs = cluster.split.test.jobs();
  policy::AdaptiveCategoryPolicy policy(
      "bench", core::make_hash_provider(15),
      cluster.factory->adaptive_config());
  policy::StorageView view;
  view.ssd_capacity_bytes = 1ULL << 40;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.decide(jobs[i], view));
    policy.on_placed(jobs[i], {});
    i = (i + 1) % jobs.size();
  }
}
BENCHMARK(BM_AdaptivePolicyDecision);

void BM_SimulatorReplay(benchmark::State& state) {
  const auto& cluster = fixture().cluster;
  const auto cap = sim::quota_capacity(cluster.split.test, 0.05);
  for (auto _ : state) {
    policy::FirstFitPolicy policy;
    benchmark::DoNotOptimize(
        bench::run_policy(policy, cluster.split.test, cap));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * cluster.split.test.size()));
}
BENCHMARK(BM_SimulatorReplay);

// Event-engine overhead vs the synchronous reference loop on the same
// policy. BM_SimulatorReplay above replays through the typed pooled event
// engine (one POD heap event per release, zero per-event allocation); the
// ratio of the two is the engine's hot-path cost, tracked in
// BENCH_microbench.json.
void BM_SimulatorReplaySynchronous(benchmark::State& state) {
  const auto& cluster = fixture().cluster;
  const auto cap = sim::quota_capacity(cluster.split.test, 0.05);
  sim::SimConfig cfg;
  cfg.ssd_capacity_bytes = cap;
  for (auto _ : state) {
    policy::FirstFitPolicy policy;
    benchmark::DoNotOptimize(
        sim::simulate_synchronous(cluster.split.test, policy, cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * cluster.split.test.size()));
}
BENCHMARK(BM_SimulatorReplaySynchronous);

// ---- streaming vs materialized: the "materialize, then replay" tax ----
// Both benches run the same end-to-end pipeline — generate one bench
// cluster's jobs, replay its test window through the event engine — but the
// materialized variant builds the whole Trace up front while the streaming
// one pulls jobs from a GeneratedStream in O(window) memory. Their ratio is
// stream_vs_materialized_overhead_x in BENCH_microbench.json (CI-gated at
// 1.10x): what bounded memory costs in throughput.

struct StreamReplaySetup {
  trace::GeneratorConfig cfg = bench::bench_cluster_config(0, 14, 6.0);
  double boundary = 3.0 * 86400.0;
  trace::TraceSummary summary;
  std::uint64_t cap = 0;

  StreamReplaySetup() {
    summary = trace::summarize_generated(cfg, boundary);
    cap = sim::quota_capacity(summary.peak_concurrent_bytes, 0.05);
  }
};

StreamReplaySetup& stream_replay_setup() {
  static StreamReplaySetup s;
  return s;
}

void BM_SimulatorReplayMaterialized(benchmark::State& state) {
  const auto& setup = stream_replay_setup();
  for (auto _ : state) {
    const trace::Trace whole = trace::generate_cluster_trace(setup.cfg);
    const trace::Trace test = whole.slice(setup.boundary, 1e18);
    policy::FirstFitPolicy policy;
    benchmark::DoNotOptimize(bench::run_policy(policy, test, setup.cap));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * setup.summary.job_count));
}
BENCHMARK(BM_SimulatorReplayMaterialized);

void BM_SimulatorReplayStream(benchmark::State& state) {
  const auto& setup = stream_replay_setup();
  sim::SimConfig cfg;
  cfg.ssd_capacity_bytes = setup.cap;
  cfg.expected_jobs = setup.summary.job_count;
  for (auto _ : state) {
    trace::GeneratedStream generated(setup.cfg);
    trace::SkipUntilStream test_stream(generated, setup.boundary);
    policy::FirstFitPolicy policy;
    benchmark::DoNotOptimize(sim::simulate(test_stream, policy, cfg));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * setup.summary.job_count));
}
BENCHMARK(BM_SimulatorReplayStream);

// The full latency-aware serving pipeline under the event engine: arrival
// events race exponential hint latencies and a daily retrain cadence.
void BM_SimulatorReplayServedLatency(benchmark::State& state) {
  const auto& cluster = fixture().cluster;
  const auto cap = sim::quota_capacity(cluster.split.test, 0.05);
  cluster.factory->warm(sim::MethodId::kAdaptiveServedLatency);
  sim::MakeOptions options;
  options.hint_latency = 0.5;
  options.retrain_period = 86400.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::run_method(*cluster.factory,
                        sim::MethodId::kAdaptiveServedLatency,
                        cluster.split.test, cap, options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * cluster.split.test.size()));
}
BENCHMARK(BM_SimulatorReplayServedLatency);

void BM_OracleGreedy(benchmark::State& state) {
  const auto& cluster = fixture().cluster;
  const auto cap = sim::quota_capacity(cluster.split.test, 0.05);
  const cost::CostModel model;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        oracle::solve_greedy(cluster.split.test.jobs(), cap,
                             oracle::Objective::kTco, model));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * cluster.split.test.size()));
}
BENCHMARK(BM_OracleGreedy);

void BM_DramCacheAccess(benchmark::State& state) {
  storage::DramCache cache(1ULL << 30);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(i % 4096, 1 << 20));
    ++i;
  }
}
BENCHMARK(BM_DramCacheAccess);

void BM_CategoryModelTraining(benchmark::State& state) {
  const auto& cluster = fixture().cluster;
  auto config = bench::bench_model_config(static_cast<int>(state.range(0)));
  config.gbdt.num_rounds = 5;  // keep the microbench quick
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::CategoryModel::train(
        cluster.split.train.jobs(), config));
  }
}
// Real time: a round's class trees are fitted on a worker pool, so the
// calling thread's CPU time would leave most of the fit out.
BENCHMARK(BM_CategoryModelTraining)
    ->Arg(5)
    ->Arg(15)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- parallel experiment engine: serial vs sharded fig07-style sweep ----

void BM_QuotaSweepSerial(benchmark::State& state) {
  auto& cluster = fixture().cluster;
  sim::ExperimentRunner runner(1);
  const auto idx = runner.add_cluster(cluster.factory.get(),
                                      &cluster.split.test);
  const auto cells = sweep_cells(runner, idx);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run_serial(cells));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * cells.size()));
}
BENCHMARK(BM_QuotaSweepSerial)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_QuotaSweepParallel(benchmark::State& state) {
  auto& cluster = fixture().cluster;
  sim::ExperimentRunner runner(static_cast<std::size_t>(state.range(0)));
  const auto idx = runner.add_cluster(cluster.factory.get(),
                                      &cluster.split.test);
  const auto cells = sweep_cells(runner, idx);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run(cells));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * cells.size()));
  state.counters["threads"] = static_cast<double>(runner.num_threads());
}
BENCHMARK(BM_QuotaSweepParallel)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ------- batched inference: per-job predict vs predict_batch (Fig 9a) -----

void BM_InferencePerJob(benchmark::State& state) {
  const auto& model = fixture().cluster.factory->category_model();
  const auto& jobs = inference_jobs();
  for (auto _ : state) {
    int acc = 0;
    for (const auto& job : jobs) acc += model.predict_category(job);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * jobs.size()));
}
BENCHMARK(BM_InferencePerJob)->Unit(benchmark::kMillisecond);

// The GBDT backend's batch over the jobs, extracting every row: the
// denominator of per_job_vs_batch_x.
void BM_InferenceBatch(benchmark::State& state) {
  const auto backend = core::make_gbdt_backend(
      fixture().cluster.factory->shared_category_model());
  const auto& jobs = inference_jobs();
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend->predict_batch(jobs));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * jobs.size()));
}
BENCHMARK(BM_InferenceBatch)->Unit(benchmark::kMillisecond);

// Shared pre-extracted matrix for the kernel-level comparison below: both
// traversals read the same rows, so the ratio isolates forest layout +
// loop order (node-block AoS vs compiled SoA), not feature extraction.
const features::FeatureMatrix& inference_matrix() {
  static const features::FeatureMatrix matrix(
      fixture().cluster.factory->category_model().extractor(),
      inference_jobs());
  return matrix;
}

// The pre-compilation inference path, kept as the benchmark baseline: stage
// a row-pointer array, run the node-block traversal (trees outer, rows
// inner over the 40-byte training nodes), then argmax. Numerator of the
// compiled_vs_nodeblock_x ratio.
void BM_InferenceNodeBlock(benchmark::State& state) {
  const auto& model = fixture().cluster.factory->category_model();
  const auto& classifier = model.classifier();
  const auto& jobs = inference_jobs();
  const auto& matrix = inference_matrix();
  const auto k = static_cast<std::size_t>(classifier.num_classes());
  std::vector<double> scores(jobs.size() * k);
  for (auto _ : state) {
    std::vector<const float*> rows(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      rows[i] = matrix.find(jobs[i].job_id);
    }
    classifier.scores_batch_nodeblock(rows.data(), rows.size(),
                                      scores.data());
    int acc = 0;
    for (std::size_t r = 0; r < jobs.size(); ++r) {
      const double* row = scores.data() + r * k;
      int best = 0;
      for (std::size_t c = 1; c < k; ++c) {
        if (row[c] > row[static_cast<std::size_t>(best)]) {
          best = static_cast<int>(c);
        }
      }
      acc += best;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * jobs.size()));
}
BENCHMARK(BM_InferenceNodeBlock)->Unit(benchmark::kMillisecond);

// The production batch path end to end: the GBDT backend's predict_into
// over the shared matrix (feature block gather + compiled flat-forest
// kernel), as core::predict_categories calls it. Denominator of
// compiled_vs_nodeblock_x.
void BM_InferenceCompiled(benchmark::State& state) {
  const auto backend = core::make_gbdt_backend(
      fixture().cluster.factory->shared_category_model());
  const auto& jobs = inference_jobs();
  const auto& matrix = inference_matrix();
  std::vector<const trace::Job*> pointers;
  for (const auto& job : jobs) pointers.push_back(&job);
  std::vector<int> categories(jobs.size());
  for (auto _ : state) {
    backend->predict_into(pointers, &matrix, categories);
    benchmark::DoNotOptimize(categories.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * jobs.size()));
}
BENCHMARK(BM_InferenceCompiled)->Unit(benchmark::kMillisecond);

// Single-row latency through the compiled forest: scores_into on one
// pre-extracted row at a time — the serving-loop shape (Fig 9a's per-job
// axis) with extraction and allocation both off the clock.
void BM_InferenceCompiledPerJob(benchmark::State& state) {
  const auto& classifier =
      fixture().cluster.factory->category_model().classifier();
  const auto& matrix = inference_matrix();
  const auto k = static_cast<std::size_t>(classifier.num_classes());
  std::vector<double> scores(k);
  std::size_t i = 0;
  for (auto _ : state) {
    classifier.scores_into(matrix.row(i), scores.data());
    benchmark::DoNotOptimize(scores.data());
    i = (i + 1) % matrix.num_rows();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_InferenceCompiledPerJob);

// The same single rows through the batch entry point: a one-row strided
// block, the shape of every served hint (scores_batch via predict_batch).
// Read against BM_InferenceCompiledPerJob: a one-row block should cost one
// serial walk, not a pass of the 64-row blocked kernel.
void BM_InferenceCompiledOneRowBlock(benchmark::State& state) {
  const auto& classifier =
      fixture().cluster.factory->category_model().classifier();
  const auto& matrix = inference_matrix();
  const auto k = static_cast<std::size_t>(classifier.num_classes());
  std::vector<double> scores(k);
  std::size_t i = 0;
  for (auto _ : state) {
    classifier.scores_batch(matrix.row(i), matrix.row_stride(), 1,
                            scores.data());
    benchmark::DoNotOptimize(scores.data());
    i = (i + 1) % matrix.num_rows();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_InferenceCompiledOneRowBlock);

// ---- serving loop: served-hint round trip vs batcher max_batch ----------
//
// Full enqueue -> queue -> batcher -> predict_batch -> publish -> lookup
// cycle per job, inline without a clock (no threads, no thread jitter; the
// lookup drains the queue and every hint is ready): max_batch=1
// degenerates to per-job inference through the serving machinery; larger
// batches amortize the forest traversal, reporting how much of the
// predict_batch speedup the online loop retains.
void BM_ServedHintLatency(benchmark::State& state) {
  auto registry = std::make_shared<core::ModelRegistry>();
  registry->set_default_model(
      fixture().cluster.factory->shared_category_model());
  const auto& jobs = inference_jobs();
  serving::PlacementServiceConfig config;
  config.num_threads = 0;  // inline: lookups drain the queue
  config.queue_capacity = jobs.size();
  config.max_batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    serving::PlacementService service(registry, config);
    service.enqueue_all(jobs);
    int acc = 0;
    for (const auto& job : jobs) {
      acc += service.wait_for(job).value_or(0);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * jobs.size()));
  state.counters["max_batch"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ServedHintLatency)
    ->Arg(1)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// ---- sharded serving: requests/sec vs shard count (the million-RPS path) --
//
// End-to-end threaded serving: enqueue the whole request stream, then
// consume every hint through the routed wait_for. One worker per shard, so
// Arg(N) = N independent lanes (queue + batcher + worker + results each);
// the inference work parallelizes across shards while the consumer
// loop stays serial. requests_per_second is the headline rate;
// deadline_compliance is the fraction of lookups answered within
// request_deadline (hits / (hits + misses)). On a single-core host the
// lanes time-slice and the rate is flat. On a 4-vCPU host, 4 shards ran
// 1.43-1.52x with lock-striped shard queues and 1.20-1.31x with the
// single-mutex queue, whose 1-shard rate is higher (BENCH_microbench.json
// serving_throughput_note). The >= 2x scaling bar is unconfirmed on
// multi-core hardware.
const std::vector<trace::Job>& throughput_jobs() {
  // inference_jobs() replicates the test trace, so its job ids repeat;
  // results tables are keyed by id, so give every request a unique one (the
  // job_key routing input keeps its natural duplication).
  static const std::vector<trace::Job> jobs = [] {
    std::vector<trace::Job> out = inference_jobs();
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].job_id = 1000000 + i;
    }
    return out;
  }();
  return jobs;
}

void BM_ServingThroughput(benchmark::State& state) {
  auto registry = std::make_shared<core::ModelRegistry>();
  registry->set_default_model(
      fixture().cluster.factory->shared_category_model());
  const auto& jobs = throughput_jobs();
  serving::PlacementServiceConfig config;
  config.num_shards = static_cast<std::size_t>(state.range(0));
  config.num_threads = 1;  // one worker per shard
  // The whole stream is enqueued up front, so each shard's bound must hold
  // it all: the job-key router may send every request to one shard.
  config.queue_capacity = jobs.size();
  config.max_batch = 64;
  config.flush_deadline = std::chrono::milliseconds(1);
  config.request_deadline = 0.1;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (auto _ : state) {
    serving::PlacementService service(registry, config);
    service.enqueue_all(jobs);
    int acc = 0;
    for (const auto& job : jobs) {
      acc += service.wait_for(job).value_or(0);
    }
    benchmark::DoNotOptimize(acc);
    const auto stats = service.stats();
    hits += stats.hits;
    misses += stats.misses;
  }
  const auto requests =
      static_cast<std::int64_t>(state.iterations() * jobs.size());
  state.SetItemsProcessed(requests);
  state.counters["requests_per_second"] = benchmark::Counter(
      static_cast<double>(requests), benchmark::Counter::kIsRate);
  state.counters["deadline_compliance"] =
      (hits + misses) > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  state.counters["shards"] = static_cast<double>(config.num_shards);
}
BENCHMARK(BM_ServingThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
