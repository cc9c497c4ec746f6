// Hot-path regression suite for the typed event engine and the
// zero-allocation feature pipeline:
//   * allocation-count guards (a global operator new hook) pinning the
//     "zero steady-state heap allocations" contract of
//     FeatureExtractor::extract_into and SimClock::schedule_typed;
//   * bit-identity of the new paths against their references — matrix rows
//     vs extract(), precompute_categories with vs without the shared
//     FeatureMatrix for every backend kind, and the event engine vs the
//     synchronous oracle with non-default (registry/matrix-routed)
//     backends.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/byom.h"
#include "core/model_backend.h"
#include "core/model_registry.h"
#include "features/feature_extractor.h"
#include "features/feature_matrix.h"
#include "harness/experiment.h"
#include "sim/sim_clock.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/job_stream.h"

// ---------------------------------------------------- allocation hook
// Counts every scalar/array heap allocation in this binary; tests sample
// the counter around hot regions to assert steady-state allocation freedom.
namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  // atomic: relaxed — allocation tally; sampled single-threaded, no
  // ordering needed
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
// The nothrow forms must be overridden alongside the throwing ones: the
// library pairs them with the plain operator delete below (e.g.
// std::get_temporary_buffer inside std::stable_sort), and a half-replaced
// set routes a default-new allocation into our free() — flagged as an
// alloc-dealloc mismatch by the CI asan-ubsan job.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  // atomic: relaxed — allocation tally; sampled single-threaded
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace byom {
namespace {

std::uint64_t allocations() {
  // atomic: relaxed — tally read on the sampling thread itself
  return g_allocations.load(std::memory_order_relaxed);
}

trace::TrainTestSplit& split() {
  static trace::TrainTestSplit s = [] {
    trace::GeneratorConfig cfg = trace::canonical_cluster_config(0, 9090);
    cfg.num_pipelines = 10;
    cfg.duration = 5.0 * 86400.0;
    return trace::split_train_test(trace::generate_cluster_trace(cfg));
  }();
  return s;
}

core::BackendConfig small_backend_config() {
  core::BackendConfig config;
  config.model.num_categories = 6;
  config.model.gbdt.num_rounds = 5;
  return config;
}

// ---------------------------------------------------- allocation guards

TEST(AllocationGuard, ExtractIntoIsAllocationFreeInSteadyState) {
  const features::FeatureExtractor extractor;
  const auto& jobs = split().test.jobs();
  ASSERT_FALSE(jobs.empty());
  std::vector<float> row(extractor.num_features());
  const common::Span<float> out(row.data(), row.size());

  extractor.extract_into(jobs.front(), out);  // warm-up
  const std::uint64_t before = allocations();
  for (const auto& job : jobs) extractor.extract_into(job, out);
  EXPECT_EQ(allocations(), before)
      << "extract_into allocated on the per-job path";
}

TEST(AllocationGuard, TypedEventSchedulingIsAllocationFreeInSteadyState) {
  sim::SimClock clock;
  clock.reserve(512);
  static std::uint64_t sink = 0;
  const auto handler = [](void*, std::uint64_t arg, double) { sink += arg; };

  const auto round = [&](int events) {
    for (int i = 0; i < events; ++i) {
      clock.schedule_typed(clock.now() + static_cast<double>(i % 5),
                           sim::SimClock::kReleasePriority,
                           sim::SimClock::EventKind::kRelease, +handler,
                           nullptr, static_cast<std::uint64_t>(i));
    }
    clock.run_all();
  };

  round(256);  // warm-up: heap at capacity
  const std::uint64_t before = allocations();
  for (int r = 0; r < 8; ++r) round(256);
  EXPECT_EQ(allocations(), before)
      << "typed event scheduling allocated in steady state";
}

TEST(AllocationGuard, CompiledBatchScoringIsAllocationFreeInSteadyState) {
  // The compiled flat-forest kernel over a pre-extracted strided block into
  // a preallocated scores buffer: the whole scoring loop must run without
  // touching the heap.
  static const core::CategoryModel model = [] {
    core::CategoryModelConfig config;
    config.num_categories = 6;
    config.gbdt.num_rounds = 5;
    return core::CategoryModel::train(split().train.jobs(), config);
  }();
  const auto& jobs = split().test.jobs();
  const features::FeatureMatrix matrix(model.extractor(), jobs);
  const auto& classifier = model.classifier();
  const auto k = static_cast<std::size_t>(classifier.num_classes());
  std::vector<double> scores(matrix.num_rows() * k);

  classifier.scores_batch(matrix.data(), matrix.row_stride(),
                          matrix.num_rows(), scores.data());  // warm-up
  const std::uint64_t before = allocations();
  for (int round = 0; round < 4; ++round) {
    classifier.scores_batch(matrix.data(), matrix.row_stride(),
                            matrix.num_rows(), scores.data());
  }
  EXPECT_EQ(allocations(), before)
      << "compiled batch scoring allocated in steady state";
}

TEST(AllocationGuard, SingleRowScoringAndPredictAreAllocationFree) {
  static const core::CategoryModel model = [] {
    core::CategoryModelConfig config;
    config.num_categories = 6;
    config.gbdt.num_rounds = 5;
    return core::CategoryModel::train(split().train.jobs(), config);
  }();
  const auto& jobs = split().test.jobs();
  const features::FeatureMatrix matrix(model.extractor(), jobs);
  const auto& classifier = model.classifier();
  std::vector<double> out(static_cast<std::size_t>(classifier.num_classes()));

  classifier.scores_into(matrix.row(0), out.data());  // warm-up
  int acc = classifier.predict(matrix.row(0));
  const std::uint64_t before = allocations();
  for (std::size_t r = 0; r < matrix.num_rows(); ++r) {
    classifier.scores_into(matrix.row(r), out.data());
    acc += classifier.predict(matrix.row(r));
  }
  EXPECT_EQ(allocations(), before)
      << "single-row compiled scoring allocated on the per-row path";
  EXPECT_GE(acc, 0);
}

TEST(AllocationGuard, MaterializedStreamScanIsAllocationFree) {
  // The streaming replay's bit-identity bridge: a full pass over a
  // materialized trace must be pure index advances into the trace's own
  // storage.
  trace::MaterializedStream stream(split().test);
  ASSERT_NE(stream.next(), nullptr);  // warm-up (nothing to warm, by design)
  const std::uint64_t before = allocations();
  std::size_t count = 0;
  while (stream.next() != nullptr) ++count;
  EXPECT_EQ(allocations(), before)
      << "MaterializedStream::next allocated while scanning";
  EXPECT_EQ(count + 1, split().test.size());
}

TEST(AllocationGuard, GeneratedStreamInChunkNextIsAllocationFree) {
  // Within a chunk, GeneratedStream::next is an index advance over recycled
  // synthesis slots. Refills may allocate (string growth, planner windows),
  // so the guard brackets exactly one chunk's interior: consume to a chunk
  // boundary, cross it (refill allowed to allocate), then demand the rest
  // of the fresh chunk allocation-free.
  trace::GeneratorConfig cfg = trace::canonical_cluster_config(0, 9090);
  cfg.num_pipelines = 10;
  cfg.duration = 5.0 * 86400.0;
  trace::GeneratedStream stream(cfg, 256);
  while (!stream.at_chunk_boundary()) {
    ASSERT_NE(stream.next(), nullptr);
  }
  ASSERT_NE(stream.next(), nullptr);  // crosses the boundary: refill happens
  ASSERT_FALSE(stream.at_chunk_boundary());
  const std::uint64_t before = allocations();
  std::size_t consumed = 0;
  while (!stream.at_chunk_boundary()) {
    ASSERT_NE(stream.next(), nullptr);
    ++consumed;
  }
  EXPECT_EQ(allocations(), before)
      << "GeneratedStream::next allocated inside a chunk";
  EXPECT_EQ(consumed, stream.chunk_jobs() - 1);
}

// ---------------------------------------------------- typed event engine

TEST(TypedEvents, KindsInterleaveBySequence) {
  // The kind tag sits below the sequence in the packed key: at equal time
  // and priority, events of different kinds run in schedule order.
  sim::SimClock clock;
  std::vector<int> order;
  const auto record = [](void* ctx, std::uint64_t arg, double) {
    static_cast<std::vector<int>*>(ctx)->push_back(static_cast<int>(arg));
  };
  const sim::SimClock::EventKind kinds[] = {
      sim::SimClock::EventKind::kHintReady, sim::SimClock::EventKind::kRelease,
      sim::SimClock::EventKind::kRetrain, sim::SimClock::EventKind::kRelease};
  for (int i = 0; i < 4; ++i) {
    clock.schedule_typed(1.0, sim::SimClock::kArrivalPriority, kinds[i],
                         +record, &order, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(clock.run_all(), 4u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(TypedEvents, PriorityStillOutranksSequenceAcrossKinds) {
  sim::SimClock clock;
  std::vector<int> order;
  const auto record = [](void* ctx, std::uint64_t arg, double) {
    static_cast<std::vector<int>*>(ctx)->push_back(static_cast<int>(arg));
  };
  clock.schedule_typed(2.0, sim::SimClock::kArrivalPriority,
                       sim::SimClock::EventKind::kRelease, +record, &order,
                       3);
  clock.schedule_typed(2.0, sim::SimClock::kHintReadyPriority,
                       sim::SimClock::EventKind::kHintReady, +record, &order,
                       2);
  clock.schedule_typed(2.0, sim::SimClock::kRetrainPriority,
                       sim::SimClock::EventKind::kRetrain, +record, &order, 1);
  clock.schedule_typed(2.0, sim::SimClock::kReleasePriority,
                       sim::SimClock::EventKind::kRelease, +record, &order, 0);
  clock.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(TypedEvents, RejectsPrioritiesOutsideThePackedRange) {
  // The packed ordering key gives priority 8 bits; out-of-range values
  // must throw instead of silently wrapping and reordering events.
  sim::SimClock clock;
  const auto noop = [](void*, std::uint64_t, double) {};
  EXPECT_THROW(clock.schedule_typed(0.0, -1, sim::SimClock::EventKind::kRelease,
                                    +noop, nullptr),
               std::invalid_argument);
  EXPECT_THROW(clock.schedule_typed(0.0, 256,
                                    sim::SimClock::EventKind::kRelease, +noop,
                                    nullptr),
               std::invalid_argument);
  EXPECT_EQ(clock.pending(), 0u);
}

TEST(TypedEvents, HandlerReceivesScheduledTime) {
  sim::SimClock clock;
  double fired_at = -1.0;
  const auto record = [](void* ctx, std::uint64_t, double time) {
    *static_cast<double*>(ctx) = time;
  };
  clock.schedule_typed(4.5, sim::SimClock::kDefaultPriority,
                       sim::SimClock::EventKind::kRelease, +record,
                       &fired_at);
  clock.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 4.5);
  EXPECT_DOUBLE_EQ(clock.now(), 4.5);
}

// ---------------------------------------------------- feature bit-identity

TEST(FeatureMatrixIdentity, RowsMatchExtractExactly) {
  const features::FeatureExtractor extractor;
  const auto& jobs = split().test.jobs();
  const features::FeatureMatrix matrix(extractor, jobs);
  ASSERT_EQ(matrix.num_rows(), jobs.size());
  ASSERT_EQ(matrix.num_features(), extractor.num_features());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto reference = extractor.extract(jobs[i]);
    const float* row = matrix.row(i);
    for (std::size_t f = 0; f < reference.size(); ++f) {
      ASSERT_EQ(row[f], reference[f]) << "row " << i << " feature " << f;
    }
    EXPECT_EQ(matrix.find(jobs[i].job_id), row);
  }
  EXPECT_EQ(matrix.find(~0ULL), nullptr);
}

TEST(FeatureMatrixIdentity, PrecomputeWithMatrixMatchesWithoutPerBackend) {
  const auto& jobs = split().test.jobs();
  const features::FeatureMatrix matrix(features::FeatureExtractor{}, jobs);
  for (const core::BackendKind kind :
       {core::BackendKind::kGbdt, core::BackendKind::kLogistic,
        core::BackendKind::kFrequency}) {
    SCOPED_TRACE(core::backend_kind_name(kind));
    core::ModelRegistry registry;
    registry.set_default_model(core::train_backend(kind, split().train.jobs(),
                                                   small_backend_config()));
    const auto plain = core::precompute_categories(registry, jobs, 6);
    const auto shared = core::precompute_categories(registry, jobs, 6,
                                                    &matrix);
    EXPECT_EQ(plain, shared);
  }
}

TEST(FeatureMatrixIdentity, JobsOutsideTheMatrixFallBackToExtraction) {
  const auto& jobs = split().test.jobs();
  ASSERT_GE(jobs.size(), 8u);
  // Matrix over the first half only: the second half must still predict
  // identically via the extraction fallback.
  const std::vector<trace::Job> half(jobs.begin(),
                                     jobs.begin() + jobs.size() / 2);
  const features::FeatureMatrix matrix(features::FeatureExtractor{}, half);
  core::ModelRegistry registry;
  registry.set_default_model(core::train_backend(
      core::BackendKind::kGbdt, split().train.jobs(), small_backend_config()));
  EXPECT_EQ(core::precompute_categories(registry, jobs, 6),
            core::precompute_categories(registry, jobs, 6, &matrix));
}

TEST(FeatureMatrixIdentity, SchemaMismatchedMatrixIsIgnoredSafely) {
  const auto& jobs = split().test.jobs();
  // A matrix built with a different bucket count has a different width;
  // backends must detect the mismatch and extract instead of misreading.
  const features::FeatureMatrix narrow(features::FeatureExtractor{2}, jobs);
  core::ModelRegistry registry;
  registry.set_default_model(core::train_backend(
      core::BackendKind::kGbdt, split().train.jobs(), small_backend_config()));
  EXPECT_EQ(core::precompute_categories(registry, jobs, 6),
            core::precompute_categories(registry, jobs, 6, &narrow));
}

TEST(FeatureMatrixIdentity, ModelPredictCategoriesOverloadMatches) {
  static const core::CategoryModel model = [] {
    core::CategoryModelConfig config;
    config.num_categories = 6;
    config.gbdt.num_rounds = 5;
    return core::CategoryModel::train(split().train.jobs(), config);
  }();
  const auto& jobs = split().test.jobs();
  const features::FeatureMatrix matrix(model.extractor(), jobs);
  EXPECT_EQ(model.predict_categories(jobs),
            model.predict_categories(jobs, &matrix));
}

// ------------------------------------------- engine + pipeline end to end

// The acceptance oracle extended to registry/matrix-routed backends: with a
// non-default backend the AdaptiveRanking provider chain precomputes hints
// through a window-sized FeatureMatrix, and the typed event engine must still
// replay byte-for-byte like the synchronous reference loop.
TEST(EventEngineIdentity, MatrixRoutedBackendsMatchSynchronousOracle) {
  static const sim::MethodFactory factory = [] {
    core::CategoryModelConfig config;
    config.num_categories = 6;
    config.gbdt.num_rounds = 5;
    return sim::MethodFactory(split().train, cost::Rates{}, config);
  }();
  const auto cap = sim::quota_capacity(split().test, 0.05);
  sim::SimConfig config;
  config.ssd_capacity_bytes = cap;
  config.record_outcomes = true;
  for (const core::BackendKind kind :
       {core::BackendKind::kLogistic, core::BackendKind::kFrequency}) {
    SCOPED_TRACE(core::backend_kind_name(kind));
    sim::MakeOptions options;
    options.backend = kind;
    const auto event = factory.make_context(sim::MethodId::kAdaptiveRanking,
                                            split().test, cap, options);
    const auto sync = factory.make_context(sim::MethodId::kAdaptiveRanking,
                                           split().test, cap, options);
    const auto event_result = simulate(split().test, *event.policy, config);
    const auto sync_result =
        simulate_synchronous(split().test, *sync.policy, config);
    EXPECT_EQ(event_result.tco_actual, sync_result.tco_actual);
    EXPECT_EQ(event_result.tcio_actual_seconds,
              sync_result.tcio_actual_seconds);
    EXPECT_EQ(event_result.jobs_scheduled_ssd,
              sync_result.jobs_scheduled_ssd);
    EXPECT_EQ(event_result.peak_ssd_used_bytes,
              sync_result.peak_ssd_used_bytes);
    ASSERT_EQ(event_result.outcomes.size(), sync_result.outcomes.size());
    for (std::size_t i = 0; i < event_result.outcomes.size(); ++i) {
      EXPECT_EQ(event_result.outcomes[i].scheduled,
                sync_result.outcomes[i].scheduled);
      EXPECT_EQ(event_result.outcomes[i].spill_fraction,
                sync_result.outcomes[i].spill_fraction);
    }
  }
}

}  // namespace
}  // namespace byom
