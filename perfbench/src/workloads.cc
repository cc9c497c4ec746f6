#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "features/feature_extractor.h"
#include "features/feature_matrix.h"
#include "harness/streaming.h"
#include "trace/generator.h"
#include "trace/job_stream.h"
#include "trace/trace.h"
#include "traced.h"
#include "window_stream.h"

namespace perfbench {

namespace harness = byom::harness;
namespace sim = byom::sim;
namespace trace = byom::trace;

namespace {

constexpr double kDay = 86400.0;
constexpr double kTrainDays = 7.0;
constexpr double kTestDays = 7.0;
constexpr double kQuota = 0.05;
// The seed moves the replayed week's start by a whole number of minutes
// in [0, kMaxOffsetHours hours); the training week is fixed.
constexpr std::uint64_t kMaxOffsetHours = 1;
// Untraced run: rounds of (set up, replay). At least kMinRounds, and as
// many as it takes for set-ups to add up to kSetupBudgetS (short set-ups
// repeat more), so both medians draw on samples spread over the run.
constexpr std::size_t kMinRounds = 4;
constexpr std::size_t kMaxRounds = 64;
constexpr double kSetupBudgetS = 4.0;
// Traced run: at least this many (untraced, traced) replay pairs.
constexpr int kMinPairs = 2;

constexpr sim::MethodId kMethod = sim::MethodId::kAdaptiveServedLatency;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Everything a replay needs, built before the first one starts.
struct Setup {
  trace::GeneratorConfig cfg;
  double train_to = 0.0;   // training week: [0, train_to)
  double test_from = 0.0;  // replayed window: [test_from, test_to)
  double test_to = 0.0;
  std::unique_ptr<sim::MethodFactory> factory;
  trace::TraceSummary summary;
  std::uint64_t capacity = 0;
  harness::StreamingRunOptions run;
};

// Training-week generation, model training (factory + warm), the test
// window's summary pre-pass and one cell build: the set-up a user pays
// before the replay starts. Each phase is a span of `tracer`.
Setup build_setup(const WorkloadSpec& w, std::uint64_t seed, Tracer& tracer) {
  Scope whole(tracer, SpanName::kSetup);
  Setup s;
  // One fixed cluster trace for every seed; the seed only moves the
  // window, so the pipeline population (and the workload's shape) stays.
  s.cfg = trace::canonical_cluster_config(0);
  s.cfg.duration =
      (kTrainDays + kTestDays) * kDay + kMaxOffsetHours * 3600.0;
  s.train_to = kTrainDays * kDay;
  s.test_from =
      s.train_to +
      static_cast<double>(splitmix64(seed) % (kMaxOffsetHours * 60)) * 60.0;
  s.test_to = s.test_from + kTestDays * kDay;

  std::vector<trace::Job> train_jobs;
  {
    Scope span(tracer, SpanName::kTrainWeek);
    trace::GeneratedStream head(s.cfg);
    WindowStream week(head, 0.0, s.train_to);
    while (const trace::Job* job = week.next()) train_jobs.push_back(*job);
  }
  trace::Trace train(s.cfg.cluster_id, std::move(train_jobs));

  sim::MakeOptions& make = s.run.make;
  make.hint_latency = 0.5;
  make.hint_deadline = 1.0;
  // Daily retrains for the cluster model. The fleet serves the week on the
  // models it brought: a retrain re-fits every cheap per-pipeline model
  // from scratch, CPU-bound work that would swamp the serving path.
  make.retrain_period = w.per_pipeline_backends ? 0.0 : kDay;
  // Latency and staleness draws are per-job hashes keyed by this fixed
  // seed: a job gets the same draws whichever window it falls in.
  make.noise_seed = 2025;
  if (w.per_pipeline_backends) {
    const byom::core::BackendKind kinds[] = {
        byom::core::BackendKind::kGbdt, byom::core::BackendKind::kLogistic,
        byom::core::BackendKind::kFrequency};
    const std::vector<std::string> pipelines =
        trace::distinct_pipelines(train);
    for (std::size_t p = 0; p < pipelines.size(); ++p) {
      make.pipeline_backends.emplace_back(pipelines[p], kinds[p % 3]);
    }
  }

  {
    Scope span(tracer, SpanName::kTrain);
    // The figure benches' model: 15 categories, 20 boosting rounds.
    byom::core::CategoryModelConfig model;
    model.num_categories = 15;
    model.gbdt.num_rounds = 20;
    model.gbdt.max_trees_total = 300;
    s.factory = std::make_unique<sim::MethodFactory>(std::move(train),
                                                     s.cfg.rates, model);
    s.factory->warm(kMethod, make);
  }
  {
    Scope span(tracer, SpanName::kSummary);
    trace::GeneratedStream generated(s.cfg, s.run.chunk_jobs);
    WindowStream test(generated, s.test_from, s.test_to);
    s.summary = trace::summarize(test);
  }
  s.capacity = sim::quota_capacity(s.summary.peak_concurrent_bytes, kQuota);
  {
    Scope span(tracer, SpanName::kCellBuild);
    (void)s.factory->make_streaming_cell(kMethod, s.summary, s.run.chunk_jobs,
                                         s.capacity, make);
  }
  return s;
}

struct Replay {
  sim::SimResult result;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;  // process CPU
};

// One replay through the product entry point; only the
// run_method_streaming call is timed (not the window's prefix).
Replay untraced_replay(const Setup& s) {
  trace::GeneratedStream generated(s.cfg, s.run.chunk_jobs);
  WindowStream test(generated, s.test_from, s.test_to);
  Replay r;
  const std::int64_t wall0 = wall_ns();
  const std::int64_t cpu0 = process_cpu_ns();
  r.result = harness::run_method_streaming(*s.factory, kMethod, test,
                                           s.summary, s.capacity, s.run);
  r.cpu_ns = process_cpu_ns() - cpu0;
  r.wall_ns = wall_ns() - wall0;
  return r;
}

TracedReplay run_traced(const Setup& s, Tracer& tracer) {
  trace::GeneratedStream generated(s.cfg, s.run.chunk_jobs);
  WindowStream test(generated, s.test_from, s.test_to);
  return traced_replay(*s.factory, kMethod, test, s.summary, s.capacity,
                       s.run, tracer);
}

// Correctness checks; a replay failing any counts all its jobs as failed.
class Checks {
 public:
  explicit Checks(const Setup& s)
      : job_count_(s.summary.job_count), capacity_(s.capacity) {}

  void replay(const sim::SimResult& r, const sim::SimResult* reference) {
    start(r.jobs_total);
    expect(r.jobs_total == job_count_, "jobs replayed != summary job count");
    expect(r.peak_ssd_used_bytes <= capacity_,
           "peak_ssd_used_bytes > SSD capacity");
    expect(r.hints_on_time + r.hints_late + r.hints_dropped == r.jobs_total,
           "on_time + late + dropped != jobs");
    std::string diff;
    if (reference != nullptr && !same_result(r, *reference, &diff)) {
      fail("SimResult differs from the first replay in " + diff);
    }
  }

  void traced(const TracedReplay& t, const sim::SimResult& untraced) {
    replay(t.result, nullptr);
    expect(t.decide_calls == t.result.jobs_total,
           "decide calls != jobs replayed");
    expect(t.on_placed_calls == t.result.jobs_total,
           "on_placed calls != jobs replayed");
    // Every executed serving request went through a traced backend: the
    // wrappers survived each retrain's hot-swap.
    expect(t.predicted_rows + t.serving_pending == t.serving.enqueued,
           "rows through traced backends != serving requests");
    std::string diff;
    if (!same_result(t.result, untraced, &diff)) {
      fail("traced SimResult differs from untraced in " + diff);
    }
  }

  void extracted(const byom::features::FeatureMatrix& matrix) {
    if (matrix.num_rows() != job_count_) {
      fail("feature matrix rows != summary job count");
    }
  }

  void finish_all() { close(); }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  void start(std::uint64_t jobs) {
    close();
    current_jobs_ = jobs;
    current_failed_ = false;
    attempted_ += jobs;
  }
  void close() {
    if (current_failed_) failed_ += current_jobs_;
    current_failed_ = false;
    current_jobs_ = 0;
  }
  void expect(bool ok, const char* what) {
    if (!ok) fail(what);
  }
  void fail(const std::string& what) {
    current_failed_ = true;
    if (std::find(failures_.begin(), failures_.end(), what) ==
        failures_.end()) {
      failures_.push_back(what);
    }
  }

  std::size_t job_count_;
  std::uint64_t capacity_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t current_jobs_ = 0;
  bool current_failed_ = false;
  std::vector<std::string> failures_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double per_job(double total, std::uint64_t jobs) {
  return jobs > 0 ? total / static_cast<double>(jobs) : 0.0;
}

double hint_on_time_pct(const sim::SimResult& r) {
  const double requests =
      static_cast<double>(r.hints_on_time + r.hints_late + r.hints_dropped);
  return requests > 0
             ? 100.0 * static_cast<double>(r.hints_on_time) / requests
             : 0.0;
}

RunReport untraced_run(const RunOptions& o) {
  const WorkloadSpec& w = o.workload;
  Tracer setup_tracer;
  std::vector<double> setup_s;
  std::vector<double> rates;
  std::unique_ptr<Setup> s;
  std::unique_ptr<Checks> checks;
  sim::SimResult first;
  std::size_t rounds = kMinRounds;
  std::uint64_t peak_kb = 0;
  const std::int64_t slice_total = static_cast<std::int64_t>(o.seconds * 1e9);
  for (std::size_t round = 0; round < rounds; ++round) {
    s.reset();  // the previous set-up is freed before the next is built
    const std::int64_t t0 = wall_ns();
    s = std::make_unique<Setup>(build_setup(w, o.seed, setup_tracer));
    setup_s.push_back(seconds(wall_ns() - t0));
    if (round == 0) {
      rounds = std::clamp(
          static_cast<std::size_t>(kSetupBudgetS / setup_s.back()) + 1,
          kMinRounds, kMaxRounds);
      checks = std::make_unique<Checks>(*s);
    }

    // Warm-up replay after each set-up: lazy state settles; checked, not
    // timed. The first one is the reference every later replay must match.
    const Replay warm = untraced_replay(*s);
    checks->replay(warm.result, round == 0 ? nullptr : &first);
    if (round == 0) {
      first = warm.result;
      // Peak memory of one set-up and its replay; later rounds would only
      // add allocator fragmentation that varies with timing.
      peak_kb = peak_rss_kb();
    }

    // This round's share of the measuring time, at least one replay.
    const std::int64_t deadline =
        wall_ns() + slice_total / static_cast<std::int64_t>(rounds);
    do {
      const Replay r = untraced_replay(*s);
      checks->replay(r.result, &first);
      rates.push_back(static_cast<double>(r.result.jobs_total) /
                      seconds(r.wall_ns));
    } while (wall_ns() < deadline);
  }
  checks->finish_all();

  RunReport report;
  report.metrics = {
      {"jobs_per_s", median(rates), "jobs/s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", static_cast<double>(peak_kb) / 1024.0, "MB"},
      {"tco_savings_pct", first.tco_savings_pct(), "%"},
      {"hint_on_time_pct", hint_on_time_pct(first), "%"},
  };
  report.attempted = checks->attempted();
  report.failed = checks->failed();
  report.failures = checks->failures();
  report.digest = result_digest(first);
  report.replays = rates.size() + rounds;
  report.jobs_per_replay = s->summary.job_count;
  return report;
}

RunReport traced_run(const RunOptions& o) {
  const WorkloadSpec& w = o.workload;
  Tracer tracer;
  const Setup s = build_setup(w, o.seed, tracer);
  Checks checks(s);

  const Replay first = untraced_replay(s);
  checks.replay(first.result, nullptr);
  std::vector<trace::Job> window_jobs;
  {
    trace::GeneratedStream generated(s.cfg, s.run.chunk_jobs);
    WindowStream test(generated, s.test_from, s.test_to);
    while (const trace::Job* job = test.next()) window_jobs.push_back(*job);
  }

  tracer.keep_samples(SpanName::kDecide, 4 * s.summary.job_count);
  std::vector<double> untraced_wall;
  std::vector<double> traced_wall;
  std::int64_t untraced_cpu_total = 0;
  std::int64_t untraced_wall_total = 0;
  std::uint64_t untraced_jobs = 0;
  std::uint64_t traced_jobs = 0;
  std::uint64_t ssd_decisions = 0;
  std::uint64_t clock_events = 0;
  TracedReplay last;
  const std::int64_t deadline =
      wall_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  while (static_cast<int>(traced_wall.size()) < kMinPairs ||
         wall_ns() < deadline) {
    const Replay u = untraced_replay(s);
    checks.replay(u.result, &first.result);
    untraced_wall.push_back(static_cast<double>(u.wall_ns));
    untraced_cpu_total += u.cpu_ns;
    untraced_wall_total += u.wall_ns;
    untraced_jobs += u.result.jobs_total;

    last = run_traced(s, tracer);
    checks.traced(last, first.result);
    traced_wall.push_back(static_cast<double>(last.replay_wall_ns));
    traced_jobs += last.result.jobs_total;
    ssd_decisions += last.ssd_decisions;
    clock_events += last.clock_events;

    // The served path extracts each job's features inside predict_batch;
    // the features layer alone, over the same jobs, outside any replay.
    byom::features::FeatureMatrixPtr matrix;
    {
      Scope span(tracer, SpanName::kExtract);
      matrix = byom::features::make_feature_matrix(
          byom::features::FeatureExtractor{}, window_jobs);
    }
    checks.extracted(*matrix);
  }
  checks.finish_all();
  if (tracer.open_spans() != 0) {
    throw std::logic_error("traced run left spans open");
  }

  const auto total = [&](SpanName n) { return tracer.totals(n); };
  const auto ns_per_job = [&](std::int64_t ns) {
    return per_job(static_cast<double>(ns), traced_jobs);
  };
  std::vector<std::int64_t> decide = tracer.samples(SpanName::kDecide);
  std::sort(decide.begin(), decide.end());
  const bool p999_ok = tail_quantile(decide.size()) >= 0.999;
  const SpanTotals replay = total(SpanName::kReplay);
  const double untraced_median = median(untraced_wall);
  const double traced_median = median(traced_wall);

  // One traced replay's serving counters (identical across replays).
  const auto& st = last.serving;
  const double lookups = static_cast<double>(st.hits + st.misses);

  // The traced replay span is the disjoint sum of its direct children and
  // its self time (the engine). core.predict runs nested inside decide (and
  // enqueue), so it is a share of theirs, not a further term.
  const double accounted =
      ns_per_job(total(SpanName::kNext).wall_ns) +
      ns_per_job(total(SpanName::kDecide).wall_ns) +
      ns_per_job(total(SpanName::kOnPlaced).wall_ns) +
      ns_per_job(total(SpanName::kEnqueue).wall_ns) +
      ns_per_job(replay.self_ns());

  RunReport report;
  const SpanTotals cell = total(SpanName::kCellBuild);
  report.metrics = {
      {"trace.train_week_s", seconds(total(SpanName::kTrainWeek).wall_ns), "s"},
      {"trace.summary_s", seconds(total(SpanName::kSummary).wall_ns), "s"},
      {"trace.next_ns_per_job", ns_per_job(total(SpanName::kNext).wall_ns),
       "ns"},
      {"ml.train_s", seconds(total(SpanName::kTrain).wall_ns), "s"},
      {"harness.cell_build_s",
       cell.count > 0 ? seconds(cell.wall_ns) / static_cast<double>(cell.count)
                      : 0.0,
       "s"},
      {"policy.decide_ns_per_job",
       ns_per_job(total(SpanName::kDecide).wall_ns), "ns"},
      {"policy.decide_cpu_ns_per_job",
       ns_per_job(total(SpanName::kDecide).cpu_ns), "ns"},
      {"policy.decide_offcpu_ns_per_job",
       ns_per_job(total(SpanName::kDecide).offcpu_ns()), "ns"},
      {"policy.decide_p50_ns", static_cast<double>(quantile(decide, 0.5)),
       "ns"},
      {"policy.decide_p999_ns",
       p999_ok ? static_cast<double>(quantile(decide, 0.999)) : 0.0, "ns"},
      {"policy.decide_samples", static_cast<double>(decide.size()), "count"},
      {"core.predict_ns_per_job",
       ns_per_job(total(SpanName::kPredict).wall_ns), "ns"},
      {"core.predict_cpu_ns_per_job",
       ns_per_job(total(SpanName::kPredict).cpu_ns), "ns"},
      {"core.predict_offcpu_ns_per_job",
       ns_per_job(total(SpanName::kPredict).offcpu_ns()), "ns"},
      {"features.extract_ns_per_job",
       per_job(static_cast<double>(total(SpanName::kExtract).wall_ns),
               window_jobs.size() * total(SpanName::kExtract).count),
       "ns"},
      {"policy.on_placed_ns_per_job",
       ns_per_job(total(SpanName::kOnPlaced).wall_ns), "ns"},
      {"policy.ssd_pct",
       100.0 * per_job(static_cast<double>(ssd_decisions), traced_jobs), "%"},
      {"serving.enqueue_ns_per_job",
       ns_per_job(total(SpanName::kEnqueue).wall_ns), "ns"},
      {"serving.enqueue_offcpu_ns_per_job",
       ns_per_job(total(SpanName::kEnqueue).offcpu_ns()), "ns"},
      {"serving.batches", static_cast<double>(st.batches), "count"},
      {"serving.rows_per_batch",
       st.batches > 0 ? static_cast<double>(st.completed) /
                            static_cast<double>(st.batches)
                      : 0.0,
       "count"},
      {"serving.lookup_hit_pct",
       lookups > 0 ? 100.0 * static_cast<double>(st.hits) / lookups : 0.0,
       "%"},
      {"serving.late", static_cast<double>(st.late), "count"},
      {"serving.dropped", static_cast<double>(st.dropped), "count"},
      {"sim.engine_ns_per_job", ns_per_job(replay.self_ns()), "ns"},
      {"sim.events_per_job",
       per_job(static_cast<double>(clock_events), traced_jobs), "count"},
      {"replay.traced_ns_per_job", ns_per_job(replay.wall_ns), "ns"},
      {"replay.accounted_pct",
       replay.wall_ns > 0 ? 100.0 * accounted / ns_per_job(replay.wall_ns)
                          : 0.0,
       "%"},
      {"replay.wall_ns_per_job",
       per_job(static_cast<double>(untraced_wall_total), untraced_jobs), "ns"},
      {"replay.cpu_ns_per_job",
       per_job(static_cast<double>(untraced_cpu_total), untraced_jobs), "ns"},
      {"replay.offcpu_ns_per_job",
       per_job(static_cast<double>(
                   off_cpu_ns(untraced_wall_total, untraced_cpu_total)),
               untraced_jobs),
       "ns"},
      {"tracing_overhead_pct",
       untraced_median > 0
           ? 100.0 * (traced_median - untraced_median) / untraced_median
           : 0.0,
       "%"},
  };
  report.attempted = checks.attempted();
  report.failed = checks.failed();
  report.failures = checks.failures();
  report.digest = result_digest(first.result);
  report.replays = untraced_wall.size() + traced_wall.size() + 1;
  report.jobs_per_replay = s.summary.job_count;

  if (!o.spans_path.empty()) {
    std::FILE* out = std::fopen(o.spans_path.c_str(), "w");
    if (out == nullptr) {
      throw std::runtime_error("cannot write " + o.spans_path);
    }
    tracer.write_json(out);
    std::fclose(out);
  }
  return report;
}

}  // namespace

namespace {

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      {"served_arrival", false},
      {"served_fleet", true},
  };
  return all;
}

}  // namespace

bool find_workload(const std::string& name, WorkloadSpec* out) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) {
      *out = w;
      return true;
    }
  }
  return false;
}

RunReport run_workload(const RunOptions& options) {
  return options.trace ? traced_run(options) : untraced_run(options);
}

std::uint64_t peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

}  // namespace perfbench
