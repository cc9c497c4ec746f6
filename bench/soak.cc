// bench_soak: long-horizon streaming soak of the placement simulator.
//
// Replays weeks of virtual time — far past the two-week figure regime —
// and emits ScaleStore-style per-virtual-hour operator counters (savings,
// hint on-time fraction, retrain/swap counts, SSD occupancy) as CSV, plus a
// one-object JSON summary (peak RSS, jobs/sec) that tools/bench_summary.py
// ingests into BENCH_microbench.json.
//
// Two modes, same work:
//   --mode=stream        pull jobs from a GeneratedStream (O(window) memory:
//                        the tentpole claim — peak RSS stays flat as the
//                        horizon grows);
//   --mode=materialized  generate the whole Trace first, then replay (the
//                        O(trace) baseline the RSS ratio divides by).
//
// Usage:
//   bench_soak [--days=28] [--mode=stream|materialized]
//              [--method=served_latency|served|ranking|first_fit|heuristic]
//              [--pipelines=14] [--seed=2025] [--quota=0.05] [--chunk=4096]
//              [--counter-period=3600] [--retrain-period=86400]
//              [--use-leads=0|1] [--lead-scale=1.0]
//              [--csv=rows.csv] [--json=summary.json]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "harness/streaming.h"
#include "sim/soak_counters.h"
#include "trace/job_stream.h"

using namespace byom;

namespace {

constexpr double kDay = 86400.0;
constexpr double kTrainDays = 7.0;

struct Args {
  double days = 28.0;  // virtual test horizon past the training week
  std::string mode = "stream";
  std::string method = "served_latency";
  int pipelines = 14;
  std::uint64_t seed = 2025;
  double quota = 0.05;
  std::size_t chunk = 4096;
  double counter_period = 3600.0;
  double retrain_period = kDay;
  bool use_leads = false;
  double lead_scale = 1.0;
  std::string csv_path;
  std::string json_path;
};

bool parse_arg(const char* arg, const char* key, const char** value) {
  const std::size_t n = std::strlen(key);
  if (std::strncmp(arg, key, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (parse_arg(argv[i], "--days", &v)) {
      a.days = std::atof(v);
    } else if (parse_arg(argv[i], "--mode", &v)) {
      a.mode = v;
    } else if (parse_arg(argv[i], "--method", &v)) {
      a.method = v;
    } else if (parse_arg(argv[i], "--pipelines", &v)) {
      a.pipelines = std::atoi(v);
    } else if (parse_arg(argv[i], "--seed", &v)) {
      a.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (parse_arg(argv[i], "--quota", &v)) {
      a.quota = std::atof(v);
    } else if (parse_arg(argv[i], "--chunk", &v)) {
      a.chunk = static_cast<std::size_t>(std::atoll(v));
    } else if (parse_arg(argv[i], "--counter-period", &v)) {
      a.counter_period = std::atof(v);
    } else if (parse_arg(argv[i], "--retrain-period", &v)) {
      a.retrain_period = std::atof(v);
    } else if (parse_arg(argv[i], "--use-leads", &v)) {
      a.use_leads = std::atoi(v) != 0;
    } else if (parse_arg(argv[i], "--lead-scale", &v)) {
      a.lead_scale = std::atof(v);
    } else if (parse_arg(argv[i], "--csv", &v)) {
      a.csv_path = v;
    } else if (parse_arg(argv[i], "--json", &v)) {
      a.json_path = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return a;
}

sim::MethodId method_from_name(const std::string& name) {
  if (name == "served_latency") return sim::MethodId::kAdaptiveServedLatency;
  if (name == "served") return sim::MethodId::kAdaptiveServed;
  if (name == "ranking") return sim::MethodId::kAdaptiveRanking;
  if (name == "first_fit") return sim::MethodId::kFirstFit;
  if (name == "heuristic") return sim::MethodId::kHeuristic;
  std::fprintf(stderr, "unknown method: %s\n", name.c_str());
  std::exit(2);
}

// Peak resident set (VmHWM) in kB from /proc/self/status; 0 if unreadable.
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

// Streams rows to CSV as windows close — O(1) memory, like everything else
// on the soak path — while folding the handful of aggregates the JSON
// summary reports.
class CsvCounterSink final : public sim::CounterSink {
 public:
  explicit CsvCounterSink(std::FILE* out) : out_(out) {
    if (out_ != nullptr) {
      std::fprintf(out_,
                   "index,t_end_hours,jobs,jobs_scheduled_ssd,tco_actual,"
                   "tco_all_hdd,tco_savings_pct,hints_on_time,hints_late,"
                   "hints_dropped,hint_on_time_fraction,retrain_events,"
                   "ssd_used_bytes,peak_ssd_used_bytes\n");
    }
  }

  void on_row(const sim::CounterRow& row) override {
    ++rows_;
    if (out_ == nullptr) return;
    std::fprintf(out_,
                 "%llu,%.4f,%llu,%llu,%.6e,%.6e,%.3f,%llu,%llu,%llu,%.4f,"
                 "%llu,%llu,%llu\n",
                 static_cast<unsigned long long>(row.index),
                 row.t_end / 3600.0,
                 static_cast<unsigned long long>(row.jobs),
                 static_cast<unsigned long long>(row.jobs_scheduled_ssd),
                 row.tco_actual, row.tco_all_hdd, row.tco_savings_pct,
                 static_cast<unsigned long long>(row.hints_on_time),
                 static_cast<unsigned long long>(row.hints_late),
                 static_cast<unsigned long long>(row.hints_dropped),
                 row.hint_on_time_fraction,
                 static_cast<unsigned long long>(row.retrain_events),
                 static_cast<unsigned long long>(row.ssd_used_bytes),
                 static_cast<unsigned long long>(row.peak_ssd_used_bytes));
  }

  std::uint64_t rows() const { return rows_; }

 private:
  std::FILE* out_;
  std::uint64_t rows_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const sim::MethodId method = method_from_name(args.method);

  trace::GeneratorConfig cfg =
      trace::canonical_cluster_config(0, args.seed);
  cfg.num_pipelines = args.pipelines;
  cfg.duration = (kTrainDays + args.days) * kDay;
  cfg.hint_lead_scale = args.lead_scale;
  const double boundary = kTrainDays * kDay;

  // The training week is materialized in both modes (model fitting needs
  // it); the soak horizon beyond it is what the two modes handle
  // differently.
  std::vector<trace::Job> train_jobs;
  {
    trace::GeneratedStream head(cfg, args.chunk);
    while (const trace::Job* job = head.next()) {
      if (job->arrival_time >= boundary) break;
      train_jobs.push_back(*job);
    }
  }
  const trace::Trace train(cfg.cluster_id, std::move(train_jobs));

  core::CategoryModelConfig mc;
  mc.num_categories = 10;
  mc.gbdt.num_rounds = 12;
  const sim::MethodFactory factory(train, cost::Rates{}, mc);
  factory.warm(method);

  sim::MakeOptions options;
  // Half-second mean serving latency against the default 1 s deadline (the
  // regime of the end-to-end benchmark's served workload): about one hint
  // in seven is late, so the counters exercise the miss path.
  options.hint_latency = 0.5;
  options.retrain_period = args.retrain_period;
  options.noise_seed = args.seed;

  std::FILE* csv = nullptr;
  if (!args.csv_path.empty()) {
    csv = std::fopen(args.csv_path.c_str(), "w");
    if (csv == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", args.csv_path.c_str());
      return 1;
    }
  }
  CsvCounterSink sink(csv);

  harness::StreamingRunOptions run;
  run.chunk_jobs = args.chunk;
  run.make = options;
  run.counter_period = args.counter_period;
  run.counter_sink = &sink;
  run.use_trace_leads = args.use_leads;

  const auto wall_start = std::chrono::steady_clock::now();
  sim::SimResult result;
  std::size_t jobs = 0;

  if (args.mode == "stream") {
    const trace::TraceSummary summary =
        trace::summarize_generated(cfg, boundary);
    const std::uint64_t cap =
        sim::quota_capacity(summary.peak_concurrent_bytes, args.quota);
    trace::GeneratedStream generated(cfg, args.chunk);
    trace::SkipUntilStream test_stream(generated, boundary);
    result = harness::run_method_streaming(factory, method, test_stream,
                                           summary, cap, run);
    jobs = summary.job_count;
  } else if (args.mode == "materialized") {
    // The same driver over the materialized test trace, with one window
    // spanning all of it.
    const trace::Trace whole = trace::generate_cluster_trace(cfg);
    const trace::Trace test = whole.slice(boundary, 1e18);
    const trace::TraceSummary summary = trace::summarize(test);
    const std::uint64_t cap =
        sim::quota_capacity(summary.peak_concurrent_bytes, args.quota);
    trace::MaterializedStream test_stream(test);
    run.chunk_jobs = test.size();
    result = harness::run_method_streaming(factory, method, test_stream,
                                           summary, cap, run);
    jobs = test.size();
  } else {
    std::fprintf(stderr, "unknown mode: %s\n", args.mode.c_str());
    return 2;
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  if (csv != nullptr) std::fclose(csv);

  const std::uint64_t hints_total =
      result.hints_on_time + result.hints_late + result.hints_dropped;
  const double on_time_fraction =
      hints_total > 0
          ? static_cast<double>(result.hints_on_time) /
                static_cast<double>(hints_total)
          : 0.0;
  const double jobs_per_sec =
      wall_seconds > 0.0 ? static_cast<double>(jobs) / wall_seconds : 0.0;

  char json[1024];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\": \"soak\", \"mode\": \"%s\", \"method\": \"%s\", "
      "\"days\": %.1f, \"jobs\": %zu, \"wall_seconds\": %.3f, "
      "\"jobs_per_sec\": %.1f, \"peak_rss_kb\": %llu, "
      "\"tco_savings_pct\": %.3f, \"hint_on_time_fraction\": %.4f, "
      "\"retrain_events\": %llu, \"counter_rows\": %llu, "
      "\"use_leads\": %s}\n",
      args.mode.c_str(), args.method.c_str(), args.days, jobs, wall_seconds,
      jobs_per_sec, static_cast<unsigned long long>(peak_rss_kb()),
      result.tco_savings_pct(), on_time_fraction,
      static_cast<unsigned long long>(result.retrain_events),
      static_cast<unsigned long long>(sink.rows()),
      args.use_leads ? "true" : "false");
  std::fputs(json, stdout);
  if (!args.json_path.empty()) {
    std::FILE* jf = std::fopen(args.json_path.c_str(), "w");
    if (jf == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", args.json_path.c_str());
      return 1;
    }
    std::fputs(json, jf);
    std::fclose(jf);
  }
  return 0;
}
