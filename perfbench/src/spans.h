// In-memory span tracer for the benchmark's traced run.
//
// Spans are opened and closed around calls into the placement library's
// public functions, from the benchmark's own files only (the library has no
// spans of its own). Each closed span adds its wall time to its name's
// totals and to its parent's child time, so a layer's self time is its
// span time minus the part its children cover. Spans opened with `cpu`
// also read the calling thread's CPU clock, which splits their wall time
// into on-CPU and off-CPU (blocked or descheduled) time.
//
// Every span is aggregated; the first `max_recorded` are also kept whole
// (name, start, end, parent) and written out as JSON at the end of a run.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace perfbench {

std::int64_t wall_ns();         // steady clock
std::int64_t thread_cpu_ns();   // CPU time of the calling thread
std::int64_t process_cpu_ns();  // CPU time of the whole process

// Span time not covered by child spans; never negative.
std::int64_t self_time_ns(std::int64_t span_ns, std::int64_t children_ns);
// Wall time not spent on a CPU; never negative (the two clocks tick at
// different granularities, so cpu may read slightly above wall).
std::int64_t off_cpu_ns(std::int64_t wall, std::int64_t cpu);

// Nearest-rank quantile q of ascending `sorted` (0 when empty).
std::int64_t quantile(const std::vector<std::int64_t>& sorted, double q);
// Samples strictly above the nearest-rank q quantile's rank.
std::size_t samples_beyond(std::size_t n, double q);
// The highest of p50, p90, p99, p99.9 and p99.99 with at least ten of `n`
// samples beyond it; 0 when even p50 has fewer.
double tail_quantile(std::size_t n);

enum class SpanName : std::uint8_t {
  kSetup,        // one whole set-up
  kTrainWeek,    // trace: training-week generation
  kTrain,        // ml: MethodFactory construction + warm
  kSummary,      // trace: summarize_generated pre-pass
  kCellBuild,    // harness: make_streaming_cell
  kReplay,       // sim: one whole sim::simulate call
  kNext,         // trace: inner JobStream::next
  kDecide,       // policy: PlacementPolicy::decide
  kPredict,      // core: ModelBackend::predict_batch of a serving batch
  kOnPlaced,     // policy: PlacementPolicy::on_placed
  kEnqueue,      // serving: HintService::enqueue
  kExtract,      // features: make_feature_matrix over a replayed window
  kCount,
};
const char* span_name(SpanName name);

struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t wall_ns = 0;
  std::int64_t child_ns = 0;
  std::int64_t cpu_ns = 0;  // only spans opened with cpu = true
  std::int64_t self_ns() const { return self_time_ns(wall_ns, child_ns); }
  std::int64_t offcpu_ns() const { return off_cpu_ns(wall_ns, cpu_ns); }
};

struct Span {
  SpanName name = SpanName::kCount;
  std::int32_t parent = -1;  // index into spans(); -1 = root or not kept
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t max_recorded = 1u << 16);

  void begin(SpanName name, bool cpu = false) {
    begin_at(name, wall_ns(), cpu ? thread_cpu_ns() : -1);
  }
  void end() {
    const bool cpu = !stack_.empty() && stack_.back().cpu_start >= 0;
    end_at(wall_ns(), cpu ? thread_cpu_ns() : -1);
  }
  // Explicit-timestamp forms (cpu < 0: no CPU reading). Tests drive these.
  void begin_at(SpanName name, std::int64_t t, std::int64_t cpu);
  void end_at(std::int64_t t, std::int64_t cpu);

  // Keep every closed duration of `name` for percentiles.
  void keep_samples(SpanName name, std::size_t reserve);

  const SpanTotals& totals(SpanName name) const {
    return totals_[static_cast<std::size_t>(name)];
  }
  const std::vector<std::int64_t>& samples(SpanName name) const {
    return samples_[static_cast<std::size_t>(name)];
  }
  const std::vector<Span>& spans() const { return spans_; }
  std::size_t open_spans() const { return stack_.size(); }

  // {"totals": {...per name...}, "spans": [...], "spans_not_kept": n}
  void write_json(std::FILE* out) const;

 private:
  struct Open {
    SpanName name;
    std::int32_t index;  // into spans_, -1 when not kept
    std::int64_t start;
    std::int64_t cpu_start;
    std::int64_t child_ns;
  };
  static constexpr std::size_t kNames = static_cast<std::size_t>(SpanName::kCount);

  std::size_t max_recorded_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::uint64_t spans_not_kept_ = 0;
  std::array<SpanTotals, kNames> totals_{};
  std::array<bool, kNames> keep_{};
  std::array<std::vector<std::int64_t>, kNames> samples_;
};

// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, SpanName name, bool cpu = false) : tracer_(tracer) {
    tracer_.begin(name, cpu);
  }
  ~Scope() { tracer_.end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
};

}  // namespace perfbench
