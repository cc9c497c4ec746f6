#include "spans.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

std::int64_t read_clock(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

}  // namespace

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() { return read_clock(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t process_cpu_ns() { return read_clock(CLOCK_PROCESS_CPUTIME_ID); }

std::int64_t self_time_ns(std::int64_t span_ns, std::int64_t children_ns) {
  return std::max<std::int64_t>(0, span_ns - children_ns);
}

std::int64_t off_cpu_ns(std::int64_t wall, std::int64_t cpu) {
  return std::max<std::int64_t>(0, wall - cpu);
}

namespace {

// 1-based nearest rank of quantile q over n samples.
std::size_t nearest_rank(std::size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, std::max<std::size_t>(n, 1));
}

}  // namespace

std::int64_t quantile(const std::vector<std::int64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  return sorted[nearest_rank(sorted.size(), q) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

double tail_quantile(std::size_t n) {
  double best = 0.0;
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (samples_beyond(n, q) >= 10) best = q;
  }
  return best;
}

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kSetup: return "setup";
    case SpanName::kTrainWeek: return "trace.train_week";
    case SpanName::kTrain: return "ml.train";
    case SpanName::kSummary: return "trace.summary";
    case SpanName::kCellBuild: return "harness.cell_build";
    case SpanName::kReplay: return "sim.replay";
    case SpanName::kNext: return "trace.next";
    case SpanName::kDecide: return "policy.decide";
    case SpanName::kPredict: return "core.predict";
    case SpanName::kOnPlaced: return "policy.on_placed";
    case SpanName::kEnqueue: return "serving.enqueue";
    case SpanName::kExtract: return "features.extract";
    case SpanName::kCount: break;
  }
  return "?";
}

Tracer::Tracer(std::size_t max_recorded) : max_recorded_(max_recorded) {
  stack_.reserve(16);
  spans_.reserve(std::min<std::size_t>(max_recorded_, 1u << 16));
}

void Tracer::begin_at(SpanName name, std::int64_t t, std::int64_t cpu) {
  std::int32_t index = -1;
  if (spans_.size() < max_recorded_) {
    index = static_cast<std::int32_t>(spans_.size());
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back().index;
    spans_.push_back(Span{name, parent, t, t});
  } else {
    ++spans_not_kept_;
  }
  stack_.push_back(Open{name, index, t, cpu, 0});
}

void Tracer::end_at(std::int64_t t, std::int64_t cpu) {
  if (stack_.empty()) throw std::logic_error("Tracer::end without begin");
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t wall = t - open.start;
  SpanTotals& totals = totals_[static_cast<std::size_t>(open.name)];
  ++totals.count;
  totals.wall_ns += wall;
  totals.child_ns += open.child_ns;
  if (open.cpu_start >= 0 && cpu >= 0) totals.cpu_ns += cpu - open.cpu_start;
  if (!stack_.empty()) stack_.back().child_ns += wall;
  if (open.index >= 0) spans_[static_cast<std::size_t>(open.index)].end_ns = t;
  if (keep_[static_cast<std::size_t>(open.name)]) {
    samples_[static_cast<std::size_t>(open.name)].push_back(wall);
  }
}

void Tracer::keep_samples(SpanName name, std::size_t reserve) {
  keep_[static_cast<std::size_t>(name)] = true;
  samples_[static_cast<std::size_t>(name)].reserve(reserve);
}

void Tracer::write_json(std::FILE* out) const {
  std::fprintf(out, "{\"totals\": {");
  bool first = true;
  for (std::size_t i = 0; i < kNames; ++i) {
    const SpanTotals& t = totals_[i];
    if (t.count == 0) continue;
    std::fprintf(out,
                 "%s\n  \"%s\": {\"count\": %llu, \"wall_ns\": %lld, "
                 "\"self_ns\": %lld, \"cpu_ns\": %lld}",
                 first ? "" : ",", span_name(static_cast<SpanName>(i)),
                 static_cast<unsigned long long>(t.count),
                 static_cast<long long>(t.wall_ns),
                 static_cast<long long>(t.self_ns()),
                 static_cast<long long>(t.cpu_ns));
    first = false;
  }
  std::fprintf(out, "},\n\"spans_not_kept\": %llu,\n\"spans\": [",
               static_cast<unsigned long long>(spans_not_kept_));
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%s\n  [\"%s\", %lld, %lld, %d]", i == 0 ? "" : ",",
                 span_name(s.name), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent);
  }
  std::fprintf(out, "\n]}\n");
}

}  // namespace perfbench
