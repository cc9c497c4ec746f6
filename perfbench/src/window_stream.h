// A time window of a job stream, with its prefix pulled up front.
#pragma once

#include <cstdint>

#include "trace/job_stream.h"

namespace perfbench {

// Forwards the jobs of `inner` whose arrival lies in [from, to), then ends
// without pulling further. Jobs before `from` are pulled and dropped by the
// constructor, so whoever consumes the window pays only for its own jobs.
class WindowStream final : public byom::trace::JobStream {
 public:
  WindowStream(byom::trace::JobStream& inner, double from, double to)
      : inner_(&inner), to_(to) {
    while (const byom::trace::Job* job = inner_->next()) {
      if (job->arrival_time >= from) {
        first_ = job;  // valid until the next inner_->next()
        break;
      }
    }
    done_ = first_ == nullptr;
  }

  const byom::trace::Job* next() override {
    if (done_) return nullptr;
    const byom::trace::Job* job = first_ != nullptr ? first_ : inner_->next();
    first_ = nullptr;
    if (job == nullptr || job->arrival_time >= to_) {
      done_ = true;
      return nullptr;
    }
    return job;
  }
  std::size_t size_hint() const override { return inner_->size_hint(); }
  std::uint32_t cluster_id() const override { return inner_->cluster_id(); }

 private:
  byom::trace::JobStream* inner_;
  double to_;
  const byom::trace::Job* first_ = nullptr;
  bool done_ = false;
};

}  // namespace perfbench
